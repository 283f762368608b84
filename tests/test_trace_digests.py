"""Trace and record bytes pinned across commits.

The rest of the trace suite compares a run with itself (across repeats,
backends and worker counts) and replays final states, so a recorder that
dropped an intermediate event, or an engine that reordered two, would still
pass there.  ``tests/fixtures/trace_digests_pre.json`` pins, for every
algorithm on two small worlds under three fault profiles and on both
backends, the ``trace_digest`` of the traced run and the SHA-256 of the
untraced run's canonical record.  Untraced runs take the engines' hook-free
paths, traced runs the recorder's, so the two digests cover both.

Runs that end with ``status="error"`` (faulty runs that exhaust a step cap)
are pinned too: their records and partial traces are data.

Regenerate (only on an intended, ``code_version``-bumping change)::

    PYTHONPATH=src python tests/test_trace_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Tuple

import pytest

from repro.runner.artifacts import canonical_record_json
from repro.runner.execute import run_scenario
from repro.runner.registry import algorithm_names
from repro.runner.scenario import ScenarioSpec
from repro.sim.faults import parse_faults
from repro.sim.trace import trace_digest

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "trace_digests_pre.json")

WORLDS = {
    "tree24": ScenarioSpec(family="random_tree", params={"n": 24}, k=12),
    "grid5x5": ScenarioSpec(
        family="grid2d", params={"rows": 5, "cols": 5}, k=10, adversary="random"
    ),
}
PROFILES = ("none", "freeze:0.2:20", "churn:0.05")
BACKENDS = ("reference", "vectorized")


def cases() -> List[Tuple[str, str, str, str]]:
    """(algorithm, world, profile, backend) for every pinned run."""
    return [
        (algorithm, world, profile, backend)
        for algorithm in algorithm_names()
        for world in WORLDS
        for profile in PROFILES
        for backend in BACKENDS
    ]


def case_key(algorithm: str, world: str, profile: str, backend: str) -> str:
    return f"{algorithm}|{world}|{profile}|{backend}"


def digests(algorithm: str, world: str, profile: str, backend: str) -> Dict[str, str]:
    """The pinned digests and status of one case, computed by this checkout."""
    spec = WORLDS[world].with_faults(parse_faults(profile)).with_backend(backend)
    plain = run_scenario(algorithm, spec)
    traced = run_scenario(algorithm, spec.with_trace())
    record_bytes = canonical_record_json(plain).encode("utf-8")
    return {
        "status": plain.status,
        "record": hashlib.sha256(record_bytes).hexdigest(),
        "trace": trace_digest(traced.trace),
    }


def _load() -> Dict[str, Dict[str, str]]:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_covers_every_case():
    assert sorted(_load()) == sorted(case_key(*case) for case in cases())


@pytest.mark.parametrize("algorithm", algorithm_names())
def test_trace_and_record_bytes_match_the_pinned_digests(algorithm):
    pinned = _load()
    mismatched = [
        key
        for key in (case_key(*case) for case in cases() if case[0] == algorithm)
        if digests(*key.split("|")) != pinned[key]
    ]
    assert mismatched == []


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    table = {case_key(*case): digests(*case) for case in cases()}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    statuses: Dict[str, int] = {}
    for row in table.values():
        statuses[row["status"]] = statuses.get(row["status"], 0) + 1
    print(f"wrote {len(table)} cases to {FIXTURE}: {statuses}")
