"""Trace-recording overhead: enabled tracing is bounded.

With tracing disabled the recorder hooks compile down to one ``is None``
check per round; the per-round ``step`` loop is held within 10% of the
distilled seed loops by ``benchmarks/test_engine_fastpath.py``.  Enabled
tracing diffs the full agent state on every tick after which something
moved, settled or unsettled (and on every tick under a fault injector), so
it is *not* free: the committed trajectory data in
``benchmarks/BENCH_trace.json`` (a ``repro-bench-v1`` JSON report) records
the measured overhead ratios, and this module re-measures them with a
generous portable ceiling.  That re-measurement is a wall-clock assertion,
so it carries the ``perf`` marker (CI's perf job runs it).

Regenerate the committed trajectory with::

    PYTHONPATH=src:. python benchmarks/test_trace_overhead.py
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List

import pytest

from repro.runner.execute import run_scenario
from repro.runner.scenario import ScenarioSpec
from repro.sim.trace import trace_stats

#: The committed trajectory's schema tag and path.
BENCH_FORMAT = "repro-bench-v1"
BENCH_TRACE = "benchmarks/BENCH_trace.json"

#: Portable ceiling for the traced/untraced wall-time ratio.  The committed
#: trajectory measures ~1.2-2.2x; 8x still catches a recorder accidentally
#: landing on the per-op hot path (that measures 50x+).
MAX_OVERHEAD = 8.0

#: Median-of-N estimator keeps a background blip from deciding a ratio.
REPEATS = 3

#: The measured worlds: one per engine family plus the random-walk baseline,
#: all big enough that per-run fixed costs do not dominate.
SCENARIOS = [
    ("rooted_sync", ScenarioSpec(family="complete", params={"n": 48}, k=32)),
    (
        "rooted_async",
        ScenarioSpec(family="erdos_renyi", params={"n": 40, "p": 0.25}, k=24, seed=1),
    ),
    (
        "random_walk",
        ScenarioSpec(family="erdos_renyi", params={"n": 64, "p": 0.2}, k=32, seed=1),
    ),
]


def _median_seconds(algorithm: str, spec: ScenarioSpec) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        record = run_scenario(algorithm, spec)
        samples.append(time.perf_counter() - start)
        assert record.status == "ok", record.error
    return sorted(samples)[len(samples) // 2]


def run_trace_bench(seed: int = 0) -> Dict[str, Any]:
    """Measure the traced/untraced wall-time ratio per scenario.

    Returns a ``repro-bench-v1`` payload whose single ``trace`` tier lists
    one untraced and one traced leg per workload, with the per-workload
    traced/untraced ratios (lower is better) under ``overheads``.
    """
    results: List[Dict[str, Any]] = []
    overheads: Dict[str, float] = {}
    for algorithm, spec in SCENARIOS:
        plain = _median_seconds(algorithm, spec)
        traced_spec = spec.with_trace()
        traced = _median_seconds(algorithm, traced_spec)
        stats = trace_stats(run_scenario(algorithm, traced_spec).trace)
        for mode, seconds in (("untraced", plain), ("traced", traced)):
            results.append(
                {
                    "workload": algorithm,
                    "backend": mode,
                    "nodes": spec.params["n"],
                    "agents": spec.k,
                    "rounds": stats["events"] if mode == "traced" else 0,
                    "seconds": round(seconds, 6),
                }
            )
        overheads[algorithm] = round(traced / plain, 3) if plain > 0 else 1.0
    return {
        "format": BENCH_FORMAT,
        "quick": True,
        "seed": seed,
        "tiers": {
            "trace": {
                "nodes": max(spec.params["n"] for _, spec in SCENARIOS),
                "agents": max(spec.k for _, spec in SCENARIOS),
                "results": results,
                "overheads": overheads,
            }
        },
    }


@pytest.mark.perf
def test_traced_runs_stay_under_the_overhead_ceiling():
    payload = run_trace_bench()
    for workload, ratio in payload["tiers"]["trace"]["overheads"].items():
        assert ratio <= MAX_OVERHEAD, (
            f"{workload}: traced/untraced ratio {ratio:.2f}x exceeds the "
            f"{MAX_OVERHEAD:.0f}x ceiling -- recording leaked onto the hot path?"
        )


def test_committed_trace_trajectory_is_well_formed():
    """The committed trajectory stays loadable and covers every workload."""
    with open(BENCH_TRACE, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["format"] == BENCH_FORMAT
    tier = payload["tiers"]["trace"]
    measured = {entry["workload"] for entry in tier["results"]}
    assert measured == {name for name, _ in SCENARIOS}
    for entry in tier["results"]:
        assert entry["backend"] in ("untraced", "traced")
        assert entry["seconds"] > 0
    for workload, ratio in tier["overheads"].items():
        assert workload in measured
        assert 0 < ratio <= MAX_OVERHEAD


if __name__ == "__main__":
    with open(BENCH_TRACE, "w", encoding="utf-8") as fh:
        json.dump(run_trace_bench(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote trace overhead trajectory to {BENCH_TRACE}")
