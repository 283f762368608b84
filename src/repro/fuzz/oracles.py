"""What counts as a bug: record-level, backend-differential, and engine-differential oracles.

Three independent notions of "wrong", strongest first:

* :func:`check_record` -- the per-run oracle.  Invariant violations on
  fault-free runs are always bugs, as are crashes and guaranteed algorithms
  not dispersing.  Under *injected* faults the oracle mirrors the sweep
  policy: crashes, non-dispersal, and the settlement-safety violations the
  fault model legitimately causes (a blocked settler answers no probes; churn
  rewires a helper-settler's path home) are findings-as-data -- but the
  structural invariants (port bijection, monotone settled count, settled
  consistency) must hold under every profile, full stop.
* :func:`backend_differential` -- byte-compares the reference and vectorized
  kernels on one scenario.  The two records must be identical except for the
  scenario's ``backend`` tag; any other byte is a kernel bug in one of them.
* :func:`engine_differential` -- the metamorphic sync-vs-async relation: under
  the round-robin schedule the ASYNC variant of each paper algorithm must
  settle exactly the nodes its SYNC twin settles.  Oracle-free: neither engine
  is trusted, they must merely agree.

Each oracle returns a :class:`Verdict`; ``kind`` names the failure class and
doubles as the shrinker's reproduction predicate (a shrink candidate counts as
"still failing" only when the *same kind* of failure reproduces).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.runner.execute import RunRecord, run_scenario
from repro.runner.registry import get_algorithm
from repro.runner.scenario import (
    ScenarioSpec,
    build_graph,
    build_instrumentation,
    build_placements,
    build_scheduler,
    derive_seed,
)
from repro.sim.faults import FaultSpec
from repro.sim.instrumentation import instrument

__all__ = [
    "Verdict",
    "check_record",
    "backend_differential",
    "engine_differential",
    "differential_pair",
    "settled_set",
]

#: SYNC <-> ASYNC metamorphic pairs (each paper algorithm and its twin).
ENGINE_PAIRS: Dict[str, str] = {
    "rooted_sync": "rooted_async",
    "rooted_async": "rooted_sync",
    "general_sync": "general_async",
    "general_async": "general_sync",
}


@dataclass(frozen=True)
class Verdict:
    """One oracle's judgement of one run (or run pair)."""

    ok: bool
    #: "ok" | "skip" | "error" | "invariant" | "not_dispersed"
    #: | "backend_divergence" | "engine_divergence"
    kind: str = "ok"
    detail: str = ""

    @property
    def is_skip(self) -> bool:
        return self.ok and self.kind == "skip"


def _faults_active(scenario: Dict[str, Any]) -> bool:
    return FaultSpec.from_dict(scenario.get("faults", {})).is_active


#: Invariants no fault profile can excuse: faults block agents and rewire
#: edges, but they never sanction a settled agent teleporting, the settled
#: count shrinking, or the port maps losing bijectivity.
STRUCTURAL_INVARIANTS = frozenset(
    {"settled_consistency", "monotone_settled", "port_bijection"}
)


def _inexcusable_violations(record: RunRecord) -> List[str]:
    """Violation descriptions a fault profile cannot explain away.

    Settlement safety (``unique_settlement``, ``final_dispersion``) *can*
    legitimately break under faults: a blocked settler answers no probes (the
    crash-stop convention), so an arriving agent settles on its node; and
    churn rewires edges under algorithms that conscript settlers as helpers
    (``sudo_disc24``'s doubling probe), stranding them off their home on the
    walk back.  The sweep policy counts those as findings-as-data, and so does
    this oracle.  The structural invariants have no such story: nothing a
    fault may do unsettles an agent, desyncs its persisted settled bit, or
    breaks the port bijection -- those are bugs under every profile.

    The record only carries a violation *count*, so classification re-runs
    the scenario with a live checker; runs are deterministic, so the replay
    exhibits exactly the recorded violations.
    """
    spec = ScenarioSpec.from_dict(record.scenario)
    config = build_instrumentation(spec)
    alg = get_algorithm(record.algorithm)
    graph = build_graph(spec)
    placements = build_placements(spec, graph)
    adversary = build_scheduler(spec) if alg.setting == "async" else None
    try:
        with instrument(config):
            alg.run(graph, placements, adversary=adversary, seed=derive_seed(spec, "algorithm"))
    except Exception:  # noqa: BLE001 - the record already captured the crash
        pass
    return [
        f"[t={violation.time}] {violation.name}: {violation.detail}"
        for checker in config.checkers
        for violation in checker.violations
        if violation.name in STRUCTURAL_INVARIANTS
    ]


def check_record(record: RunRecord) -> Verdict:
    """The per-run oracle (see module docstring for the failure policy)."""
    if record.status == "unsupported":
        return Verdict(ok=True, kind="skip", detail=record.error or "unsupported")
    if record.invariant_violations:
        if not _faults_active(record.scenario):
            return Verdict(
                ok=False,
                kind="invariant",
                detail=f"{record.invariant_violations} invariant violation(s)",
            )
        inexcusable = _inexcusable_violations(record)
        if inexcusable:
            return Verdict(
                ok=False,
                kind="invariant",
                detail="; ".join(inexcusable[:3]),
            )
        return Verdict(ok=True)  # settlement safety broken by modeled faults: data
    if _faults_active(record.scenario):
        return Verdict(ok=True)  # crashes/non-dispersal under faults are data
    if record.status == "error":
        return Verdict(ok=False, kind="error", detail=record.error or "crashed")
    spec = get_algorithm(record.algorithm)
    if spec.guaranteed and record.dispersed is False:
        return Verdict(
            ok=False,
            kind="not_dispersed",
            detail=f"{record.algorithm} guarantees dispersion but did not disperse",
        )
    return Verdict(ok=True)


def _record_key_without_backend(record: RunRecord) -> str:
    """Canonical record JSON with the scenario's backend tag erased.

    The backend is the only byte allowed to differ between the two runs of the
    differential: it names *how* the record was computed, not what.
    """
    data = record.to_dict()
    data["scenario"] = dict(data["scenario"])
    data["scenario"].pop("backend", None)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def backend_differential(
    algorithm: str,
    spec: ScenarioSpec,
    reference_record: Optional[RunRecord] = None,
    vectorized_record: Optional[RunRecord] = None,
) -> Verdict:
    """Reference vs vectorized kernel on one scenario; byte-equal or bug.

    Callers that already hold one side's record (e.g. the campaign, which
    store-caches both) pass it in to avoid re-execution.
    """
    if reference_record is None:
        reference_record = run_scenario(algorithm, spec.with_backend("reference"))
    if vectorized_record is None:
        vectorized_record = run_scenario(algorithm, spec.with_backend("vectorized"))
    if reference_record.status == "unsupported":
        return Verdict(ok=True, kind="skip", detail="unsupported pairing")
    left = _record_key_without_backend(reference_record)
    right = _record_key_without_backend(vectorized_record)
    if left == right:
        return Verdict(ok=True)
    fields = sorted(
        name
        for name, value in reference_record.to_dict().items()
        if name != "scenario" and vectorized_record.to_dict().get(name) != value
    )
    return Verdict(
        ok=False,
        kind="backend_divergence",
        detail=f"reference and vectorized records differ in: {', '.join(fields) or 'scenario'}",
    )


def settled_set(algorithm: str, spec: ScenarioSpec) -> Any:
    """Sorted settled positions of one run (the metamorphic observable).

    Runs the algorithm driver directly (not through the store) under the
    spec's instrumentation-free world: the relation is about fault-free
    schedules, and direct execution keeps it independent of the record layer.
    """
    alg = get_algorithm(algorithm)
    graph = build_graph(spec)
    placements = build_placements(spec, graph)
    adversary = build_scheduler(spec) if alg.setting == "async" else None
    with instrument(None):
        result = alg.run(
            graph, placements, adversary=adversary, seed=derive_seed(spec, "algorithm")
        )
    if not result.dispersed:
        raise AssertionError(f"{algorithm} failed to disperse on {spec.label()}")
    return sorted(result.positions.values())


def differential_pair(algorithm: str, spec: ScenarioSpec) -> Optional[str]:
    """The metamorphic twin to compare against, or ``None`` when out of scope.

    The relation holds for fault-free runs under the round-robin schedule (the
    "most synchronous" fair order); anything else is outside its hypothesis.
    """
    twin = ENGINE_PAIRS.get(algorithm)
    if twin is None:
        return None
    if FaultSpec.from_dict(spec.faults).is_active:
        return None
    if spec.scheduler != "async" or spec.adversary != "round_robin":
        return None
    return twin


def engine_differential(algorithm: str, spec: ScenarioSpec) -> Verdict:
    """SYNC vs ASYNC settled-set comparison (skip when out of scope)."""
    twin = differential_pair(algorithm, spec)
    if twin is None:
        return Verdict(ok=True, kind="skip", detail="no metamorphic twin in scope")
    base = spec.with_faults({}, check_invariants=False)
    try:
        mine = settled_set(algorithm, base)
        theirs = settled_set(twin, base)
    except Exception as exc:  # noqa: BLE001 - divergence report, not a crash
        return Verdict(ok=False, kind="engine_divergence", detail=str(exc))
    if mine == theirs:
        return Verdict(ok=True)
    return Verdict(
        ok=False,
        kind="engine_divergence",
        detail=(
            f"{algorithm} settled {len(mine)} node(s) {mine[:8]}... but "
            f"{twin} settled {len(theirs)} node(s) {theirs[:8]}..."
        ),
    )
