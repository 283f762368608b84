"""Fault-model & invariant harness guarantees (runner-level).

Three contracts back the fault subsystem's acceptance criteria:

1. **Fault-free cleanliness** -- every paper algorithm, continuously checked,
   produces zero invariant violations across a topology zoo (the checker is a
   falsification harness, so it must not cry wolf on correct executions).
2. **Byte determinism under faults** -- a sweep crossed with fault profiles
   yields identical records (including fault-event and violation counts)
   regardless of worker count or repetition.
3. **Falsification power** -- outside its model the harness actually finds
   something: with aggressive crash faults at least one paper-algorithm run
   fails to disperse, and the failure is captured as data, not as a crash of
   the harness itself.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.runner import ScenarioSpec, run_scenario, run_sweep
from repro.runner.registry import core_algorithm_names
from repro.runner.sweep import SweepSpec
from repro.sim.faults import FaultInjector, FaultSpec

from benchmarks.conftest import report
from tests.fault_reference import RescanFaultInjector


ZOO = [
    ScenarioSpec(family="line", params={"n": 18}, k=12, check_invariants=True),
    ScenarioSpec(family="ring", params={"n": 16}, k=10, check_invariants=True),
    ScenarioSpec(family="random_tree", params={"n": 22}, k=13, seed=3, check_invariants=True),
    ScenarioSpec(family="erdos_renyi", params={"n": 20, "p": 0.22}, k=12, seed=5,
                 check_invariants=True),
    ScenarioSpec(family="grid2d", params={"rows": 4, "cols": 5}, k=12, check_invariants=True),
    ScenarioSpec(family="erdos_renyi", params={"n": 20, "p": 0.25}, k=12, placement="split",
                 placement_parts=2, seed=7, check_invariants=True),
]


@pytest.mark.parametrize("algorithm", core_algorithm_names())
def test_paper_algorithms_zero_violations_across_zoo(algorithm, record_rows):
    rows = []
    for scenario in ZOO:
        record = run_scenario(algorithm, scenario)
        if record.status == "unsupported":
            continue
        assert record.status == "ok", f"{scenario.label()}: {record.error}"
        assert record.dispersed, scenario.label()
        assert record.invariant_violations == 0, scenario.label()
        assert record.extra["invariant_checks"] > 0
        rows.append(f"{scenario.label():40s} checks={int(record.extra['invariant_checks'])}")
    report(f"invariant checks clean: {algorithm}", rows)
    record_rows.append((f"invariants/{algorithm}", f"{len(rows)} scenarios, 0 violations"))


def _fault_sweep() -> SweepSpec:
    base = SweepSpec.from_grid(
        name="fault-harness",
        algorithms=["rooted_sync", "general_sync", "naive_dfs"],
        graphs=[
            {"family": "line", "params": {"n": 14}},
            {"family": "erdos_renyi", "params": {"n": 16, "p": 0.3}},
        ],
        ks=[8],
        seeds=[0],
    )
    return base.with_profiles(
        [{}, {"freeze": 0.6, "freeze_duration": 30}, {"crash": 0.4}],
        check_invariants=True,
    )


def test_fault_sweep_is_byte_deterministic_across_workers():
    sweep = _fault_sweep()
    serial = [r.to_dict() for r in run_sweep(sweep, workers=1)]
    parallel = [r.to_dict() for r in run_sweep(sweep, workers=3)]
    again = [r.to_dict() for r in run_sweep(sweep, workers=1)]
    as_bytes = lambda records: json.dumps(records, sort_keys=True).encode()
    assert as_bytes(serial) == as_bytes(parallel) == as_bytes(again)
    # Every record carries the falsification counters.
    assert all(r["fault_events"] is not None for r in serial if r["scenario"]["faults"])
    assert all(r["invariant_violations"] is not None for r in serial)
    # Fault-free profile: everything disperses cleanly.
    clean = [r for r in serial if not r["scenario"]["faults"]]
    assert clean and all(r["dispersed"] and r["invariant_violations"] == 0 for r in clean)


#: The cursor-vs-rescan workload: a crowded population (~120 entries to
#: scan) over the activation count of a long ASYNC run (240-tick horizon).
CURSOR_SPEC = FaultSpec(crash=0.5, freeze=0.5, freeze_duration=40, horizon=240)
CURSOR_AGENTS = list(range(1, 121))
CURSOR_TICKS = 60_000


def _cursor_and_rescan_legs():
    """Drive the v2 cursor injector and the v1 rescan oracle over the same
    schedule; returns both and each leg's wall seconds."""
    injector = FaultInjector(CURSOR_SPEC, CURSOR_AGENTS, seed=7)
    baseline = RescanFaultInjector(injector.crash_at, injector.freeze_window)

    start = time.perf_counter()
    for tick in range(CURSOR_TICKS):
        injector.begin_tick(tick, None)  # engine unused: the profile has no churn
    cursor_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for tick in range(CURSOR_TICKS):
        baseline.begin_tick(tick)
    rescan_seconds = time.perf_counter() - start
    return injector, baseline, cursor_seconds, rescan_seconds


def test_event_cursor_injector_announces_what_the_rescan_does():
    """The v2 event cursors announce exactly the v1 rescan's events, so the
    speedup :func:`test_event_cursor_injector_beats_rescan_baseline` times
    is free."""
    injector, baseline, _, _ = _cursor_and_rescan_legs()
    last = CURSOR_TICKS - 1
    assert injector.counts["crash"] == baseline.counts["crash"] > 0
    assert injector.counts["freeze"] == baseline.counts["freeze"] > 0
    assert injector.blocked_cycle_agents(last) == baseline.blocked_at(last)


@pytest.mark.perf
def test_event_cursor_injector_beats_rescan_baseline(record_rows):
    """The v2 event-cursor scheduler must beat the v1 per-tick rescan.

    An ASYNC run makes one ``begin_tick`` per activation -- tens to hundreds
    of thousands of ticks against a ~240-tick fault horizon.  The v1 injector
    rescanned every crash/freeze entry on each of them (O(agents) per tick);
    the v2 cursors advance in O(1) amortized, and must win by a wide margin.
    """
    _, _, cursor_seconds, rescan_seconds = _cursor_and_rescan_legs()
    speedup = rescan_seconds / max(cursor_seconds, 1e-9)
    report(
        "fault injector: event cursors vs per-tick rescan",
        [
            f"agents={len(CURSOR_AGENTS)} ticks={CURSOR_TICKS} horizon={CURSOR_SPEC.horizon}",
            f"rescan  {rescan_seconds * 1e3:9.1f} ms",
            f"cursors {cursor_seconds * 1e3:9.1f} ms",
            f"speedup {speedup:9.1f}x",
        ],
    )
    record_rows.append(("fault-injector/cursors", f"{speedup:.1f}x over rescan"))
    # The measured margin is ~30x; 5x keeps the assertion robust on noisy CI.
    assert speedup > 5.0


def test_crash_faults_falsify_async_epoch_guarantee(record_rows):
    """Outside its fault-free model the O(k log k) ASYNC algorithm must be
    allowed to fail -- and the harness must record that as data."""
    scenario = ScenarioSpec(
        family="erdos_renyi",
        params={"n": 14, "p": 0.3},
        k=9,
        seed=1,
        faults={"crash": 0.9, "horizon": 50},
        check_invariants=True,
    )
    record = run_scenario("rooted_async", scenario)
    assert record.status in ("ok", "error")
    assert not record.dispersed  # k-1 settlers cannot appear once agents crash
    assert record.fault_events and record.fault_events > 0
    report(
        "falsification: rooted_async under crash:0.9",
        [f"status={record.status} fault_events={record.fault_events} "
         f"violations={record.invariant_violations} error={record.error}"],
    )
    record_rows.append(("falsification/rooted_async", f"status={record.status}"))
