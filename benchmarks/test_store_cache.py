"""Experiment-store guarantees at benchmark scale.

Two contracts back the store's acceptance criteria on a grid large enough to
be representative (every paper algorithm, several families and sizes):

1. **Soundness at scale** -- a warm sweep plans zero pending jobs and its
   records serialize to bytes identical to the cold run's artifact.
2. **Incrementality pays** -- serving the grid from the store is decisively
   faster than recomputing it (that wall-clock gap is the entire reason the
   store exists, so it is asserted, not just reported).  This is a
   wall-clock assertion, so it carries the ``perf`` marker (CI's perf job).
"""

from __future__ import annotations

import time

import pytest

from repro.runner import artifacts as artifacts_mod
from repro.runner.sweep import SweepSpec
from repro.store import RunStore, execute_plan, plan_sweep

from benchmarks.conftest import report


def store_grid() -> SweepSpec:
    return SweepSpec.from_grid(
        name="store-bench",
        algorithms=["rooted_sync", "rooted_async", "naive_dfs", "sudo_disc24"],
        graphs=[
            {"family": "complete", "params": {"n": 48}},
            {"family": "ring", "params": {"n": 64}},
            {"family": "erdos_renyi", "params": {"n": 48, "p": 0.15}},
        ],
        ks=[16, 32],
        seeds=[0, 1],
    )


def _cold_then_warm(tmp_path):
    """Run the grid cold into a fresh store, then warm from it; checks the
    warm pass is sound (all hits, byte-identical artifact) and returns the
    warm plan and both passes' wall seconds."""
    sweep = store_grid()
    with RunStore(str(tmp_path / "bench.sqlite")) as store:
        start = time.perf_counter()
        cold_plan = plan_sweep(sweep, store)
        assert cold_plan.hits == 0
        cold_records = execute_plan(cold_plan, store=store)
        cold_time = time.perf_counter() - start

        start = time.perf_counter()
        warm_plan = plan_sweep(sweep, store)
        warm_records = execute_plan(warm_plan, store=store)
        warm_time = time.perf_counter() - start

    assert warm_plan.hits == warm_plan.total and warm_plan.pending == []
    cold_path = artifacts_mod.write_json(cold_records, str(tmp_path / "cold.json"), sweep=sweep)
    warm_path = artifacts_mod.write_json(warm_records, str(tmp_path / "warm.json"), sweep=sweep)
    with open(cold_path, "rb") as a, open(warm_path, "rb") as b:
        assert a.read() == b.read()
    return warm_plan, cold_time, warm_time


def test_warm_sweep_reproduces_the_cold_artifact(tmp_path):
    _cold_then_warm(tmp_path)


@pytest.mark.perf
def test_warm_sweep_is_sound_and_decisively_faster(tmp_path, record_rows):
    warm_plan, cold_time, warm_time = _cold_then_warm(tmp_path)
    speedup = cold_time / max(warm_time, 1e-9)
    assert warm_time < cold_time / 2, (
        f"warm sweep ({warm_time:.3f}s) should be far cheaper than cold ({cold_time:.3f}s)"
    )
    report("experiment store: cold vs warm sweep", [
        f"jobs                 {warm_plan.total}",
        f"cold (execute all)   {cold_time * 1000:8.1f} ms",
        f"warm (all cached)    {warm_time * 1000:8.1f} ms",
        f"speedup              {speedup:8.1f}x",
    ])
    record_rows.append((
        "store/cache",
        f"{warm_plan.total} jobs, warm {warm_time * 1000:.1f} ms, {speedup:.1f}x over cold",
    ))


def test_partial_store_executes_only_the_missing_half(tmp_path, record_rows):
    sweep = store_grid()
    half = SweepSpec(
        name=sweep.name,
        algorithms=sweep.algorithms,
        scenarios=sweep.scenarios[: len(sweep.scenarios) // 2],
    )
    with RunStore(str(tmp_path / "half.sqlite")) as store:
        execute_plan(plan_sweep(half, store), store=store)
        plan = plan_sweep(sweep, store)
        expected_pending = plan.total - len(half.jobs())
        assert plan.hits == len(half.jobs())
        assert len(plan.pending) == expected_pending
        records = execute_plan(plan, store=store)
    assert len(records) == plan.total
    record_rows.append((
        "store/resume",
        f"{plan.hits} cached + {expected_pending} executed = {plan.total} records",
    ))
