"""Kernel-backend throughput: the settled index on a 10^5-node world.

This is the acceptance lock for the vectorized backend's settled index: on
the canonical bench world (a ~10^5-node 2D grid with one settled agent per
node, ``repro bench``'s full-size configuration) the vectorized
``run_probe_round`` must sustain at least **10x** the reference backend's
settled-presence queries per second.  The committed baseline lives at
``benchmarks/BENCH_kernel.json``; CI re-gates the ratio with
``repro bench --quick --check`` (bench-guard), and this module regenerates
the model-level report locally.  The incremental churn ``rewire`` lock rides
along.

The measurement reuses :mod:`repro.runner.bench` wholesale -- the CLI, the
guard, and this lock must never measure different things.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.graph.port_graph import PortLabeledGraph
from repro.runner.bench import (
    QUICK_NODES,
    WORKLOADS,
    bench_scenario,
    check_report,
    render,
    run_bench,
)
from repro.runner.scenario import build_graph
from repro.sim.backends import backend_available

from benchmarks.conftest import report

pytestmark = pytest.mark.skipif(
    not backend_available("vectorized"), reason="numpy not installed"
)

#: The acceptance bar (full-size world).  The committed baseline measures
#: ~90x; 10x leaves headroom for slower CI boxes while still catching an
#: index regression of any real size.
MIN_SPEEDUP = 10.0
FULL_NODES = 100_000

#: The quick tier reuses CI's bench-guard configuration: smaller world,
#: shorter budget, and a lower bar (per-call overheads weigh more).
QUICK_MIN_SPEEDUP = 8.0


@pytest.fixture(scope="module")
def full_report():
    return run_bench(["reference", "vectorized"], nodes=FULL_NODES)


def test_vectorized_probe_phase_hits_10x_on_1e5_nodes(full_report, record_rows):
    """The probe phases' settled-presence queries (run_probe_round)."""
    payload = full_report
    tier = payload["tiers"]["full"]
    report(
        f"Kernel backend throughput ({tier['nodes']} nodes, {tier['agents']} agents)",
        render(payload).splitlines(),
    )
    speedup = tier["speedups"]["probe"]["vectorized"]
    record_rows.append(
        ("backend-throughput", f"probe vectorized speedup = {speedup:.1f}x")
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized probe speedup {speedup:.1f}x fell below the "
        f"{MIN_SPEEDUP:.0f}x acceptance bar"
    )


def test_incremental_rewire_beats_rebuild_on_churn_heavy_world(record_rows):
    """Churn micro-benchmark: remove+re-add churn on the quick-tier grid must
    run far faster through the incremental ``rewire`` (patch only renumbered
    rows) than through the full-rebuild oracle it replaced -- the win that
    keeps churn-heavy fault profiles usable at 10^5+ nodes."""
    graph = build_graph(bench_scenario(QUICK_NODES, 1))
    oracle = PortLabeledGraph([graph.neighbors(v) for v in graph.nodes()])
    rng = random.Random(7)
    edges = list(graph.edges())
    # Remove+re-add the same pair: a full renumber of both endpoint rows (the
    # expensive case) while keeping the graph byte-identical across ops, so
    # both legs face the same work every iteration.
    ops = [edges[rng.randrange(len(edges))] for _ in range(12)]

    def leg(g, method) -> float:
        start = time.perf_counter()
        for edge in ops:
            method(remove=edge, add=edge)
        return time.perf_counter() - start

    incremental_s = leg(graph, graph.rewire)
    rebuild_s = leg(oracle, oracle._rewire_via_rebuild)
    assert graph.churn_count == oracle.churn_count == len(ops)
    ratio = rebuild_s / incremental_s
    record_rows.append(
        ("backend-throughput", f"incremental rewire speedup = {ratio:.1f}x")
    )
    assert ratio >= 25.0, (
        f"incremental rewire only {ratio:.1f}x faster than the rebuild oracle "
        f"({incremental_s:.4f}s vs {rebuild_s:.4f}s over {len(ops)} churn ops)"
    )


def test_full_report_matches_committed_baseline_schema(full_report, tmp_path):
    """The report this module measures gates cleanly against the committed
    baseline with CI's tolerance -- the same check bench-guard runs."""
    problems = check_report(full_report, "benchmarks/BENCH_kernel.json", tolerance=0.25)
    assert problems == [], "\n".join(problems)


def test_quick_bench_sustains_the_guard_floor():
    """CI's bench-guard leg (quick tier) keeps a usable signal."""
    payload = run_bench(["reference", "vectorized"], quick=True)
    assert payload["quick"] is True
    assert list(payload["tiers"]) == ["quick"]
    tier = payload["tiers"]["quick"]
    assert set(WORKLOADS) == {r["workload"] for r in tier["results"]}
    speedup = tier["speedups"]["probe"]["vectorized"]
    assert speedup >= QUICK_MIN_SPEEDUP
