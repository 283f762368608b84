"""``repro bench``: settled-query throughput per backend, as a committed report.

The bench answers one question per backend: how many settled-presence queries
per wall-clock second does the probe phase sustain on a large world?  It has
one workload, the primitive the vectorized backend's settled index exists
for:

``probe``
    The probe phase's settled-presence queries: every node of a fully
    settled world is queried once per sweep through
    :meth:`ExecutionKernel.run_probe_round`.  One step = one answered
    query (no rounds advance).

Wall-clock time of the paper's algorithms end to end is the repository
benchmark's job (``perfbench/``); a per-primitive rate here says nothing
about it on its own.

Reports are schema-versioned JSON (:data:`BENCH_FORMAT`) mapping
nodes/agents/workload/backend to steps-per-second, with cross-backend
speedup ratios precomputed.  Each report carries named **tiers**:

``full``
    The headline measurement (10^5 nodes, 1s budget) -- the perf-trajectory
    number PR-over-PR diffs care about.
``quick``
    A small/short configuration CI can afford per push.
``scale-N``
    One tier per ``--nodes N`` value: the scale axis (10^4 .. 10^6 nodes).
    At sizes >= :data:`SHORT_HORIZON_NODES` the reference legs switch to a
    **short horizon** (no warm-up, one-sweep chunks, at most
    :data:`SHORT_HORIZON_CALLS` calls) so a 10^6-node world stays measurable:
    a single reference sweep there costs seconds, so amortized chunk growth
    would blow any budget.  Short rows carry ``"short_horizon": true`` --
    their per-call overhead is not amortized, so treat their ratios as
    indicative, not gate-grade.

A default ``repro bench`` run measures the ``full`` and ``quick`` tiers so
the committed baseline (``benchmarks/BENCH_kernel.json``) contains
quick-tier numbers for CI to gate against like-for-like; ``--quick``
measures only the quick tier, and ``--nodes`` (repeatable) measures the
listed scale tiers instead (added to full+quick without ``--quick``).  The
``bench-guard`` job re-measures quick plus the 10^5 scale tier and gates on
the **speedup ratio** of the common tier(s), not on absolute
steps/s -- ratios transfer across machines, absolute numbers do not (they
are still recorded, so the perf trajectory stays visible PR over PR).
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel
from repro.runner.scenario import ScenarioSpec, build_graph
from repro.sim.backends import DEFAULT_BACKEND, VectorizedBackend
from repro.sim.sync_engine import SyncEngine

__all__ = [
    "BENCH_FORMAT",
    "WORKLOADS",
    "run_bench",
    "render",
    "write_report",
    "load_report",
    "check_report",
]

#: The bench report's schema tag.  Bump only with a loader that still reads
#: every older tag.
BENCH_FORMAT = "repro-bench-v1"

#: Workload names, in report order.
WORKLOADS = ("probe",)

#: Default world sizes (nodes; agents default to the same number).
FULL_NODES = 100_000
QUICK_NODES = 20_000

#: From this world size up, reference-backend legs run the short horizon (no
#: warm-up, one-sweep chunks, at most :data:`SHORT_HORIZON_CALLS` calls): one
#: reference sweep at 10^6 nodes is seconds of Python, so the amortizing
#: chunk ladder would never fit a budget.  Tiers this large also drop to a
#: single measurement pass -- their rows are trajectory data, not gate input.
SHORT_HORIZON_NODES = 200_000
SHORT_HORIZON_CALLS = 2

#: Minimum wall-clock spent measuring each (workload, backend) leg.  The
#: quick budget is sized so the vectorized leg reliably reaches the large
#: chunk sizes where per-call overhead is amortized -- cutting it shorter
#: makes the best-chunk rate depend on where the budget boundary lands,
#: which is exactly the run-to-run noise bench-guard cannot afford.
FULL_BUDGET_S = 1.0
QUICK_BUDGET_S = 1.0


def bench_scenario(nodes: int, agents: int, backend: str = DEFAULT_BACKEND, seed: int = 0) -> ScenarioSpec:
    """The canonical bench world: a near-square 2D grid, rooted placement.

    grid2d builds in O(n) with no rejection sampling, so world setup stays a
    small fraction of a bench run even at 10^6 nodes.
    """
    rows = max(2, int(math.sqrt(nodes)))
    cols = max(2, (nodes + rows - 1) // rows)
    return ScenarioSpec(
        family="grid2d",
        params={"rows": rows, "cols": cols},
        k=agents,
        seed=seed,
        backend=backend,
    )


def _probe_runner(engine: SyncEngine) -> Callable[[int], int]:
    """Build the measured closure for one leg: ``run(chunk) -> steps``.

    ``chunk`` is the number of full query sweeps per timed call.  Settling
    the world happens here, outside the timed region.
    """
    kernel = engine.kernel
    n = kernel.graph.num_nodes
    # A fully settled world (measure_tier spreads the population across the
    # nodes): every query does real settled-presence work.
    for agent in kernel.agents.values():
        if not agent.settled:
            agent.settle(agent.position, None)
    nodes_q: Any
    excl_q: Any
    if isinstance(kernel.backend, VectorizedBackend):
        import numpy as np

        # Prebuilt int64 arrays enter the vectorized primitive zero-copy; the
        # reference leg gets plain lists -- each backend is fed its native
        # container so neither pays conversion inside the loop.
        nodes_q = np.arange(n, dtype=np.int64)
        excl_q = np.zeros(n, dtype=np.int64)
    else:
        nodes_q = list(range(n))
        excl_q = [0] * n

    def run(chunk: int) -> int:
        for _ in range(chunk):
            kernel.run_probe_round(nodes_q, excl_q)
        return chunk * n

    return run


def _measure(engine: SyncEngine, budget_s: float, short: bool = False) -> Dict[str, Any]:
    """Time workload chunks until the budget is spent; return the tallies."""
    run = _probe_runner(engine)
    if not short:
        # One untimed warm-up call absorbs first-touch costs (array views,
        # page faults) so the measured rate reflects steady state.  Short
        # legs skip it: at 10^6 nodes the warm-up alone would cost seconds.
        run(1)
    steps = 0
    calls = 0
    rounds_before = engine.metrics.rounds
    # Chunks grow geometrically (the pyperf pattern): per-call costs amortize
    # away, so the measured rate converges on the backend's true per-query
    # rate.  The reported steps/s is the *best* chunk's rate (again pyperf:
    # the minimum-time estimator), which a transient stall cannot drag down
    # -- that stability is what lets bench-guard gate ratios with a +-25%
    # band.  Short legs pin chunk=1 and stop after SHORT_HORIZON_CALLS calls.
    chunk = 1 if short else 4
    best_rate = 0.0
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < budget_s:
        chunk_start = time.perf_counter()
        done = run(chunk)
        chunk_end = time.perf_counter()
        calls += 1
        steps += done
        elapsed = chunk_end - start
        if chunk_end > chunk_start:
            best_rate = max(best_rate, done / (chunk_end - chunk_start))
        if short:
            if calls >= SHORT_HORIZON_CALLS:
                break
        else:
            chunk = min(chunk * 4, 4096)
    rounds = engine.metrics.rounds - rounds_before
    measured: Dict[str, Any] = {
        "rounds": rounds,
        "steps": steps,
        "seconds": round(elapsed, 6),
        "steps_per_second": round(best_rate, 3),
    }
    if short:
        measured["short_horizon"] = True
    return measured


def measure_tier(
    backends: Sequence[str],
    workloads: Sequence[str] = WORKLOADS,
    nodes: Optional[int] = None,
    agents: Optional[int] = None,
    seed: int = 0,
    quick: bool = False,
) -> Dict[str, Any]:
    """Measure every (workload, backend) pair at one tier's size and budget.

    The graph is built once and shared (read-only) across legs; every leg
    gets a fresh agent population so backends never see each other's state.
    """
    for workload in workloads:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    if nodes is None:
        nodes = QUICK_NODES if quick else FULL_NODES
    if agents is None:
        agents = nodes
    budget_s = QUICK_BUDGET_S if quick else FULL_BUDGET_S
    scenario = bench_scenario(nodes, agents, seed=seed)
    graph = build_graph(scenario)
    if agents > graph.num_nodes:
        raise ValueError(f"agents={agents} exceeds bench graph size {graph.num_nodes}")
    model = MemoryModel(k=agents, max_degree=graph.max_degree)
    # Two interleaved passes per leg, best pass kept: a burst of CPU
    # contention (the dominant noise on shared boxes) then has to hit the
    # same leg twice, minutes apart, to drag its reported rate down -- and
    # interleaving means both backends sample comparable noise windows, which
    # is what keeps the *ratio* stable enough for bench-guard's band.
    # Short-horizon sizes get a single pass: world setup alone is ~10s/leg at
    # 10^6 nodes, and their rows are trajectory data, not gate input.
    short_tier = graph.num_nodes >= SHORT_HORIZON_NODES
    passes = 1 if short_tier else 2
    best: Dict[tuple, Dict[str, Any]] = {}
    for _pass in range(passes):
        for workload in workloads:
            for backend in backends:
                # Spread the population so settling each agent in place
                # yields a fully settled world.
                population = [
                    Agent(i, (i - 1) % graph.num_nodes, model)
                    for i in range(1, agents + 1)
                ]
                engine = SyncEngine(graph, population, backend=backend)
                short = short_tier and backend == DEFAULT_BACKEND
                measured = _measure(engine, budget_s=budget_s, short=short)
                key = (workload, backend)
                if (
                    key not in best
                    or measured["steps_per_second"]
                    > best[key]["steps_per_second"]
                ):
                    best[key] = measured
    results: List[Dict[str, Any]] = [
        {
            "workload": workload,
            "backend": backend,
            "family": scenario.family,
            "nodes": graph.num_nodes,
            "agents": agents,
            **best[(workload, backend)],
        }
        for workload in workloads
        for backend in backends
    ]
    return {
        "nodes": graph.num_nodes,
        "agents": agents,
        "results": results,
        "speedups": _speedups(results),
    }


def run_bench(
    backends: Sequence[str],
    workloads: Sequence[str] = WORKLOADS,
    nodes: Optional[int] = None,
    agents: Optional[int] = None,
    seed: int = 0,
    quick: bool = False,
    scale: Optional[Sequence[int]] = None,
) -> Dict[str, Any]:
    """Measure and return the report payload.

    ``quick`` measures only the quick tier (CI's per-push budget); the default
    measures **both** tiers, so a committed baseline always contains the
    quick-tier ratios a later ``--quick --check`` run gates against
    like-for-like.  ``nodes``/``agents`` override the size of the tier being
    headlined (the full tier, or the quick tier under ``quick``).

    ``scale`` (the CLI's repeatable ``--nodes``) adds one ``scale-N`` tier
    per listed size, measured at the quick budget; with ``quick`` the scale
    tiers *replace* the quick tier, so a CI invocation like
    ``--quick --nodes 1000000 --backend vectorized`` measures exactly one
    time-budgeted smoke tier.
    """
    tiers: Dict[str, Dict[str, Any]] = {}
    if scale:
        if nodes is not None:
            raise ValueError("pass either nodes= (headline override) or scale=, not both")
        for size in scale:
            tiers[f"scale-{size}"] = measure_tier(
                backends, workloads, nodes=size, agents=agents, seed=seed, quick=True
            )
        if not quick:
            tiers["full"] = measure_tier(
                backends, workloads, agents=agents, seed=seed, quick=False
            )
            tiers["quick"] = measure_tier(backends, workloads, seed=seed, quick=True)
    elif quick:
        tiers["quick"] = measure_tier(
            backends, workloads, nodes=nodes, agents=agents, seed=seed, quick=True
        )
    else:
        tiers["full"] = measure_tier(
            backends, workloads, nodes=nodes, agents=agents, seed=seed, quick=False
        )
        tiers["quick"] = measure_tier(backends, workloads, seed=seed, quick=True)
    return {
        "format": BENCH_FORMAT,
        "quick": quick,
        "seed": seed,
        "tiers": tiers,
    }


def _speedups(results: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per-workload ``backend -> steps/s ratio`` over the reference leg."""
    speedups: Dict[str, Dict[str, float]] = {}
    by_workload: Dict[str, Dict[str, float]] = {}
    for entry in results:
        by_workload.setdefault(entry["workload"], {})[entry["backend"]] = entry[
            "steps_per_second"
        ]
    for workload, rates in by_workload.items():
        base = rates.get(DEFAULT_BACKEND)
        if not base:
            continue
        speedups[workload] = {
            backend: round(rate / base, 3)
            for backend, rate in rates.items()
            if backend != DEFAULT_BACKEND
        }
    return speedups


def _tier_order(tiers: Dict[str, Any]) -> List[str]:
    """Report order: full, quick, then scale tiers by ascending size."""
    names = [name for name in ("full", "quick") if name in tiers]
    scales = sorted(
        (name for name in tiers if name.startswith("scale-")),
        key=lambda name: int(name.rsplit("-", 1)[1]),
    )
    return names + scales


def render(payload: Dict[str, Any]) -> str:
    """Human-readable tables of a report payload, one block per tier."""
    lines: List[str] = []
    for tier_name in _tier_order(payload["tiers"]):
        tier = payload["tiers"][tier_name]
        if lines:
            lines.append("")
        lines.append(
            f"kernel bench [{tier_name}] ({tier['nodes']} nodes, {tier['agents']} agents)"
        )
        lines.append(
            f"{'workload':12s} {'backend':11s} {'rounds':>7s} {'steps':>12s} {'steps/s':>14s}"
        )
        for entry in tier["results"]:
            lines.append(
                f"{entry['workload']:12s} {entry['backend']:11s} "
                f"{entry['rounds']:7d} {entry['steps']:12d} "
                f"{entry['steps_per_second']:14,.0f}"
                + ("  [short horizon]" if entry.get("short_horizon") else "")
            )
        for workload, ratios in sorted(tier.get("speedups", {}).items()):
            for backend, ratio in sorted(ratios.items()):
                lines.append(f"speedup[{workload}] {backend} = {ratio:.1f}x reference")
    return "\n".join(lines)


def write_report(payload: Dict[str, Any], path: str) -> str:
    """Write the report as stable, diff-friendly JSON and return the path."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def load_report(path: str) -> Dict[str, Any]:
    """Load and schema-check a bench report."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != BENCH_FORMAT:
        raise ValueError(
            f"{path} is not a {BENCH_FORMAT} bench report "
            f"(format={payload.get('format') if isinstance(payload, dict) else None!r})"
        )
    return payload


def check_report(
    fresh: Dict[str, Any], baseline_path: str, tolerance: float = 0.25
) -> List[str]:
    """Gate a fresh payload against a committed baseline; return problems.

    The portable invariant is the per-workload cross-backend *speedup ratio*:
    for every tier present in **both** reports (a ``--quick`` run gates
    against the baseline's quick tier, like-for-like), a fresh ratio may not
    fall more than ``tolerance`` below the baseline's (being faster never
    fails).  Workload/backend pairs the baseline gated on must still be
    present.  Absolute steps/s are intentionally not gated -- they do not
    transfer across machines.
    """
    if not (0.0 <= tolerance < 1.0):
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    baseline = load_report(baseline_path)
    problems: List[str] = []
    common = [t for t in baseline.get("tiers", {}) if t in fresh.get("tiers", {})]
    if not common:
        problems.append(
            f"no common tier between the fresh report ({sorted(fresh.get('tiers', {}))}) "
            f"and {baseline_path} ({sorted(baseline.get('tiers', {}))})"
        )
    for tier_name in common:
        fresh_speedups = fresh["tiers"][tier_name].get("speedups", {})
        for workload, ratios in sorted(
            baseline["tiers"][tier_name].get("speedups", {}).items()
        ):
            for backend, base_ratio in sorted(ratios.items()):
                got = fresh_speedups.get(workload, {}).get(backend)
                if got is None:
                    problems.append(
                        f"[{tier_name}] {workload}/{backend}: no fresh measurement "
                        f"(baseline speedup {base_ratio:.1f}x)"
                    )
                    continue
                floor = base_ratio * (1.0 - tolerance)
                if got < floor:
                    problems.append(
                        f"[{tier_name}] {workload}/{backend}: speedup {got:.2f}x "
                        f"fell below {floor:.2f}x "
                        f"({base_ratio:.2f}x baseline - {tolerance:.0%})"
                    )
    return problems
