"""The benchmark's workloads: each turns a seed into a fixed list of runs.

The program under test only ever receives the generated ``ScenarioSpec``s.
A workload seed feeds a string-seeded ``random.Random`` that draws each
scenario's master seed, so graph shapes, port labels, adversary streams and
fault schedules all change with ``--seed`` while sizes stay fixed (fixed
sizes keep the work per pass comparable across seeds).  Sizes are chosen so
one pass takes about 1-2 s on a 2-core x86 host; README.md gives the reasons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Tuple

from repro.runner.registry import algorithm_names
from repro.runner.scenario import ScenarioSpec
from repro.runner.sweep import SweepSpec

#: Seed whose outcomes are pinned in ``pins.json``.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    """One (algorithm, scenario) run and the label reports name it by."""

    algorithm: str
    spec: ScenarioSpec
    profile: str = "none"

    @property
    def label(self) -> str:
        placement = "" if self.spec.placement == "rooted" else f"/split{self.spec.placement_parts}"
        return f"{self.algorithm}:{self.spec.label()}{placement}:{self.profile}"


#: Fault profiles of the instrumented sweep, by name.
PROFILES: Dict[str, Dict[str, float]] = {
    "none": {},
    "freeze:0.2:20": {"freeze": 0.2, "freeze_duration": 20},
    "churn:0.05": {"churn": 0.05},
}

#: Sizes ``k`` of the instrumented sweep's worlds.
SWEEP_KS = (8, 12, 16)

#: (algorithm, profile, k) triples left out of the instrumented sweep because
#: some seeds make them burn their step cap or run for minutes; such a run
#: measures the cap, not the program.  README.md lists the measured seconds.
RUNAWAY: FrozenSet[Tuple[str, str, int]] = frozenset(
    (algorithm, profile, k)
    for profile, algorithms in (
        ("freeze:0.2:20", ("general_sync", "naive_dfs", "rooted_async", "rooted_sync", "sudo_disc24")),
        ("churn:0.05", ("general_async", "general_sync", "ks_opodis21", "naive_dfs",
                        "rooted_async", "rooted_sync", "sudo_disc24")),
    )
    for algorithm in algorithms
    for k in SWEEP_KS
)


class FilteredSweep(SweepSpec):
    """A sweep grid minus the :data:`RUNAWAY` triples."""

    def jobs(self):
        return [
            (algorithm, scenario)
            for algorithm, scenario in super().jobs()
            if (algorithm, _profile_name(scenario["faults"]), scenario["k"]) not in RUNAWAY
        ]


def _profile_name(faults) -> str:
    for name, profile in PROFILES.items():
        if dict(faults) == profile:
            return name
    raise ValueError(f"unknown fault profile {faults!r}")


def _seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(2**32)


def sync_ladder(seed: int) -> List[Job]:
    """SYNC drivers on the reference backend: oscillator ticks, per-move
    memory writes and per-op kernel moves do nearly all the work."""
    seeds = _seeds("sync-ladder", seed)
    drivers = ("rooted_sync", "general_sync", "sudo_disc24", "naive_dfs")
    jobs: List[Job] = []
    for _ in range(3):
        tree = ScenarioSpec(family="random_tree", params={"n": 80}, k=80, seed=next(seeds))
        jobs += [Job(name, tree) for name in drivers]
    grid = ScenarioSpec(family="grid2d", params={"rows": 9, "cols": 9}, k=81, seed=next(seeds))
    return (
        jobs
        + [Job(name, grid) for name in drivers]
        + [Job("general_sync", replace(grid, placement="split", placement_parts=4))]
    )


def async_ladder(seed: int) -> List[Job]:
    """ASYNC drivers: activation loop, termination predicate and adversary;
    no oscillator code runs."""
    seeds = _seeds("async-ladder", seed)
    tree = ScenarioSpec(family="random_tree", params={"n": 64}, k=64, seed=next(seeds))
    grid = ScenarioSpec(
        family="grid2d", params={"rows": 8, "cols": 8}, k=64, seed=next(seeds), adversary="random"
    )
    drivers = ("rooted_async", "general_async", "ks_opodis21")
    return (
        [Job(name, tree) for name in drivers]
        + [Job(name, grid) for name in drivers]
        + [Job("general_async", replace(grid, placement="split", placement_parts=4))]
    )


def sync_vectorized(seed: int) -> List[Job]:
    """SYNC drivers on the vectorized backend over 1024-node grids, where
    the batch primitives (run_scatter, run_probe_round, the settled index)
    carry the run.  general_sync only scatters leftover groups when the grid
    is nearly full, so its split run has k = n on a 16x16 grid.  Random port
    labels make every seed a different world; three worlds per driver keep
    the seed-to-seed spread of the work small."""
    seeds = _seeds("sync-vectorized", seed)
    jobs: List[Job] = []
    for _ in range(3):
        grid = ScenarioSpec(
            family="grid2d", params={"rows": 32, "cols": 32}, k=192, seed=next(seeds),
            port_assignment="random", backend="vectorized",
        )
        dense = replace(grid, params={"rows": 16, "cols": 16}, k=256,
                        placement="split", placement_parts=16)
        jobs += [
            Job("rooted_sync", replace(grid, k=96)),
            Job("general_sync", replace(grid, k=96)),
            Job("general_sync", dense),
            Job("sudo_disc24", grid),
            Job("naive_dfs", grid),
        ]
    return jobs


def instrumented_sweep(seed: int) -> FilteredSweep:
    """Small jobs of all 8 algorithms under three fault profiles, invariants
    checked and tracing on for the fault-free third: per-run fixed costs,
    hooks, churn rewiring and store writes dominate."""
    seeds = _seeds("instrumented-sweep", seed)
    worlds = [
        ScenarioSpec(family=family, params=params, k=k, seed=next(seeds))
        for family, params in (
            ("random_tree", {"n": 48}),
            ("grid2d", {"rows": 7, "cols": 7}),
            ("random_tree", {"n": 64}),
        )
        for k in SWEEP_KS
    ]
    scenarios = [
        world.with_faults(profile, check_invariants=True).with_trace(not profile)
        for profile in PROFILES.values()
        for world in worlds
    ]
    return FilteredSweep(name="instrumented-sweep", algorithms=algorithm_names(), scenarios=scenarios)


def sweep_jobs(sweep: SweepSpec) -> List[Job]:
    """The sweep's jobs in execution order, as labelled :class:`Job`s."""
    return [
        Job(algorithm, ScenarioSpec.from_dict(scenario), _profile_name(scenario["faults"]))
        for algorithm, scenario in sweep.jobs()
    ]


#: Workload name -> (function of the seed that makes it, is_sweep).
WORKLOADS: Dict[str, Tuple[Callable, bool]] = {
    "sync-ladder": (sync_ladder, False),
    "async-ladder": (async_ladder, False),
    "sync-vectorized": (sync_vectorized, False),
    "instrumented-sweep": (instrumented_sweep, True),
}
