"""The O(1) termination answers and the direct random draw.

Every kernel keeps a settle tally (an unsettled count plus a monotone count
of settle/unsettle events) through the ``Agent`` settle/unsettle hook, and
the drivers' termination predicates read it instead of scanning the
population.  These tests pin the O(1) answers to the scans they replaced,
checked before every activation and every round:

* ``kernel.all_settled()`` equals ``all(a.settled ...)`` over the kernel's
  agents, for every algorithm, scheduler, fault profile and backend;
* a general-ASYNC group's ``unsettled_members`` equals the scan over its
  members while the group's DFS runs.

``RandomAdversary`` draws with ``getrandbits`` directly; its stream must stay
``random.Random(seed).choice(ids)``'s.
"""

from __future__ import annotations

import random

import pytest

from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel
from repro.core.rooted_async import RootedAsyncDispersion
from repro.graph import generators
from repro.runner.execute import run_scenario
from repro.runner.registry import algorithm_names
from repro.runner.scenario import ScenarioSpec
from repro.sim.adversary import RandomAdversary
from repro.sim.async_engine import AsyncEngine
from repro.sim.faults import parse_faults
from repro.sim.sync_engine import SyncEngine

PROFILES = ("none", "crash:0.3", "freeze:0.3:20", "churn:0.1")
SCHEDULERS = (
    ("async", {}),
    ("lockstep", {}),
    ("semi-sync", {}),
    ("bounded-delay", {"bound": 2}),
)
#: Activation cap while checking: faulty runs that livelock (crashed agents
#: never settle) repeat one state up to their own cap of 10^5-10^6
#: activations, and the scans below make each one O(k).
CHECKED_ACTIVATIONS = 20_000
#: A binary tree on which rooted_sync unsettles leaf settlers (Algorithm 7),
#: and a split grid on which general_async grows two groups.
WORLDS = (
    ScenarioSpec(family="binary_tree", params={"depth": 4}, k=10, adversary="random"),
    ScenarioSpec(
        family="grid2d",
        params={"rows": 4, "cols": 4},
        k=16,
        placement="split",
        placement_parts=2,
    ),
)


@pytest.fixture
def checked(monkeypatch):
    """Check the O(1) answers against the scans before every activation
    (the ASYNC predicate runs once before each) and every SYNC round, with
    ASYNC runs capped at :data:`CHECKED_ACTIVATIONS`."""
    # Mismatches are collected, not raised: run_scenario turns exceptions
    # into error records, and faulty runs may end in errors of their own.
    seen = {"ticks": 0, "group_ticks": 0, "mismatches": []}
    groups = []  # the general-ASYNC group whose DFS is running

    def check(kernel):
        agents = kernel.agents.values()
        scan = all(a.settled for a in agents)
        if kernel.all_settled() != scan:
            seen["mismatches"].append(("all_settled", kernel.metrics.activations, scan))
        seen["ticks"] += 1
        if groups:
            group = groups[-1]
            count = sum(1 for a in group.agents.values() if not a.settled)
            if group.unsettled_members != count:
                seen["mismatches"].append(("group", group.unsettled_members, count))
            seen["group_ticks"] += 1

    run_until = AsyncEngine.run_until

    def checked_run_until(self, predicate):
        kernel = self.kernel
        if self.max_activations is None or self.max_activations > CHECKED_ACTIVATIONS:
            self.max_activations = CHECKED_ACTIVATIONS

        def checked_predicate():
            check(kernel)
            return predicate()

        return run_until(self, checked_predicate)

    step = SyncEngine.step

    def checked_step(self, moves=None):
        check(self.kernel)
        return step(self, moves)

    run_group = RootedAsyncDispersion.run_group

    def tracked_run_group(self):
        groups.append(self)
        try:
            return run_group(self)
        finally:
            groups.pop()

    monkeypatch.setattr(AsyncEngine, "run_until", checked_run_until)
    monkeypatch.setattr(SyncEngine, "step", checked_step)
    monkeypatch.setattr(RootedAsyncDispersion, "run_group", tracked_run_group)
    return seen


@pytest.mark.parametrize("algorithm", algorithm_names())
def test_all_settled_matches_the_scan_at_every_tick(algorithm, checked):
    ran = 0
    for world in WORLDS:
        for profile in PROFILES:
            for scheduler, params in SCHEDULERS:
                for backend in ("reference", "vectorized"):
                    spec = (
                        world.with_faults(parse_faults(profile))
                        .with_scheduler(scheduler, params)
                        .with_backend(backend)
                    )
                    if run_scenario(algorithm, spec).status != "unsupported":
                        ran += 1
    assert checked["mismatches"] == []
    assert ran > 0 and checked["ticks"] > 0
    if algorithm == "general_async":
        assert checked["group_ticks"] > 0


def test_tally_follows_settle_resettle_and_unsettle():
    graph = generators.line(5)
    model = MemoryModel(k=3, max_degree=graph.max_degree)
    agents = [Agent(i, 0, model) for i in (1, 2, 3)]
    agents[0].settle(0, None)  # settled before the kernel binds: counted
    for backend in ("reference", "vectorized"):
        engine = SyncEngine(graph, agents, backend=backend)
        kernel = engine.kernel
        tally = kernel.tally
        base = tally.events
        assert (tally.unsettled, kernel.all_settled()) == (2, False)
        agents[1].settle(0, None)
        agents[2].settle(0, None)
        assert (tally.unsettled, kernel.all_settled()) == (0, True)
        agents[2].settle(0, None)  # re-settling keeps the count, moves events
        assert tally.unsettled == 0 and tally.events == base + 4
        agents[1].unsettle()
        agents[2].unsettle()
        assert (tally.unsettled, kernel.all_settled()) == (2, False)
        assert tally.events == base + 6


def test_tally_references_nothing():
    """Agents point at the tally; it must not point back (no reference cycle
    through the agents on the reference backend)."""
    graph = generators.line(3)
    model = MemoryModel(k=2, max_degree=graph.max_degree)
    agents = [Agent(i, 0, model) for i in (1, 2)]
    kernel = SyncEngine(graph, agents).kernel
    assert all(a._observer is kernel.tally for a in agents)
    assert not hasattr(kernel.tally, "__dict__")
    assert set(type(kernel.tally).__slots__) == {"unsettled", "events"}


def test_random_adversary_replays_random_choice():
    mismatched = []
    for size in [*range(1, 141), 255, 256, 257, 1023, 1024, 1025]:
        ids = [3 * i + 1 for i in range(size)]
        adversary = RandomAdversary(size)
        adversary.bind(ids)
        oracle = random.Random(size)
        drawn = [adversary.next_agent() for _ in range(400)]
        if drawn != [oracle.choice(ids) for _ in range(400)]:
            mismatched.append(size)
    assert mismatched == []


def test_random_adversary_rejects_an_empty_population():
    with pytest.raises(ValueError, match="empty population"):
        RandomAdversary(0).bind([])
