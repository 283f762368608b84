"""Tests for the fault-model subsystem (:mod:`repro.sim.faults`)."""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel
from repro.graph import generators
from repro.runner import ScenarioSpec, derive_seed, run_scenario
from repro.runner.scenario import derive_fault_seed
from repro.sim.async_engine import AsyncEngine, Move
from repro.sim.adversary import RoundRobinAdversary
from repro.sim.faults import FaultInjector, FaultSpec, parse_faults
from repro.sim.sync_engine import SyncEngine


def make_agents(k: int, start: int = 0, max_degree: int = 4):
    model = MemoryModel(k=k, max_degree=max_degree)
    return [Agent(i, start, model) for i in range(1, k + 1)]


# ------------------------------------------------------------------ FaultSpec
def test_fault_spec_string_round_trip():
    spec = FaultSpec.from_string("crash:0.1,freeze:0.25:60,churn:0.02,horizon:300")
    assert spec.crash == 0.1
    assert spec.freeze == 0.25 and spec.freeze_duration == 60
    assert spec.churn == 0.02 and spec.horizon == 300
    assert FaultSpec.from_dict(spec.to_dict()) == spec


def test_fault_spec_none_is_inactive():
    for text in ("", "none", "off"):
        spec = FaultSpec.from_string(text)
        assert not spec.is_active
        assert spec.to_dict() == {}
    assert parse_faults("none") == {}


@pytest.mark.parametrize(
    "text",
    [
        "crash",            # missing value
        "crash:abc",        # not a number
        "crash:1.5",        # out of range
        "freeze:0.2:0",     # non-positive duration
        "bogus:1",          # unknown fault kind
        "churn:0.1:9",      # too many fields
        "horizon:-5",       # negative horizon
    ],
)
def test_fault_spec_rejects_malformed_strings(text):
    with pytest.raises(ValueError):
        FaultSpec.from_string(text)


def test_fault_spec_rejects_unknown_dict_keys():
    with pytest.raises(ValueError, match="unknown fault fields"):
        FaultSpec.from_dict({"crsh": 0.1})


@pytest.mark.parametrize(
    "text",
    [
        "crash:0.1,crash:0.9",          # same clause twice: last-wins is a trap
        "freeze:0.2:40,freeze:0.2:40",  # even an identical repeat is a typo
        "horizon:8,churn:0.1,horizon:9",
    ],
)
def test_fault_spec_rejects_duplicate_clauses(text):
    with pytest.raises(ValueError, match="duplicate fault clause"):
        FaultSpec.from_string(text)


def test_boundary_probabilities_round_trip_exactly():
    """p=0 and p=1 are exact floats: parse -> dict -> parse must be identity."""
    spec = FaultSpec.from_string("crash:0,freeze:1,churn:1.0")
    assert spec.crash == 0.0 and spec.freeze == 1.0 and spec.churn == 1.0
    assert not spec.to_dict().get("crash")  # 0.0 is the default: omitted
    assert spec.to_dict() == {"freeze": 1.0, "churn": 1.0}
    assert FaultSpec.from_dict(spec.to_dict()) == spec
    assert parse_faults("churn:1") == {"churn": 1.0}
    assert parse_faults("crash:0") == {}  # exactly the fault-free profile
    assert not FaultSpec.from_string("crash:0,churn:0").is_active


# --------------------------------------------------------------- FaultInjector
def test_injector_schedule_is_deterministic():
    spec = FaultSpec(crash=0.5, freeze=0.5, churn=0.05, horizon=100)
    a = FaultInjector(spec, [1, 2, 3, 4, 5], seed=42)
    b = FaultInjector(spec, [5, 4, 3, 2, 1], seed=42)  # order must not matter
    assert a.crash_at == b.crash_at
    assert a.freeze_window == b.freeze_window
    assert a.churn_times == b.churn_times
    c = FaultInjector(spec, [1, 2, 3, 4, 5], seed=43)
    assert (a.crash_at, a.freeze_window) != (c.crash_at, c.freeze_window)


def test_crashed_agent_never_moves_in_sync_engine():
    graph = generators.line(6)
    agents = make_agents(2)
    injector = FaultInjector(FaultSpec(crash=1.0, horizon=1), [1, 2], seed=0)
    engine = SyncEngine(graph, agents, fault_injector=injector)
    for _ in range(4):
        engine.step({1: 1, 2: 1})
    assert engine.kernel.positions() == {1: 0, 2: 0}
    assert injector.counts["blocked"] == 8
    assert injector.counts["crash"] == 2
    extras = engine.finalize_metrics().extra
    assert extras["fault_events"] == 2.0
    assert extras["fault_blocked"] == 8.0


def test_frozen_agent_resumes_after_window():
    graph = generators.line(8)
    agents = make_agents(1)
    injector = FaultInjector(FaultSpec(freeze=1.0, freeze_duration=3, horizon=1), [1], seed=0)
    engine = SyncEngine(graph, agents, fault_injector=injector)
    assert injector.freeze_window[1] == (0, 3)
    for _ in range(3):  # rounds 0..2 fall inside the window
        engine.step({1: 1})
    assert engine.kernel.positions()[1] == 0
    engine.step({1: 1})  # round 3: thawed
    assert engine.kernel.positions()[1] == 1
    assert injector.counts["blocked"] == 3


def test_crashed_agent_stalls_epochs_in_async_engine():
    graph = generators.line(6)
    agents = make_agents(3)
    injector = FaultInjector(FaultSpec(crash=1.0, horizon=1), [1, 2, 3], seed=7)
    adversary = RoundRobinAdversary()
    engine = AsyncEngine(graph, agents, adversary=adversary, fault_injector=injector)
    engine.assign(1, iter([Move(1), Move(1)]))
    for _ in range(9):  # three full round-robin passes
        engine._activate(adversary.next_agent())
    # Nobody completes a cycle, so no epoch ever closes and nobody moves.
    assert engine.metrics.epochs == 0
    assert engine.kernel.positions() == {1: 0, 2: 0, 3: 0}
    assert injector.counts["blocked"] == 9


def test_churn_event_rewires_but_preserves_contract():
    graph = generators.ring(10)
    injector = FaultInjector(FaultSpec(churn=1.0, horizon=5), [1], seed=3)
    assert injector.churn_times == [0, 1, 2, 3, 4]

    class World:
        pass

    world = World()
    world.graph = graph
    injector.begin_tick(2, world)  # applies the events due at t <= 2
    assert graph.churn_count == 3
    assert injector.counts["churn"] == 3
    graph.validate()
    assert graph.num_nodes == 10


def test_churn_skip_recorded_on_degenerate_world():
    """K2 offers no legal rewiring (its one edge is a bridge, no edge is
    missing): the scheduled event must be recorded as a skip, not dropped,
    so the fault-event count stays a function of the schedule alone."""
    graph = generators.line(2)
    injector = FaultInjector(FaultSpec(churn=1.0, horizon=3), [1], seed=0)
    assert injector.churn_times == [0, 1, 2]

    class World:
        pass

    world = World()
    world.graph = graph
    injector.begin_tick(2, world)
    assert injector.counts["churn"] == 0
    assert injector.counts["churn_skipped"] == 3
    assert [e.kind for e in injector.events] == ["churn_skipped"] * 3
    assert injector.total_events == 3
    extras = injector.metrics_extra()
    assert extras["fault_events"] == 3.0
    assert extras["fault_churn"] == 0.0
    assert extras["fault_churn_skipped"] == 3.0
    assert graph.churn_count == 0
    graph.validate()


def test_churn_skip_metric_absent_when_no_skip_happened():
    # Byte-stability of existing artifacts: the extra key only appears when a
    # skip actually occurred.
    injector = FaultInjector(FaultSpec(churn=1.0, horizon=2), [1], seed=3)

    class World:
        pass

    world = World()
    world.graph = generators.ring(10)
    injector.begin_tick(1, world)
    assert injector.counts["churn"] == 2
    assert "fault_churn_skipped" not in injector.metrics_extra()


def test_run_scenario_counts_skipped_churn_as_fault_events():
    """End to end: churn on K2 used to vanish from the record entirely."""
    spec = ScenarioSpec(
        family="line",
        params={"n": 2},
        k=2,
        faults={"churn": 1.0, "horizon": 8},
        check_invariants=True,
    )
    record = run_scenario("rooted_sync", spec)
    assert record.status == "ok"
    assert record.fault_events is not None and record.fault_events > 0


# ----------------------------------------------------------- runner threading
def test_fault_profile_does_not_change_world_seeds():
    plain = ScenarioSpec(family="erdos_renyi", params={"n": 16, "p": 0.3}, k=8)
    faulty = plain.with_faults({"crash": 0.5})
    for component in ("graph", "adversary", "algorithm"):
        assert derive_seed(plain, component) == derive_seed(faulty, component)
    # ... while distinct profiles get distinct fault schedules.
    assert derive_fault_seed(faulty) != derive_fault_seed(plain.with_faults({"crash": 0.4}))


def test_run_scenario_reports_fault_counts_and_same_world():
    plain = ScenarioSpec(family="erdos_renyi", params={"n": 14, "p": 0.3}, k=8)
    faulty = plain.with_faults({"freeze": 0.9, "freeze_duration": 10})
    r_plain = run_scenario("rooted_sync", plain)
    r_faulty = run_scenario("rooted_sync", faulty)
    assert r_plain.fault_events is None  # uninstrumented record stays unchanged
    assert r_faulty.fault_events is not None and r_faulty.fault_events > 0
    # Identical world: same graph size under both profiles.
    assert (r_plain.n, r_plain.m) == (r_faulty.n, r_faulty.m)


def test_scenario_spec_round_trips_faults():
    spec = ScenarioSpec(
        family="line",
        params={"n": 8},
        k=4,
        faults={"crash": 0.2, "horizon": 100},
        check_invariants=True,
    )
    again = ScenarioSpec.from_dict(spec.to_dict())
    assert again == spec and again.faults == {"crash": 0.2, "horizon": 100}
    with pytest.raises(ValueError):
        ScenarioSpec(family="line", params={"n": 8}, k=4, faults={"nope": 1})
