"""Lazy oscillators: unobserved SYNC runs fast-forward oscillator trips.

On a run that no fault injector, invariant checker or trace recorder watches
(``ExecutionKernel.observed`` is false), the SYNC drivers stop stepping
oscillators round by round and land each body only when something observes
it (``repro.core.oscillation.LazyOscillators``).  The eager reference below is
the same run with invariants checked, which makes the kernel observed; the
world the two leave behind -- metrics, positions, DFS tree, per-agent move
counts -- must be the same, after the run and after every tick.
"""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel
from repro.core.general_sync import GeneralSyncDispersion
from repro.core.oscillation import LazyOscillators, Oscillator
from repro.core.rooted_sync import RootedSyncDispersion
from repro.graph import generators
from repro.runner.execute import build_graph, build_placements, run_scenario
from repro.runner.scenario import ScenarioSpec
from repro.sim.async_engine import AsyncEngine
from repro.sim.faults import FaultInjector
from repro.sim.instrumentation import InstrumentationConfig, instrument
from repro.sim.invariants import InvariantChecker
from repro.sim.kernel import ExecutionKernel
from repro.sim.trace import TraceRecorder

WORLDS = {
    "random_tree": {"n": 40},
    "grid2d": {"rows": 6, "cols": 6},
    "binary_tree": {"depth": 5},
    "caterpillar": {"spine": 6, "legs_per_node": 5},
}

#: (algorithm, placement, parts): rooted_sync is rooted only; general_sync
#: runs both a single group and three groups grown one after another.
DRIVERS = [
    ("rooted_sync", "rooted", 1),
    ("general_sync", "rooted", 1),
    ("general_sync", "split", 3),
]

INVARIANT_EXTRAS = ("invariant_checks", "invariant_violations")


def make_spec(family, algorithm_case, backend, k=30, seed=3):
    _algorithm, placement, parts = algorithm_case
    return ScenarioSpec(
        family=family,
        params=WORLDS[family],
        k=k,
        seed=seed,
        placement=placement,
        placement_parts=parts,
        backend=backend,
    )


def run_driver(algorithm, spec, observed):
    """Build and run the driver under the scenario's world; returns both."""
    graph = build_graph(spec)
    placements = build_placements(spec, graph)
    config = InstrumentationConfig(backend=spec.backend, check_invariants=observed)
    with instrument(config):
        if algorithm == "rooted_sync":
            ((start, k),) = placements.items()
            driver = RootedSyncDispersion(graph, k, start)
        else:
            driver = GeneralSyncDispersion(graph, placements)
        result = driver.run()
    assert driver.engine.kernel.observed is observed
    return driver, result


def outcome(driver, result):
    metrics = result.metrics
    extra = {k: v for k, v in metrics.extra.items() if k not in INVARIANT_EXTRAS}
    return {
        "rounds": metrics.rounds,
        "total_moves": metrics.total_moves,
        "max_moves_per_agent": metrics.max_moves_per_agent,
        "peak_memory_bits": metrics.peak_memory_bits,
        "extra": extra,
        "positions": result.positions,
        "dfs_parent": result.dfs_parent,
        "dispersed": result.dispersed,
        "moves_per_agent": dict(driver.engine.kernel.moves_per_agent),
        "pins": {a.agent_id: a.pin for a in driver.engine.agents.values()},
    }


# --------------------------------------------------------- the observed switch


def test_observed_is_false_bare_and_true_with_each_watcher():
    graph = generators.line(6)
    model = MemoryModel(k=3, max_degree=graph.max_degree)

    def kernel(**kwargs):
        agents = [Agent(i, 0, model) for i in (1, 2, 3)]
        return ExecutionKernel(graph, agents, **kwargs)

    assert kernel().observed is False
    injector = FaultInjector.from_schedule([1, 2, 3], crash_at={1: 4})
    assert kernel(fault_injector=injector).observed is True
    assert kernel(invariant_checker=InvariantChecker()).observed is True
    traced = kernel()
    traced.trace = TraceRecorder(traced)
    assert traced.observed is True


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` with a call counter; returns the live count."""
    calls = {"n": 0}
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("observed", [True, False])
def test_observed_sync_run_steps_every_oscillator_every_round(monkeypatch, observed):
    plan_steps = count_calls(monkeypatch, Oscillator, "plan_step")
    osc_rounds = {"n": 0}
    tick = RootedSyncDispersion.tick

    def counted_tick(self, moves):
        osc_rounds["n"] += len(self.oscillators)
        tick(self, moves)

    monkeypatch.setattr(RootedSyncDispersion, "tick", counted_tick)
    spec = make_spec("random_tree", DRIVERS[0], "reference")
    run_driver("rooted_sync", spec, observed)
    assert osc_rounds["n"] > 0
    if observed:
        assert plan_steps["n"] == osc_rounds["n"]
    else:
        assert plan_steps["n"] < osc_rounds["n"] // 2


@pytest.mark.parametrize("check_invariants", [True, False])
def test_unobserved_async_runs_skip_activate_on_idle_activations(monkeypatch, check_invariants):
    activations = count_calls(monkeypatch, AsyncEngine, "_activate")
    spec = ScenarioSpec(
        family="random_tree", params={"n": 24}, k=16, seed=2,
        check_invariants=check_invariants,
    )
    record = run_scenario("rooted_async", spec)
    assert record.status == "ok", record.error
    if check_invariants:
        assert activations["n"] == record.activations
    else:
        assert 0 < activations["n"] < record.activations


# ------------------------------------------------------- lazy equals eager


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("family", sorted(WORLDS))
@pytest.mark.parametrize("case", DRIVERS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_lazy_run_leaves_the_eager_runs_world(case, family, backend):
    spec = make_spec(family, case, backend)
    eager = outcome(*run_driver(case[0], spec, observed=True))
    lazy = outcome(*run_driver(case[0], spec, observed=False))
    assert eager["dispersed"]
    assert lazy == eager


def tick_snapshots(monkeypatch, algorithm, spec, observed, stride):
    """Every ``stride``-th tick: positions (landing every lazy body), pins
    and move counts."""
    seen = []
    tick = RootedSyncDispersion.tick

    def snapshot_tick(self, moves):
        tick(self, moves)
        kernel = self.engine.kernel
        if kernel.metrics.rounds % stride:
            return
        seen.append((
            kernel.positions(),
            {a.agent_id: a.pin for a in kernel.agents.values()},
            dict(kernel.moves_per_agent),
            kernel.metrics.total_moves,
            kernel.metrics.max_moves_per_agent,
        ))

    monkeypatch.setattr(RootedSyncDispersion, "tick", snapshot_tick)
    run_driver(algorithm, spec, observed)
    monkeypatch.setattr(RootedSyncDispersion, "tick", tick)
    return seen


@pytest.mark.parametrize("stride", [1, 13])
@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("case", [DRIVERS[0], DRIVERS[2]], ids=lambda c: f"{c[0]}-{c[1]}")
def test_every_tick_lands_on_the_eager_world(monkeypatch, case, backend, stride):
    spec = make_spec("random_tree", case, backend, k=40)
    eager = tick_snapshots(monkeypatch, case[0], spec, True, stride)
    lazy = tick_snapshots(monkeypatch, case[0], spec, False, stride)
    assert len(eager) * stride > 300
    assert lazy == eager


def test_lazy_run_replays_a_fraction_of_the_trip_steps(monkeypatch):
    plan_steps = count_calls(monkeypatch, Oscillator, "plan_step")
    spec = ScenarioSpec(family="random_tree", params={"n": 200}, k=200, seed=0)
    eager = outcome(*run_driver("rooted_sync", spec, observed=True))
    eager_steps = plan_steps["n"]
    plan_steps["n"] = 0
    lazy = outcome(*run_driver("rooted_sync", spec, observed=False))
    assert lazy == eager
    assert plan_steps["n"] <= 0.2 * eager_steps


# ------------------------------------------------------------- safety nets


def test_unannounced_settles_make_every_oscillator_eager(monkeypatch):
    """A settle the lazy set was not told about moves the settle tally past
    the driver's own count, and every oscillator steps eagerly from then on:
    the record still matches the eager run."""
    spec = make_spec("binary_tree", DRIVERS[0], "reference")
    eager = outcome(*run_driver("rooted_sync", spec, observed=True))
    went_eager = []
    begin_tick = LazyOscillators.begin_tick

    def watched_begin_tick(self, moves):
        stepped = begin_tick(self, moves)
        if self._all_eager and not went_eager:
            went_eager.append(len(self.oscillators))
        return stepped

    monkeypatch.setattr(LazyOscillators, "settled_at", lambda self, node: None)
    monkeypatch.setattr(LazyOscillators, "begin_tick", watched_begin_tick)
    lazy = outcome(*run_driver("rooted_sync", spec, observed=False))
    assert went_eager and went_eager[0] > 0
    assert lazy == eager


@pytest.mark.parametrize("observed", [True, False])
def test_controller_move_of_a_tripping_oscillator_is_refused(observed):
    graph = generators.star(9)  # hub 0, leaves 1..8
    config = InstrumentationConfig(check_invariants=observed)
    with instrument(config):
        driver = RootedSyncDispersion(graph, 8, start_node=0)
    driver.settle_root()
    driver._start_oscillators()
    settler = next(a for a in driver.agents.values() if a.settled)
    osc = driver._oscillator_for(settler, 0)
    driver._add_cover(osc, 1, (graph.port_to(0, 1),))
    for _ in range(5):
        driver.tick({})
    with pytest.raises(AssertionError, match="scheduled by both the controller"):
        driver.tick({settler.agent_id: 1})
