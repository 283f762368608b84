"""The benchmark's tracer (``perfbench/tracer.py``) against the live package.

The tracer patches methods from outside the package by looking them up in
each class's own ``__dict__``, so moving a traced method to a base class
breaks it with a ``KeyError`` that only a ``--trace 1`` benchmark run would
hit.  This pins the contract in tier-1: install on the current classes,
count real traffic on tiny runs, and undo cleanly.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from repro.agents.agent import Agent
from repro.agents.memory import AgentMemory
from repro.core.oscillation import Oscillator
from repro.runner.execute import run_scenario
from repro.runner.scenario import ScenarioSpec
from repro.sim.backends import KernelBackend, VectorizedBackend
from repro.sim.kernel import ExecutionKernel
from repro.sim.sync_engine import SyncEngine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


#: Every class whose methods the tracer patches and a test below exercises.
CLASSES = (
    KernelBackend, VectorizedBackend, ExecutionKernel, SyncEngine, Oscillator, Agent, AgentMemory
)


def traced_run(monkeypatch, spec):
    """Run rooted_sync on ``spec`` under the tracer; check the undo."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    before = {cls: dict(cls.__dict__) for cls in CLASSES}
    tracer = tracer_mod.Tracer()
    patches = tracer_mod.install(tracer)
    try:
        for cls, name in ((VectorizedBackend, "run_scatter"), (Oscillator, "plan_step"),
                          (Agent, "arrive"), (AgentMemory, "write")):
            assert cls.__dict__[name] is not before[cls][name]
        record = run_scenario("rooted_sync", spec)
    finally:
        patches.undo()
    for cls in CLASSES:
        for name, original in before[cls].items():
            assert cls.__dict__[name] is original, f"{cls.__name__}.{name} not restored"
    assert record.dispersed
    return tracer, record


def test_tracer_counts_backend_primitives_and_undo_restores_them(monkeypatch):
    spec = ScenarioSpec(
        family="grid2d", params={"rows": 5, "cols": 5}, k=12, seed=0, backend="vectorized"
    )
    tracer, _record = traced_run(monkeypatch, spec)
    assert tracer.layers["sim.backends.settled_query"][0] > 0
    assert tracer.layers["sim.backends.run_probe_round"][0] > 0
    assert tracer.counts["sim.backends.vectorized.calls"] > 0


def test_tracer_counts_every_move_and_oscillator_round(monkeypatch):
    # k >= 7: below that rooted_sync falls back to naive DFS and runs no
    # oscillator.  Checking invariants makes the kernel observed, so every
    # oscillator steps every round and every move is one arrival.
    world = {"family": "random_tree", "params": {"n": 20}, "k": 12, "seed": 0}
    spec = ScenarioSpec(**world)
    eager, eager_record = traced_run(monkeypatch, ScenarioSpec(**world, check_invariants=True))
    assert eager.counts["agents.arrive.calls"] == eager_record.total_moves
    assert eager.counts["core.oscillation.plan_step.calls"] > 0
    assert eager.counts["agents.memory.write.calls"] > 0
    # Unobserved, oscillators are fast-forwarded and land once per catch-up:
    # the same moves, from fewer arrivals and replayed trip steps.
    lazy, lazy_record = traced_run(monkeypatch, spec)
    assert lazy_record.total_moves == eager_record.total_moves
    assert lazy.counts["agents.arrive.calls"] < eager.counts["agents.arrive.calls"]
    assert (
        0
        < lazy.counts["core.oscillation.plan_step.calls"]
        < eager.counts["core.oscillation.plan_step.calls"]
    )
