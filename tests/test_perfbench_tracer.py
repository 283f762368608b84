"""The benchmark's tracer (``perfbench/tracer.py``) against the live package.

The tracer patches methods from outside the package by looking them up in
each class's own ``__dict__``, so moving a traced method to a base class
breaks it with a ``KeyError`` that only a ``--trace 1`` benchmark run would
hit.  This pins the contract in tier-1: install on the current classes,
count real traffic on a tiny vectorized run, and undo cleanly.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from repro.runner.execute import run_scenario
from repro.runner.scenario import ScenarioSpec
from repro.sim.backends import KernelBackend, VectorizedBackend
from repro.sim.kernel import ExecutionKernel
from repro.sim.sync_engine import SyncEngine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_counts_backend_primitives_and_undo_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    classes = (KernelBackend, VectorizedBackend, ExecutionKernel, SyncEngine)
    before = {cls: dict(cls.__dict__) for cls in classes}
    tracer = tracer_mod.Tracer()
    patches = tracer_mod.install(tracer)
    try:
        wrapped = VectorizedBackend.__dict__["run_scatter"]
        assert wrapped is not before[VectorizedBackend]["run_scatter"]
        spec = ScenarioSpec(
            family="grid2d", params={"rows": 5, "cols": 5}, k=12, seed=0, backend="vectorized"
        )
        record = run_scenario("rooted_sync", spec)
    finally:
        patches.undo()
    assert record.dispersed
    assert tracer.layers["sim.backends.settled_query"][0] > 0
    assert tracer.layers["sim.backends.run_probe_round"][0] > 0
    assert tracer.counts["sim.backends.vectorized.calls"] > 0
    for cls in classes:
        for name, original in before[cls].items():
            assert cls.__dict__[name] is original, f"{cls.__name__}.{name} not restored"
