"""Per-layer tracing of the repro package, installed from outside it.

Nothing under ``src/`` knows about this module: :func:`install` replaces
public functions and methods with wrappers for the duration of a traced pass
and :meth:`Patches.undo` puts the originals back, so the untraced passes run
the program exactly as shipped.

Two kinds of wrapper exist:

* a **span** around each layer boundary records start, end, parent span and
  the scenario digest of the run it belongs to (the shared id).  A layer's
  self time is its span durations minus the time its child spans cover.
* a **count** only bumps a counter.  Hot functions (``plan_step``,
  ``AgentMemory.write``, ``next_agent``, kernel queries, ...) are counted and
  never timed, so tracing overhead stays bounded.

Spans of coarse layers (one per run or per store call) are kept as records
and written at the end; spans of fine layers (per round, per activation, per
query) are folded into their nearest coarse ancestor's record as
``[calls, self_s]`` so memory stays flat however long the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Layers whose every span is kept as its own record.
COARSE = frozenset({
    "runner.execute",
    "graph.build",
    "core.driver",
    "sim.async_engine.run_until",
    "sim.trace.payload",
    "store.fingerprint",
    "store.put",
    "store.get_many",
})

#: Driver-phase primitives, by method name -> layer.
BACKEND_LAYERS = {
    "run_scatter": "sim.backends.run_scatter",
    "run_probe_round": "sim.backends.run_probe_round",
    "settled_present": "sim.backends.settled_query",
    "home_settler_at": "sim.backends.settled_query",
    "has_home_settler": "sim.backends.settled_query",
}

#: ExecutionKernel observation queries counted as ``sim.kernel.query.calls``.
KERNEL_QUERIES = (
    "agents_at",
    "occupied",
    "settled_agent_at",
    "settled_agents_at",
    "settled_present",
    "home_settler_at",
    "has_home_settler",
    "run_probe_round",
    "fault_view",
    "positions",
)


class Tracer:
    """In-memory span stack, per-layer totals and counters."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.layers: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.counts: Dict[str, int] = defaultdict(int)
        self.records: List[Dict[str, Any]] = []
        self.root_s = 0.0
        self.digest: Optional[str] = None
        # Frames: [name, start, child_s]; _open holds the open coarse records.
        self._stack: List[list] = []
        self._open: List[Dict[str, Any]] = []

    def enter(self, name: str) -> None:
        start = time.perf_counter()
        if name in COARSE:
            record = {
                "id": len(self.records),
                "name": name,
                "start": start - self.origin,
                "parent": self._open[-1]["id"] if self._open else None,
                "digest": self.digest,
                "fine": {},
            }
            self.records.append(record)
            self._open.append(record)
        self._stack.append([name, start, 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child_s = self._stack.pop()
        duration = end - start
        self_s = duration - child_s
        layer = self.layers[name]
        layer[0] += 1
        layer[1] += self_s
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration
        if name in COARSE:
            record = self._open.pop()
            record["end"] = end - self.origin
            record["self_s"] = self_s
        elif self._open:
            fine = self._open[-1]["fine"].setdefault(name, [0, 0.0])
            fine[0] += 1
            fine[1] += self_s

    def span(self, name: str, fn: Callable, digest_of: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span; ``digest_of(*args)`` names the scenario the
        span belongs to when it starts one (runs, store calls)."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        if digest_of is None:
            return wrapper

        def with_digest(*args, **kwargs):
            outer = tracer.digest
            tracer.digest = digest_of(*args)
            try:
                return wrapper(*args, **kwargs)
            finally:
                tracer.digest = outer

        return with_digest

    def count(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: str) -> None:
        """Write the span records (one JSON object per line)."""
        with open(path, "w", encoding="utf-8") as out:
            for record in self.records:
                out.write(json.dumps(record, sort_keys=True) + "\n")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install(tracer: Tracer) -> Patches:
    """Wrap every traced layer of the repro package; returns the undo log."""
    import repro.runner.execute as execute_mod
    import repro.runner.sweep as sweep_mod
    import repro.sim.trace as trace_mod
    import repro.store.cache as cache_mod
    import repro.store.db as db_mod
    from repro.agents.agent import Agent
    from repro.agents.memory import AgentMemory
    from repro.core.oscillation import Oscillator
    from repro.graph.port_graph import PortLabeledGraph
    from repro.runner.registry import AlgorithmSpec
    from repro.sim.adversary import Scheduler
    from repro.sim.async_engine import AsyncEngine
    from repro.sim.backends.base import KernelBackend
    from repro.sim.backends.vectorized import VectorizedBackend
    from repro.sim.faults import FaultInjector
    from repro.sim.invariants import InvariantChecker
    from repro.sim.kernel import ExecutionKernel
    from repro.sim.sync_engine import SyncEngine
    from repro.store.db import RunStore

    from repro.runner.scenario import ScenarioSpec

    patches = Patches()
    span, count = tracer.span, tracer.count

    # sweep.py imported run_scenario by name; patch both bindings.
    wrapped_run = span(
        "runner.execute", execute_mod.run_scenario, lambda algorithm, scenario: scenario.digest()
    )
    for module in (execute_mod, sweep_mod):
        patches.replace(module, "run_scenario", lambda _fn: wrapped_run)

    def run_until(fn):
        def wrapper(self, predicate, *args, **kwargs):
            return fn(self, span("sim.async_engine.predicate", predicate), *args, **kwargs)

        return span("sim.async_engine.run_until", wrapper)

    patches.replace(execute_mod, "build_graph", lambda fn: span("graph.build", fn))
    patches.replace(AlgorithmSpec, "run", lambda fn: span("core.driver", fn))
    patches.replace(SyncEngine, "step", lambda fn: span("sim.sync_engine.step", fn))
    patches.replace(SyncEngine, "step_path", lambda fn: span("sim.sync_engine.step_path", fn))
    patches.replace(ExecutionKernel, "apply_batch", lambda fn: span("sim.kernel.apply_batch", fn))
    patches.replace(AsyncEngine, "run_until", run_until)
    patches.replace(FaultInjector, "begin_tick", lambda fn: span("sim.faults.begin_tick", fn))
    patches.replace(InvariantChecker, "after_tick", lambda fn: span("sim.invariants.after_tick", fn))
    patches.replace(trace_mod, "trace_payload", lambda fn: span("sim.trace.payload", fn))
    patches.replace(PortLabeledGraph, "rewire", lambda fn: span("graph.rewire", fn))
    patches.replace(cache_mod, "run_fingerprint", lambda fn: span(
        "store.fingerprint", fn, lambda algorithm, scenario, *rest: scenario.digest()))
    patches.replace(RunStore, "put", lambda fn: span(
        "store.put", fn,
        lambda store, fingerprint, record, *rest: ScenarioSpec.from_dict(record.scenario).digest()))
    patches.replace(RunStore, "get_many", lambda fn: span("store.get_many", fn, lambda *args: None))

    # Driver-phase primitives.  The base bodies are the reference backend's
    # implementation; reached from a vectorized override they are a fallback
    # and are only counted (their time stays in the override's span).
    for method, layer in BACKEND_LAYERS.items():
        def base(fn, layer=layer):
            timed = span(layer, fn)

            def wrapper(self, *args, **kwargs):
                if isinstance(self, VectorizedBackend):
                    tracer.counts["sim.backends.fallback.calls"] += 1
                    return fn(self, *args, **kwargs)
                return timed(self, *args, **kwargs)

            return wrapper

        patches.replace(KernelBackend, method, base)
        patches.replace(
            VectorizedBackend,
            method,
            lambda fn, layer=layer: count("sim.backends.vectorized.calls", span(layer, fn)),
        )

    patches.replace(Oscillator, "plan_step", lambda fn: count("core.oscillation.plan_step.calls", fn))
    patches.replace(Agent, "arrive", lambda fn: count("agents.arrive.calls", fn))
    patches.replace(AgentMemory, "write", lambda fn: count("agents.memory.write.calls", fn))
    patches.replace(ExecutionKernel, "apply_move", lambda fn: count("sim.kernel.apply_move.calls", fn))
    for method in KERNEL_QUERIES:
        patches.replace(ExecutionKernel, method, lambda fn: count("sim.kernel.query.calls", fn))
    for cls in _subclasses(Scheduler):
        if "next_agent" in cls.__dict__:
            patches.replace(cls, "next_agent", lambda fn: count("sim.adversary.next_agent.calls", fn))

    def measure_bytes(fn):
        def canonical_record_json(record):
            text = fn(record)
            tracer.counts["store.bytes_written"] += len(text.encode("utf-8"))
            return text

        return canonical_record_json

    patches.replace(db_mod, "canonical_record_json", measure_bytes)
    return patches
