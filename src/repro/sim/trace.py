"""Kernel-level execution tracing: the ``repro-trace-v1`` artifact.

A :class:`TraceRecorder` is attached to one
:class:`~repro.sim.kernel.ExecutionKernel` (resolved from the ambient
instrumentation context, exactly as injectors and checkers are) and captures a
complete, replayable event log of the run: per-round / per-activation agent
moves, settle/unsettle transitions, fault block/unblock edges, churn rewires,
the ASYNC activation schedule, plus op counters (moves, settles, probes
answered) and wall-clock phase timers.

Recording is *diff-based*: the engines call :meth:`TraceRecorder.record_tick`
(SYNC, once per round) or :meth:`TraceRecorder.record_activation` (ASYNC, once
per activation) and the recorder scans the kernel's world state against its
last snapshot, emitting only what changed.  Settles happen in driver code
(``agent.settle(...)``), not through a kernel primitive, so diffing is the one
hook point that sees *every* state transition regardless of which layer caused
it; a final catch-up diff at serialization time picks up driver-side settle
passes that run after the last engine step.

The world is only rescanned when something can have changed since the last
diff.  Positions change only through the backends' moves, which bump
``metrics.total_moves``; settled flags only through ``Agent.settle`` /
``unsettle``, which bump the kernel's settle tally; edges only through churn,
which bumps ``graph.churn_count``.  When none of the three moved, the O(k)
positions and settled scan would find nothing and is skipped.  Block/unblock
edges follow the fault clock, not the world, so under a fault injector that
pass still runs every tick.  The catch-up diff never skips.

Determinism contract: the serialized payload is a pure function of the run's
observable state sequence.  It deliberately contains no wall-clock data (the
phase timers stay on the recorder object), no backend tag, and no scenario
dict, so the same spec + seed yields byte-identical payloads across engines,
kernel backends, and sweep worker processes -- the property the trace
determinism suite pins.  Fault queries use the injector's *pure* point queries
(:meth:`~repro.sim.faults.FaultInjector.is_blocked`), never the monotone
cursor, so recording cannot disturb fault scheduling.

Event rows are compact JSON-safe lists ``[t, kind, ...]``:

=============  =======================================  ======================
kind           row                                      meaning
=============  =======================================  ======================
``move``       ``[t, "move", agent, src, dst]``         agent crossed an edge
``settle``     ``[t, "settle", agent, node]``           agent settled at node
``unsettle``   ``[t, "unsettle", agent]``               sanctioned unsettle
``block``      ``[t, "block", agent]``                  fault-blocked from t on
``unblock``    ``[t, "unblock", agent]``                fault window ended
``churn``      ``[t, "churn", removed, added]``         edge rewire (edge lists)
=============  =======================================  ======================

``t`` is the engine's native clock *after* the tick executed (rounds for SYNC,
activations for ASYNC), so replaying all events with ``t <= T`` reconstructs
the world exactly as it stood after tick ``T``.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import ExecutionKernel

__all__ = [
    "TRACE_FORMAT",
    "TraceError",
    "TraceRecorder",
    "trace_payload",
    "canonical_trace_json",
    "trace_digest",
    "trace_stats",
    "replay_segment",
    "verify_trace",
]

#: Schema tag of every serialized trace payload.
TRACE_FORMAT = "repro-trace-v1"


class TraceError(ValueError):
    """A trace payload is malformed or does not replay to its recorded final
    state.  Subclasses :class:`ValueError` so the CLI's clean-error path
    applies."""


def _edge_list(graph: Any) -> List[Tuple[int, int]]:
    """The graph's undirected edge set as sorted ``(min, max)`` tuples."""
    return sorted({(u, v) if u <= v else (v, u) for u, v in graph.edges()})


class TraceRecorder:
    """Diff-based event recorder bound to one execution kernel.

    Construction snapshots the initial world (positions, settled bits, edge
    set); every :meth:`record_tick` emits the delta since the previous tick.
    One recorder covers one engine; runs whose driver builds several engines
    (the rooted SYNC small-``k`` fallback) serialize as multiple *segments*
    under one payload, in construction order.
    """

    def __init__(self, kernel: "ExecutionKernel") -> None:
        self.kernel = kernel
        self.granularity = "activations" if kernel._count_activations else "rounds"
        graph = kernel.graph
        self.num_nodes = int(graph.num_nodes)
        self.agent_ids: List[int] = sorted(kernel.agents)
        self._edges = _edge_list(graph)
        self.initial_edges: List[List[int]] = [list(e) for e in self._edges]
        positions = kernel.positions()
        self._positions: Dict[int, int] = {a: positions[a] for a in self.agent_ids}
        self._settled: Set[int] = {
            a for a in self.agent_ids if kernel.agents[a].settled
        }
        self._blocked: Set[int] = set()
        self._churn_seen = graph.churn_count
        self.init_positions: List[int] = [self._positions[a] for a in self.agent_ids]
        self.init_settled: List[int] = sorted(self._settled)
        self.events: List[List[Any]] = []
        #: ASYNC only: the scheduler's activation choices, in order.
        self.schedule: List[int] = []
        self.counters: Dict[str, int] = {
            "ticks": 0,
            "moves": 0,
            "settles": 0,
            "unsettles": 0,
            "blocked": 0,
            "unblocked": 0,
            "churn_events": 0,
            "probe_queries": 0,
            "probes_answered": 0,
        }
        #: Wall-clock phase timers (seconds).  Never serialized: the payload
        #: must stay a pure function of the run, not of the machine.
        self.timings: Dict[str, float] = {"record_s": 0.0, "serialize_s": 0.0}
        self._final_diffed = False
        self._seen = self._change_key()

    # ------------------------------------------------------------- recording
    def record_tick(self) -> None:
        """Record the delta of one completed tick (round or activation).

        Called by the engines after their native counter advanced.  A tick
        after which no move, settle/unsettle or churn happened since the last
        diff skips the world scan; without a fault injector (whose block and
        unblock edges are diffed every tick) it is only counted.
        """
        self.counters["ticks"] += 1
        key = self._change_key()
        changed = key != self._seen
        if not changed and self.kernel.fault_injector is None:
            return
        self._seen = key
        start = time.perf_counter()
        self._diff(self._now(), world=changed)
        self.timings["record_s"] += time.perf_counter() - start

    def record_activation(self, agent_id: int) -> None:
        """ASYNC hook: note the scheduler's choice, then record the tick.

        Runs for blocked activations too -- the schedule is the adversary's
        full decision sequence, and the block/unblock overlay comes from the
        diff pass.
        """
        self.schedule.append(agent_id)
        self.record_tick()

    def count_probe(self, answered: bool) -> None:
        """Kernel hook: one settled-agent probe query (answered or not)."""
        self.counters["probe_queries"] += 1
        if answered:
            self.counters["probes_answered"] += 1

    def _change_key(self) -> Tuple[int, int, int]:
        """Counters that move whenever a position, settled flag or edge may
        have changed (see the module docstring)."""
        kernel = self.kernel
        return (kernel.metrics.total_moves, kernel.tally.events, kernel.graph.churn_count)

    def _now(self) -> int:
        metrics = self.kernel.metrics
        return metrics.activations if self.granularity == "activations" else metrics.rounds

    def _diff(self, t: int, world: bool = True) -> None:
        """Emit the events since the last diff; ``world=False`` skips the
        positions and settled scan (nothing moved, settled or unsettled)."""
        kernel = self.kernel
        events = self.events
        counters = self.counters
        if world:
            self._diff_world(t)
        injector = kernel.fault_injector
        if injector is not None:
            # The tick that just executed ran at time t-1 (both engines read
            # their counter before incrementing); is_blocked is a pure point
            # query, so asking here cannot move the injector's cursor.
            texec = t - 1 if t > 0 else 0
            for aid in self.agent_ids:
                blocked_now = injector.is_blocked(aid, texec)
                was_blocked = aid in self._blocked
                if blocked_now and not was_blocked:
                    events.append([t, "block", aid])
                    self._blocked.add(aid)
                    counters["blocked"] += 1
                elif was_blocked and not blocked_now:
                    events.append([t, "unblock", aid])
                    self._blocked.discard(aid)
                    counters["unblocked"] += 1
        graph = kernel.graph
        if graph.churn_count != self._churn_seen:
            self._churn_seen = graph.churn_count
            edges = _edge_list(graph)
            old_set = set(self._edges)
            new_set = set(edges)
            removed = sorted(old_set - new_set)
            added = sorted(new_set - old_set)
            events.append(
                [t, "churn", [list(e) for e in removed], [list(e) for e in added]]
            )
            self._edges = edges
            counters["churn_events"] += 1

    def _diff_world(self, t: int) -> None:
        """Move, settle and unsettle events: the O(k) positions and settled scan."""
        kernel = self.kernel
        positions = kernel.positions()
        agents = kernel.agents
        settled = {a for a in self.agent_ids if agents[a].settled}
        events = self.events
        counters = self.counters
        for aid in self.agent_ids:
            new = positions[aid]
            old = self._positions[aid]
            if new != old:
                events.append([t, "move", aid, old, new])
                self._positions[aid] = new
                counters["moves"] += 1
            was = aid in self._settled
            now_settled = aid in settled
            if now_settled and not was:
                events.append([t, "settle", aid, agents[aid].home])
                self._settled.add(aid)
                counters["settles"] += 1
            elif was and not now_settled:
                events.append([t, "unsettle", aid])
                self._settled.discard(aid)
                counters["unsettles"] += 1

    # ----------------------------------------------------------- serialization
    def finalize(self) -> None:
        """Catch-up diff for state changed after the last engine tick.

        Driver-side settle passes (e.g. the random-walk baseline settles
        *after* stepping) mutate agents without another ``step``; this folds
        those transitions into the log at the final tick time.  Idempotent.
        """
        if self._final_diffed:
            return
        start = time.perf_counter()
        self._diff(self._now())
        self._final_diffed = True
        self.timings["record_s"] += time.perf_counter() - start

    def segment(self) -> Dict[str, Any]:
        """This recorder's serialized segment (finalizes first)."""
        self.finalize()
        start = time.perf_counter()
        kernel = self.kernel
        agents = kernel.agents
        injector = kernel.fault_injector
        checker = kernel.invariant_checker
        metrics = kernel.metrics
        data: Dict[str, Any] = {
            "granularity": self.granularity,
            "graph": {"nodes": self.num_nodes, "edges": self.initial_edges},
            "agents": list(self.agent_ids),
            "init": {
                "positions": list(self.init_positions),
                "settled": list(self.init_settled),
            },
            "events": [list(e) for e in self.events],
            "faults": (
                [[e.time, e.kind, e.detail] for e in injector.events]
                if injector is not None
                else []
            ),
            "violations": (
                [[v.time, v.name, v.detail] for v in checker.violations]
                if checker is not None
                else []
            ),
            "final": {
                "positions": [self._positions[a] for a in self.agent_ids],
                "settled": sorted(
                    a for a in self.agent_ids if agents[a].settled
                ),
                "metrics": {
                    "rounds": metrics.rounds,
                    "epochs": metrics.epochs,
                    "activations": metrics.activations,
                    "total_moves": metrics.total_moves,
                    "max_moves_per_agent": metrics.max_moves_per_agent,
                },
            },
            "counters": dict(self.counters),
        }
        if self.granularity == "activations":
            data["schedule"] = list(self.schedule)
        self.timings["serialize_s"] += time.perf_counter() - start
        return data


def trace_payload(
    recorders: Sequence[TraceRecorder], algorithm: Optional[str] = None
) -> Dict[str, Any]:
    """Serialize every recorder of one run into a ``repro-trace-v1`` payload."""
    payload: Dict[str, Any] = {
        "format": TRACE_FORMAT,
        "algorithm": algorithm,
        "segments": [recorder.segment() for recorder in recorders],
    }
    return payload


def canonical_trace_json(payload: Mapping[str, Any]) -> str:
    """Canonical compact JSON of a payload (the byte-identity the suite pins)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def trace_digest(payload: Mapping[str, Any]) -> str:
    """Hex SHA-256 of the canonical payload bytes (content address)."""
    return hashlib.sha256(canonical_trace_json(payload).encode("utf-8")).hexdigest()


def trace_stats(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Cheap summary numbers of a payload (for CLI one-liners)."""
    if payload.get("format") != TRACE_FORMAT:
        raise TraceError(
            f"not a {TRACE_FORMAT} payload (format={payload.get('format')!r})"
        )
    segments = payload.get("segments", [])
    return {
        "segments": len(segments),
        "events": sum(len(s.get("events", [])) for s in segments),
        "faults": sum(len(s.get("faults", [])) for s in segments),
        "violations": sum(len(s.get("violations", [])) for s in segments),
        "granularity": segments[-1]["granularity"] if segments else None,
    }


def replay_segment(segment: Mapping[str, Any]) -> Dict[str, Any]:
    """Apply a segment's event log over its initial state.

    Returns the reconstructed end state (``positions``, sorted ``settled``,
    ``moves`` applied, final ``edges``); raises :class:`TraceError` when an
    event contradicts the reconstructed state (a move from a node the agent is
    not at), which is the conformance suite's corruption check.
    """
    agent_ids = list(segment["agents"])
    positions: Dict[int, int] = dict(zip(agent_ids, segment["init"]["positions"]))
    settled: Set[int] = set(segment["init"]["settled"])
    edges: Set[Tuple[int, int]] = {tuple(e) for e in segment["graph"]["edges"]}
    moves = 0
    for event in segment["events"]:
        kind = event[1]
        if kind == "move":
            _t, _k, aid, src, dst = event
            if positions.get(aid) != src:
                raise TraceError(
                    f"event {event} moves agent {aid} from node {src}, but the "
                    f"replayed position is {positions.get(aid)}"
                )
            positions[aid] = dst
            moves += 1
        elif kind == "settle":
            settled.add(event[2])
        elif kind == "unsettle":
            settled.discard(event[2])
        elif kind == "churn":
            _t, _k, removed, added = event
            for e in removed:
                edges.discard(tuple(e))
            for e in added:
                edges.add(tuple(e))
        elif kind not in ("block", "unblock"):
            raise TraceError(f"unknown trace event kind {kind!r} in {event}")
    return {
        "positions": positions,
        "settled": sorted(settled),
        "moves": moves,
        "edges": sorted(edges),
    }


def verify_trace(payload: Mapping[str, Any]) -> List[str]:
    """Replay every segment and compare against its recorded final state.

    Returns a list of problem descriptions (empty = the trace replays
    exactly); used by ``repro trace --summary`` and the trace-smoke CI job.
    """
    if payload.get("format") != TRACE_FORMAT:
        return [f"not a {TRACE_FORMAT} payload (format={payload.get('format')!r})"]
    problems: List[str] = []
    for index, segment in enumerate(payload.get("segments", [])):
        try:
            state = replay_segment(segment)
        except (TraceError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"segment {index}: replay failed: {exc}")
            continue
        agent_ids = list(segment["agents"])
        final_positions = dict(zip(agent_ids, segment["final"]["positions"]))
        if state["positions"] != final_positions:
            diverged = sorted(
                a
                for a in agent_ids
                if state["positions"].get(a) != final_positions.get(a)
            )
            problems.append(
                f"segment {index}: replayed positions diverge for agent(s) "
                f"{diverged[:5]}"
            )
        if state["settled"] != sorted(segment["final"]["settled"]):
            problems.append(f"segment {index}: replayed settled set diverges")
    return problems
