"""The trace recorder: determinism, replay fidelity, and byte-stability.

Three guarantees anchor this suite:

* **Off means off** -- with tracing disabled, every record, artifact byte,
  and store fingerprint is identical to what the repo produced before traces
  existed (no ``code_version`` bump, no new serialized keys).
* **Determinism** -- the same spec+seed yields a byte-identical
  ``repro-trace-v1`` payload across repeated runs, kernel backends, and sweep
  worker counts.
* **Replay fidelity** -- applying a segment's event log to its initial state
  reproduces the recorded final positions and settled set exactly
  (:func:`repro.sim.trace.replay_segment` / :func:`verify_trace`).
"""

from __future__ import annotations

import json

import pytest

from repro.runner.execute import run_scenario
from repro.runner.scenario import ScenarioSpec
from repro.runner.sweep import SweepSpec, run_sweep
from repro.sim.trace import (
    TRACE_FORMAT,
    TraceError,
    canonical_trace_json,
    replay_segment,
    trace_digest,
    trace_stats,
    verify_trace,
)
from repro.store import RunStore, run_fingerprint

SYNC_SPEC = ScenarioSpec(family="complete", params={"n": 10}, k=6)
ASYNC_SPEC = ScenarioSpec(family="erdos_renyi", params={"n": 14, "p": 0.3}, k=8, seed=2)
FAULTY_SPEC = ScenarioSpec(
    family="line",
    params={"n": 14},
    k=8,
    faults={"freeze": 0.4, "freeze_duration": 15},
    check_invariants=True,
)


def _traced(algorithm: str, spec: ScenarioSpec):
    record = run_scenario(algorithm, spec.with_trace())
    assert record.trace is not None
    return record


# ------------------------------------------------------------ off means off
def test_disabled_tracing_serializes_nothing():
    spec = SYNC_SPEC
    assert "trace" not in spec.to_dict()
    record = run_scenario("rooted_sync", spec)
    assert record.trace is None
    assert "trace" not in record.to_dict()
    assert "trace" not in record.to_dict()["scenario"]


def test_disabled_tracing_keeps_fingerprints_stable():
    # The envelope gains a "trace" key only when enabled, so every
    # pre-trace store row keeps its fingerprint.
    off = run_fingerprint("rooted_sync", SYNC_SPEC)
    on = run_fingerprint("rooted_sync", SYNC_SPEC.with_trace())
    assert off != on
    assert off == run_fingerprint("rooted_sync", SYNC_SPEC.with_trace(False))


def test_traced_record_changes_nothing_but_the_trace():
    plain = run_scenario("rooted_sync", SYNC_SPEC).to_dict()
    traced = _traced("rooted_sync", SYNC_SPEC).to_dict()
    traced.pop("trace")
    assert traced["scenario"].pop("trace") is True
    assert traced == plain


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_traced_walk_metrics_match_untraced(backend):
    spec = ScenarioSpec(
        family="erdos_renyi", params={"n": 16, "p": 0.3}, k=8, backend=backend
    )
    plain = run_scenario("random_walk", spec).to_dict()
    traced = run_scenario("random_walk", spec.with_trace()).to_dict()
    traced.pop("trace")
    traced["scenario"].pop("trace")
    plain["scenario"].pop("backend", None)
    traced["scenario"].pop("backend", None)
    assert traced == plain


# ------------------------------------------------------------- determinism
@pytest.mark.parametrize(
    "algorithm,spec",
    [
        ("rooted_sync", SYNC_SPEC),
        ("rooted_async", ASYNC_SPEC),
        ("naive_dfs", SYNC_SPEC),
        ("random_walk", ASYNC_SPEC),
    ],
)
def test_same_spec_same_bytes_across_repeats(algorithm, spec):
    first = _traced(algorithm, spec).trace
    second = _traced(algorithm, spec).trace
    assert canonical_trace_json(first) == canonical_trace_json(second)
    assert trace_digest(first) == trace_digest(second)


@pytest.mark.parametrize("algorithm", ["rooted_sync", "rooted_async", "naive_dfs"])
def test_same_bytes_across_backends(algorithm):
    spec = ASYNC_SPEC if algorithm == "rooted_async" else SYNC_SPEC
    reference = _traced(algorithm, spec.with_backend("reference")).trace
    vectorized = _traced(algorithm, spec.with_backend("vectorized")).trace
    assert canonical_trace_json(reference) == canonical_trace_json(vectorized)


def test_same_bytes_across_sweep_worker_counts():
    sweep = SweepSpec.from_grid(
        name="trace-workers",
        algorithms=["rooted_sync", "naive_dfs"],
        graphs=[{"family": "complete", "params": {"n": 10}}],
        ks=[6, 10],
    ).with_trace()
    serial = run_sweep(sweep, workers=1)
    parallel = run_sweep(sweep, workers=2)
    assert len(serial) == len(parallel) == 4
    for a, b in zip(serial, parallel):
        assert a.trace is not None
        assert canonical_trace_json(a.trace) == canonical_trace_json(b.trace)


def test_payload_carries_no_wall_clock_data():
    payload = _traced("rooted_sync", SYNC_SPEC).trace
    text = canonical_trace_json(payload)
    for forbidden in ("record_s", "serialize_s", "timings", "wall", "backend"):
        assert forbidden not in text


# --------------------------------------------------------------- replay
@pytest.mark.parametrize(
    "algorithm,spec",
    [
        ("rooted_sync", SYNC_SPEC),
        ("rooted_async", ASYNC_SPEC),
        ("random_walk", ASYNC_SPEC),
        ("rooted_sync", FAULTY_SPEC),
        ("rooted_async", FAULTY_SPEC),
    ],
)
def test_replay_reproduces_final_state(algorithm, spec):
    record = _traced(algorithm, spec)
    assert verify_trace(record.trace) == []
    for segment in record.trace["segments"]:
        replayed = replay_segment(segment)
        assert replayed["positions"] == dict(
            zip(segment["agents"], segment["final"]["positions"])
        )
        assert replayed["settled"] == sorted(segment["final"]["settled"])


def test_replay_move_count_matches_metrics():
    record = _traced("rooted_sync", SYNC_SPEC)
    total = sum(
        replay_segment(segment)["moves"] for segment in record.trace["segments"]
    )
    assert total == record.total_moves


def test_replay_rejects_corrupt_move_source():
    record = _traced("rooted_sync", SYNC_SPEC)
    payload = json.loads(canonical_trace_json(record.trace))
    segment = next(
        s
        for s in payload["segments"]
        if any(e[1] == "move" for e in s["events"])
    )
    move = next(e for e in segment["events"] if e[1] == "move")
    move[3] = move[3] + 999  # src no longer matches the replayed position
    with pytest.raises(TraceError, match="replayed position"):
        replay_segment(segment)


def test_verify_trace_flags_tampered_final_state():
    record = _traced("rooted_sync", SYNC_SPEC)
    payload = json.loads(canonical_trace_json(record.trace))
    segment = payload["segments"][0]
    segment["final"]["positions"][0] += 1
    problems = verify_trace(payload)
    assert problems and "position" in problems[0]


# --------------------------------------------------------------- content
def test_sync_segments_record_rounds_async_record_activations():
    sync = _traced("rooted_sync", SYNC_SPEC).trace
    assert all(s["granularity"] == "rounds" for s in sync["segments"])
    assert all("schedule" not in s for s in sync["segments"])
    async_payload = _traced("rooted_async", ASYNC_SPEC).trace
    for segment in async_payload["segments"]:
        assert segment["granularity"] == "activations"
        assert len(segment["schedule"]) == segment["counters"]["ticks"]


def test_fault_overlay_records_blocks_and_fault_log():
    record = _traced("rooted_sync", FAULTY_SPEC)
    assert record.fault_events and record.fault_events > 0
    segment = record.trace["segments"][0]
    blocks = [e for e in segment["events"] if e[1] == "block"]
    assert len(blocks) + len(
        [e for e in segment["events"] if e[1] == "unblock"]
    ) >= len(segment["faults"]) > 0
    assert record.invariant_violations == sum(
        len(s["violations"]) for s in record.trace["segments"]
    )


def test_probe_counters_follow_kernel_queries():
    from repro.runner.execute import build_engine

    engine = build_engine(SYNC_SPEC.with_trace(), setting="sync")
    kernel = engine._kernel
    assert kernel.trace is not None
    before = dict(kernel.trace.counters)
    assert before["probe_queries"] == 0
    node = next(iter(kernel.positions().values()))
    kernel.settled_agent_at(node)
    kernel.settled_agents_at(node)
    assert kernel.trace.counters["probe_queries"] == 2


def test_trace_stats_and_format_guard():
    payload = _traced("rooted_sync", SYNC_SPEC).trace
    stats = trace_stats(payload)
    assert stats["segments"] == len(payload["segments"])
    assert stats["granularity"] == "rounds"
    assert payload["format"] == TRACE_FORMAT
    with pytest.raises(TraceError):
        trace_stats({"format": "not-a-trace"})


# ----------------------------------------------------------------- store
def test_store_roundtrips_trace_bytes_and_indexes_them(tmp_path):
    record = _traced("rooted_sync", SYNC_SPEC)
    fingerprint = run_fingerprint("rooted_sync", SYNC_SPEC.with_trace())
    with RunStore(str(tmp_path / "runs.sqlite")) as store:
        store.put(fingerprint, record)
        loaded = store.get(fingerprint)
        assert loaded is not None
        assert canonical_trace_json(loaded.trace) == canonical_trace_json(record.trace)
        rows = store.traces()
        assert len(rows) == 1
        assert rows[0]["fingerprint"] == fingerprint
        assert rows[0]["algorithm"] == "rooted_sync"
        assert rows[0]["granularity"] == "rounds"
        assert rows[0]["content_hash"] == trace_digest(record.trace)
        assert rows[0]["bytes"] == len(canonical_trace_json(record.trace).encode())
        assert store.get_trace(fingerprint) == record.trace
        assert store.stats()["traces"] == 1


def test_store_delete_drops_the_trace_index_row(tmp_path):
    record = _traced("rooted_sync", SYNC_SPEC)
    fingerprint = run_fingerprint("rooted_sync", SYNC_SPEC.with_trace())
    with RunStore(str(tmp_path / "runs.sqlite")) as store:
        store.put(fingerprint, record)
        assert store.delete([fingerprint]) == 1
        assert store.traces() == []
        assert store.stats()["traces"] == 0


def test_untraced_records_never_touch_the_trace_index(tmp_path):
    record = run_scenario("rooted_sync", SYNC_SPEC)
    with RunStore(str(tmp_path / "runs.sqlite")) as store:
        store.put(run_fingerprint("rooted_sync", SYNC_SPEC), record)
        assert store.traces() == []
        assert store.stats()["traces"] == 0


# ------------------------------------------------------------------- viz
def test_render_html_inlines_everything():
    from repro.viz import render_html

    record = _traced("rooted_sync", FAULTY_SPEC)
    html = render_html(record.trace, title="faulty line")
    assert "http://" not in html and "https://" not in html
    assert "<script>" in html and "<style>" in html
    assert "faulty line" in html
    with pytest.raises(TraceError):
        render_html({"format": "not-a-trace"})


def test_summarize_renders_counters_and_verdict():
    from repro.viz import summarize

    record = _traced("rooted_async", ASYNC_SPEC)
    text = summarize(record.trace, label="async run")
    assert "async run" in text
    assert "replay ok" in text
    assert "activations=" in text
