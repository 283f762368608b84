"""Tests for the ``python -m repro`` / ``repro`` command line."""

from __future__ import annotations

import json

import pytest

from repro.runner.cli import build_parser, main


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["--help"])
    assert excinfo.value.code == 0
    assert "sweep" in capsys.readouterr().out


def test_run_prints_summary(capsys):
    code = main([
        "run", "--algorithm", "rooted_sync", "--family", "line",
        "--param", "n=12", "--k", "6",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "dispersed=True" in out and "rounds" in out


def test_run_json_output_is_a_full_record(capsys):
    code = main([
        "run", "--algorithm", "naive_dfs", "--family", "complete",
        "--param", "n=8", "--k", "8", "--json",
    ])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "ok"
    assert record["scenario"]["family"] == "complete"
    assert record["rounds"] > 0


def test_run_scheduler_axis_round_trips(capsys):
    code = main([
        "run", "--algorithm", "rooted_async", "--family", "ring",
        "--param", "n=12", "--k", "6", "--scheduler", "semi-sync:0.5", "--json",
    ])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "ok" and record["dispersed"]
    assert record["scenario"]["scheduler"] == "semi-sync"
    assert record["scenario"]["scheduler_params"] == {"p": 0.5}


def test_run_sync_algorithm_under_scheduler_is_unsupported(capsys):
    code = main([
        "run", "--algorithm", "rooted_sync", "--family", "line",
        "--param", "n=12", "--k", "6", "--scheduler", "lockstep",
    ])
    assert code == 1
    assert "SYNC algorithm" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    "fsync",
    "bounded-delay:x",
    "bounded-delay:0",
    "semi-sync:lots",
    "semi-sync:2.0",
    "semi-sync:0",
    "lockstep:1",
])
def test_malformed_scheduler_exits_two_with_clear_message(text, capsys):
    code = main([
        "run", "--algorithm", "rooted_async", "--family", "ring",
        "--param", "n=12", "--k", "6", "--scheduler", text,
    ])
    assert code == 2
    assert "scheduler" in capsys.readouterr().err


def test_sweep_scheduler_restricts_grid_to_async_capable(tmp_path, capsys):
    out = tmp_path / "sched.json"
    code = main([
        "sweep", "--smoke", "--scheduler", "bounded-delay:2",
        "--check-invariants", "--out", str(out), "--quiet",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    records = payload["records"]
    assert records, "scheduler sweep produced no records"
    for record in records:
        assert record["scenario"]["scheduler"] == "bounded-delay"
        assert record["scenario"]["scheduler_params"] == {"delay_factor": 2}
        assert record["status"] == "ok"
        assert record["dispersed"] is True
        assert not record["invariant_violations"]
    assert {r["algorithm"] for r in records} == {
        "general_async", "ks_opodis21", "rooted_async",
    }


def test_run_reports_failure_via_exit_code(capsys):
    code = main([
        "run", "--algorithm", "rooted_sync", "--family", "line",
        "--param", "n=4", "--k", "9",
    ])
    assert code == 1
    assert "cannot disperse" in capsys.readouterr().out


def test_sweep_spec_file_to_artifact_to_report(tmp_path, capsys):
    spec = {
        "name": "cli-grid",
        "algorithms": ["rooted_sync", "naive_dfs"],
        "graphs": [{"family": "complete", "params": {"n": 10}}],
        "ks": [6, 10],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "grid.json"
    csv_path = tmp_path / "grid.csv"

    code = main([
        "sweep", "--spec", str(spec_path), "--out", str(out_path),
        "--csv", str(csv_path), "--quiet",
    ])
    assert code == 0
    assert out_path.exists() and csv_path.exists()
    payload = json.loads(out_path.read_text())
    assert payload["format"] == "repro-sweep-v1"
    assert len(payload["records"]) == 4

    code = main(["report", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "complete graphs" in out
    assert "claimed bound" in out


def test_sweep_exit_code_flags_errors(tmp_path, capsys):
    spec = {
        "name": "cli-bad",
        "algorithms": ["rooted_sync"],
        "graphs": [{"family": "line", "params": {"n": 4}}],
        "ks": [9],  # infeasible: k > n
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "bad.json"), "--quiet"])
    assert code == 1
    assert "FAILED" in capsys.readouterr().err


def test_list_names_every_algorithm(capsys):
    from repro.runner import algorithm_names

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in algorithm_names():
        assert name in out


# ------------------------------------------------------------- error paths
def test_unknown_algorithm_exits_nonzero_with_message(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--algorithm", "does_not_exist", "--family", "line",
              "--param", "n=8", "--k", "4"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_graph_family_exits_nonzero_with_message(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--algorithm", "rooted_sync", "--family", "klein_bottle",
              "--param", "n=8", "--k", "4"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_adversary_exits_nonzero_with_message(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--algorithm", "rooted_async", "--family", "line",
              "--param", "n=8", "--k", "4", "--adversary", "byzantine"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["crash", "crash:2.0", "bogus:0.1", "freeze:0.1:0"])
def test_malformed_faults_spec_exits_two_with_clear_message(spec, capsys):
    code = main(["run", "--algorithm", "rooted_sync", "--family", "line",
                 "--param", "n=8", "--k", "4", "--faults", spec])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fault" in err


def test_malformed_sweep_faults_exits_two(tmp_path, capsys):
    code = main(["sweep", "--smoke", "--faults", "crash:nope",
                 "--out", str(tmp_path / "x.json"), "--quiet"])
    assert code == 2
    assert "not a number" in capsys.readouterr().err


def test_empty_sweep_grid_exits_two_with_clear_message(tmp_path, capsys):
    spec = {"name": "empty", "algorithms": ["rooted_sync"], "scenarios": []}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "x.json"), "--quiet"])
    assert code == 2
    assert "empty" in capsys.readouterr().err


def test_algorithm_filter_to_empty_grid_exits_two(tmp_path, capsys):
    spec = {
        "name": "mini",
        "algorithms": ["rooted_sync"],
        "graphs": [{"family": "line", "params": {"n": 8}}],
        "ks": [4],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code = main(["sweep", "--spec", str(spec_path), "--algorithms", "general_sync",
                 "--out", str(tmp_path / "x.json"), "--quiet"])
    assert code == 2
    assert "empty" in capsys.readouterr().err


def test_unknown_algorithm_filter_exits_two(tmp_path, capsys):
    code = main(["sweep", "--smoke", "--algorithms", "not_an_algorithm",
                 "--out", str(tmp_path / "x.json"), "--quiet"])
    assert code == 2
    assert "unknown algorithm" in capsys.readouterr().err


def test_unreadable_spec_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code = main(["sweep", "--spec", str(missing), "--out", str(tmp_path / "x.json"), "--quiet"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------ fault/invariant flags
def test_run_with_invariants_reports_zero_violations(capsys):
    code = main(["run", "--algorithm", "rooted_sync", "--family", "line",
                 "--param", "n=12", "--k", "6", "--check-invariants"])
    assert code == 0
    assert "invariant_violations=0" in capsys.readouterr().out


def test_run_json_record_carries_fault_fields(capsys):
    code = main(["run", "--algorithm", "naive_dfs", "--family", "complete",
                 "--param", "n=8", "--k", "6", "--faults", "freeze:0.9:5",
                 "--check-invariants", "--json"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["fault_events"] is not None
    assert record["invariant_violations"] == 0
    assert record["scenario"]["faults"] == {"freeze": 0.9, "freeze_duration": 5}


def test_sweep_crosses_grid_with_fault_profiles(tmp_path, capsys):
    spec = {
        "name": "fault-grid",
        "algorithms": ["rooted_sync", "naive_dfs"],
        "graphs": [{"family": "line", "params": {"n": 10}}],
        "ks": [6],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "faults.json"
    csv_path = tmp_path / "faults.csv"
    code = main(["sweep", "--spec", str(spec_path), "--faults", "none",
                 "--faults", "freeze:0.8:20", "--check-invariants",
                 "--out", str(out_path), "--csv", str(csv_path), "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fault & invariant summary" in out
    payload = json.loads(out_path.read_text())
    assert len(payload["records"]) == 4  # 2 algorithms x 1 scenario x 2 profiles
    profiles = {json.dumps(r["scenario"]["faults"], sort_keys=True) for r in payload["records"]}
    assert len(profiles) == 2
    assert all(r["invariant_violations"] == 0 for r in payload["records"])
    header = csv_path.read_text().splitlines()[0]
    assert "fault_events" in header and "invariant_violations" in header


# ------------------------------------------------------- experiment store CLI
def _store_spec(tmp_path):
    spec = {
        "name": "cli-store",
        "algorithms": ["rooted_sync", "naive_dfs"],
        "graphs": [{"family": "complete", "params": {"n": 10}}],
        "ks": [6, 10],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    return str(spec_path)


def test_sweep_store_second_run_is_fully_cached_and_byte_identical(tmp_path, capsys):
    spec_path = _store_spec(tmp_path)
    store = str(tmp_path / "runs.sqlite")
    cold, warm = str(tmp_path / "cold.json"), str(tmp_path / "warm.json")

    assert main(["sweep", "--spec", spec_path, "--store", store,
                 "--out", cold, "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "0/4 cache hit(s), executing 4 job(s)" in out
    assert "cache: 0 hit(s), 4 executed" in out

    assert main(["sweep", "--spec", spec_path, "--store", store, "--resume",
                 "--out", warm, "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "4/4 cache hit(s), executing 0 job(s)" in out
    assert "all 4 records served from cache (0 jobs executed)" in out
    with open(cold, "rb") as a, open(warm, "rb") as b:
        assert a.read() == b.read()


def test_sweep_resume_without_store_exits_two(tmp_path, capsys):
    code = main(["sweep", "--smoke", "--resume",
                 "--out", str(tmp_path / "x.json"), "--quiet"])
    assert code == 2
    assert "--resume needs --store" in capsys.readouterr().err


def test_sweep_progress_line_lands_on_stderr(tmp_path, capsys):
    spec_path = _store_spec(tmp_path)
    code = main(["sweep", "--spec", spec_path, "--progress", "--quiet",
                 "--out", str(tmp_path / "x.json")])
    assert code == 0
    err = capsys.readouterr().err
    assert "[4/4] hits=0 faults=0 viol=0 eta=" in err


def test_db_query_artifact_feeds_report(tmp_path, capsys):
    spec_path = _store_spec(tmp_path)
    store = str(tmp_path / "runs.sqlite")
    assert main(["sweep", "--spec", spec_path, "--store", store,
                 "--out", str(tmp_path / "a.json"), "--quiet"]) == 0
    query_out = str(tmp_path / "query.json")
    assert main(["db", "query", store, "--algorithm", "rooted_sync",
                 "--out", query_out, "--csv", str(tmp_path / "query.csv")]) == 0
    payload = json.loads((tmp_path / "query.json").read_text())
    assert payload["format"] == "repro-sweep-v1"
    assert len(payload["records"]) == 2
    assert all(r["algorithm"] == "rooted_sync" for r in payload["records"])
    capsys.readouterr()
    assert main(["report", query_out]) == 0
    assert "complete graphs" in capsys.readouterr().out


def test_db_query_without_out_prints_summary(tmp_path, capsys):
    spec_path = _store_spec(tmp_path)
    store = str(tmp_path / "runs.sqlite")
    assert main(["sweep", "--spec", spec_path, "--store", store,
                 "--out", str(tmp_path / "a.json"), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["db", "query", store, "--k", "6"]) == 0
    out = capsys.readouterr().out
    assert "2 record(s) match" in out and "k=6" in out


def test_db_diff_detects_changes_and_sets_exit_code(tmp_path, capsys):
    spec_path = _store_spec(tmp_path)
    store = str(tmp_path / "runs.sqlite")
    artifact = str(tmp_path / "a.json")
    assert main(["sweep", "--spec", spec_path, "--store", store,
                 "--out", artifact, "--quiet"]) == 0
    capsys.readouterr()

    assert main(["db", "diff", artifact, store]) == 0
    assert "no metric changes" in capsys.readouterr().out

    payload = json.loads((tmp_path / "a.json").read_text())
    payload["records"][0]["time"] = 99999
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    assert main(["db", "diff", store, str(tampered)]) == 1
    out = capsys.readouterr().out
    assert "time:" in out and "-> 99999" in out and "1 metric change(s)" in out


def test_db_import_then_sweep_is_fully_cached(tmp_path, capsys):
    spec_path = _store_spec(tmp_path)
    artifact = str(tmp_path / "legacy.json")
    assert main(["sweep", "--spec", spec_path, "--out", artifact, "--quiet"]) == 0
    store = str(tmp_path / "runs.sqlite")
    capsys.readouterr()
    assert main(["db", "import", store, artifact]) == 0
    assert "imported 4 record(s), skipped 0" in capsys.readouterr().out
    assert main(["sweep", "--spec", spec_path, "--store", store,
                 "--out", str(tmp_path / "warm.json"), "--quiet"]) == 0
    assert "0 jobs executed" in capsys.readouterr().out


def test_db_stats_and_gc_on_fresh_store(tmp_path, capsys):
    spec_path = _store_spec(tmp_path)
    store = str(tmp_path / "runs.sqlite")
    assert main(["sweep", "--spec", spec_path, "--store", store,
                 "--out", str(tmp_path / "a.json"), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["db", "stats", store]) == 0
    out = capsys.readouterr().out
    assert "4 record(s)" in out and "rooted_sync" in out and "collectable by gc: 0" in out
    assert main(["db", "gc", store]) == 0
    assert "removed 0 record(s)" in capsys.readouterr().out


def test_db_query_on_missing_store_exits_two(tmp_path, capsys):
    code = main(["db", "query", str(tmp_path / "absent.sqlite")])
    assert code == 2
    assert "does not exist" in capsys.readouterr().err


def test_db_diff_on_truncated_artifact_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "repro-sweep-v1", "records": [{"alg')
    code = main(["db", "diff", str(bad), str(bad)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_check_invariants_alone_keeps_spec_file_fault_profiles(tmp_path, capsys):
    spec = {
        "name": "keep-faults",
        "algorithms": ["rooted_sync"],
        "scenarios": [{
            "family": "line", "params": {"n": 10}, "k": 6,
            "faults": {"freeze": 0.8, "freeze_duration": 20},
        }],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "out.json"
    code = main(["sweep", "--spec", str(spec_path), "--check-invariants",
                 "--out", str(out_path), "--quiet"])
    assert code == 0
    record = json.loads(out_path.read_text())["records"][0]
    assert record["scenario"]["faults"] == {"freeze": 0.8, "freeze_duration": 20}
    assert record["scenario"]["check_invariants"] is True
    assert record["invariant_violations"] == 0


def test_empty_algorithm_filter_value_exits_two(tmp_path, capsys):
    code = main(["sweep", "--smoke", "--algorithms", " , ",
                 "--out", str(tmp_path / "x.json"), "--quiet"])
    assert code == 2
    assert "no algorithm names" in capsys.readouterr().err


# ------------------------------------------------------------ backend axis


def test_run_backend_vectorized_tags_the_record(capsys):
    code = main([
        "run", "--algorithm", "rooted_sync", "--family", "line",
        "--param", "n=12", "--k", "6", "--backend", "vectorized", "--json",
    ])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "ok" and record["dispersed"]
    assert record["scenario"]["backend"] == "vectorized"


def test_run_default_backend_stays_untagged(capsys):
    code = main([
        "run", "--algorithm", "rooted_sync", "--family", "line",
        "--param", "n=12", "--k", "6", "--json",
    ])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert "backend" not in record["scenario"]


def test_run_rejects_unknown_backend(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "run", "--algorithm", "rooted_sync", "--family", "line",
            "--param", "n=12", "--k", "6", "--backend", "gpu",
        ])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_sweep_backend_tags_every_record(tmp_path, capsys):
    out = tmp_path / "vec.json"
    code = main(["sweep", "--smoke", "--backend", "vectorized",
                 "--out", str(out), "--quiet"])
    assert code == 0
    records = json.loads(out.read_text())["records"]
    assert records
    for record in records:
        assert record["scenario"]["backend"] == "vectorized"


def test_list_shows_backend_availability(capsys):
    code = main(["list"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "backend reference [default]" in lines
    assert "backend vectorized" in lines


def test_bench_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--quick"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_list_shows_trace_capabilities(capsys):
    from repro.runner.registry import list_algorithms

    code = main(["list"])
    assert code == 0
    out = capsys.readouterr().out
    for spec in list_algorithms():
        assert f"trace {spec.name}" in out
        line = next(l for l in out.splitlines() if l.startswith(f"trace {spec.name}"))
        if spec.setting == "sync":
            assert "round-granularity" in line
        else:
            assert "activation-granularity" in line


def test_run_trace_out_writes_versioned_payload(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code = main([
        "run", "--algorithm", "rooted_sync", "--family", "line",
        "--param", "n=12", "--k", "6", "--trace-out", str(trace_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace:" in out and "[rounds]" in out
    payload = json.loads(trace_path.read_text())
    assert payload["format"] == "repro-trace-v1"
    assert payload["algorithm"] == "rooted_sync"
    assert payload["segments"]


def test_run_trace_json_stdout_stays_parseable(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code = main([
        "run", "--algorithm", "rooted_async", "--family", "ring",
        "--param", "n=10", "--k", "5", "--json", "--trace-out", str(trace_path),
    ])
    assert code == 0
    record = json.loads(capsys.readouterr().out)  # wrote-notice went to stderr
    assert record["trace"]["format"] == "repro-trace-v1"
    assert record["trace"]["segments"][0]["granularity"] == "activations"


def test_trace_summary_reports_replay_ok(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main([
        "run", "--algorithm", "rooted_sync", "--family", "complete",
        "--param", "n=8", "--k", "8", "--trace-out", str(trace_path),
    ]) == 0
    capsys.readouterr()
    assert main(["trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "replay ok" in out
    assert "MISMATCH" not in out


def test_trace_html_is_self_contained(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main([
        "run", "--algorithm", "rooted_sync", "--family", "line",
        "--param", "n=12", "--k", "6", "--faults", "freeze:0.3:20",
        "--trace-out", str(trace_path),
    ]) == 0
    html_path = tmp_path / "replay.html"
    assert main(["trace", str(trace_path), "--html", str(html_path)]) == 0
    html = html_path.read_text()
    assert "http://" not in html and "https://" not in html
    assert "<script>" in html and "<style>" in html
    assert "repro-trace-v1" in html


def test_sweep_trace_artifact_selection_and_store_roundtrip(tmp_path, capsys):
    spec_path = _store_spec(tmp_path)
    store = str(tmp_path / "runs.sqlite")
    out = tmp_path / "traced.json"
    assert main(["sweep", "--spec", spec_path, "--trace", "--store", store,
                 "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()

    # ambiguous input lists the candidates instead of guessing
    assert main(["trace", str(out)]) == 2
    err = capsys.readouterr().err
    assert "4 traces" in err and "--index" in err

    assert main(["trace", str(out), "--algorithm", "naive_dfs", "--index", "0"]) == 0
    assert "naive_dfs" in capsys.readouterr().out

    # the store indexes every trace and serves them back by fingerprint
    assert main(["db", "traces", store]) == 0
    out_text = capsys.readouterr().out
    assert "4 trace(s) indexed" in out_text
    fingerprint = out_text.split()[0]
    assert main(["trace", store, "--fingerprint", fingerprint, "--summary"]) == 0
    assert "replay ok" in capsys.readouterr().out

    assert main(["db", "stats", store]) == 0
    assert "traces indexed: 4" in capsys.readouterr().out


def test_sweep_progress_line_counts_faults(tmp_path, capsys):
    spec = {
        "name": "cli-faulty",
        "algorithms": ["rooted_sync"],
        "graphs": [{"family": "complete", "params": {"n": 10}}],
        "ks": [8],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code = main(["sweep", "--spec", str(spec_path), "--progress", "--quiet",
                 "--faults", "freeze:0.5:10", "--check-invariants",
                 "--out", str(tmp_path / "x.json")])
    assert code == 0
    err = capsys.readouterr().err
    assert "faults=" in err and "viol=" in err


def test_sweep_progress_cached_rerun_reports_zero_eta_and_same_counters(tmp_path, capsys):
    spec = {
        "name": "cli-warm-progress",
        "algorithms": ["rooted_sync"],
        "graphs": [{"family": "complete", "params": {"n": 10}}],
        "ks": [6, 8],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    store = str(tmp_path / "runs.sqlite")
    argv = ["sweep", "--spec", str(spec_path), "--store", store, "--progress",
            "--quiet", "--faults", "churn:0.5", "--check-invariants",
            "--out", str(tmp_path / "x.json")]

    assert main(argv) == 0
    cold_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("[")]
    assert cold_lines and cold_lines[-1].startswith("[2/2] hits=0 ")

    assert main(argv + ["--resume"]) == 0
    warm_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("[")]
    # Every record is a hit, the ETA is 0.0s from the first line on (not "?"),
    # and the fault/violation totals match the cold run (cached findings count).
    assert len(warm_lines) == 2
    for i, line in enumerate(warm_lines):
        assert line.startswith(f"[{i + 1}/2] hits={i + 1} ")
        assert line.endswith("eta=0.0s")
    cold_counters = cold_lines[-1].split("] ")[1].rsplit(" eta=", 1)[0]
    warm_counters = warm_lines[-1].split("] ")[1].rsplit(" eta=", 1)[0]
    assert cold_counters.replace("hits=0", "") == warm_counters.replace("hits=2", "")


# --------------------------------------------------------------------- fuzz
def test_fuzz_campaign_cli_second_pass_executes_zero_jobs(tmp_path, capsys):
    store = str(tmp_path / "fuzz.sqlite")
    argv = ["fuzz", "--trials", "4", "--seed", "21", "--store", store,
            "--no-differential", "--no-explore"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "fuzz seed=21: 4 trial(s)" in cold and "no failures found" in cold
    assert "0 executed" not in cold

    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "0 executed" in warm and "no failures found" in warm


def test_fuzz_planted_bug_cli_reports_falsified_and_writes_fixture(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["fuzz", "--trials", "40", "--seed", "7", "--plant-bug",
                 "--store", str(tmp_path / "fuzz.sqlite"),
                 "--corpus", str(corpus),
                 "--no-differential", "--no-explore"]) == 1
    out = capsys.readouterr().out
    assert "FALSIFIED" in out and "minimized:" in out and "fixture:" in out
    assert list(corpus.glob("invariant-*.json"))


def test_fuzz_replay_cli_passes_good_fixture_and_fails_tampered_one(tmp_path, capsys):
    from repro.fuzz import fixture_entry, write_fixture
    from repro.runner.scenario import ScenarioSpec

    corpus = str(tmp_path / "corpus")
    spec = ScenarioSpec(
        family="line", params={"n": 2}, k=2,
        faults={"churn": 1.0, "horizon": 8}, check_invariants=True,
    )
    entry = fixture_entry("rooted_sync", spec, "churn_skip")
    path = write_fixture(corpus, entry)
    assert main(["fuzz", "--replay", corpus]) == 0
    out = capsys.readouterr().out
    assert f"{path}: ok" in out and "replayed 1 fixture(s), 0 failing" in out

    entry["expected_record"]["time"] = 424242
    write_fixture(corpus, entry)
    assert main(["fuzz", "--replay", corpus]) == 1
    out = capsys.readouterr().out
    assert "record bytes diverged" in out and "1 failing" in out


def test_fuzz_replay_cli_on_empty_corpus_is_a_clean_no_op(tmp_path, capsys):
    assert main(["fuzz", "--replay", str(tmp_path / "nothing")]) == 0
    assert "no fuzz fixtures" in capsys.readouterr().out


def test_fuzz_rejects_unknown_algorithm_filter(capsys):
    assert main(["fuzz", "--trials", "1", "--algorithms", "nope"]) == 2
    assert "nope" in capsys.readouterr().err
