"""``python -m repro`` / ``repro``: the experiment-runner command line.

Five subcommand families mirror the workflow the benchmarks automate:

* ``repro run``    -- one algorithm on one scenario, summary on stdout;
* ``repro sweep``  -- a scenario grid (from a JSON spec file or the built-in
  ``--smoke`` grid) fanned out over worker processes, written as JSON/CSV
  artifacts; with ``--store`` the sweep runs against a persistent experiment
  store (cache hits skip execution, finished records are committed one by
  one, and ``--resume`` completes an interrupted sweep);
* ``repro report`` -- Table-1 style comparison tables from a sweep artifact;
* ``repro db``     -- the experiment-store toolbox: ``query`` filtered
  records into artifact files, ``diff`` two snapshots (stores or artifacts)
  for metric regressions, ``import`` legacy artifacts, ``gc`` stale
  code-version records, ``stats`` the store's shape, ``traces`` the
  content-addressed trace index;
* ``repro trace``  -- inspect a recorded ``repro-trace-v1`` execution trace
  (from a ``--trace`` run record, sweep artifact, store, or trace file):
  ``--summary`` text with a replay-verification verdict, ``--json`` the raw
  payload, ``--html`` a self-contained browser replay page
  (play/pause/step/scrub, fault overlays, counter timeline; no network).

``run``/``sweep`` accept ``--backend {reference,vectorized}`` to pick the
kernel state layout; records are backend-invariant apart from the scenario's
own ``backend`` tag (the differential suite pins this), so the axis buys
wall-clock speed, never different science.

``--faults`` / ``--check-invariants`` attach the fault-model and
invariant-checking subsystem (:mod:`repro.sim.faults` /
:mod:`repro.sim.invariants`): faults stress the run with crash-stop, freeze,
and edge-churn schedules; the checker continuously verifies dispersion safety
properties and reports violation counts in the records.  ``sweep --faults`` is
repeatable -- the grid is crossed with every given profile -- and records from
*fault-free* profiles still fail the sweep on errors or invariant violations,
while faulty profiles report findings as data (exit 0).

Examples
--------
::

    repro run --algorithm rooted_sync --family complete --param n=32 --k 32
    repro run --algorithm rooted_sync --family ring --param n=24 --k 16 \\
        --faults crash:0.1 --check-invariants
    repro run --algorithm rooted_async --family ring --param n=24 --k 16 \\
        --scheduler semi-sync:0.25
    repro sweep --smoke --workers 2 --out artifacts/smoke.json
    repro sweep --smoke --scheduler bounded-delay:2 --out artifacts/bd.json
    repro sweep --smoke --algorithms paper --check-invariants \\
        --faults none --faults crash:0.1,freeze:0.1:60 --out artifacts/faults.json
    repro sweep --spec myspec.json --out artifacts/mysweep.json --csv artifacts/mysweep.csv
    repro sweep --smoke --store artifacts/runs.sqlite --progress --out artifacts/smoke.json
    repro sweep --smoke --store artifacts/runs.sqlite --resume
    repro sweep --smoke --backend vectorized --out artifacts/smoke-vec.json
    repro run --algorithm rooted_sync --family ring --param n=24 --k 16 \\
        --faults crash:0.1 --trace --trace-out artifacts/run-trace.json
    repro sweep --smoke --trace --faults crash:0.15 --out artifacts/traced.json
    repro trace artifacts/traced.json --algorithm rooted_sync --summary
    repro trace artifacts/run-trace.json --html artifacts/replay.html
    repro report artifacts/smoke.json
    repro db query artifacts/runs.sqlite --algorithm rooted_sync --out artifacts/q.json
    repro db diff artifacts/old.json artifacts/runs.sqlite
    repro db import artifacts/runs.sqlite artifacts/legacy-sweep.json
    repro db gc artifacts/runs.sqlite
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runner import artifacts as artifacts_mod
from repro.runner.execute import RunRecord, run_scenario
from repro.runner.registry import (
    algorithm_names,
    core_algorithm_names,
    get_algorithm,
    list_algorithms,
)
from repro.runner.scenario import (
    ADVERSARIES,
    GRAPH_FAMILIES,
    PLACEMENTS,
    SCHEDULERS,
    ScenarioSpec,
)
from repro.runner.sweep import SweepSpec, run_sweep, smoke_sweep
from repro.sim.backends import BACKEND_NAMES, DEFAULT_BACKEND
from repro.sim.faults import parse_faults

__all__ = ["main", "build_parser"]

#: Where committed minimized repro fixtures live (``repro fuzz --replay``).
_DEFAULT_FUZZ_CORPUS = "tests/fixtures/fuzz"


def _parse_params(pairs: Sequence[str]) -> Dict[str, Any]:
    """Parse repeated ``--param name=value`` options (ints, floats, strings)."""
    params: Dict[str, Any] = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise argparse.ArgumentTypeError(
                f"--param expects name=value, got {pair!r}"
            )
        value: Any
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        params[name] = value
    return params


def _parse_scheduler(text: str) -> tuple:
    """Parse ``--scheduler NAME[:PARAM]`` into ``(name, params)``.

    The optional suffix is the discipline's headline knob: the activation
    probability for ``semi-sync`` (``semi-sync:0.25``) and the delay factor
    for ``bounded-delay`` (``bounded-delay:3`` bounds every agent's
    inattention by ``3 * k`` activations).
    """
    name, sep, raw = text.partition(":")
    if name not in SCHEDULERS:
        raise argparse.ArgumentTypeError(
            f"unknown scheduler {name!r}; known: {list(SCHEDULERS)}"
        )
    if not sep:
        return name, {}
    if name == "semi-sync":
        try:
            p = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--scheduler semi-sync:P expects a float probability, got {raw!r}"
            ) from None
        if not (0.0 < p <= 1.0):
            raise argparse.ArgumentTypeError(
                f"--scheduler semi-sync:P expects P in (0, 1], got {p}"
            )
        return name, {"p": p}
    if name == "bounded-delay":
        try:
            delay_factor = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--scheduler bounded-delay:K expects an int delay factor, got {raw!r}"
            ) from None
        if delay_factor < 1:
            raise argparse.ArgumentTypeError(
                f"--scheduler bounded-delay:K expects K >= 1, got {delay_factor}"
            )
        return name, {"delay_factor": delay_factor}
    raise argparse.ArgumentTypeError(f"scheduler {name!r} takes no parameter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Experiment runner for the dispersion reproduction "
        "(registry of paper algorithms + baselines, scenario sweeps, reports).",
    )
    from repro import __version__

    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one algorithm on one scenario")
    run_p.add_argument("--algorithm", required=True, choices=algorithm_names())
    run_p.add_argument("--family", required=True, choices=sorted(GRAPH_FAMILIES))
    run_p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="graph generator parameter (repeatable), e.g. --param n=32",
    )
    run_p.add_argument("--k", type=int, required=True, help="number of agents")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--port-assignment",
        default="adjacency",
        choices=["adjacency", "random", "async_safe"],
    )
    run_p.add_argument("--placement", default="rooted", choices=list(PLACEMENTS))
    run_p.add_argument("--parts", type=int, default=2, help="start nodes for split placement")
    run_p.add_argument("--start-node", type=int, default=0)
    run_p.add_argument("--adversary", default="round_robin", choices=list(ADVERSARIES))
    run_p.add_argument(
        "--scheduler",
        default="async",
        metavar="NAME[:PARAM]",
        help="synchrony discipline for ASYNC-capable algorithms: async "
        "(default; --adversary picks the policy), lockstep, semi-sync[:p], "
        "bounded-delay[:factor]",
    )
    run_p.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault profile, e.g. crash:0.1,freeze:0.2:40,churn:0.02 (or 'none')",
    )
    run_p.add_argument(
        "--check-invariants",
        action="store_true",
        help="continuously verify dispersion invariants; violations fail the run",
    )
    run_p.add_argument(
        "--backend",
        default=DEFAULT_BACKEND,
        choices=list(BACKEND_NAMES),
        help="kernel world-state backend: reference (the oracle) or "
        "vectorized (reference plus a settled-agent index). "
        "Records are identical either way, only speed differs",
    )
    run_p.add_argument(
        "--trace",
        action="store_true",
        help="record a repro-trace-v1 execution trace; the payload lands on "
        "the record (inspect it with 'repro trace')",
    )
    run_p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the trace payload to this JSON file (implies --trace)",
    )
    run_p.add_argument("--json", action="store_true", help="print the full record as JSON")

    sweep_p = sub.add_parser("sweep", help="run a scenario grid and write artifacts")
    source = sweep_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--smoke", action="store_true", help="run the built-in CI smoke grid")
    source.add_argument("--spec", help="path to a sweep spec JSON file")
    sweep_p.add_argument("--out", default=None, help="JSON artifact path (default artifacts/<name>.json)")
    sweep_p.add_argument("--csv", default=None, help="also write a CSV view to this path")
    sweep_p.add_argument("--workers", type=int, default=1, help="worker processes (1 = serial)")
    sweep_p.add_argument("--quiet", action="store_true", help="suppress per-job progress lines")
    sweep_p.add_argument(
        "--faults",
        action="append",
        default=[],
        metavar="SPEC",
        help="fault profile to cross the grid with (repeatable); 'none' is the "
        "fault-free profile, e.g. --faults none --faults crash:0.1",
    )
    sweep_p.add_argument(
        "--check-invariants",
        action="store_true",
        help="attach the invariant checker to every run; violations in "
        "fault-free profiles fail the sweep",
    )
    sweep_p.add_argument(
        "--scheduler",
        default=None,
        metavar="NAME[:PARAM]",
        help="run every scenario under this synchrony discipline (lockstep, "
        "semi-sync[:p], bounded-delay[:factor]); SYNC algorithms drop out of "
        "the grid, the world seeds stay those of the classic sweep",
    )
    sweep_p.add_argument(
        "--algorithms",
        default=None,
        metavar="NAMES",
        help="comma-separated subset of the sweep's algorithms, or 'paper' for "
        "the paper's own algorithms only",
    )
    sweep_p.add_argument(
        "--backend",
        default=None,
        choices=list(BACKEND_NAMES),
        help="run every scenario on this kernel backend",
    )
    sweep_p.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent experiment store (SQLite): cached records skip "
        "execution, new records are committed as they finish",
    )
    sweep_p.add_argument(
        "--resume",
        action="store_true",
        help="make resuming an interrupted sweep explicit; the cache semantics "
        "are those of --store alone (missing records execute, stored ones "
        "are served), this flag just validates that a --store was given",
    )
    sweep_p.add_argument(
        "--trace",
        action="store_true",
        help="record a repro-trace-v1 execution trace on every run; records "
        "embed the payload and stores index it (see 'repro db traces')",
    )
    sweep_p.add_argument(
        "--progress",
        action="store_true",
        help="one-line progress on stderr: records done/total, cache hits, "
        "fault events, invariant violations, ETA",
    )

    report_p = sub.add_parser("report", help="print comparison tables from an artifact")
    report_p.add_argument("artifact", help="path to a sweep JSON artifact")
    report_p.add_argument(
        "--time-field",
        default="time",
        choices=["time", "rounds", "epochs", "activations", "total_moves", "peak_memory_bits"],
        help="record field shown in the table cells",
    )

    db_p = sub.add_parser("db", help="query and maintain a persistent experiment store")
    db_sub = db_p.add_subparsers(dest="db_command", required=True)

    query_p = db_sub.add_parser(
        "query", help="filter store records into artifact files (or a summary)"
    )
    query_p.add_argument("store", help="path to an experiment store")
    query_p.add_argument(
        "--algorithm",
        default=None,
        metavar="NAMES",
        help="comma-separated algorithm names, or 'paper'",
    )
    query_p.add_argument("--family", default=None, choices=sorted(GRAPH_FAMILIES))
    query_p.add_argument("--k", type=int, default=None)
    query_p.add_argument("--seed", type=int, default=None)
    query_p.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="select one fault profile ('none' for fault-free records only)",
    )
    query_p.add_argument(
        "--status", default=None, choices=["ok", "unsupported", "error"]
    )
    query_p.add_argument(
        "--out", default=None, help="write matches as a sweep JSON artifact"
    )
    query_p.add_argument("--csv", default=None, help="also write a CSV view")

    diff_p = db_sub.add_parser(
        "diff", help="compare run metrics between two snapshots (store or artifact)"
    )
    diff_p.add_argument("old", help="baseline snapshot: store or JSON artifact")
    diff_p.add_argument("new", help="candidate snapshot: store or JSON artifact")

    gc_p = db_sub.add_parser(
        "gc", help="drop records whose algorithm code-version tag is stale"
    )
    gc_p.add_argument("store", help="path to an experiment store")
    gc_p.add_argument("--dry-run", action="store_true", help="report, don't delete")

    import_p = db_sub.add_parser(
        "import", help="ingest sweep JSON artifacts into a store"
    )
    import_p.add_argument("store", help="path to an experiment store (created if missing)")
    import_p.add_argument("artifacts", nargs="+", help="sweep JSON artifact paths")

    stats_p = db_sub.add_parser("stats", help="summarize a store's contents")
    stats_p.add_argument("store", help="path to an experiment store")

    traces_p = db_sub.add_parser(
        "traces", help="list the store's content-addressed trace index"
    )
    traces_p.add_argument("store", help="path to an experiment store")
    traces_p.add_argument(
        "--algorithm",
        default=None,
        metavar="NAMES",
        help="comma-separated algorithm names, or 'paper'",
    )

    trace_p = sub.add_parser(
        "trace", help="inspect or replay a recorded repro-trace-v1 execution trace"
    )
    trace_p.add_argument(
        "run",
        help="where the trace lives: a trace JSON file (repro run --trace-out), "
        "a sweep artifact with traced records, or an experiment store",
    )
    trace_p.add_argument(
        "--algorithm",
        default=None,
        metavar="NAME",
        help="select the traced record of this algorithm (artifact/store inputs)",
    )
    trace_p.add_argument(
        "--index",
        type=int,
        default=None,
        help="select the i-th matching traced record (artifact/store inputs)",
    )
    trace_p.add_argument(
        "--fingerprint",
        default=None,
        metavar="HEX",
        help="select a store record by (a unique prefix of) its fingerprint",
    )
    trace_p.add_argument(
        "--summary",
        action="store_true",
        help="print the text summary with a replay-verification verdict (default)",
    )
    trace_p.add_argument(
        "--json",
        default=None,
        dest="json_out",
        metavar="PATH",
        help="write the raw repro-trace-v1 payload to this file",
    )
    trace_p.add_argument(
        "--html",
        default=None,
        metavar="PATH",
        help="write a self-contained browser replay page (inline JS/CSS, no "
        "network) to this file",
    )

    fuzz_p = sub.add_parser(
        "fuzz",
        help="continuous falsification: sample random scenarios, check them "
        "(invariants + differentials), shrink failures to 1-minimal repros",
    )
    fuzz_p.add_argument("--trials", type=int, default=100, help="scenarios to sample")
    fuzz_p.add_argument("--seed", type=int, default=0, help="campaign seed (trial i of seed s is a fixed scenario)")
    fuzz_p.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="RunStore for dedup: repeat draws and shrink re-evaluations "
        "become cache hits (shards may share one store; WAL handles the "
        "concurrent writers)",
    )
    fuzz_p.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="write minimized repro fixtures (repro-fuzz-repro-v1) here",
    )
    fuzz_p.add_argument(
        "--algorithms",
        default=None,
        help="comma-separated registry names to fuzz (default: all)",
    )
    fuzz_p.add_argument("--max-nodes", type=int, default=12, help="graph-size ceiling for sampled worlds")
    fuzz_p.add_argument("--max-agents", type=int, default=8, help="population ceiling for sampled worlds")
    fuzz_p.add_argument("--shrink-budget", type=int, default=400, help="max predicate evaluations per shrink")
    fuzz_p.add_argument("--no-shrink", action="store_true", help="report raw failing specs without minimizing")
    fuzz_p.add_argument(
        "--no-differential",
        action="store_true",
        help="skip the backend and sync-vs-async differential oracles",
    )
    fuzz_p.add_argument(
        "--no-explore",
        action="store_true",
        help="skip exhaustive scheduler-interleaving enumeration on tiny instances",
    )
    fuzz_p.add_argument("--explore-depth", type=int, default=4, help="scripted schedule prefix length")
    fuzz_p.add_argument("--explore-budget", type=int, default=128, help="max interleavings per tiny instance")
    fuzz_p.add_argument(
        "--plant-bug",
        action="store_true",
        help="swap in a deliberately broken oracle (self-test: the campaign "
        "must find and shrink it to the known minimal spec)",
    )
    fuzz_p.add_argument(
        "--replay",
        nargs="?",
        const=_DEFAULT_FUZZ_CORPUS,
        default=None,
        metavar="DIR",
        help="instead of fuzzing, replay every committed fixture in DIR "
        f"(default {_DEFAULT_FUZZ_CORPUS}) and verify byte-identical, "
        "oracle-clean records",
    )
    fuzz_p.add_argument("--progress", action="store_true", help="per-trial progress line on stderr")

    sub.add_parser("list", help="list registered algorithms and backends")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    scheduler, scheduler_params = _parse_scheduler(args.scheduler)
    scenario = ScenarioSpec(
        family=args.family,
        params=_parse_params(args.param),
        k=args.k,
        port_assignment=args.port_assignment,
        placement=args.placement,
        placement_parts=args.parts,
        start_node=args.start_node,
        adversary=args.adversary,
        scheduler=scheduler,
        scheduler_params=scheduler_params,
        seed=args.seed,
        faults=parse_faults(args.faults) if args.faults is not None else {},
        check_invariants=args.check_invariants,
        backend=args.backend,
        trace=args.trace or bool(args.trace_out),
    )
    record = run_scenario(args.algorithm, scenario)
    if record.trace is not None and args.trace_out:
        import os

        from repro.sim.trace import canonical_trace_json

        parent = os.path.dirname(os.path.abspath(args.trace_out))
        os.makedirs(parent, exist_ok=True)
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(canonical_trace_json(record.trace))
            fh.write("\n")
        # stderr so --json stdout stays a single parseable JSON document.
        print(f"wrote trace to {args.trace_out}", file=sys.stderr)
    if args.json:
        print(json.dumps(record.to_dict(), sort_keys=True, indent=2))
    else:
        print(f"{record.algorithm} on {scenario.label()}:")
        if record.status != "ok":
            print(f"  status={record.status}: {record.error}")
        else:
            print(
                f"  dispersed={record.dispersed} time={record.time} {record.time_unit} "
                f"moves={record.total_moves} peak_mem={record.peak_memory_bits} bits"
            )
        if record.fault_events is not None:
            print(f"  fault_events={record.fault_events}")
        if record.invariant_violations is not None:
            print(f"  invariant_violations={record.invariant_violations}")
        if record.trace is not None:
            from repro.sim.trace import trace_stats

            stats = trace_stats(record.trace)
            print(
                f"  trace: {stats['events']} event(s) across "
                f"{stats['segments']} segment(s) [{stats['granularity']}]"
            )
    if record.status != "ok":
        return 1
    return 1 if record.invariant_violations else 0


def _load_sweep_spec(path: str) -> SweepSpec:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if "scenarios" in data:
        return SweepSpec.from_dict(data)
    # Grid shorthand: {"name", "algorithms", "graphs", "ks", "seeds"?, ...}.
    grid_keys = {"name", "algorithms", "graphs", "ks", "seeds"}
    extra = {key: value for key, value in data.items() if key not in grid_keys}
    return SweepSpec.from_grid(
        name=data["name"],
        algorithms=data["algorithms"],
        graphs=data["graphs"],
        ks=data["ks"],
        seeds=data.get("seeds", (0,)),
        **extra,
    )


def _parse_algorithm_names(text: str) -> List[str]:
    """``'paper'`` or a comma-separated list of registry names (validated)."""
    if text.strip() == "paper":
        return core_algorithm_names()
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise ValueError(f"no algorithm names in {text!r}")
    for name in names:
        get_algorithm(name)  # fail fast with the registry's message
    return names


class _ProgressLine:
    """The ``--progress`` stderr line: done/total, cache hits, faults, ETA.

    On a TTY the line redraws in place (carriage return); on a pipe each
    update is its own line so logs stay readable.  The ETA extrapolates from
    *executed* jobs only -- cache hits are effectively free, and counting them
    would make the estimate collapse toward zero on warm sweeps.  When the
    caller announces how many jobs will actually execute
    (:meth:`expect_executed` -- the store path knows this from its plan), the
    ETA covers only the remaining *executions*: a fully cached rerun reads
    ``eta=0.0s`` from the first record on, instead of extrapolating from zero
    executed jobs (the old line printed ``?`` all the way through a warm
    sweep and could divide by zero the moment a remaining-hit estimate was
    attempted).  Fault events and invariant violations accumulate across
    records -- cached ones included, their findings are equally real -- so a
    warm rerun reports the same ``faults=``/``viol=`` totals as the cold run.
    """

    def __init__(self, stream: Any = None) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._start = time.monotonic()
        self._hits = 0
        self._executed = 0
        self._faults = 0
        self._violations = 0
        self._pending_total: Optional[int] = None
        self._tty = bool(getattr(self._stream, "isatty", lambda: False)())
        self._last_width = 0

    def expect_executed(self, pending_total: int) -> None:
        """Announce how many of the sweep's jobs will execute (store plans)."""
        self._pending_total = pending_total

    def _eta_text(self, done: int, total: int) -> str:
        if self._pending_total is not None:
            remaining = max(0, self._pending_total - self._executed)
        else:
            remaining = total - done
        if remaining == 0:
            return "0.0s"
        if not self._executed:
            return "?"
        eta = remaining * (time.monotonic() - self._start) / self._executed
        return f"{eta:.1f}s"

    def __call__(self, done: int, total: int, record: Dict[str, Any], cached: bool = False) -> None:
        if cached:
            self._hits += 1
        else:
            self._executed += 1
        self._faults += record.get("fault_events") or 0
        self._violations += record.get("invariant_violations") or 0
        line = (
            f"[{done}/{total}] hits={self._hits} faults={self._faults} "
            f"viol={self._violations} eta={self._eta_text(done, total)}"
        )
        if self._tty:
            pad = " " * max(0, self._last_width - len(line))
            self._stream.write(f"\r{line}{pad}")
            self._last_width = len(line)
        else:
            self._stream.write(line + "\n")
        self._stream.flush()

    def close(self) -> None:
        if self._tty:
            self._stream.write("\n")
            self._stream.flush()


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.resume and not args.store:
        raise ValueError("--resume needs --store: the store is what it resumes from")
    sweep = smoke_sweep() if args.smoke else _load_sweep_spec(args.spec)
    if args.scheduler:
        scheduler, scheduler_params = _parse_scheduler(args.scheduler)
        sweep = sweep.with_scheduler(scheduler, scheduler_params)
    if args.algorithms:
        sweep = sweep.filter_algorithms(_parse_algorithm_names(args.algorithms))
    if args.backend:
        sweep = sweep.with_backend(args.backend)
    if args.trace:
        sweep = sweep.with_trace()
    profiles = [parse_faults(text) for text in args.faults]
    if profiles:
        # --check-invariants switches checking on everywhere; without it each
        # scenario keeps whatever its spec file configured.
        sweep = sweep.with_profiles(
            profiles, check_invariants=True if args.check_invariants else None
        )
    elif args.check_invariants:
        # No --faults given: turn checking on without clobbering fault
        # profiles a spec file configured per scenario.
        sweep = sweep.with_invariants(True)
    if not sweep.jobs():
        raise ValueError(
            f"sweep grid {sweep.name!r} is empty: no compatible "
            "(algorithm, scenario) pairs -- check the algorithms and scenarios lists"
        )
    per_job = None
    if not args.quiet:
        def per_job(done: int, total: int, record: Dict[str, Any], cached: bool) -> None:
            scenario = record["scenario"]
            status = record["status"]
            tag = "" if status == "ok" else f" [{status}]"
            if cached:
                tag += " [cached]"
            print(
                f"[{done}/{total}] {record['algorithm']:13s} "
                f"{scenario['family']}/k={scenario['k']}"
                f" -> time={record['time']}{tag}",
                flush=True,
            )
    progress_line = _ProgressLine() if args.progress else None

    def on_record(done: int, total: int, record: Dict[str, Any], cached: bool = False) -> None:
        if per_job is not None:
            per_job(done, total, record, cached)
        if progress_line is not None:
            progress_line(done, total, record, cached)

    executed: Optional[int] = None
    hits = 0
    try:
        if args.store:
            from repro.store import RunStore, execute_plan, plan_sweep

            with RunStore(args.store) as store:
                plan = plan_sweep(sweep, store)
                hits, executed = plan.hits, plan.total - plan.hits
                if progress_line is not None:
                    progress_line.expect_executed(executed)
                print(
                    f"store {args.store}: {hits}/{plan.total} cache hit(s), "
                    f"executing {executed} job(s)",
                    flush=True,
                )
                records = execute_plan(
                    plan, store=store, workers=args.workers, progress=on_record
                )
        else:
            records = run_sweep(sweep, workers=args.workers, progress=on_record)
    finally:
        if progress_line is not None:
            progress_line.close()
    out = args.out or f"artifacts/{sweep.name}.json"
    artifacts_mod.write_json(records, out, sweep=sweep)
    print(f"wrote {len(records)} records to {out}")
    if executed is not None:
        if executed == 0:
            print(f"all {len(records)} records served from cache (0 jobs executed)")
        else:
            print(f"cache: {hits} hit(s), {executed} executed")
    if args.csv:
        artifacts_mod.write_csv(records, args.csv)
        print(f"wrote CSV view to {args.csv}")
    summary = artifacts_mod.fault_summary(records)
    if summary is not None:
        print()
        print(summary.render())
    failed = [record for record in records if _record_fails_sweep(record)]
    if failed:
        for record in failed:
            print(
                f"FAILED: {record.algorithm} on {record.scenario}: "
                f"{record.error or _fault_free_failure(record)}",
                file=sys.stderr,
            )
        return 1
    return 0


def _record_fails_sweep(record: RunRecord) -> bool:
    """Whether a record should fail the sweep's exit code.

    Records from *faulty* profiles never fail the sweep: crashes,
    non-dispersal, and invariant violations under injected faults are the
    findings the harness exists to collect.  Fault-free records fail on
    errors, non-dispersal of guaranteed algorithms, or any invariant
    violation.
    """
    if record.scenario.get("faults"):
        return False
    if record.status == "error":
        return True
    if record.status == "ok" and not record.dispersed and get_algorithm(record.algorithm).guaranteed:
        return True
    return bool(record.invariant_violations)


def _fault_free_failure(record: RunRecord) -> str:
    if record.invariant_violations:
        return f"{record.invariant_violations} invariant violation(s)"
    return "not dispersed"


def _cmd_report(args: argparse.Namespace) -> int:
    records = artifacts_mod.load_json(args.artifact)
    tables = artifacts_mod.report_tables(records, time_field=args.time_field)
    if not tables:
        print("no successful records in artifact")
        return 1
    for table in tables:
        print(table.render())
        print()
    summary = artifacts_mod.fault_summary(records)
    if summary is not None:
        print(summary.render())
        print()
    skipped = [r for r in records if r.status != "ok"]
    if skipped:
        print(f"({len(skipped)} non-ok records not shown)")
    return 0


def _cmd_db(args: argparse.Namespace) -> int:
    from repro.store import RunStore, diff_paths

    if args.db_command == "query":
        with RunStore(args.store, create=False) as store:
            records = store.query(
                algorithms=_parse_algorithm_names(args.algorithm) if args.algorithm else None,
                family=args.family,
                k=args.k,
                seed=args.seed,
                faults=parse_faults(args.faults) if args.faults is not None else None,
                status=args.status,
            )
        if args.out:
            artifacts_mod.write_json(records, args.out)
            print(f"wrote {len(records)} records to {args.out}")
        if args.csv:
            artifacts_mod.write_csv(records, args.csv)
            print(f"wrote CSV view to {args.csv}")
        if not args.out and not args.csv:
            for record in records:
                scenario = record.scenario
                tag = "" if record.status == "ok" else f" [{record.status}]"
                print(
                    f"{record.algorithm:14s} {scenario['family']}/k={scenario['k']}"
                    f"/seed={scenario['seed']} -> time={record.time}{tag}"
                )
            print(f"{len(records)} record(s) match")
        return 0

    if args.db_command == "diff":
        result = diff_paths(args.old, args.new)
        if result.only_old:
            print(f"{len(result.only_old)} run(s) only in {args.old}")
        if result.only_new:
            print(f"{len(result.only_new)} run(s) only in {args.new}")
        if result.is_clean:
            print(f"no metric changes across {result.common} common run(s)")
            return 0
        for change in result.changed:
            print(change.render())
        print(
            f"{len(result.changed)} metric change(s) across "
            f"{result.common} common run(s)"
        )
        return 1

    if args.db_command == "gc":
        with RunStore(args.store, create=False) as store:
            stats = store.gc(dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        print(
            f"{verb} {stats.total} record(s) "
            f"({stats.stale_version} stale code-version, "
            f"{stats.unregistered} unregistered algorithm)"
        )
        return 0

    if args.db_command == "import":
        with RunStore(args.store) as store:
            for path in args.artifacts:
                added, skipped = store.import_records(artifacts_mod.load_json(path))
                print(f"{path}: imported {added} record(s), skipped {skipped} already stored")
        return 0

    if args.db_command == "traces":
        with RunStore(args.store, create=False) as store:
            rows = store.traces(
                algorithms=_parse_algorithm_names(args.algorithm) if args.algorithm else None
            )
        for row in rows:
            print(
                f"{row['fingerprint'][:12]} {row['algorithm']:14s} "
                f"{row['granularity']:11s} events={row['events']} "
                f"bytes={row['bytes']} hash={row['content_hash'][:12]}"
            )
        print(f"{len(rows)} trace(s) indexed")
        return 0

    # stats
    with RunStore(args.store, create=False) as store:
        stats = store.stats()
    print(f"{stats['path']}: {stats['records']} record(s)")
    for algorithm, versions in stats["per_algorithm"].items():
        for version, count in versions.items():
            print(f"  {algorithm:14s} v{version}: {count}")
    print(f"traces indexed: {stats['traces']}")
    print(f"collectable by gc: {stats['collectable']}")
    return 0


def _cmd_list() -> int:
    for spec in list_algorithms():
        flags = "" if spec.guaranteed else " (heuristic)"
        print(
            f"{spec.name:14s} {spec.setting:5s} {spec.config:7s} "
            f"{spec.claimed_bound:15s} {spec.display}{flags}"
        )
    print()
    for name in BACKEND_NAMES:
        default = " [default]" if name == DEFAULT_BACKEND else ""
        print(f"backend {name}{default}")
    print()
    for spec in list_algorithms():
        if spec.setting == "sync":
            capability = "round-granularity trace (SYNC lockstep rounds)"
        else:
            capability = "activation-granularity trace (ASYNC activations + schedule)"
        print(f"trace {spec.name:14s} {capability}")
    return 0


def _resolve_trace(args: argparse.Namespace) -> Tuple[Dict[str, Any], str]:
    """Resolve ``repro trace RUN`` to exactly one ``(payload, label)``.

    ``RUN`` may be a raw trace JSON file (``repro run --trace-out``), a sweep
    artifact (``repro sweep --trace``), or a run store (``--store``).  When
    the source holds more than one trace, ``--algorithm``/``--fingerprint``
    narrow it down and ``--index`` picks one of what remains.
    """
    from repro.sim.trace import TRACE_FORMAT
    from repro.store import is_store_file

    candidates: List[Tuple[Dict[str, Any], str]] = []
    if is_store_file(args.run):
        from repro.store import RunStore

        with RunStore(args.run, create=False) as store:
            if args.fingerprint:
                rows = [
                    row
                    for row in store.traces()
                    if row["fingerprint"].startswith(args.fingerprint)
                ]
                if not rows:
                    raise ValueError(
                        f"no stored trace matches fingerprint {args.fingerprint!r}"
                    )
                for row in rows:
                    payload = store.get_trace(row["fingerprint"])
                    if payload is not None:
                        candidates.append(
                            (payload, f"{row['algorithm']} @ {row['fingerprint'][:12]}")
                        )
            else:
                for row in store.traces():
                    payload = store.get_trace(row["fingerprint"])
                    if payload is not None:
                        candidates.append(
                            (payload, f"{row['algorithm']} @ {row['fingerprint'][:12]}")
                        )
    else:
        with open(args.run, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and data.get("format") == TRACE_FORMAT:
            candidates.append((data, args.run))
        else:
            for record in artifacts_mod.load_json(args.run):
                if record.trace is not None:
                    scenario = record.scenario
                    label = (
                        f"{record.algorithm} on {scenario['family']}"
                        f"/k={scenario['k']}/seed={scenario['seed']}"
                    )
                    candidates.append((record.trace, label))
    if args.algorithm:
        names = set(_parse_algorithm_names(args.algorithm))
        candidates = [
            (payload, label)
            for payload, label in candidates
            if payload.get("algorithm") in names
        ]
    if not candidates:
        raise ValueError(
            f"no trace found in {args.run!r} -- record one with "
            "'repro run --trace-out' or 'repro sweep --trace'"
        )
    if args.index is not None:
        if not 0 <= args.index < len(candidates):
            raise ValueError(
                f"--index {args.index} out of range: {len(candidates)} trace(s) available"
            )
        return candidates[args.index]
    if len(candidates) > 1:
        raise ValueError(
            f"{args.run!r} holds {len(candidates)} traces -- pick one with "
            "--index/--algorithm/--fingerprint:\n"
            + "\n".join(f"  [{i}] {label}" for i, (_, label) in enumerate(candidates))
        )
    return candidates[0]


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim.trace import canonical_trace_json
    from repro.viz import render_html, summarize

    payload, label = _resolve_trace(args)
    wrote_output = False
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(canonical_trace_json(payload))
            fh.write("\n")
        print(f"wrote trace to {args.json_out}")
        wrote_output = True
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html(payload, title=label))
        print(f"wrote replay page to {args.html}")
        wrote_output = True
    if args.summary or not wrote_output:
        print(summarize(payload, label=label))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import CampaignConfig, load_fixtures, replay_fixture, run_campaign

    if args.replay is not None:
        fixtures = load_fixtures(args.replay)
        if not fixtures:
            print(f"no fuzz fixtures under {args.replay}")
            return 0
        bad = 0
        for path, entry in fixtures:
            record, verdict, matches = replay_fixture(entry)
            problems = []
            if not matches:
                problems.append("record bytes diverged from expected_record")
            if not verdict.ok:
                problems.append(f"oracle failed ({verdict.kind}: {verdict.detail})")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{path}: {status}")
            bad += bool(problems)
        print(f"replayed {len(fixtures)} fixture(s), {bad} failing")
        return 1 if bad else 0

    algorithms = None
    if args.algorithms:
        algorithms = [name.strip() for name in args.algorithms.split(",") if name.strip()]
        for name in algorithms:
            try:
                get_algorithm(name)
            except KeyError as exc:
                # KeyError's str() is the repr of its message (extra quotes);
                # re-raise as ValueError for the standard one-line error.
                raise ValueError(exc.args[0]) from None
    config = CampaignConfig(
        trials=args.trials,
        seed=args.seed,
        store_path=args.store,
        corpus_dir=args.corpus,
        algorithms=algorithms,
        max_nodes=args.max_nodes,
        max_agents=args.max_agents,
        shrink=not args.no_shrink,
        shrink_budget=args.shrink_budget,
        differential=not args.no_differential,
        explore=not args.no_explore,
        explore_depth=args.explore_depth,
        explore_budget=args.explore_budget,
        planted_bug=args.plant_bug,
    )

    def progress(index: int, total: int, kind: str) -> None:
        print(f"[{index + 1}/{total}] {kind}", file=sys.stderr, flush=True)

    report = run_campaign(config, progress=progress if args.progress else None)
    print(
        f"fuzz seed={config.seed}: {report.trials} trial(s), "
        f"{report.executed} executed, {report.cache_hits} cache hit(s), "
        f"{report.skipped} skipped, {report.differentials} differential(s), "
        f"{report.explored_schedules} interleaving(s) explored"
    )
    if report.ok:
        print("no failures found")
        return 0
    for finding in report.findings:
        print()
        print(
            f"FALSIFIED trial {finding.trial}: {finding.algorithm} "
            f"[{finding.verdict.kind}] {finding.verdict.detail}"
        )
        print(f"  scenario:  {finding.spec.key()}")
        if finding.minimized is not None:
            print(
                f"  minimized: {finding.minimized.key()} "
                f"({finding.shrink_steps} step(s), "
                f"{finding.shrink_evaluations} evaluation(s))"
            )
        if finding.fixture_path:
            print(f"  fixture:   {finding.fixture_path}")
    print()
    print(f"{len(report.findings)} failure(s) found")
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "db":
            return _cmd_db(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        return _cmd_list()
    except BrokenPipeError:
        # stdout piped into `head` etc.; exiting quietly is the convention.
        return 0
    except KeyboardInterrupt:
        # Records finished before the interrupt are already committed when a
        # --store is attached, so point at the resume path instead of dumping
        # a traceback.
        message = "interrupted"
        if getattr(args, "store", None):
            message += f" -- rerun with --store {args.store} --resume to finish"
        print(message, file=sys.stderr)
        return 130
    except (
        argparse.ArgumentTypeError,
        ValueError,
        KeyError,
        TypeError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        # User-input problems (bad --param, unreadable spec/artifact, unknown
        # or misspelled spec fields) get one clean line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
