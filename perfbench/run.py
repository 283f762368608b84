#!/usr/bin/env python3
"""End-to-end benchmark of the repro dispersion simulator.

Run from the repository root::

    python3 perfbench/run.py --workload sync-ladder --seed 0 --seconds 20 --trace 0

One process, no worker pool.  After set-up the workload's runs are repeated
in passes until ``--seconds`` have elapsed; every run's outcome is checked
(see :func:`failure`).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` first repeats untraced passes for half the time, then traced
passes (``tracer.py``) for the rest, and prints the per-layer metrics.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--pin`` records the outcome digests of the default seed in ``pins.json``.
README.md documents the workloads and metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # import time of the program counts as set-up

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
#: Working files (stores, span files), inside the checkout and git-ignored.
OUT_DIR = ROOT / ".perfbench"
#: A run that takes longer than this is stopped and counted as failed.
PER_RUN_LIMIT_S = 30.0
#: No run starts after this many seconds, so a hang cannot stall the process.
HARD_LIMIT_S = 150.0
#: Largest ``--seconds``: the last pass must still start before HARD_LIMIT_S.
MAX_SECONDS = 120.0
#: Cold set-ups measured per run: this process's own plus fresh processes
#: started between passes, so they fall on different stretches of time.
SETUP_SAMPLES = 7
#: Record fields that make up a run's outcome.
OUTCOME_FIELDS = ("status", "dispersed", "rounds", "epochs", "activations", "total_moves", "error")
#: Per-layer metrics that go into the JSON line (trace mode), with units.
#: Self times of layers that some workload never enters are printed and
#: written to the span file instead: they would read exactly 0 on every run.
LAYER_COUNTS = (
    "core.oscillation.plan_step.calls",
    "agents.arrive.calls",
    "agents.memory.write.calls",
    "sim.sync_engine.step.calls",
    "sim.sync_engine.step_path.calls",
    "sim.kernel.apply_batch.calls",
    "sim.kernel.apply_move.calls",
    "sim.kernel.query.calls",
    "sim.async_engine.predicate.calls",
    "sim.adversary.next_agent.calls",
    "sim.backends.run_scatter.calls",
    "sim.backends.run_probe_round.calls",
    "sim.backends.settled_query.calls",
    "sim.backends.fallback.calls",
    "sim.faults.begin_tick.calls",
    "sim.invariants.after_tick.calls",
    "graph.rewire.calls",
    "store.put.calls",
    "sim.rounds",
    "sim.activations",
    "sim.moves",
)
LAYER_TIMES = (
    "core.driver.self_s",
    "runner.execute.self_s",
    "graph.build.self_s",
    "sim.backends.settled_query.self_s",
    "unattributed_s",
    "trace.overhead_s",
    "trace.wall_s",
)
#: Every timed layer, for the printed table.
TIMED_LAYERS = (
    "runner.execute",
    "graph.build",
    "core.driver",
    "sim.sync_engine.step",
    "sim.sync_engine.step_path",
    "sim.kernel.apply_batch",
    "sim.async_engine.run_until",
    "sim.async_engine.predicate",
    "sim.backends.run_scatter",
    "sim.backends.run_probe_round",
    "sim.backends.settled_query",
    "sim.faults.begin_tick",
    "sim.invariants.after_tick",
    "sim.trace.payload",
    "graph.rewire",
    "store.fingerprint",
    "store.put",
    "store.get_many",
)


class WatchdogTimeout(Exception):
    """Raised inside a run that exceeded its wall-clock limit."""


class Watchdog:
    """Per-run wall limit on SIGALRM; ``fired`` says whether it went off."""

    def __init__(self, started: float) -> None:
        self.deadline = started + HARD_LIMIT_S
        self.fired = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        self.fired = True
        raise WatchdogTimeout(f"run exceeded the benchmark's {PER_RUN_LIMIT_S:.0f} s limit")

    def arm(self) -> None:
        self.fired = False
        left = self.deadline - time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, max(min(PER_RUN_LIMIT_S, left), 0.001))

    def disarm(self) -> bool:
        """Stop the timer; returns whether it fired since :meth:`arm`."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.fired


@dataclass
class PassResult:
    wall_s: float
    run_s: List[float]
    # (job, record, watchdog fired) per run, in job order.
    runs: Optional[List[Tuple[Any, Any, bool]]]
    # Warm re-plan records of a sweep pass (None for ladders).
    warm: Optional[List[Any]] = None
    totals: Dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.totals = sim_totals(self.runs)

    def drop_records(self) -> None:
        """Forget the records once checked: kept for every pass (trace
        payloads included) they would count toward ``peak_rss_mb``."""
        self.runs = self.warm = None


@dataclass
class Checker:
    """Outcome checks over every run of every pass."""

    pins: Optional[Dict[str, str]]
    attempted: int = 0
    failures: List[Tuple[str, str]] = field(default_factory=list)
    seen: Dict[str, str] = field(default_factory=dict)

    def check(self, result: PassResult) -> None:
        from repro.runner.registry import get_algorithm

        for index, (job, record, fired) in enumerate(result.runs):
            self.attempted += 1
            digest = outcome_digest(record)
            reason = failure(job, record, fired, get_algorithm(job.algorithm).guaranteed)
            if reason is None and self.pins is not None and self.pins.get(job.label) != digest:
                reason = "drifted from pinned outcome"
            if reason is None and self.seen.setdefault(job.label, digest) != digest:
                reason = "outcome differs between passes"
            if reason is None and result.warm is not None:
                if outcome_digest(result.warm[index]) != digest:
                    reason = "warm re-plan read back a different outcome"
            if reason is not None:
                self.failures.append((job.label, reason))

    @property
    def failed(self) -> int:
        return len(self.failures)


def outcome_digest(record) -> str:
    material = json.dumps([getattr(record, name) for name in OUTCOME_FIELDS])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def failure(job, record, fired: bool, guaranteed: bool) -> Optional[str]:
    """Why a run failed on any seed, or ``None``.

    A fault-free run of a guaranteed algorithm must end ``ok`` and dispersed;
    no run may exhaust its step cap or trip the watchdog.
    """
    if fired:
        return "watchdog"
    if record.error and "exceeded max_" in record.error:
        return "exhausted its step cap"
    if job.profile == "none" and guaranteed and not (record.status == "ok" and record.dispersed):
        return f"not dispersed (status={record.status}, error={record.error})"
    return None


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="record outcome digests in pins.json")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import the checkout's own ``src/repro``; ``None`` when it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import repro
    import repro.runner.execute  # noqa: F401
    import repro.store  # noqa: F401

    if not Path(repro.__file__).resolve().is_relative_to(src):
        return None
    return repro


class Bench:
    """One workload at one seed: set-up, passes, checks."""

    def __init__(self, name: str, seed: int, workdir: Path, watchdog: Watchdog) -> None:
        import workloads

        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.watchdog = watchdog
        self.make_workload, self.is_sweep = workloads.WORKLOADS[name]
        self.stores = 0

    def new_store(self):
        from repro.store import RunStore

        self.stores += 1
        return RunStore(str(self.workdir / f"store-{self.stores}.sqlite"))

    def setup(self) -> float:
        """Build the scenario list, open an empty store and warm up every
        algorithm on a tiny world; returns the seconds it took."""
        import workloads
        from repro.runner import execute

        start = time.perf_counter()
        workload = self.make_workload(self.seed)
        jobs = workloads.sweep_jobs(workload) if self.is_sweep else workload
        if self.is_sweep:
            self.new_store().close()
        warmed = set()
        for job in jobs:
            if job.algorithm in warmed:
                continue
            warmed.add(job.algorithm)
            tiny = replace(
                job.spec, family="random_tree", params={"n": 12}, k=6,
                placement_parts=min(job.spec.placement_parts, 2),
            )
            self.watchdog.arm()
            try:
                execute.run_scenario(job.algorithm, tiny)
            finally:
                self.watchdog.disarm()
        self.workload, self.jobs = workload, jobs
        return time.perf_counter() - start

    def run_pass(self) -> PassResult:
        gc.collect()
        if self.is_sweep:
            return self._sweep_pass()
        from repro.runner import execute

        runs, run_s = [], []
        start = time.perf_counter()
        for job in self.jobs:
            if time.perf_counter() > self.watchdog.deadline:
                runs.append((job, _timed_out(job), True))
                run_s.append(0.0)
                continue
            began = time.perf_counter()
            self.watchdog.arm()
            try:
                record = execute.run_scenario(job.algorithm, job.spec)
            finally:
                fired = self.watchdog.disarm()
            run_s.append(time.perf_counter() - began)
            runs.append((job, record, fired))
        return PassResult(time.perf_counter() - start, run_s, runs)

    def _sweep_pass(self) -> PassResult:
        from repro.store import plan_sweep, run_sweep_cached

        store = self.new_store()
        run_s: List[float] = []
        fired: List[bool] = []
        last = [0.0]

        def progress(done, total, record, cached):
            fired.append(self.watchdog.disarm())
            now = time.perf_counter()
            run_s.append(now - last[0])
            last[0] = now
            self.watchdog.arm()

        try:
            start = last[0] = time.perf_counter()
            self.watchdog.arm()
            try:
                records = run_sweep_cached(self.workload, store, progress=progress)
            except WatchdogTimeout:
                # Fired outside any run (store write, sweep glue): every job
                # not yet finished counts as timed out.
                records = None
            finally:
                self.watchdog.disarm()
            warm = plan_sweep(self.workload, store)
            wall = time.perf_counter() - start
        finally:
            store.close()
        if records is None:
            missing = len(self.jobs) - len(fired)
            records = [warm.cached.get(i) or _timed_out(job) for i, job in enumerate(self.jobs)]
            fired += [True] * missing
            run_s += [0.0] * missing
        warm_records = [warm.cached.get(i) for i in range(warm.total)]
        warm_records = [r if r is not None else _timed_out(j) for r, j in zip(warm_records, self.jobs)]
        return PassResult(wall, run_s, list(zip(self.jobs, records, fired)), warm_records)


def _timed_out(job):
    from repro.runner.execute import RunRecord

    return RunRecord(algorithm=job.algorithm, scenario=job.spec.to_dict(), status="error",
                     error="WatchdogTimeout: not run, benchmark deadline passed")


def sim_totals(runs) -> Dict[str, int]:
    totals = {"sim.rounds": 0, "sim.activations": 0, "sim.moves": 0}
    for _, record, _ in runs:
        totals["sim.rounds"] += record.rounds or 0
        totals["sim.activations"] += record.activations or 0
        totals["sim.moves"] += record.total_moves or 0
    return totals


def best_times(passes: List[PassResult]) -> Tuple[List[float], float]:
    """Each run's best time over the passes, and the best of the rest of a
    pass (harness glue; a sweep's planning tail and warm re-plan).

    The host alternates between two speeds about 40% apart on a scale of
    seconds (README.md), so a median over passes jumps between them; the
    best of a few repetitions of the same run does not.
    """
    runs = [min(p.run_s[i] for p in passes) for i in range(len(passes[0].run_s))]
    rest = min(p.wall_s - sum(p.run_s) for p in passes)
    return runs, rest


def end_to_end(passes: List[PassResult], setups: List[float]) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    runs, rest = best_times(passes)
    wall = sum(runs) + rest
    totals = passes[0].totals
    steps = totals["sim.rounds"] + totals["sim.activations"]
    metrics = {
        "setup_s": (min(setups), "s"),
        "wall_s": (wall, "s"),
        "sim_steps_per_s": (steps / wall, "1/s"),
        "run_s.p50": (statistics.median(runs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"setup_s: best of {len(setups)} cold set-ups (median {statistics.median(setups):.6f} s)",
        f"wall_s: sum of each run's best time over {len(passes)} passes"
        f" (pass walls: median {statistics.median(p.wall_s for p in passes):.6f} s,"
        f" min {min(p.wall_s for p in passes):.6f} s)",
        f"sim_steps_per_s: {steps} simulated steps (rounds + activations) per pass",
        f"run_s.p50: median over {len(runs)} runs of each run's best of {len(passes)}",
    ]
    if len(runs) >= 100:
        p90 = statistics.quantiles(runs, n=10)[-1]
        notes.append(f"run_s.p90: {p90:.6f} s over the same {len(runs)} runs (printed only)")
    return metrics, notes


def fastest(traced):
    """The traced (pass, tracer) pair with the smallest wall time."""
    return min(traced, key=lambda item: item[0].wall_s)


def per_layer(traced, untraced: List[PassResult]) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Layer numbers of the fastest traced pass; the overhead is its wall
    time minus the fastest untraced pass's."""
    result, tracer = fastest(traced)
    untraced_wall = min(p.wall_s for p in untraced)
    counts = dict(tracer.counts)
    layers = tracer.layers
    for name in TIMED_LAYERS:
        counts[f"{name}.calls"] = int(layers[name][0]) if name in layers else 0
    counts.update(result.totals)
    vec = counts.get("sim.backends.vectorized.calls", 0)
    fallback = counts.get("sim.backends.fallback.calls", 0)
    activations = counts["sim.activations"]
    unattributed = result.wall_s - tracer.root_s
    times = {f"{name}.self_s": layers[name][1] if name in layers else 0.0 for name in TIMED_LAYERS}
    times.update({
        "unattributed_s": unattributed,
        "trace.overhead_s": result.wall_s - untraced_wall,
        "trace.wall_s": result.wall_s,
    })
    metrics: Dict[str, Tuple[float, str]] = {name: (counts.get(name, 0), "count") for name in LAYER_COUNTS}
    metrics["store.bytes_written"] = (counts.get("store.bytes_written", 0), "B")
    metrics["sim.async_engine.useful_ratio"] = (
        counts["sim.moves"] / activations if activations else 0.0, "ratio")
    metrics["sim.backends.fast_path_ratio"] = (1 - fallback / vec if vec else 0.0, "ratio")
    for name in LAYER_TIMES:
        metrics[name] = (times[name], "s")
    self_sum = sum(layer[1] for layer in layers.values())
    notes = [f"{name:40s} calls {counts[f'{name}.calls']:>10d}  self {times[f'{name}.self_s']:.6f} s"
             for name in TIMED_LAYERS]
    notes += [
        f"sim.backends.vectorized.calls {vec}",
        f"accounting: layer self times {self_sum:.6f} s + unattributed {unattributed:.6f} s"
        f" = {self_sum + unattributed:.6f} s; traced wall_s {result.wall_s:.6f} s",
        f"traced passes {len(traced)}, untraced passes {len(untraced)}"
        f" (fastest untraced pass {untraced_wall:.6f} s)",
    ]
    return metrics, notes


def load_pins(name: str, seed: int) -> Optional[Dict[str, str]]:
    import workloads

    if seed != workloads.DEFAULT_SEED or not PINS.is_file():
        return None
    return json.loads(PINS.read_text())["workloads"].get(name)


def write_pins(name: str, result: PassResult) -> None:
    data = json.loads(PINS.read_text()) if PINS.is_file() else {"seed": 0, "workloads": {}}
    data["workloads"][name] = {job.label: outcome_digest(record) for job, record, _ in result.runs}
    PINS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def setup_in_subprocess(args: argparse.Namespace) -> float:
    """One cold set-up (imports included) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1])


def pin(bench: Bench, name: str) -> int:
    """Record one pass's outcome digests as the default seed's pins."""
    result = bench.run_pass()
    checker = Checker(pins=None)
    checker.check(result)
    if checker.failed:
        print(f"error: not pinning, failed runs: {checker.failures}", file=sys.stderr)
        return 1
    write_pins(name, result)
    print(f"pinned {len(result.runs)} outcomes of {name}")
    return 0


def measure(args: argparse.Namespace, bench: Bench, checker: Checker, setups: List[float]):
    """Untraced passes for ``--seconds`` (half of it with ``--trace 1``, then
    traced passes); returns the metrics and notes to print."""
    from tracer import Tracer, install

    started = time.perf_counter()
    passes: List[PassResult] = []
    while not passes or time.perf_counter() - started < args.seconds / (2 if args.trace else 1):
        passes.append(bench.run_pass())
        checker.check(passes[-1])
        passes[-1].drop_records()
        if not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(setup_in_subprocess(args))
    if not args.trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_in_subprocess(args))
        return end_to_end(passes, setups)
    traced = []
    while not traced or time.perf_counter() - started < args.seconds:
        tracer = Tracer()
        patches = install(tracer)
        try:
            result = bench.run_pass()
        finally:
            patches.undo()
        checker.check(result)
        result.drop_records()
        traced.append((result, tracer))
    metrics, notes = per_layer(traced, passes)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    fastest(traced)[1].write(str(spans))
    notes.append(f"spans written to {spans.relative_to(ROOT)}")
    return metrics, notes


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        print(f"error: --seconds must be in (0, {MAX_SECONDS:.0f}]", file=sys.stderr)
        return 2
    if import_program() is None:
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.pin and args.seed != workloads.DEFAULT_SEED:
        print("error: --pin records the default seed only", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        bench = Bench(args.workload, args.seed, workdir, Watchdog(T_START))
        setups = [import_s + bench.setup()]
        if args.setup_only:
            print(setups[0])
            return 0
        if args.pin:
            return pin(bench, args.workload)
        checker = Checker(pins=load_pins(args.workload, args.seed))
        metrics, notes = measure(args, bench, checker, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes.append(f"failed_frac: {checker.failed}/{checker.attempted}"
                 f" = {checker.failed / checker.attempted:.6f}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f" runs/pass {len(bench.jobs)} pins {'yes' if checker.pins else 'no'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"  {name:40s} {value:>16d} {unit}")
    for note in notes:
        print(f"  # {note}")
    for label, reason in checker.failures[:20]:
        print(f"  FAILED {label}: {reason}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
