"""The ``repro fuzz`` loop: sample -> check -> (shrink -> fixture) -> report.

One campaign is a pure function of ``(seed, trials, config)``: trials come
from the deterministic sampler, every execution is byte-deterministic, and the
shrinker is greedy-first-accept, so two runs of the same campaign produce the
same findings, the same minimal specs, and the same fixture bytes.  Pointing
the campaign at a :class:`~repro.store.RunStore` makes repetition *free* as
well as safe: each (algorithm, scenario) executes at most once per store
lifetime -- repeat draws, overlapping shards, and shrink-step re-evaluations
all dedupe through the run fingerprint.

The ``planted_bug`` mode swaps the record oracle for a deliberately broken
predicate (:func:`planted_bug_oracle`).  It exists to prove the *loop* works:
CI runs a seeded campaign against it and asserts the failure is found, shrunk
to the known 1-minimal spec, and reported byte-identically on a second run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.fuzz import corpus as corpus_mod
from repro.fuzz.explorer import explore_interleavings
from repro.fuzz.oracles import (
    Verdict,
    backend_differential,
    check_record,
    differential_pair,
    engine_differential,
)
from repro.fuzz.sampler import Trial, sample_trial
from repro.fuzz.shrink import ShrinkResult, shrink
from repro.runner.execute import RunRecord, run_scenario
from repro.runner.scenario import ScenarioSpec
from repro.sim.faults import FaultSpec
from repro.store import RunStore, run_fingerprint

__all__ = [
    "CampaignConfig",
    "FuzzFinding",
    "FuzzReport",
    "planted_bug_oracle",
    "run_campaign",
]


def planted_bug_oracle(record: RunRecord) -> Verdict:
    """A deliberately broken record oracle (the falsification self-test).

    Pretends that any churn-faulted run with ``n >= 4`` and ``k >= 3`` violates
    an invariant.  The bug is synthetic but the pipeline around it is not:
    finding it exercises the sampler, the store dedup, the shrinker, and the
    report exactly as a real invariant violation would, and its 1-minimal spec
    is known in closed form (a 4-node line, 3 agents, ``churn: 1.0``), which
    is what CI pins.
    """
    real = check_record(record)
    if not real.ok or real.is_skip:
        return real
    faults = FaultSpec.from_dict(record.scenario.get("faults", {}))
    n = record.n if record.n is not None else 0
    if faults.churn > 0 and n >= 4 and record.k is not None and record.k >= 3:
        return Verdict(ok=False, kind="invariant", detail="planted: churn oracle tripped")
    return real


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one fuzz campaign (all deterministic given the seed)."""

    trials: int = 100
    seed: int = 0
    store_path: Optional[str] = None
    corpus_dir: Optional[str] = None
    algorithms: Optional[List[str]] = None
    max_nodes: int = 12
    max_agents: int = 8
    shrink: bool = True
    shrink_budget: int = 400
    differential: bool = True
    explore: bool = True
    explore_depth: int = 4
    explore_budget: int = 128
    planted_bug: bool = False


@dataclass
class FuzzFinding:
    """One falsified trial, before and after shrinking."""

    trial: int
    algorithm: str
    spec: ScenarioSpec
    verdict: Verdict
    minimized: Optional[ScenarioSpec] = None
    shrink_steps: int = 0
    shrink_evaluations: int = 0
    fixture_path: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "trial": self.trial,
            "algorithm": self.algorithm,
            "kind": self.verdict.kind,
            "detail": self.verdict.detail,
            "scenario": self.spec.to_dict(),
        }
        if self.minimized is not None:
            data["minimized"] = self.minimized.to_dict()
            data["shrink"] = {
                "steps": self.shrink_steps,
                "evaluations": self.shrink_evaluations,
            }
        if self.fixture_path:
            data["fixture"] = self.fixture_path
        return data


@dataclass
class FuzzReport:
    """What a campaign did: volume, dedup, and findings."""

    trials: int = 0
    executed: int = 0
    cache_hits: int = 0
    skipped: int = 0
    differentials: int = 0
    explored_schedules: int = 0
    findings: List[FuzzFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def _run_cached(
    algorithm: str,
    spec: ScenarioSpec,
    store: Optional[RunStore],
    report: FuzzReport,
) -> RunRecord:
    """Execute through the store: a fingerprint already present never re-runs."""
    if store is None:
        report.executed += 1
        return run_scenario(algorithm, spec)
    fingerprint = run_fingerprint(algorithm, spec)
    cached = store.get(fingerprint)
    if cached is not None:
        report.cache_hits += 1
        return cached
    report.executed += 1
    record = run_scenario(algorithm, spec)
    store.put(fingerprint, record)
    return record


def _reproduces(
    algorithm: str,
    kind: str,
    oracle: Callable[[RunRecord], Verdict],
    store: Optional[RunStore],
    report: FuzzReport,
) -> Callable[[ScenarioSpec], bool]:
    """The shrinker's predicate: does the *same kind* of failure still occur?"""

    def predicate(spec: ScenarioSpec) -> bool:
        if kind == "engine_divergence":
            return not engine_differential(algorithm, spec).ok
        if kind == "backend_divergence":
            return not backend_differential(algorithm, spec).ok
        verdict = oracle(_run_cached(algorithm, spec, store, report))
        return (not verdict.ok) and verdict.kind == kind
    return predicate


def _handle_finding(
    finding: FuzzFinding,
    oracle: Callable[[RunRecord], Verdict],
    config: CampaignConfig,
    store: Optional[RunStore],
    report: FuzzReport,
) -> None:
    """Shrink a finding to 1-minimal and persist it as a corpus fixture."""
    if config.shrink:
        result: ShrinkResult = shrink(
            finding.spec,
            _reproduces(finding.algorithm, finding.verdict.kind, oracle, store, report),
            budget=config.shrink_budget,
        )
        finding.minimized = result.spec
        finding.shrink_steps = result.steps
        finding.shrink_evaluations = result.evaluations
    if config.corpus_dir:
        minimal = finding.minimized if finding.minimized is not None else finding.spec
        entry = corpus_mod.fixture_entry(
            finding.algorithm,
            minimal,
            finding.verdict.kind,
            notes=finding.verdict.detail,
            found={"campaign_seed": config.seed, "trial": finding.trial},
            shrink={
                "steps": finding.shrink_steps,
                "evaluations": finding.shrink_evaluations,
            },
        )
        finding.fixture_path = corpus_mod.write_fixture(config.corpus_dir, entry)
    report.findings.append(finding)


def run_campaign(
    config: CampaignConfig,
    *,
    progress: Optional[Callable[[int, int, str], None]] = None,
) -> FuzzReport:
    """Run one falsification campaign (see module docstring)."""
    report = FuzzReport()
    oracle = planted_bug_oracle if config.planted_bug else check_record
    store = RunStore(config.store_path) if config.store_path else None
    try:
        for index in range(config.trials):
            trial: Trial = sample_trial(
                config.seed,
                index,
                algorithms=config.algorithms,
                max_nodes=config.max_nodes,
                max_agents=config.max_agents,
            )
            report.trials += 1
            record = _run_cached(trial.algorithm, trial.spec, store, report)
            verdict = oracle(record)
            if verdict.is_skip:
                report.skipped += 1
            if progress is not None:
                progress(index, config.trials, verdict.kind)
            if not verdict.ok:
                _handle_finding(
                    FuzzFinding(trial.index, trial.algorithm, trial.spec, verdict),
                    oracle,
                    config,
                    store,
                    report,
                )
                continue
            # Differential tier: only meaningful on clean, supported runs.
            if verdict.is_skip or not config.differential:
                continue
            if record.status == "ok":
                vec = _run_cached(
                    trial.algorithm, trial.spec.with_backend("vectorized"), store, report
                )
                diff = backend_differential(
                    trial.algorithm, trial.spec, reference_record=record, vectorized_record=vec
                )
                report.differentials += 1
                if not diff.ok:
                    _handle_finding(
                        FuzzFinding(trial.index, trial.algorithm, trial.spec, diff),
                        oracle,
                        config,
                        store,
                        report,
                    )
                    continue
            if differential_pair(trial.algorithm, trial.spec) is not None:
                diff = engine_differential(trial.algorithm, trial.spec)
                report.differentials += 1
                if not diff.is_skip and not diff.ok:
                    _handle_finding(
                        FuzzFinding(trial.index, trial.algorithm, trial.spec, diff),
                        oracle,
                        config,
                        store,
                        report,
                    )
                    continue
            # Exhaustive tier: tiny fault-free ASYNC instances get their full
            # schedule prefix space enumerated instead of one sampled order.
            if config.explore:
                exploration = explore_interleavings(
                    trial.algorithm,
                    trial.spec,
                    depth=config.explore_depth,
                    budget=config.explore_budget,
                )
                if exploration is not None:
                    report.explored_schedules += exploration.schedules
                    if not exploration.ok:
                        script, bad = exploration.findings[0]
                        found = Verdict(
                            ok=False,
                            kind=bad.kind,
                            detail=f"schedule prefix {list(script)}: {bad.detail}",
                        )
                        _handle_finding(
                            FuzzFinding(trial.index, trial.algorithm, trial.spec, found),
                            oracle,
                            config,
                            store,
                            report,
                        )
    finally:
        if store is not None:
            store.close()
    return report
