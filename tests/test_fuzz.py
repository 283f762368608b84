"""Tests for the falsification subsystem (``repro.fuzz``).

Four contracts:

1. **Sampler determinism and validity** -- trial ``i`` of campaign seed ``s``
   is one fixed, *runnable* scenario: same draw on every call, never an
   unsupported (algorithm, placement, scheduler) pairing, never a world the
   graph builder rejects.
2. **Oracles mirror the sweep policy** -- fault-free crashes and invariant
   violations are bugs; under injected faults, settlement-safety violations
   are findings-as-data while structural invariants stay inexcusable.
3. **Shrinker** -- deterministic greedy 1-minimal reduction: a planted
   synthetic bug funnels to the same minimal spec from different failing
   starting points, twice over (byte-determinism of the minimal spec).
4. **Campaign dedup** -- a repeated ``repro fuzz --store`` pass executes zero
   jobs; the planted-bug campaign finds, shrinks, and reports byte-identically
   on a second run.
"""

from __future__ import annotations

import sys

import pytest

from repro.fuzz import (
    CampaignConfig,
    ScriptedScheduler,
    check_record,
    explore_interleavings,
    run_campaign,
    sample_trial,
    shrink,
)
import repro.fuzz.campaign as campaign_mod
from repro.fuzz.campaign import planted_bug_oracle
from repro.fuzz.oracles import backend_differential, engine_differential
from repro.fuzz.shrink import candidates
from repro.runner.execute import run_scenario
from repro.runner.registry import get_algorithm
from repro.runner.scenario import ScenarioSpec, build_graph, build_placements
from repro.sim.faults import FaultSpec


# ---------------------------------------------------------------- sampler
def test_sampler_is_deterministic():
    first = sample_trial(42, 7)
    second = sample_trial(42, 7)
    assert first.algorithm == second.algorithm
    assert first.spec.key() == second.spec.key()


def test_sampler_distinguishes_trials_and_seeds():
    keys = {sample_trial(5, i).spec.key() for i in range(10)}
    assert len(keys) == 10, "distinct trials should draw distinct scenarios"
    assert sample_trial(5, 0).spec.key() != sample_trial(6, 0).spec.key()


@pytest.mark.parametrize("index", range(20))
def test_sampled_trials_are_runnable(index):
    """No unsupported pairings, no unbuildable worlds: fuzz budget is for bugs."""
    trial = sample_trial(1234, index)
    spec = get_algorithm(trial.algorithm)
    graph = build_graph(trial.spec)  # must not raise
    placements = build_placements(trial.spec, graph)
    assert trial.spec.k <= graph.num_nodes
    assert spec.config == "general" or len(placements) == 1
    assert spec.supports_scheduler(trial.spec.scheduler)
    assert trial.spec.check_invariants, "fuzz trials always run checked"


def test_sampler_respects_algorithm_family_and_agent_caps():
    trial = sample_trial(
        9, 3, algorithms=["rooted_sync"], families=["line"], max_nodes=6, max_agents=3
    )
    assert trial.algorithm == "rooted_sync"
    assert trial.spec.family == "line"
    assert build_graph(trial.spec).num_nodes <= 6  # exact for size-parameterized families
    assert trial.spec.k <= 3


def test_sampler_rejects_unknown_algorithm():
    with pytest.raises(KeyError):
        sample_trial(0, 0, algorithms=["nope"])


# ---------------------------------------------------------------- oracles
CLEAN = ScenarioSpec(family="line", params={"n": 6}, k=4, check_invariants=True)


def test_clean_record_passes():
    verdict = check_record(run_scenario("rooted_sync", CLEAN))
    assert verdict.ok and verdict.kind == "ok"


def test_unsupported_record_is_a_skip():
    split = ScenarioSpec(
        family="line", params={"n": 8}, k=4, placement="split", placement_parts=2
    )
    verdict = check_record(run_scenario("rooted_sync", split))
    assert verdict.ok and verdict.is_skip


def test_fault_free_error_fails():
    record = run_scenario("rooted_sync", CLEAN)
    record.status = "error"
    record.error = "boom"
    verdict = check_record(record)
    assert not verdict.ok and verdict.kind == "error"


def test_fault_free_non_dispersal_fails_guaranteed_algorithms():
    record = run_scenario("rooted_sync", CLEAN)
    record.dispersed = False
    verdict = check_record(record)
    assert not verdict.ok and verdict.kind == "not_dispersed"


def test_faulty_error_and_non_dispersal_are_data():
    faulty = CLEAN.with_faults({"crash": 1.0})
    record = run_scenario("rooted_sync", faulty)
    record.status = "error"
    record.error = "gave up"
    record.dispersed = False
    record.invariant_violations = 0
    assert check_record(record).ok


def test_faulty_settlement_violations_are_data():
    """The fuzzer's own first finding, kept as the policy's living example:
    churn rewires a helper-settler's path home in sudo_disc24's doubling
    probe, stranding it -- a fault-sensitivity finding, not a code bug."""
    spec = ScenarioSpec(
        family="caterpillar",
        params={"legs_per_node": 2, "spine": 4},
        k=6,
        port_assignment="random",
        faults={"churn": 0.1},
        check_invariants=True,
    )
    record = run_scenario("sudo_disc24", spec)
    assert record.invariant_violations, "scenario should exhibit the stranded settler"
    assert check_record(record).ok


def test_fault_free_invariant_violations_fail():
    record = run_scenario("rooted_sync", CLEAN)
    record.invariant_violations = 2
    verdict = check_record(record)
    assert not verdict.ok and verdict.kind == "invariant"


def test_engine_differential_agrees_on_clean_pair():
    spec = ScenarioSpec(family="ring", params={"n": 8}, k=5, adversary="round_robin")
    verdict = engine_differential("rooted_sync", spec)
    assert verdict.ok and not verdict.is_skip


def test_engine_differential_skips_out_of_scope():
    spec = ScenarioSpec(family="ring", params={"n": 8}, k=5, adversary="random")
    assert engine_differential("rooted_sync", spec).is_skip
    assert engine_differential("random_walk", CLEAN).is_skip


# ---------------------------------------------------------------- shrinker
def _planted_predicate(spec: ScenarioSpec) -> bool:
    """The synthetic bug of the shrinker tests: churn + n>=4 + k>=3 'fails'."""
    faults = FaultSpec.from_dict(spec.faults)
    try:
        n = build_graph(spec).num_nodes
    except ValueError:
        return False
    return faults.churn > 0 and n >= 4 and spec.k >= 3


#: The planted bug's 1-minimal form under the shrinker's rewrite system.
PLANTED_MINIMAL = ScenarioSpec(
    family="line",
    params={"n": 4},
    k=3,
    faults={"churn": 1.0},
    check_invariants=True,
)

PLANTED_STARTS = [
    ScenarioSpec(
        family="grid2d", params={"rows": 3, "cols": 4}, k=7,
        port_assignment="random", adversary="starvation", seed=99,
        faults={"churn": 0.3, "crash": 0.1, "horizon": 40},
        check_invariants=True,
    ),
    ScenarioSpec(
        family="erdos_renyi", params={"n": 10, "p": 0.4}, k=5,
        placement="split", placement_parts=2, seed=7,
        scheduler="bounded-delay", scheduler_params={"delay_factor": 3},
        faults={"churn": 0.05, "freeze": 1.0, "freeze_duration": 3},
        check_invariants=True,
    ),
    ScenarioSpec(
        family="complete", params={"n": 9}, k=8, port_assignment="async_safe",
        seed=123456, faults={"churn": 1.0, "horizon": 8},
        check_invariants=True,
    ),
]


@pytest.mark.parametrize("start", PLANTED_STARTS, ids=lambda s: s.family)
def test_shrinker_reaches_the_same_minimal_spec_from_any_start(start):
    assert _planted_predicate(start), "starting point must exhibit the planted bug"
    result = shrink(start, _planted_predicate)
    assert not result.exhausted
    assert result.spec.key() == PLANTED_MINIMAL.key()
    assert build_graph(result.spec).num_nodes <= 6, "minimal spec fits the tiny tier"


def test_shrinker_is_deterministic():
    first = shrink(PLANTED_STARTS[0], _planted_predicate)
    second = shrink(PLANTED_STARTS[0], _planted_predicate)
    assert first.spec.key() == second.spec.key()
    assert (first.steps, first.evaluations) == (second.steps, second.evaluations)


def test_shrunk_result_is_one_minimal():
    result = shrink(PLANTED_STARTS[1], _planted_predicate)
    for neighbour in candidates(result.spec):
        assert not _planted_predicate(neighbour), (
            f"not 1-minimal: {neighbour.key()} still fails"
        )


def test_shrinker_budget_bounds_evaluations():
    result = shrink(PLANTED_STARTS[0], _planted_predicate, budget=3)
    assert result.exhausted
    assert result.evaluations <= 3


def test_shrinker_treats_predicate_crash_as_not_failing():
    def fragile(spec: ScenarioSpec) -> bool:
        if spec.k < PLANTED_STARTS[0].k:
            raise RuntimeError("different crash")
        return _planted_predicate(spec)

    result = shrink(PLANTED_STARTS[0], fragile)
    assert result.spec.k == PLANTED_STARTS[0].k


# ---------------------------------------------------------------- explorer
def test_scripted_scheduler_plays_prefix_then_round_robin():
    scheduler = ScriptedScheduler([2, 2, 0])
    scheduler.bind([10, 20, 30])
    assert [scheduler.next_agent() for _ in range(6)] == [30, 30, 10, 10, 20, 30]


def test_explorer_enumerates_all_interleavings_on_tiny_instances():
    spec = ScenarioSpec(family="line", params={"n": 4}, k=3, check_invariants=True)
    report = explore_interleavings("rooted_async", spec, depth=3, budget=64)
    assert report is not None
    assert report.exhaustive and report.schedules == 3**3
    assert report.ok, f"findings: {report.findings[:2]}"


def test_explorer_skips_out_of_scope_instances():
    sync = ScenarioSpec(family="line", params={"n": 4}, k=3)
    assert explore_interleavings("rooted_sync", sync) is None
    big = ScenarioSpec(family="line", params={"n": 20}, k=10)
    assert explore_interleavings("rooted_async", big) is None
    faulty = ScenarioSpec(family="line", params={"n": 4}, k=3, faults={"crash": 1.0})
    assert explore_interleavings("rooted_async", faulty) is None


# ---------------------------------------------------------------- campaign
def test_campaign_second_pass_executes_zero_jobs(tmp_path):
    config = CampaignConfig(
        trials=6,
        seed=21,
        store_path=str(tmp_path / "fuzz.sqlite"),
        differential=False,
        explore=False,
    )
    cold = run_campaign(config)
    warm = run_campaign(config)
    assert cold.trials == warm.trials == 6
    assert cold.executed > 0
    assert warm.executed == 0, "repeat campaign must be fully cache-served"
    assert warm.cache_hits == cold.executed + cold.cache_hits


def test_planted_bug_campaign_finds_shrinks_and_repeats_byte_identically(tmp_path):
    config = CampaignConfig(
        trials=40,
        seed=7,
        store_path=str(tmp_path / "fuzz.sqlite"),
        corpus_dir=str(tmp_path / "corpus"),
        differential=False,
        explore=False,
        planted_bug=True,
    )
    first = run_campaign(config)
    assert first.findings, "the planted bug must be found"
    minimal_keys = {
        f.minimized.key() for f in first.findings if f.minimized is not None
    }
    assert PLANTED_MINIMAL.key() in minimal_keys, (
        "at least one finding must shrink to the known 1-minimal spec"
    )
    second = run_campaign(config)
    assert [f.to_dict() for f in first.findings] == [
        f.to_dict() for f in second.findings
    ], "campaigns are byte-deterministic"
    assert second.executed == 0, "second planted-bug pass must be fully cached"
    fixture_paths = {f.fixture_path for f in first.findings}
    assert all(path is not None for path in fixture_paths)


def test_backend_differential_runs_without_numpy(monkeypatch):
    """Both backends are pure Python, so a vectorized run and the campaign's
    backend differential work in an environment without numpy."""
    monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy -> ImportError
    record = run_scenario(
        "rooted_sync",
        ScenarioSpec(
            family="grid2d", params={"rows": 8, "cols": 8}, k=32, backend="vectorized"
        ),
    )
    assert record.status == "ok" and record.dispersed
    verdicts = []

    def counted(*args, **kwargs):
        verdicts.append(backend_differential(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(campaign_mod, "backend_differential", counted)
    report = run_campaign(CampaignConfig(seed=1, trials=6))
    assert not report.findings
    assert verdicts and all(v.ok and v.kind == "ok" for v in verdicts)


def test_planted_oracle_passes_real_clean_records_through():
    record = run_scenario("rooted_sync", CLEAN)
    assert planted_bug_oracle(record).ok
    churny = run_scenario(
        "rooted_sync",
        ScenarioSpec(
            family="line", params={"n": 6}, k=4,
            faults={"churn": 1.0}, check_invariants=True,
        ),
    )
    verdict = planted_bug_oracle(churny)
    assert not verdict.ok and "planted" in verdict.detail
