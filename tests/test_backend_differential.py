"""Differential reference-vs-vectorized suite: records must be byte-identical.

The backend axis buys wall-clock speed, never different science: for *any*
(algorithm, scenario) pair, running the scenario on the vectorized backend
must produce the exact canonical record bytes of the reference run -- same
metrics, same fault events, same invariant verdicts, same error text -- apart
from the scenario's own ``backend`` tag (the one field that names the axis).
That invariant is what lets ``--backend vectorized`` flow through sweeps,
artifacts, and the experiment store without bumping any ``code_version``.

Random scenarios are crossed with graph families, placements, synchrony
schedulers, and crash/freeze/churn fault profiles, over every registered
algorithm.  Uses Hypothesis when installed; otherwise the same properties run
over a seeded random sweep of equal size (the ``std-random`` fallback used
across this suite).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.runner.execute import RunRecord, run_scenario
from repro.runner.registry import algorithm_names
from repro.runner.scenario import ScenarioSpec

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

CASES = 10


def arbitrary_cases(**ranges):
    """Drive a test from Hypothesis, or from a seeded sweep without it.

    The Hypothesis draw is derandomized, so every run checks the same cases
    and costs the same time (a draw that lands on a runaway faulty run can
    cost several times the median); the nightly fuzz campaign's backend
    differential keeps searching fresh random scenarios.
    """

    def decorate(fn):
        if HAVE_HYPOTHESIS:
            strategies = {
                name: st.integers(low, high) for name, (low, high) in ranges.items()
            }
            wrapped = given(**strategies)(fn)
            return settings(
                max_examples=CASES,
                deadline=None,
                derandomize=True,
                suppress_health_check=[HealthCheck.too_slow],
            )(wrapped)

        def sweep():
            rng = random.Random(0xBACE2D)
            for _ in range(CASES):
                fn(**{name: rng.randint(low, high) for name, (low, high) in ranges.items()})

        sweep.__name__ = fn.__name__
        sweep.__doc__ = fn.__doc__
        return sweep

    return decorate


# ------------------------------------------------------------ scenario sampling

FAMILIES = (
    ("line", lambda rng: {"n": rng.randint(8, 16)}),
    ("ring", lambda rng: {"n": rng.randint(8, 16)}),
    ("complete", lambda rng: {"n": rng.randint(6, 10)}),
    ("erdos_renyi", lambda rng: {"n": rng.randint(10, 16), "p": 0.3}),
    ("random_tree", lambda rng: {"n": rng.randint(8, 16)}),
    ("grid2d", lambda rng: {"rows": rng.randint(3, 4), "cols": rng.randint(3, 4)}),
)

SCHEDULER_CHOICES = ("async", "lockstep", "semi-sync", "bounded-delay")

#: Fault profiles spanning every injector mechanism (crash-stop, freeze-thaw,
#: edge churn -- churn exercises the vectorized backend's CSR refresh on the
#: live engine path), plus the fault-free profile.
FAULT_PROFILES = (
    {},
    {"crash": 0.25, "horizon": 6},
    {"freeze": 0.4, "freeze_duration": 4, "horizon": 8},
    {"churn": 0.15, "horizon": 6},
    {"crash": 0.15, "freeze": 0.25, "freeze_duration": 3, "churn": 0.1, "horizon": 8},
)


def random_spec(rng: random.Random) -> ScenarioSpec:
    family, draw_params = FAMILIES[rng.randrange(len(FAMILIES))]
    params = draw_params(rng)
    n = params["n"] if "n" in params else params["rows"] * params["cols"]
    split = rng.random() < 0.4
    return ScenarioSpec(
        family=family,
        params=params,
        k=rng.randint(2, min(n, 10)),
        placement="split" if split else "rooted",
        placement_parts=2 if split else 1,
        scheduler=SCHEDULER_CHOICES[rng.randrange(len(SCHEDULER_CHOICES))],
        seed=rng.randint(0, 10**6),
        faults=FAULT_PROFILES[rng.randrange(len(FAULT_PROFILES))],
        check_invariants=rng.random() < 0.5,
    )


def canonical_modulo_backend(record: RunRecord) -> str:
    """The record's canonical JSON with the scenario's backend tag removed --
    the only byte a backend switch is allowed to change."""
    data = record.to_dict()
    data["scenario"].pop("backend", None)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def assert_backend_invariant(algorithm: str, spec: ScenarioSpec) -> RunRecord:
    reference = run_scenario(algorithm, spec)
    vectorized = run_scenario(algorithm, spec.with_backend("vectorized"))
    assert canonical_modulo_backend(reference) == canonical_modulo_backend(
        vectorized
    ), f"{algorithm} diverged on {spec.label()}"
    # ... and the tag itself is the one expected difference.
    assert "backend" not in reference.to_dict()["scenario"]
    assert vectorized.to_dict()["scenario"]["backend"] == "vectorized"
    return reference


# ------------------------------------------------------------------- properties


@arbitrary_cases(seed=(0, 1_000_000))
def test_random_scenarios_are_backend_invariant_for_every_algorithm(seed):
    """The headline property: all registered algorithms, random worlds."""
    spec = random_spec(random.Random(seed))
    for algorithm in algorithm_names():
        assert_backend_invariant(algorithm, spec)


@arbitrary_cases(seed=(0, 1_000_000), profile=(1, len(FAULT_PROFILES) - 1))
def test_faulty_scenarios_report_identical_fault_data(seed, profile):
    """Crash/freeze/churn instrumentation (events, violations, error text)
    lands identically in both backends' records."""
    rng = random.Random(seed)
    spec = random_spec(rng).with_faults(
        FAULT_PROFILES[profile], check_invariants=True
    )
    algorithms = algorithm_names()
    record = assert_backend_invariant(
        algorithms[rng.randrange(len(algorithms))], spec
    )
    # Unsupported pairings (rooted-only algorithm on a split placement, SYNC
    # algorithm under a restricted scheduler) return before instrumentation.
    if record.status != "unsupported":
        assert record.fault_events is not None
        assert record.invariant_violations is not None


# ------------------------------------------------------------ fixed regressions


@pytest.mark.parametrize("algorithm", algorithm_names())
def test_fixed_grid_world_is_backend_invariant(algorithm):
    """A deterministic anchor per algorithm (fails loudly, no shrinking)."""
    spec = ScenarioSpec(
        family="grid2d", params={"rows": 4, "cols": 4}, k=8, seed=42
    )
    assert_backend_invariant(algorithm, spec)


@pytest.mark.parametrize("scheduler", ["lockstep", "semi-sync", "bounded-delay"])
def test_synchrony_spectrum_is_backend_invariant(scheduler):
    """Scheduler seed streams must not be perturbed by the backend choice."""
    spec = ScenarioSpec(
        family="ring", params={"n": 12}, k=6, seed=3, scheduler=scheduler
    )
    for algorithm in ("rooted_async", "general_async", "ks_opodis21"):
        assert_backend_invariant(algorithm, spec)


#: The drivers whose DFS/probe phases now ride the backend's batched
#: driver-phase primitives (run_probe_round, run_scatter, the settled-query
#: trio).  They get a deterministic scheduler x fault matrix on top of the
#: random sweep above: these are exactly the code paths where the vectorized
#: backend must detect faults/churn and fall back (or mask array-side) without
#: perturbing a single record byte.
BATCHED_DRIVERS = ("rooted_sync", "general_sync", "rooted_async", "general_async")

DRIVER_FAULT_PROFILES = (
    {"crash": 0.2, "horizon": 8},
    {"freeze": 0.35, "freeze_duration": 4, "horizon": 10},
    {"churn": 0.25, "horizon": 10},
)


@pytest.mark.parametrize("algorithm", BATCHED_DRIVERS)
def test_batched_driver_fault_matrix_is_backend_invariant(algorithm):
    """Every newly batched driver, across the synchrony spectrum and every
    fault mechanism, produces byte-identical records modulo the backend tag."""
    is_async = algorithm.endswith("_async")
    is_general = algorithm.startswith("general")
    schedulers = SCHEDULER_CHOICES if is_async else ("async",)
    for scheduler in schedulers:
        for offset, faults in enumerate(DRIVER_FAULT_PROFILES):
            spec = ScenarioSpec(
                family="erdos_renyi",
                params={"n": 12, "p": 0.35},
                k=6,
                placement="split" if is_general else "rooted",
                placement_parts=2 if is_general else 1,
                scheduler=scheduler,
                seed=100 + offset,
                faults=faults,
                check_invariants=True,
            )
            record = assert_backend_invariant(algorithm, spec)
            assert record.status != "unsupported"


def test_churn_heavy_run_is_backend_invariant():
    """Edge churn rebuilds the port tables mid-run; the vectorized CSR views
    must track every rewiring exactly (ports shift down, new top ports)."""
    spec = ScenarioSpec(
        family="erdos_renyi",
        params={"n": 14, "p": 0.35},
        k=7,
        seed=11,
        faults={"churn": 0.5, "horizon": 20},
        check_invariants=True,
    )
    for algorithm in ("rooted_sync", "rooted_async", "random_walk"):
        assert_backend_invariant(algorithm, spec)
