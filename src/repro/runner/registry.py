"""Algorithm registry: one uniform adapter per dispersion algorithm.

Every algorithm in :mod:`repro.core` and :mod:`repro.baselines` is registered
here under a short stable name (``rooted_sync``, ``ks_opodis21``, ...) together
with the metadata the experiment layer needs: SYNC vs ASYNC (which decides the
time unit and whether an adversary applies), rooted vs general initial
configurations, and the paper's claimed bound (printed in report tables).

The adapters give every algorithm the same call shape --
``run(graph, placements, adversary, seed) -> DispersionResult`` -- so sweeps,
benchmarks, and the CLI never special-case individual algorithms again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.graph.port_graph import PortLabeledGraph
from repro.sim.adversary import Scheduler
from repro.sim.result import DispersionResult

__all__ = [
    "AlgorithmSpec",
    "register",
    "get_algorithm",
    "list_algorithms",
    "algorithm_names",
    "core_algorithm_names",
    "code_versions",
    "supports",
]

#: Adapter signature shared by every registered algorithm.
Adapter = Callable[
    [PortLabeledGraph, Mapping[int, int], Optional[Scheduler], int],
    DispersionResult,
]


@dataclass(frozen=True)
class AlgorithmSpec:
    """A registered dispersion algorithm.

    Attributes
    ----------
    name:
        Registry key (stable; used in sweep specs and artifacts).
    display:
        Human-readable name used in report tables.
    setting:
        ``"sync"`` (time = rounds) or ``"async"`` (time = epochs).
    config:
        ``"rooted"`` -- requires all agents on one start node -- or
        ``"general"`` -- accepts any initial placement.
    claimed_bound:
        The paper's bound for the table's last column.
    adapter:
        Uniform ``(graph, placements, adversary, seed) -> DispersionResult``.
    entry_point:
        ``"module:function"`` of the underlying public driver; used by the
        registry-completeness tests to prove every algorithm in ``core/`` and
        ``baselines/`` is covered.
    guaranteed:
        False for heuristics (e.g. the random-walk baseline) whose runs may
        legitimately end with ``dispersed=False``; sweeps report rather than
        fail those.
    code_version:
        Opaque tag naming the current implementation of the algorithm.  The
        experiment store (:mod:`repro.store`) mixes it into every run
        fingerprint, so bumping the tag when an algorithm's behaviour changes
        invalidates exactly that algorithm's cached records -- nothing else.
    """

    name: str
    display: str
    setting: str
    config: str
    claimed_bound: str
    adapter: Adapter
    entry_point: str = ""
    guaranteed: bool = True
    code_version: str = "1"

    @property
    def time_unit(self) -> str:
        return "rounds" if self.setting == "sync" else "epochs"

    def supports_scheduler(self, scheduler: str) -> bool:
        """Whether the algorithm can run under this synchrony discipline.

        ASYNC-capable algorithms accept every scheduler: their correctness
        holds against arbitrary fair activation orders, of which lockstep,
        semi-synchronous, and bounded-delay schedules are restrictions.  SYNC
        algorithms run lockstep *by construction* (their drivers call
        ``SyncEngine.step``), so only the classic default applies -- asking
        for another discipline is an unsupported pairing, not a silent no-op.
        """
        return self.setting == "async" or scheduler == "async"

    @property
    def is_paper(self) -> bool:
        """True for the paper's own algorithms (vs. comparison baselines)."""
        return self.entry_point.startswith("repro.core.")

    def run(
        self,
        graph: PortLabeledGraph,
        placements: Mapping[int, int],
        adversary: Optional[Scheduler] = None,
        seed: int = 0,
    ) -> DispersionResult:
        """Run the algorithm on an initial ``node -> agent count`` placement."""
        return self.adapter(graph, placements, adversary, seed)


_REGISTRY: Dict[str, AlgorithmSpec] = {}


def register(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Add an algorithm to the registry (rejects duplicate names)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"algorithm {spec.name!r} is already registered")
    if spec.setting not in ("sync", "async"):
        raise ValueError(f"setting must be 'sync' or 'async', got {spec.setting!r}")
    if spec.config not in ("rooted", "general"):
        raise ValueError(f"config must be 'rooted' or 'general', got {spec.config!r}")
    _REGISTRY[spec.name] = spec
    return spec


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registered algorithm by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def list_algorithms() -> List[AlgorithmSpec]:
    """All registered algorithms, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def algorithm_names() -> List[str]:
    """Sorted registry keys."""
    return sorted(_REGISTRY)


def core_algorithm_names() -> List[str]:
    """Sorted keys of the paper's own algorithms (the fault-sweep CI targets)."""
    return [name for name in sorted(_REGISTRY) if _REGISTRY[name].is_paper]


def code_versions() -> Dict[str, str]:
    """Current ``{algorithm name: code-version tag}`` map (for store GC)."""
    return {name: _REGISTRY[name].code_version for name in sorted(_REGISTRY)}


def supports(spec: AlgorithmSpec, placements: Mapping[int, int]) -> bool:
    """True when the algorithm can run from this initial placement."""
    if spec.config == "general":
        return True
    return len(placements) == 1


# --------------------------------------------------------------------------
# Adapters.  Imports happen lazily inside each adapter so that importing the
# runner package stays cheap (the general drivers pull in the full subsumption
# machinery).


def _single_root(placements: Mapping[int, int]) -> tuple:
    if len(placements) != 1:
        raise ValueError("rooted algorithm requires a single start node")
    ((start, k),) = placements.items()
    return start, k


def _rooted_sync(graph, placements, adversary, seed):
    from repro.core.rooted_sync import rooted_sync_dispersion

    start, k = _single_root(placements)
    return rooted_sync_dispersion(graph, k, start_node=start)


def _rooted_async(graph, placements, adversary, seed):
    from repro.core.rooted_async import rooted_async_dispersion

    start, k = _single_root(placements)
    return rooted_async_dispersion(graph, k, start_node=start, adversary=adversary)


def _general_sync(graph, placements, adversary, seed):
    from repro.core.general_sync import general_sync_dispersion

    return general_sync_dispersion(graph, placements)


def _general_async(graph, placements, adversary, seed):
    from repro.core.general_async import general_async_dispersion

    return general_async_dispersion(graph, placements, adversary=adversary)


def _naive_dfs(graph, placements, adversary, seed):
    from repro.baselines.naive_dfs import naive_sync_dispersion

    start, k = _single_root(placements)
    return naive_sync_dispersion(graph, k, start_node=start)


def _sudo_disc24(graph, placements, adversary, seed):
    from repro.baselines.sudo_disc24 import sudo_sync_dispersion

    start, k = _single_root(placements)
    return sudo_sync_dispersion(graph, k, start_node=start)


def _ks_opodis21(graph, placements, adversary, seed):
    from repro.baselines.ks_opodis21 import ks_async_dispersion

    start, k = _single_root(placements)
    return ks_async_dispersion(graph, k, start_node=start, adversary=adversary)


def _random_walk(graph, placements, adversary, seed):
    from repro.baselines.random_walk import random_walk_dispersion

    start, k = _single_root(placements)
    return random_walk_dispersion(graph, k, start_node=start, seed=seed)


register(AlgorithmSpec(
    name="rooted_sync",
    display="RootedSyncDisp (ours)",
    setting="sync",
    config="rooted",
    claimed_bound="O(k)",
    adapter=_rooted_sync,
    entry_point="repro.core.rooted_sync:rooted_sync_dispersion",
    # v2: the SYNC engine now skips the whole CCM cycle of crashed/frozen
    # agents (settle + probe paths), changing every fault-sweep record.
    code_version="2",
))
register(AlgorithmSpec(
    name="rooted_async",
    display="RootedAsyncDisp (ours)",
    setting="async",
    config="rooted",
    claimed_bound="O(k log k)",
    adapter=_rooted_async,
    entry_point="repro.core.rooted_async:rooted_async_dispersion",
    # v2: the ASYNC engine always skipped blocked cycles, but its co-location
    # queries now hide crashed/frozen agents too (probe answers, settle
    # candidacy), so cached fault records must be recomputed as well.
    code_version="2",
))
register(AlgorithmSpec(
    name="general_sync",
    display="GeneralSyncDisp (ours)",
    setting="sync",
    config="general",
    claimed_bound="O(k)",
    adapter=_general_sync,
    entry_point="repro.core.general_sync:general_sync_dispersion",
    code_version="2",  # v2 fault semantics (see rooted_sync)
))
register(AlgorithmSpec(
    name="general_async",
    display="GeneralAsyncDisp (ours)",
    setting="async",
    config="general",
    claimed_bound="O(k log k)",
    adapter=_general_async,
    entry_point="repro.core.general_async:general_async_dispersion",
    code_version="2",  # v2 fault semantics (see rooted_async)
))
register(AlgorithmSpec(
    name="naive_dfs",
    display="naive seq-probe DFS",
    setting="sync",
    config="rooted",
    claimed_bound="O(min{m, kΔ})",
    adapter=_naive_dfs,
    entry_point="repro.baselines.naive_dfs:naive_sync_dispersion",
    code_version="2",  # v2 fault semantics (see rooted_sync)
))
register(AlgorithmSpec(
    name="sudo_disc24",
    display="Sudo'24-style",
    setting="sync",
    config="rooted",
    claimed_bound="O(k log k)",
    adapter=_sudo_disc24,
    entry_point="repro.baselines.sudo_disc24:sudo_sync_dispersion",
    code_version="2",  # v2 fault semantics (see rooted_sync)
))
register(AlgorithmSpec(
    name="ks_opodis21",
    display="KS'21-style ASYNC",
    setting="async",
    config="rooted",
    claimed_bound="O(min{m, kΔ})",
    adapter=_ks_opodis21,
    entry_point="repro.baselines.ks_opodis21:ks_async_dispersion",
    code_version="2",  # v2 fault semantics (see rooted_async)
))
register(AlgorithmSpec(
    name="random_walk",
    display="random-walk heuristic",
    setting="sync",
    config="rooted",
    claimed_bound="(heuristic)",
    adapter=_random_walk,
    entry_point="repro.baselines.random_walk:random_walk_dispersion",
    guaranteed=False,
    code_version="2",  # v2 fault semantics (see rooted_sync)
))
