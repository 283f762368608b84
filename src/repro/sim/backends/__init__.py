"""Kernel-backend registry: the execution representation axis.

A *backend* decides how the :class:`~repro.sim.kernel.ExecutionKernel` stores
the world, lands moves, and answers the drivers' settled-agent queries; the
kernel's semantics (fault clock, visibility contract, metrics) are
backend-independent.  Two backends ship:

``reference``
    The original per-agent Python loop (the oracle; always available).
``vectorized``
    The reference state plus a settled-agent index (per-node settled count
    and id-sum arrays, home-node id sets) that answers the probe and
    home-settler queries without scanning a node's occupants.  Needs the
    ``fast`` extra; reported unavailable (not a crash) when numpy is missing.

Like the scheduler axis, the backend is selected by *name* so it can travel
through scenario specs, CLI flags, and the ambient instrumentation context:
``resolve_backend`` turns a name (or ``None`` for the default) into a fresh
backend instance, raising :class:`BackendUnavailableError` with install
guidance when the named backend cannot run here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type, Union

from repro.sim.backends.base import KernelBackend
from repro.sim.backends.reference import ReferenceBackend
from repro.sim.backends.vectorized import VectorizedBackend

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "BackendUnavailableError",
    "KernelBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "available_backends",
    "backend_available",
    "get_backend",
    "require_backend",
    "resolve_backend",
]


class BackendUnavailableError(ValueError):
    """A known backend cannot run in this environment (missing optional dep).

    Subclasses :class:`ValueError` so the CLI's clean-message error funnel
    (and every ``except ValueError`` sweep path) reports it as user-actionable
    configuration, not a crash.
    """


_BACKENDS: Dict[str, Type[KernelBackend]] = {
    ReferenceBackend.name: ReferenceBackend,
    VectorizedBackend.name: VectorizedBackend,
}

#: Backend names a scenario may carry (validated at spec construction, like
#: SCHEDULERS: membership only -- availability is an *environment* property,
#: checked when the backend is actually instantiated or via require_backend,
#: so spec files stay portable across machines with and without numpy).
BACKEND_NAMES = tuple(_BACKENDS)

#: The backend engines use when nothing selects one.  The default is what
#: every pre-backend record, fingerprint, and seed was produced with.
DEFAULT_BACKEND = ReferenceBackend.name


def backend_available(name: str) -> bool:
    """Whether ``name`` can be instantiated in this environment."""
    cls = _BACKENDS.get(name)
    if cls is None:
        return False
    checker = getattr(cls, "is_available", None)
    return bool(checker()) if checker is not None else True


def available_backends() -> List[str]:
    """Names of every backend that can run here, registry order."""
    return [name for name in _BACKENDS if backend_available(name)]


def require_backend(name: str) -> None:
    """Validate that ``name`` is a known, runnable backend (else raise).

    The CLI calls this *before* launching a run or sweep so an unavailable
    backend fails fast with one actionable message instead of erroring every
    job mid-sweep.
    """
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; known: {sorted(_BACKENDS)}"
        )
    get_backend(name)  # raises BackendUnavailableError with guidance


def get_backend(name: str) -> KernelBackend:
    """A fresh, unbound backend instance for ``name``."""
    cls = _BACKENDS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown backend {name!r}; known: {sorted(_BACKENDS)}"
        )
    return cls()


def resolve_backend(
    backend: Union[None, str, KernelBackend],
) -> KernelBackend:
    """Coerce a backend selector (``None`` / name / instance) to an instance."""
    if backend is None:
        return get_backend(DEFAULT_BACKEND)
    if isinstance(backend, KernelBackend):
        return backend
    return get_backend(backend)
