"""Kernel-backend registry: the execution representation axis.

A *backend* decides how the :class:`~repro.sim.kernel.ExecutionKernel` stores
the world, lands moves, and answers the drivers' settled-agent queries; the
kernel's semantics (fault clock, visibility contract, metrics) are
backend-independent.  Two backends ship, both pure Python:

``reference``
    The original per-agent Python loop (the oracle).
``vectorized``
    The reference state plus a settled-agent index (per-node settled count
    and id-sum lists, home-node id sets) that answers the probe and
    home-settler queries without scanning a node's occupants.

Like the scheduler axis, the backend is selected by *name* so it can travel
through scenario specs, CLI flags, and the ambient instrumentation context:
``resolve_backend`` turns a name (or ``None`` for the default) into a fresh
backend instance.
"""

from __future__ import annotations

from typing import Dict, Type, Union

from repro.sim.backends.base import KernelBackend
from repro.sim.backends.reference import ReferenceBackend
from repro.sim.backends.vectorized import VectorizedBackend

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "get_backend",
    "resolve_backend",
]


_BACKENDS: Dict[str, Type[KernelBackend]] = {
    ReferenceBackend.name: ReferenceBackend,
    VectorizedBackend.name: VectorizedBackend,
}

#: Backend names a scenario may carry (validated at spec construction, like
#: SCHEDULERS).
BACKEND_NAMES = tuple(_BACKENDS)

#: The backend engines use when nothing selects one.  The default is what
#: every pre-backend record, fingerprint, and seed was produced with.
DEFAULT_BACKEND = ReferenceBackend.name


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
