"""Backend registry: name → BDD engine class, plus environment resolution.

Every engine registered here must satisfy :class:`repro.bdd.protocol.BDDBackend`
and pass ``tests/test_backend_conformance.py`` (the suite parametrises over
this registry, so registering a backend automatically enrols it).

Selection precedence, highest first:

1. an explicit ``backend=`` argument (``StaticAnalyzer(backend="arena")``,
   ``repro analyze --backend arena``);
2. the ``REPRO_BDD_BACKEND`` environment variable (how CI runs the whole
   suite under each backend);
3. the default, :func:`default_backend`: ``"native"`` when its library
   loads, otherwise ``"arena"``.

Choosing ``"native"`` explicitly when its library cannot be built or loaded
raises :class:`repro.bdd.native.NativeUnavailableError` with the reason.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.bdd import native
from repro.bdd.arena import ArenaBDDManager
from repro.bdd.native import NativeBDDManager
from repro.bdd.protocol import BDDBackend

#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV = "REPRO_BDD_BACKEND"

#: Registry of available engines.  Adding a backend: implement the protocol,
#: register it here, and the conformance suite + fuzzer cover it.
BACKENDS: dict[str, type] = {
    ArenaBDDManager.backend_name: ArenaBDDManager,
    NativeBDDManager.backend_name: NativeBDDManager,
}


def default_backend() -> str:
    """``"native"`` when its library loads (tried once), else ``"arena"``."""
    if native.available():
        return NativeBDDManager.backend_name
    return ArenaBDDManager.backend_name


def available_backends() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(BACKENDS)


def resolve_backend(backend: str | None = None) -> str:
    """Resolve an explicit choice / ``REPRO_BDD_BACKEND`` / default to a name."""
    chosen = backend or os.environ.get(BACKEND_ENV) or default_backend()
    if chosen not in BACKENDS:
        raise ValueError(
            f"unknown BDD backend {chosen!r}; available: {', '.join(BACKENDS)}"
        )
    if chosen == NativeBDDManager.backend_name:
        native.library()  # raises with the kept reason when it cannot load
    return chosen


def create_manager(variables: Sequence[str] = (), backend: str | None = None) -> BDDBackend:
    """Instantiate the chosen (or environment-selected, or default) engine."""
    return BACKENDS[resolve_backend(backend)](variables)
