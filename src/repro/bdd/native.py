"""The ``"native"`` backend: the arena engine with its kernels in C.

:class:`NativeBDDManager` is :class:`repro.bdd.arena.ArenaBDDManager` with
the node table and the computed tables moved into a C object
(``native.c``).  The C kernels — ``mk``, ``and``, ``ite``, ``exists``,
``and_exists``, the optimistic structural ``rename``, ``support``,
``dag_size`` and the mark-and-compact collector — run the arena's algorithms
frame for frame, so on any operation sequence both engines hand out the same
references, the same ``ite_calls``/``ite_cache_hits`` and the same peak node
count.  Everything else (``restrict``, ``pick_assignment``,
``count_assignments``, the GC-hook contract, ...) is inherited and reads the
C node table through read-only sequence views.

The governor contract carries over: the C kernels count a step at exactly the
arena's ``governor.tick()`` sites and, on ``POLL_STRIDE`` boundaries, write
``governor.steps`` and call ``governor.poll()``; a ``BudgetExceeded`` unwinds
without a computed-table entry for any unfinished frame and is re-raised
unchanged.

Building and loading.  The extension is compiled from ``native.c`` with the
interpreter's own compiler and link command (:mod:`sysconfig`), once per
digest of the source and the interpreter ABI, into the user cache directory
(``$XDG_CACHE_HOME/repro/native``, by default ``~/.cache/repro/native``).
The compiler writes into a private temporary directory and the result is
published with :func:`os.replace`, so concurrent processes (``serve
--workers``) never load a half-written file.  The library is loaded by the
first manager creation or default-backend resolution, never at import, so
processes that never solve never build or load it.  When it cannot be built
or loaded the reason is kept: the default backend falls back to ``"arena"``
and an explicit ``"native"`` request raises :class:`NativeUnavailableError`
with that reason.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import sys
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Iterable, Mapping

from repro.bdd.arena import ArenaBDDManager

SOURCE = Path(__file__).with_name("native.c")


class NativeUnavailableError(RuntimeError):
    """The native library could not be built or loaded (the reason is kept)."""


#: ``(module, None)`` once loaded, ``(None, reason)`` once failed.
_loaded: tuple[ModuleType | None, str | None] | None = None


def _build_command(source: Path, output: Path) -> list[str]:
    """Compile and link ``source`` with the interpreter's own toolchain."""
    import shlex
    import sysconfig

    link = sysconfig.get_config_var("LDSHARED")
    if not link:
        raise NativeUnavailableError("the interpreter records no shared-library link command")
    return [
        *shlex.split(link),
        *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
        "-O2",
        "-I",
        sysconfig.get_paths()["include"],
        str(source),
        "-o",
        str(output),
    ]


def cache_dir() -> Path:
    """Where built libraries live: the user cache directory."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro" / "native"


def library_path() -> Path:
    """The built library for this source and interpreter ABI."""
    import sysconfig

    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(f"{sys.version}\0{suffix}\0".encode())
    digest.update("\0".join(_build_command(Path("src"), Path("out"))).encode())
    return cache_dir() / f"_native-{digest.hexdigest()[:20]}{suffix}"


def _build(target: Path) -> None:
    import subprocess

    target.parent.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=".build-", dir=target.parent))
    try:
        output = scratch / target.name
        result = subprocess.run(
            _build_command(SOURCE, output), capture_output=True, text=True, check=False
        )
        if result.returncode != 0:
            raise NativeUnavailableError(
                f"compiling {SOURCE.name} failed: {result.stderr.strip()[-2000:]}"
            )
        os.replace(output, target)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _load() -> ModuleType:
    path = library_path()
    if not path.exists():
        _build(path)
    spec = importlib.util.spec_from_file_location("repro.bdd._native", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library() -> ModuleType:
    """The loaded extension, building it on first use.

    Raises :class:`NativeUnavailableError` with the kept reason when it
    cannot be built or loaded (the attempt is made once per process).
    """
    global _loaded
    if _loaded is None:
        try:
            _loaded = (_load(), None)
        except (OSError, ImportError, NativeUnavailableError) as error:
            _loaded = (None, f"{type(error).__name__}: {error}")
    module, reason = _loaded
    if module is None:
        raise NativeUnavailableError(f"native BDD backend unavailable: {reason}")
    return module


def available() -> bool:
    """Whether the native library loads (tries once, on first call)."""
    try:
        library()
    except NativeUnavailableError:
        return False
    return True


class NativeBDDManager(ArenaBDDManager):
    """The arena engine with C kernels (see module doc)."""

    backend_name = "native"

    def _init_engine(self) -> None:
        arena = library().Arena()
        self._arena = arena
        # Read-only views of the C node table for the inherited methods.
        self._levels = arena.levels
        self._lows = arena.lows
        self._highs = arena.highs
        # Exact C tables with ``clear()`` and ``len()``, like the arena's dicts.
        self._and_cache = arena.and_cache
        self._ite_cache = arena.ite_cache
        self._quant_cache = arena.quant_cache
        # The inherited operations call the kernels through these names,
        # with the arena's signatures.
        self._mk = arena.mk
        self._and = arena.conj
        self._ite = arena.ite
        self._exists_kernel = arena.exists
        self._and_exists_kernel = arena.and_exists

    @property
    def _counts(self) -> tuple[int, int]:
        return self._arena.counts

    def _node_tables(self) -> tuple:
        # No closure holds the C tables: they go with this manager.
        return ()

    def set_governor(self, governor: object | None) -> None:
        self._arena.set_governor(governor)

    def product_memo(self):
        """A fresh relational-product memo (an exact C table with ``clear()``)."""
        return self._arena.new_memo()

    rename_memo = product_memo

    def _current(self, memo):
        # The C kernels check a memo's owner and generation themselves.
        return memo

    def _rename_structural(
        self, node: int, level_map: Mapping[int, int], memo=None
    ) -> int | None:
        return self._arena.rename_structural(node, dict(level_map), memo)

    def _support_levels(self, node: int) -> set[int]:
        return self._arena.support_levels(node)

    def dag_size(self, node: int, limit: int | None = None) -> int:
        return self._arena.dag_size(node, limit)

    def _collect(self, root_refs: Iterable[int]) -> dict[int, int]:
        return self._arena.collect(root_refs)
