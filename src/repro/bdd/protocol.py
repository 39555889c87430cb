"""The ``BDDBackend`` protocol: the narrow interface every BDD engine implements.

The solver layers (:mod:`repro.solver.relations`, :mod:`repro.solver.symbolic`,
:mod:`repro.solver.models`, :mod:`repro.solver.truth`) consume the BDD package
exclusively through this protocol, so an engine is a drop-in as long as it
provides these operations with the contracts documented here.  Two engines
ship with the repository:

* ``"arena"`` — :class:`repro.bdd.arena.ArenaBDDManager`, an int-indexed
  packed-array arena with complement edges and integer-packed operation
  caches, in pure Python (the reference engine and the fallback);
* ``"native"`` — :class:`repro.bdd.native.NativeBDDManager`, the same engine
  with its kernels and tables in C; it hands out the arena's references and
  counters exactly.

Backends are registered in :mod:`repro.bdd.backends`; construct one with
:func:`repro.bdd.backends.create_manager` (which also honours the
``REPRO_BDD_BACKEND`` environment variable).

Contracts every backend must satisfy (verified for all registered backends by
``tests/test_backend_conformance.py``):

* **Node identity is semantic identity.**  Node ids are non-negative
  integers; two ids returned by the same manager are equal *iff* they denote
  the same boolean function (strong canonicity).  The constants
  ``manager.FALSE`` / ``manager.TRUE`` are the terminal ids — their concrete
  values are backend-specific (the arena's complement edges put ``TRUE`` at
  ``0``), so clients must compare against the attributes, never against
  literals.
* **Operations are pure** with respect to observable functions: caches and
  the node table grow, but no operation changes the function an existing id
  denotes (until :meth:`garbage_collect`, which returns a relocation map and
  invalidates everything it does not cover).
* **GC hooks.**  ``add_gc_hook(roots, remap)`` registers a participant whose
  ``roots()`` ids survive every collection and whose ``remap(relocations)``
  is called after the table is rebuilt; ``generation`` increments on every
  collection so holders of raw ids can detect staleness.  The relocation map
  covers every surviving id (terminals included) and ``translate`` raises
  ``KeyError`` on reclaimed ids.  A hook given as a bound method is held
  weakly (``weakref.WeakMethod``) and skipped once its object has died; any
  other callable is held strongly.  Participants hold their manager, so
  strong bound-method hooks would make every finished solve's node table
  cyclic garbage: a manager must be freed by reference counting alone once
  its solve is dropped.
* **Statistics.**  :meth:`statistics` returns a
  :class:`repro.bdd.manager.BDDStatistics`; ``ite_calls`` counts ternary
  *and* fused binary operations including recursive expansions.  The two
  shipped engines run the same algorithm, so their counters (and node ids)
  are identical for a fixed operation sequence.
"""

from __future__ import annotations

from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.bdd.manager import BDD, BDDStatistics


@runtime_checkable
class BDDBackend(Protocol):
    """Structural interface of a BDD engine (see module docstring)."""

    #: Registry name of the backend class (``"arena"``, ``"native"``).
    backend_name: str
    #: Terminal node ids (backend-specific values; compare, don't assume).
    FALSE: int
    TRUE: int
    #: Incremented by every :meth:`garbage_collect`.
    generation: int

    # -- variables ---------------------------------------------------------
    def add_variable(self, name: str) -> int: ...
    @property
    def variable_names(self) -> tuple[str, ...]: ...
    def level_of(self, name: str) -> int: ...
    def name_of(self, level: int) -> str: ...
    def var_count(self) -> int: ...
    def node_count(self) -> int: ...

    # -- statistics / caches ----------------------------------------------
    def statistics(self) -> BDDStatistics: ...
    def clear_caches(self) -> None: ...

    # -- resource governance -----------------------------------------------
    #: Attach (or detach, with ``None``) a cooperative resource governor
    #: (a :class:`repro.solver.governor.ResourceGovernor`: one step per
    #: kernel frame, as its ``tick()`` counts them, with ``poll()`` on
    #: ``POLL_STRIDE`` boundaries, which may raise ``BudgetExceeded``).
    #: Engines must keep the ungoverned fast path at a single ``None`` check
    #: per frame, and must stay *consistent* after a tick raises: the node
    #: table and caches may hold partial results, but every already-returned
    #: id stays valid, so the manager remains usable (e.g. by a degraded
    #: re-run or the service's next request on a fresh solver).
    def set_governor(self, governor: object | None) -> None: ...

    # -- garbage collection ------------------------------------------------
    def add_gc_hook(
        self,
        roots: Callable[[], Iterable[int]],
        remap: Callable[[dict[int, int]], None],
    ) -> None: ...
    def garbage_collect(self, roots: Iterable[int] = ()) -> dict[int, int]: ...
    def translate(self, remap: Mapping[int, int], node: int) -> int: ...

    # -- node constructors -------------------------------------------------
    def var_node(self, name: str) -> int: ...
    def nvar_node(self, name: str) -> int: ...

    # -- boolean operations ------------------------------------------------
    def ite(self, cond: int, then: int, other: int) -> int: ...
    def neg(self, node: int) -> int: ...
    def conj(self, a: int, b: int) -> int: ...
    def disj(self, a: int, b: int) -> int: ...
    def xor(self, a: int, b: int) -> int: ...
    def iff(self, a: int, b: int) -> int: ...
    def implies(self, a: int, b: int) -> int: ...
    def conj_all(self, nodes: Iterable[int]) -> int: ...
    def disj_all(self, nodes: Iterable[int]) -> int: ...

    # -- quantification ----------------------------------------------------
    def exists(self, node: int, names: Iterable[str]) -> int: ...
    def forall(self, node: int, names: Iterable[str]) -> int: ...
    #: A fresh, opaque relational-product memo for :meth:`and_exists` (it
    #: supports ``clear()``); reusable across calls with the same names and
    #: across collections (the engine empties it once its nodes moved).
    def product_memo(self) -> object: ...
    def and_exists(
        self,
        a: int,
        b: int,
        names: Iterable[str],
        cache: object | None = None,
    ) -> int: ...

    # -- substitution ------------------------------------------------------
    #: A fresh, opaque persistent memo for :meth:`rename`, used with one
    #: mapping only; it outlives collections like a product memo.
    def rename_memo(self) -> object: ...
    def rename(
        self, node: int, mapping: Mapping[str, str], memo: object | None = None
    ) -> int: ...
    def restrict(self, node: int, assignment: Mapping[str, bool]) -> int: ...
    def cofactor(self, node: int, name: str, value: bool) -> int: ...

    # -- inspection --------------------------------------------------------
    def evaluate(self, node: int, assignment: Mapping[str, bool]) -> bool: ...
    def support(self, node: int) -> set[str]: ...
    def dag_size(self, node: int, limit: int | None = None) -> int: ...
    def pick_assignment(self, node: int) -> dict[str, bool] | None: ...
    def count_assignments(
        self, node: int, over: Sequence[str] | None = None
    ) -> int: ...
    def iter_assignments(
        self, node: int, over: Sequence[str]
    ) -> Iterator[dict[str, bool]]: ...

    # -- wrapper construction ----------------------------------------------
    def false(self) -> BDD: ...
    def true(self) -> BDD: ...
    def variable(self, name: str) -> BDD: ...
    def wrap(self, node: int) -> BDD: ...
