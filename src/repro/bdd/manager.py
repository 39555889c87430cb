"""Engine-independent pieces of the BDD package.

* :class:`BDD` pairs a node id with its manager and provides operator
  overloading (``&``, ``|``, ``~``, ...) so client code reads like the boolean
  formulas of Section 7;
* :class:`BDDStatistics` is the counter snapshot every engine's
  ``statistics()`` returns;
* :func:`gc_hook_reference` / :func:`live_gc_hooks` implement how an engine
  holds the garbage-collection hooks of its participants.

The engines themselves live in :mod:`repro.bdd.arena` (pure Python) and
:mod:`repro.bdd.native` (C kernels), behind :mod:`repro.bdd.protocol`.
"""

from __future__ import annotations

import dataclasses
import types
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    from repro.bdd.protocol import BDDBackend


@dataclass
class BDDStatistics:
    """A snapshot of the manager's node-table and cache counters.

    * ``var_count`` / ``node_count`` — declared variables and live internal
      nodes (terminals excluded); ``peak_node_count`` is the largest the table
      has ever been (it only decreases via ``garbage_collect``).
    * ``ite_calls`` / ``ite_cache_hits`` — top-level *and* recursive ternary
      operations, and how many were answered from the computed table.
    * ``neg_calls`` / ``neg_cache_hits`` — negations; with complement edges
      every negation is a cache-free bit flip, reported as a hit.
    * ``rename_fast_paths`` — renamings that took the linear structural path
      because the mapping preserved the variable order.
    * ``cache_entries`` — total entries across every operation cache.
    * ``gc_runs`` / ``nodes_reclaimed`` — garbage collections performed and
      nodes dropped by them.
    """

    var_count: int = 0
    node_count: int = 0
    peak_node_count: int = 0
    ite_calls: int = 0
    ite_cache_hits: int = 0
    neg_calls: int = 0
    neg_cache_hits: int = 0
    rename_fast_paths: int = 0
    cache_entries: int = 0
    gc_runs: int = 0
    nodes_reclaimed: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


def gc_hook_reference(callback: Callable) -> Callable[[], Callable | None]:
    """How a manager holds one GC-hook callback: a zero-argument dereferencer.

    A bound method is held through :class:`weakref.WeakMethod`.  Its object
    (an encoding or a transition relation) holds the manager, so a strong
    reference would turn every finished solve's node table into cyclic
    garbage that only the cyclic collector frees.  Any other callable is
    held strongly.
    """
    if isinstance(callback, types.MethodType):
        return weakref.WeakMethod(callback)
    return lambda: callback


def live_gc_hooks(hooks: list[tuple[Callable, Callable]]) -> list[tuple[Callable, Callable]]:
    """Dereference stored hook pairs; drop (in place) those whose owner died."""
    live, kept = [], []
    for pair in hooks:
        roots, remap = pair[0](), pair[1]()
        if roots is not None and remap is not None:
            live.append((roots, remap))
            kept.append(pair)
    hooks[:] = kept
    return live


class BDD:
    """A boolean function: a node id tied to its manager, with operators."""

    __slots__ = ("manager", "node")

    def __init__(self, manager: BDDBackend, node: int):
        self.manager = manager
        self.node = node

    # -- boolean structure ------------------------------------------------------

    def __invert__(self) -> "BDD":
        return BDD(self.manager, self.manager.neg(self.node))

    def __and__(self, other: "BDD") -> "BDD":
        return BDD(self.manager, self.manager.conj(self.node, other.node))

    def __or__(self, other: "BDD") -> "BDD":
        return BDD(self.manager, self.manager.disj(self.node, other.node))

    def __xor__(self, other: "BDD") -> "BDD":
        return BDD(self.manager, self.manager.xor(self.node, other.node))

    def iff(self, other: "BDD") -> "BDD":
        return BDD(self.manager, self.manager.iff(self.node, other.node))

    def implies(self, other: "BDD") -> "BDD":
        return BDD(self.manager, self.manager.implies(self.node, other.node))

    def ite(self, then: "BDD", other: "BDD") -> "BDD":
        return BDD(self.manager, self.manager.ite(self.node, then.node, other.node))

    # -- quantification ----------------------------------------------------------

    def exists(self, names: Iterable[str]) -> "BDD":
        return BDD(self.manager, self.manager.exists(self.node, names))

    def forall(self, names: Iterable[str]) -> "BDD":
        return BDD(self.manager, self.manager.forall(self.node, names))

    def and_exists(
        self,
        other: "BDD",
        names: Iterable[str],
        cache: object | None = None,
    ) -> "BDD":
        return BDD(
            self.manager, self.manager.and_exists(self.node, other.node, names, cache)
        )

    def rename(self, mapping: Mapping[str, str], memo: object | None = None) -> "BDD":
        return BDD(self.manager, self.manager.rename(self.node, mapping, memo))

    def restrict(self, assignment: Mapping[str, bool]) -> "BDD":
        return BDD(self.manager, self.manager.restrict(self.node, assignment))

    def cofactor(self, name: str, value: bool) -> "BDD":
        return BDD(self.manager, self.manager.cofactor(self.node, name, value))

    # -- inspection ---------------------------------------------------------------

    @property
    def is_false(self) -> bool:
        # Compare against the owning manager's constant: terminal ids are
        # backend-specific (the arena backend's complement edges reverse them).
        return self.node == self.manager.FALSE

    @property
    def is_true(self) -> bool:
        return self.node == self.manager.TRUE

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return self.manager.evaluate(self.node, assignment)

    def support(self) -> set[str]:
        return self.manager.support(self.node)

    def dag_size(self, limit: int | None = None) -> int:
        return self.manager.dag_size(self.node, limit)

    def pick_assignment(self) -> dict[str, bool] | None:
        return self.manager.pick_assignment(self.node)

    def count_assignments(self, over: Sequence[str] | None = None) -> int:
        return self.manager.count_assignments(self.node, over)

    def iter_assignments(self, over: Sequence[str]) -> Iterator[dict[str, bool]]:
        return self.manager.iter_assignments(self.node, over)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BDD):
            return NotImplemented
        return self.manager is other.manager and self.node == other.node

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def __bool__(self) -> bool:
        raise TypeError(
            "a BDD has no implicit truth value; use .is_true / .is_false "
            "or compare with == explicitly"
        )

    def __repr__(self) -> str:
        return f"<BDD node={self.node} size={self.dag_size()}>"
