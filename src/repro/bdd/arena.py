"""A packed-array ROBDD arena with complement edges — the ``"arena"`` backend.

The pure-Python reference engine: it satisfies
:class:`repro.bdd.protocol.BDDBackend`, and the ``"native"`` engine
(:mod:`repro.bdd.native`) runs its kernels in C frame for frame, so the two
hand out identical references and statistics.  The representation is chosen
for CPython speed:

* **Int-indexed node arena.**  Nodes live in three parallel arrays
  ``_levels`` / ``_lows`` / ``_highs`` indexed by a dense node *index*; a node
  *reference* packs the index with a complement bit: ``ref = index << 1 | sign``.
  There is a single terminal at index 0, so ``TRUE == 0`` and
  ``FALSE == 1`` (``TRUE ^ 1``) — clients compare against
  ``manager.FALSE`` / ``manager.TRUE`` instead of literals.
* **Complement edges** make negation O(1) (``ref ^ 1``), halve the node table
  for the negation-heavy fixpoint workload (the solver complements the U/M
  sets on every iteration), and double computed-table sharing.  Canonical
  form: the *high* edge of every stored node is regular (sign extracted at
  construction), so equal functions still have equal references.
* **Packed integer cache keys.**  The unique table and the computed tables
  are keyed by small ints (``(low << 24 | high) << 15 | level`` etc.) instead
  of tuples — no tuple allocation on the hot path, and the unique keys fit in
  64 bits so garbage collection can recompute them vectorised with numpy.
  CPython dicts are themselves open-addressed hash tables, so with integer
  keys they *are* the open-addressed unique/computed tables of the classical
  C implementations, with the probing loop in C instead of Python.
* **A dedicated binary AND kernel.**  ``conj``/``disj``/``implies`` all
  reduce to one complemented ``_and`` (De Morgan), sharing a single 2-key
  computed table; the general ternary :meth:`ite` is kept for ``xor``/``iff``
  and true three-operand calls.
* **Closure-compiled kernels.**  The recursive kernels are compiled once per
  arena (:meth:`_compile_kernels`) as closures over the node arrays, cache
  dicts and counters, with the hash-consed constructor inlined at the hottest
  sites and quantified variable sets represented as level *bitmasks* — this
  removes the ``self.`` attribute traffic, tuple hashing and set-membership
  costs that dominate per-recursion-frame time in CPython.

The packing reserves 24 bits for a reference, capping the arena at 2^23
(~8.4M) live nodes — far above the benchmark workloads; exceeding it raises
:class:`ArenaCapacityError` rather than silently corrupting keys.

Garbage collection implements the protocol's hook contract
(root providers + remap listeners, ``generation`` counter, a relocation dict
covering every surviving reference in **both** polarities, because clients
index the remap directly).  The sweep is vectorised with numpy when
available (imported by the first sweep, never at start-up): mark bits become
a boolean mask, the dense renumbering is a ``cumsum``, child references and
unique keys are recomputed array-at-a-time.  Without numpy a pure-Python
sweep produces identical results.  After a sweep the kernels are recompiled
against the rebuilt arrays.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.bdd.manager import BDD, BDDStatistics, gc_hook_reference, live_gc_hooks

#: Bits reserved for a packed node reference in cache keys.
REF_BITS = 24
#: Bits reserved for a level in the unique-table key.
LEVEL_BITS = 15
#: Largest node *index* (references carry one extra sign bit).
MAX_NODES = 1 << (REF_BITS - 1)
#: Sentinel level stored for the terminal: below every real variable.
TERMINAL_LEVEL = (1 << LEVEL_BITS) - 1

_CAPACITY_MESSAGE = (
    f"arena node table exceeded {MAX_NODES} nodes; "
    "use the native backend (2^31 nodes) for workloads this large"
)


class ArenaCapacityError(RuntimeError):
    """Raised when the arena outgrows its packed 24-bit reference space."""


@functools.cache
def _numpy():
    """numpy, imported by the first sweep (``None`` when it is not installed).

    numpy only accelerates the GC sweep, so processes that never collect an
    arena never pay its import.
    """
    try:
        import numpy
    except ImportError:  # pragma: no cover - CI installs numpy
        return None
    return numpy


class Memo(dict):
    """A caller-owned computed table, stamped with the collection generation
    its entries belong to (the arena empties a stale one on its next use)."""

    __slots__ = ("generation",)

    def __init__(self, generation: int):
        super().__init__()
        self.generation = generation


class ArenaBDDManager:
    """Packed-array BDD engine (see module doc)."""

    backend_name = "arena"

    # Complement edges: the single terminal (index 0) is TRUE, its complement
    # is FALSE.
    TRUE = 0
    FALSE = 1

    def __init__(self, variables: Sequence[str] = ()):
        # Quantified level set -> (tag, level bitmask, max level); the tag
        # makes the set part of a packed quantifier-cache key.
        self._quant_tags: dict[frozenset[int], tuple[int, int, int]] = {}
        self._rename_cache: dict[tuple, int] = {}
        self._restrict_cache: dict[tuple, int] = {}
        self._var_names: list[str] = []
        self._var_levels: dict[str, int] = {}
        self._neg_calls = 0
        self._rename_fast = 0
        self._peak_nodes = 0
        self._gc_runs = 0
        self._reclaimed = 0
        self._gc_hooks: list[tuple[Callable, Callable]] = []
        self.generation = 0
        self._init_engine()
        for name in variables:
            self.add_variable(name)

    def _init_engine(self) -> None:
        """Create the node table, the kernel caches and the kernels."""
        # Parallel node arrays; entry 0 is the terminal and never dereferenced
        # on semantic paths (its sentinel level orders below every variable).
        self._levels: list[int] = [TERMINAL_LEVEL]
        self._lows: list[int] = [0]
        self._highs: list[int] = [0]
        self._unique: dict[int, int] = {}
        # Computed tables, all packed-int keyed.  The dict objects are stable
        # (cleared in place, never replaced) so the compiled kernels can close
        # over them.
        self._and_cache: dict[int, int] = {}
        self._ite_cache: dict[int, int] = {}
        self._quant_cache: dict[int, int] = {}
        # The hot counters behind ``statistics()`` live in a list the
        # compiled kernels close over: [ite_calls, ite_cache_hits].
        self._counts = [0, 0]
        # One-slot box for the cooperative resource governor; a list (not an
        # attribute) so the compiled kernels can close over it and
        # ``set_governor`` swaps the occupant without recompiling.
        self._governor_cell: list = [None]
        self._compile_kernels()

    def __del__(self) -> None:
        # The compiled kernels are self-recursive closures: a reference cycle
        # over the node arrays and caches that only the cyclic collector
        # frees.  Emptying them lets the node table go with the arena.
        for table in self._node_tables():
            table.clear()
        self.clear_caches()

    def _node_tables(self) -> tuple:
        return (self._levels, self._lows, self._highs, self._unique)

    # -- compiled kernels ----------------------------------------------------

    def _compile_kernels(self) -> None:
        """(Re)compile the recursive kernels as closures over the arena state.

        Every name the kernels touch per frame is a closure cell (array,
        cache dict, counter list) — no ``self.`` lookups on the recursion
        path.  Must be re-run whenever the node arrays are *replaced* (only
        :meth:`garbage_collect` does); the cache dicts are always mutated in
        place so they never go stale.
        """
        levels = self._levels
        lows = self._lows
        highs = self._highs
        unique = self._unique
        and_cache = self._and_cache
        ite_cache = self._ite_cache
        quant_cache = self._quant_cache
        counts = self._counts
        governor_cell = self._governor_cell

        def _mk(level: int, low: int, high: int) -> int:
            """Hash-consed constructor (complement-edge canonical form)."""
            if low == high:
                return low
            # Canonical rule: the stored high edge is regular.  A complemented
            # high edge flips the whole node: (l, low, ¬h) == ¬(l, ¬low, h).
            sign = high & 1
            if sign:
                low ^= 1
                high ^= 1
            key = ((low << REF_BITS) | high) << LEVEL_BITS | level
            index = unique.get(key)
            if index is None:
                index = len(levels)
                if index >= MAX_NODES:
                    raise ArenaCapacityError(_CAPACITY_MESSAGE)
                levels.append(level)
                lows.append(low)
                highs.append(high)
                unique[key] = index
            return (index << 1) | sign

        def _and(a: int, b: int) -> int:
            """Binary conjunction — the hot kernel behind conj/disj/implies."""
            counts[0] += 1
            if governor_cell[0] is not None:
                governor_cell[0].tick()
            if a == 1 or b == 1:
                return 1
            if a == 0:
                return b
            if b == 0 or a == b:
                return a
            if a ^ b == 1:
                return 1
            if a > b:
                a, b = b, a
            key = (a << REF_BITS) | b
            result = and_cache.get(key)
            if result is not None:
                counts[1] += 1
                return result
            index_a = a >> 1
            index_b = b >> 1
            level_a = levels[index_a]
            level_b = levels[index_b]
            if level_a <= level_b:
                level = level_a
                sign = a & 1
                low_a = lows[index_a] ^ sign
                high_a = highs[index_a] ^ sign
            else:
                level = level_b
                low_a = high_a = a
            if level_b <= level_a:
                sign = b & 1
                low_b = lows[index_b] ^ sign
                high_b = highs[index_b] ^ sign
            else:
                low_b = high_b = b
            low = _and(low_a, low_b)
            high = _and(high_a, high_b)
            if low == high:
                result = low
            else:  # inlined _mk — this is the hottest construction site
                sign = high & 1
                if sign:
                    low ^= 1
                    high ^= 1
                node_key = ((low << REF_BITS) | high) << LEVEL_BITS | level
                index = unique.get(node_key)
                if index is None:
                    index = len(levels)
                    if index >= MAX_NODES:
                        raise ArenaCapacityError(_CAPACITY_MESSAGE)
                    levels.append(level)
                    lows.append(low)
                    highs.append(high)
                    unique[node_key] = index
                result = (index << 1) | sign
            and_cache[key] = result
            return result

        def _ite(f: int, g: int, h: int) -> int:
            counts[0] += 1
            if governor_cell[0] is not None:
                governor_cell[0].tick()
            # Constant and coincidence simplifications (TRUE == 0, FALSE == 1).
            if f == 0:
                return g
            if f == 1:
                return h
            if g == h:
                return g
            if g == f:
                g = 0
            elif g == f ^ 1:
                g = 1
            if h == f:
                h = 1
            elif h == f ^ 1:
                h = 0
            if g == h:
                return g
            if g == 0 and h == 1:
                return f
            if g == 1 and h == 0:
                return f ^ 1
            # Two-operand shapes route through the shared AND kernel.
            if h == 1:
                return _and(f, g)
            if g == 1:
                return _and(f ^ 1, h)
            if g == 0:
                return _and(f ^ 1, h ^ 1) ^ 1
            if h == 0:
                return _and(f, g ^ 1) ^ 1
            # Canonical triple: regular f (else swap branches), regular g
            # (else complement both branches and the result).
            if f & 1:
                f ^= 1
                g, h = h, g
            sign = g & 1
            if sign:
                g ^= 1
                h ^= 1
            key = ((f << REF_BITS) | g) << REF_BITS | h
            result = ite_cache.get(key)
            if result is not None:
                counts[1] += 1
                return result ^ sign
            index_f = f >> 1
            index_g = g >> 1
            index_h = h >> 1
            level = levels[index_f]
            level_g = levels[index_g]
            level_h = levels[index_h]
            f_top = level
            if level_g < level:
                level = level_g
            if level_h < level:
                level = level_h
            if f_top == level:
                s = f & 1
                f_low = lows[index_f] ^ s
                f_high = highs[index_f] ^ s
            else:
                f_low = f_high = f
            if level_g == level:
                g_low = lows[index_g]
                g_high = highs[index_g]
            else:
                g_low = g_high = g
            if level_h == level:
                s = h & 1
                h_low = lows[index_h] ^ s
                h_high = highs[index_h] ^ s
            else:
                h_low = h_high = h
            low = _ite(f_low, g_low, h_low)
            high = _ite(f_high, g_high, h_high)
            result = low if low == high else _mk(level, low, high)
            ite_cache[key] = result
            return result ^ sign

        def _exists(node: int, mask: int, maxlevel: int, tag: int) -> int:
            if node <= 1:
                return node
            if governor_cell[0] is not None:
                governor_cell[0].tick()
            index = node >> 1
            level = levels[index]
            if level > maxlevel:
                return node
            key = (tag << (REF_BITS + 1)) | node
            result = quant_cache.get(key)
            if result is not None:
                return result
            sign = node & 1
            low = lows[index] ^ sign
            high = highs[index] ^ sign
            low_q = _exists(low, mask, maxlevel, tag)
            if (mask >> level) & 1:
                if low_q == 0:  # short-circuit: ∃x. f is already TRUE
                    result = 0
                else:
                    high_q = _exists(high, mask, maxlevel, tag)
                    result = _and(low_q ^ 1, high_q ^ 1) ^ 1
            else:
                high_q = _exists(high, mask, maxlevel, tag)
                result = low_q if low_q == high_q else _mk(level, low_q, high_q)
            quant_cache[key] = result
            return result

        def _and_exists(
            a: int, b: int, mask: int, maxlevel: int, tag: int, cache: dict[int, int]
        ) -> int:
            counts[0] += 1
            if governor_cell[0] is not None:
                governor_cell[0].tick()
            if a == 1 or b == 1 or a ^ b == 1:
                return 1
            if a == 0:
                return _exists(b, mask, maxlevel, tag)
            if b == 0 or a == b:
                return _exists(a, mask, maxlevel, tag)
            if a > b:
                a, b = b, a
            index_a = a >> 1
            index_b = b >> 1
            level_a = levels[index_a]
            level_b = levels[index_b]
            level = level_a if level_a <= level_b else level_b
            if level > maxlevel:
                # Below every quantified variable: a plain conjunction.
                return _and(a, b)
            key = (a << REF_BITS) | b
            result = cache.get(key)
            if result is not None:
                counts[1] += 1
                return result
            if level_a <= level_b:
                sign = a & 1
                low_a = lows[index_a] ^ sign
                high_a = highs[index_a] ^ sign
            else:
                low_a = high_a = a
            if level_b <= level_a:
                sign = b & 1
                low_b = lows[index_b] ^ sign
                high_b = highs[index_b] ^ sign
            else:
                low_b = high_b = b
            low = _and_exists(low_a, low_b, mask, maxlevel, tag, cache)
            if (mask >> level) & 1:
                if low == 0:  # ∃-level short-circuit: already TRUE
                    result = 0
                else:
                    high = _and_exists(high_a, high_b, mask, maxlevel, tag, cache)
                    result = _and(low ^ 1, high ^ 1) ^ 1
            else:
                high = _and_exists(high_a, high_b, mask, maxlevel, tag, cache)
                if low == high:
                    result = low
                else:  # inlined _mk, as in _and
                    sign = high & 1
                    if sign:
                        low ^= 1
                        high ^= 1
                    node_key = ((low << REF_BITS) | high) << LEVEL_BITS | level
                    index = unique.get(node_key)
                    if index is None:
                        index = len(levels)
                        if index >= MAX_NODES:
                            raise ArenaCapacityError(_CAPACITY_MESSAGE)
                        levels.append(level)
                        lows.append(low)
                        highs.append(high)
                        unique[node_key] = index
                    result = (index << 1) | sign
            cache[key] = result
            return result

        self._mk = _mk
        self._and = _and
        self._ite = _ite
        self._exists_kernel = _exists
        self._and_exists_kernel = _and_exists

    # -- variables -----------------------------------------------------------

    def add_variable(self, name: str) -> int:
        """Append a variable at the end of the order; returns its level."""
        if name in self._var_levels:
            raise ValueError(f"variable {name!r} already declared")
        level = len(self._var_names)
        if level >= TERMINAL_LEVEL:
            raise ArenaCapacityError(
                f"arena backend supports at most {TERMINAL_LEVEL} variables"
            )
        self._var_names.append(name)
        self._var_levels[name] = level
        # The apply kernels recurse one frame per level; keep CPython's limit
        # comfortably above the deepest possible chain.
        limit = 4 * (level + 1) + 1000
        if sys.getrecursionlimit() < limit:
            sys.setrecursionlimit(limit)
        return level

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(self._var_names)

    def level_of(self, name: str) -> int:
        try:
            return self._var_levels[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def name_of(self, level: int) -> str:
        return self._var_names[level]

    def var_count(self) -> int:
        return len(self._var_names)

    def node_count(self) -> int:
        return len(self._levels) - 1

    # -- statistics ----------------------------------------------------------

    def statistics(self) -> BDDStatistics:
        # The table is append-only between collections, so the historical
        # peak only needs refreshing here and at sweep time.
        live = self.node_count()
        if live > self._peak_nodes:
            self._peak_nodes = live
        return BDDStatistics(
            var_count=len(self._var_names),
            node_count=live,
            peak_node_count=self._peak_nodes,
            ite_calls=self._counts[0],
            ite_cache_hits=self._counts[1],
            neg_calls=self._neg_calls,
            # Complement edges make every negation a cache-free bit flip;
            # reported as hits so dashboards show a 100% hit rate.
            neg_cache_hits=self._neg_calls,
            rename_fast_paths=self._rename_fast,
            cache_entries=(
                len(self._and_cache)
                + len(self._ite_cache)
                + len(self._quant_cache)
                + len(self._rename_cache)
                + len(self._restrict_cache)
            ),
            gc_runs=self._gc_runs,
            nodes_reclaimed=self._reclaimed,
        )

    def clear_caches(self) -> None:
        # In place: the compiled kernels hold references to these dicts.
        self._and_cache.clear()
        self._ite_cache.clear()
        self._quant_cache.clear()
        self._rename_cache.clear()
        self._restrict_cache.clear()

    def set_governor(self, governor: object | None) -> None:
        """Attach/detach a cooperative resource governor (see the protocol).

        The compiled kernels close over a one-slot box, so attaching costs no
        recompilation and the ungoverned path stays a single ``None`` check
        per frame.  A ``BudgetExceeded`` raised mid-kernel unwinds through
        hash-consed partial results only — the arena stays consistent.
        """
        self._governor_cell[0] = governor

    # -- node construction ---------------------------------------------------

    def var_node(self, name: str) -> int:
        return self._mk(self._var_levels[name], self.FALSE, self.TRUE)

    def nvar_node(self, name: str) -> int:
        return self.var_node(name) ^ 1

    # -- boolean operations --------------------------------------------------

    def neg(self, node: int) -> int:
        self._neg_calls += 1
        return node ^ 1

    def conj(self, a: int, b: int) -> int:
        return self._and(a, b)

    def disj(self, a: int, b: int) -> int:
        return self._and(a ^ 1, b ^ 1) ^ 1

    def implies(self, a: int, b: int) -> int:
        return self._and(a, b ^ 1) ^ 1

    def xor(self, a: int, b: int) -> int:
        return self._ite(a, b ^ 1, b)

    def iff(self, a: int, b: int) -> int:
        return self._ite(a, b, b ^ 1)

    def ite(self, cond: int, then: int, other: int) -> int:
        return self._ite(cond, then, other)

    def conj_all(self, nodes: Iterable[int]) -> int:
        result = self.TRUE
        for node in nodes:
            result = self._and(result, node)
            if result == self.FALSE:
                return result
        return result

    def disj_all(self, nodes: Iterable[int]) -> int:
        result = self.FALSE
        for node in nodes:
            result = self._and(result ^ 1, node ^ 1) ^ 1
            if result == self.TRUE:
                return result
        return result

    # -- quantification ------------------------------------------------------

    def _quant_info(self, names: Iterable[str]) -> tuple[int, int, int] | None:
        """``(tag, level bitmask, max level)`` for a quantified name set."""
        level_set = frozenset(self._var_levels[name] for name in names)
        if not level_set:
            return None
        info = self._quant_tags.get(level_set)
        if info is None:
            mask = 0
            for level in level_set:
                mask |= 1 << level
            info = (len(self._quant_tags), mask, max(level_set))
            self._quant_tags[level_set] = info
        return info

    def exists(self, node: int, names: Iterable[str]) -> int:
        info = self._quant_info(names)
        if info is None or node <= 1:
            return node
        tag, mask, maxlevel = info
        return self._exists_kernel(node, mask, maxlevel, tag)

    def forall(self, node: int, names: Iterable[str]) -> int:
        info = self._quant_info(names)
        if info is None or node <= 1:
            return node
        tag, mask, maxlevel = info
        return self._exists_kernel(node ^ 1, mask, maxlevel, tag) ^ 1

    def product_memo(self) -> Memo:
        """A fresh relational-product memo for :meth:`and_exists`."""
        return Memo(self.generation)

    def rename_memo(self) -> Memo:
        """A fresh persistent memo for :meth:`rename` (one per mapping)."""
        return Memo(self.generation)

    def _current(self, memo: Memo) -> Memo:
        """``memo``, emptied first when a collection renumbered its nodes."""
        if memo.generation != self.generation:
            memo.clear()
            memo.generation = self.generation
        return memo

    def and_exists(
        self,
        a: int,
        b: int,
        names: Iterable[str],
        cache: dict | None = None,
    ) -> int:
        """``∃ names. a ∧ b`` without materialising the conjunction.

        ``cache`` is an opaque caller-owned memo from :meth:`product_memo`,
        reusable across calls with the *same* quantified set.
        """
        info = self._quant_info(names)
        if info is None:
            return self._and(a, b)
        tag, mask, maxlevel = info
        memo = self.product_memo() if cache is None else self._current(cache)
        return self._and_exists_kernel(a, b, mask, maxlevel, tag, memo)

    # -- substitution --------------------------------------------------------

    def rename(
        self, node: int, mapping: Mapping[str, str], memo: Memo | None = None
    ) -> int:
        """Substitute variables for variables (the solver's x/y flip).

        The linear structural pass is attempted optimistically — it validates
        the order along every edge it rebuilds and reports a violation
        instead of walking the support up front; only genuinely
        order-breaking mappings pay for the general ``ite``-composition path.

        ``memo`` is an optional caller-owned table from :meth:`rename_memo`,
        used with this one ``mapping`` only: it keeps every node the
        structural pass rebuilt, so renaming a set that grew only rebuilds
        the nodes no earlier call reached.
        """
        if node <= 1 or not mapping:
            return node
        items = tuple(sorted(mapping.items()))
        memo_key = (node, items)
        cached = self._rename_cache.get(memo_key)
        if cached is not None:
            return cached
        level_map = {
            self._var_levels[source]: self._var_levels[target]
            for source, target in mapping.items()
        }
        result = self._rename_structural(node, level_map, memo)
        if result is None:
            result = self._rename_general(node, level_map)
        else:
            self._rename_fast += 1
        self._rename_cache[memo_key] = result
        return result

    def _rename_structural(
        self, node: int, level_map: Mapping[int, int], memo: Memo | None = None
    ) -> int | None:
        """Optimistic linear bottom-up rebuild.

        Returns ``None`` when the mapping breaks the variable order along
        some edge of this DAG (a rebuilt child's top level would not stay
        strictly below its parent's image) — the caller must then use the
        general path.  Nodes constructed before detection are valid, merely
        unreferenced, and so are the memo entries made for them.
        """
        levels = self._levels
        lows = self._lows
        highs = self._highs
        mk = self._mk
        image = level_map.get
        # index -> regular rebuilt ref
        rebuilt = {} if memo is None else self._current(memo)
        rebuilt[0] = 0
        stack = [node >> 1]
        while stack:
            index = stack[-1]
            if index in rebuilt:
                stack.pop()
                continue
            low = lows[index]
            high = highs[index]
            low_index = low >> 1
            high_index = high >> 1
            pending = False
            if low_index not in rebuilt:
                stack.append(low_index)
                pending = True
            if high_index not in rebuilt:
                stack.append(high_index)
                pending = True
            if pending:
                continue
            stack.pop()
            level = levels[index]
            new_level = image(level, level)
            new_low = rebuilt[low_index] ^ (low & 1)
            new_high = rebuilt[high_index] ^ (high & 1)
            if new_low > 1 and levels[new_low >> 1] <= new_level:
                return None
            if new_high > 1 and levels[new_high >> 1] <= new_level:
                return None
            rebuilt[index] = mk(new_level, new_low, new_high)
        return rebuilt[node >> 1] ^ (node & 1)

    def _rename_general(self, node: int, level_map: Mapping[int, int]) -> int:
        """Shannon expansion per node: if x' then f|x=1 else f|x=0."""
        rebuilt: dict[int, int] = {}

        def go(ref: int) -> int:
            if ref <= 1:
                return ref
            index = ref >> 1
            cached = rebuilt.get(index)
            if cached is None:
                level = self._levels[index]
                new_level = level_map.get(level, level)
                literal = self._mk(new_level, 1, 0)
                cached = self._ite(
                    literal, go(self._highs[index]), go(self._lows[index])
                )
                rebuilt[index] = cached
            return cached ^ (ref & 1)

        return go(node)

    def restrict(self, node: int, assignment: Mapping[str, bool]) -> int:
        if node <= 1 or not assignment:
            return node
        items = tuple(sorted(assignment.items()))
        memo_key = (node, items)
        cached = self._restrict_cache.get(memo_key)
        if cached is not None:
            return cached
        values = {self._var_levels[name]: value for name, value in assignment.items()}
        rebuilt: dict[int, int] = {}

        def go(ref: int) -> int:
            if ref <= 1:
                return ref
            index = ref >> 1
            done = rebuilt.get(index)
            if done is None:
                level = self._levels[index]
                if level in values:
                    done = go(
                        self._highs[index] if values[level] else self._lows[index]
                    )
                else:
                    done = self._mk(
                        level, go(self._lows[index]), go(self._highs[index])
                    )
                rebuilt[index] = done
            return done ^ (ref & 1)

        result = go(node)
        self._restrict_cache[memo_key] = result
        return result

    def cofactor(self, node: int, name: str, value: bool) -> int:
        return self.restrict(node, {name: value})

    # -- inspection ----------------------------------------------------------

    def evaluate(self, node: int, assignment: Mapping[str, bool]) -> bool:
        current = node
        while current > 1:
            index = current >> 1
            sign = current & 1
            name = self._var_names[self._levels[index]]
            child = self._highs[index] if assignment.get(name, False) else self._lows[index]
            current = child ^ sign
        return current == self.TRUE

    def _support_levels(self, node: int) -> set[int]:
        seen: set[int] = set()
        found: set[int] = set()
        stack = [node >> 1]
        while stack:
            index = stack.pop()
            if index == 0 or index in seen:
                continue
            seen.add(index)
            found.add(self._levels[index])
            stack.append(self._lows[index] >> 1)
            stack.append(self._highs[index] >> 1)
        return found

    def support(self, node: int) -> set[str]:
        return {self._var_names[level] for level in self._support_levels(node)}

    def dag_size(self, node: int, limit: int | None = None) -> int:
        seen: set[int] = set()
        stack = [node >> 1]
        while stack:
            index = stack.pop()
            if index == 0 or index in seen:
                continue
            seen.add(index)
            if limit is not None and len(seen) > limit:
                return limit + 1
            stack.append(self._lows[index] >> 1)
            stack.append(self._highs[index] >> 1)
        return len(seen)

    def pick_assignment(self, node: int) -> dict[str, bool] | None:
        if node == self.FALSE:
            return None
        assignment: dict[str, bool] = {}
        current = node
        while current > 1:
            index = current >> 1
            sign = current & 1
            low = self._lows[index] ^ sign
            high = self._highs[index] ^ sign
            name = self._var_names[self._levels[index]]
            if low != self.FALSE:
                assignment[name] = False
                current = low
            else:
                assignment[name] = True
                current = high
        return assignment

    def _level(self, node: int) -> int:
        """Level of a reference; terminals sort below every variable."""
        if node <= 1:
            return len(self._var_names)
        return self._levels[node >> 1]

    def count_assignments(self, node: int, over: Sequence[str] | None = None) -> int:
        names = list(over) if over is not None else list(self._var_names)
        levels = sorted(self._var_levels[name] for name in names)
        position = {level: i for i, level in enumerate(levels)}
        cache: dict[int, int] = {}

        def count(current: int) -> int:
            if current == self.FALSE:
                return 0
            if current == self.TRUE:
                return 1
            cached = cache.get(current)
            if cached is None:
                index = current >> 1
                sign = current & 1
                level = self._levels[index]
                if level not in position:
                    raise ValueError(
                        f"node depends on variable {self._var_names[level]!r} "
                        "not included in the count"
                    )
                low = self._lows[index] ^ sign
                high = self._highs[index] ^ sign
                cached = count(low) * _gap(level, low) + count(high) * _gap(level, high)
                cache[current] = cached
            return cached

        def _gap(level: int, child: int) -> int:
            child_level = self._level(child)
            upper = position[level]
            lower = len(levels) if child <= 1 else position.get(child_level, len(levels))
            return 2 ** (lower - upper - 1)

        if node <= 1:
            return 2 ** len(levels) if node == self.TRUE else 0
        leading = position.get(self._level(node), 0)
        return count(node) * (2 ** leading)

    def iter_assignments(self, node: int, over: Sequence[str]) -> Iterator[dict[str, bool]]:
        names = list(over)

        def go(current: int, index: int, partial: dict[str, bool]) -> Iterator[dict[str, bool]]:
            if current == self.FALSE:
                return
            if index == len(names):
                if current == self.TRUE:
                    yield dict(partial)
                return
            name = names[index]
            level = self._var_levels[name]
            if self._level(current) == level:
                node_index = current >> 1
                sign = current & 1
                low = self._lows[node_index] ^ sign
                high = self._highs[node_index] ^ sign
                partial[name] = False
                yield from go(low, index + 1, partial)
                partial[name] = True
                yield from go(high, index + 1, partial)
                del partial[name]
            else:
                partial[name] = False
                yield from go(current, index + 1, partial)
                partial[name] = True
                yield from go(current, index + 1, partial)
                del partial[name]

        yield from go(node, 0, {})

    # -- garbage collection --------------------------------------------------

    def add_gc_hook(
        self,
        roots: Callable[[], Iterable[int]],
        remap: Callable[[dict[int, int]], None],
    ) -> None:
        """Register a GC participant (see :mod:`repro.bdd.protocol`)."""
        self._gc_hooks.append((gc_hook_reference(roots), gc_hook_reference(remap)))

    def garbage_collect(self, roots: Iterable[int] = ()) -> dict[int, int]:
        """Drop every node not reachable from the roots; renumber the rest.

        Returns the relocation map old-ref → new-ref for every surviving
        reference in both polarities (clients index it directly).
        """
        hooks = live_gc_hooks(self._gc_hooks)
        root_refs = {int(node) for node in roots}
        for provider, _listener in hooks:
            root_refs.update(int(node) for node in provider())
        before = self.node_count()
        if before > self._peak_nodes:
            self._peak_nodes = before
        remap = self._collect(root_refs)
        self._reclaimed += before - self.node_count()
        self._gc_runs += 1
        self.generation += 1
        self.clear_caches()
        for _provider, listener in hooks:
            listener(remap)
        return remap

    def _collect(self, root_refs: set[int]) -> dict[int, int]:
        """Mark from the roots, sweep the rest, recompile the kernels."""
        marked = bytearray(len(self._levels))
        marked[0] = 1
        lows = self._lows
        highs = self._highs
        stack = [ref >> 1 for ref in root_refs if ref > 1]
        while stack:
            index = stack.pop()
            if marked[index]:
                continue
            marked[index] = 1
            low = lows[index] >> 1
            if not marked[low]:
                stack.append(low)
            high = highs[index] >> 1
            if not marked[high]:
                stack.append(high)

        replaced = self._node_tables()
        np = _numpy()
        if np is not None:
            remap = self._sweep_numpy(marked, np)
        else:
            remap = self._sweep_python(marked)
        # The previous kernels still hold the replaced arrays (see __del__).
        for table in replaced:
            table.clear()
        # The arrays were replaced wholesale: rebind the kernels to them.
        self._compile_kernels()
        return remap

    def _sweep_numpy(self, marked: bytearray, np) -> dict[int, int]:
        """Vectorised sweep: renumber via cumsum, recompute keys array-wide."""
        keep = np.frombuffer(bytes(marked), dtype=np.uint8).astype(bool)
        levels = np.array(self._levels, dtype=np.uint64)
        lows = np.array(self._lows, dtype=np.uint64)
        highs = np.array(self._highs, dtype=np.uint64)
        new_index = np.cumsum(keep, dtype=np.uint64) - 1
        # Children of surviving nodes always survive, so indexing the
        # renumbering with every row is safe (dead rows are filtered next).
        new_lows = (new_index[lows >> 1] << 1) | (lows & 1)
        new_highs = (new_index[highs >> 1] << 1) | (highs & 1)
        kept_levels = levels[keep]
        kept_lows = new_lows[keep]
        kept_highs = new_highs[keep]
        keys = ((kept_lows << np.uint64(REF_BITS)) | kept_highs) << np.uint64(
            LEVEL_BITS
        ) | kept_levels
        self._levels = kept_levels.tolist()
        self._lows = kept_lows.tolist()
        self._highs = kept_highs.tolist()
        self._lows[0] = 0
        self._highs[0] = 0
        self._unique = dict(zip(keys[1:].tolist(), range(1, len(self._levels))))
        surviving = np.nonzero(keep)[0]
        new_regular = (new_index[surviving] << 1).tolist()
        remap: dict[int, int] = {}
        for old, new in zip((surviving << 1).tolist(), new_regular):
            remap[old] = new
            remap[old | 1] = new | 1
        return remap

    def _sweep_python(self, marked: bytearray) -> dict[int, int]:
        """Pure-Python sweep; identical results to :meth:`_sweep_numpy`."""
        new_index = [0] * len(self._levels)
        next_index = 0
        for index, keep in enumerate(marked):
            if keep:
                new_index[index] = next_index
                next_index += 1
        new_levels: list[int] = []
        new_lows: list[int] = []
        new_highs: list[int] = []
        unique: dict[int, int] = {}
        remap: dict[int, int] = {}
        for index, keep in enumerate(marked):
            if not keep:
                continue
            low = self._lows[index]
            high = self._highs[index]
            new_low = (new_index[low >> 1] << 1) | (low & 1)
            new_high = (new_index[high >> 1] << 1) | (high & 1)
            level = self._levels[index]
            fresh = len(new_levels)
            if fresh == 0:
                new_low = new_high = 0
            new_levels.append(level)
            new_lows.append(new_low)
            new_highs.append(new_high)
            if fresh > 0:
                unique[((new_low << REF_BITS) | new_high) << LEVEL_BITS | level] = fresh
            old_regular = index << 1
            new_regular = fresh << 1
            remap[old_regular] = new_regular
            remap[old_regular | 1] = new_regular | 1
        self._levels = new_levels
        self._lows = new_lows
        self._highs = new_highs
        self._unique = unique
        return remap

    def translate(self, remap: Mapping[int, int], node: int) -> int:
        """Map a pre-collection reference through a relocation map."""
        return remap[node]

    # -- wrapper construction ------------------------------------------------

    def false(self) -> BDD:
        return BDD(self, self.FALSE)

    def true(self) -> BDD:
        return BDD(self, self.TRUE)

    def variable(self, name: str) -> BDD:
        return BDD(self, self.var_node(name))

    def wrap(self, node: int) -> BDD:
        return BDD(self, node)
