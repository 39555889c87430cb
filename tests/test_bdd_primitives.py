"""Tests for the BDD engines' caches, statistics and maintenance hooks."""

import pytest

from repro.bdd.backends import BACKENDS, create_manager

NAMES = ["a", "b", "c", "d"]


@pytest.fixture(params=sorted(BACKENDS))
def manager(request):
    return create_manager(NAMES, backend=request.param)


def test_ite_computed_table_hits(manager):
    a = manager.var_node("a")
    b = manager.var_node("b")
    manager.ite(a, b, manager.FALSE)
    before = manager.statistics().ite_cache_hits
    manager.ite(a, b, manager.FALSE)
    after = manager.statistics().ite_cache_hits
    assert after > before


def test_ite_cache_key_is_canonical_for_commutative_shapes(manager):
    a = manager.var_node("a")
    b = manager.var_node("b")
    # Warm the cache with a ∧ b, then issue b ∧ a: the canonical computed
    # table must answer the swapped call without recomputation.
    manager.conj(a, b)
    before = manager.statistics().ite_cache_hits
    assert manager.conj(b, a) == manager.conj(a, b)
    assert manager.statistics().ite_cache_hits > before
    # Same for disjunction.
    manager.disj(a, b)
    before = manager.statistics().ite_cache_hits
    manager.disj(b, a)
    assert manager.statistics().ite_cache_hits > before


def test_ite_handles_deep_chains(manager):
    # One conjunction whose expansion descends through 3000 alternating
    # levels: deeper than CPython's default recursion limit (1000), which the
    # arena raises per declared variable and the native kernels never touch.
    # The two operand chains are built bottom-up so each construction step
    # is O(1).
    depth = 3000
    deep = create_manager([f"v{i}" for i in range(depth)], backend=manager.backend_name)
    evens = deep.TRUE
    odds = deep.TRUE
    for i in reversed(range(depth)):
        node = deep.var_node(f"v{i}")
        if i % 2 == 0:
            evens = deep.ite(node, evens, deep.FALSE)
        else:
            odds = deep.ite(node, odds, deep.FALSE)
    result = deep.conj(evens, odds)
    assert deep.dag_size(result) == depth
    assert deep.dag_size(deep.neg(result)) == depth


def test_negation_is_answered_both_ways(manager):
    a = manager.var_node("a")
    b = manager.var_node("b")
    function = manager.conj(a, b)
    negated = manager.neg(function)
    before = manager.statistics().neg_cache_hits
    # Double negation is answered without work (complement edges: a bit
    # flip, counted as a hit), in both directions.
    assert manager.neg(negated) == function
    assert manager.neg(function) == negated
    assert manager.statistics().neg_cache_hits >= before + 2


def test_restrict_cofactors(manager):
    a = manager.var_node("a")
    b = manager.var_node("b")
    function = manager.ite(a, b, manager.FALSE)
    assert manager.restrict(function, {"a": True}) == b
    assert manager.restrict(function, {"a": False}) == manager.FALSE
    assert manager.restrict(function, {"a": True, "b": True}) == manager.TRUE
    assert manager.cofactor(function, "a", True) == b
    # Restriction over variables outside the support is the identity.
    assert manager.restrict(function, {"d": True}) == function


def test_restrict_results_are_memoised(manager):
    a = manager.var_node("a")
    b = manager.var_node("b")
    function = manager.conj(a, b)
    first = manager.restrict(function, {"a": True})
    entries = manager.statistics().cache_entries
    assert manager.restrict(function, {"a": True}) == first
    assert manager.statistics().cache_entries == entries


def test_node_count_statistics(manager):
    stats = manager.statistics()
    assert stats.var_count == 4
    assert stats.node_count == 0
    a = manager.var_node("a")
    b = manager.var_node("b")
    manager.conj(a, b)
    stats = manager.statistics()
    assert stats.node_count == 3  # a, b and the conjunction node
    assert stats.peak_node_count >= stats.node_count
    assert stats.ite_calls > 0
    payload = stats.as_dict()
    assert payload["node_count"] == 3
    assert set(payload) >= {"ite_calls", "ite_cache_hits", "neg_calls", "gc_runs"}


def test_clear_caches_preserves_results(manager):
    a = manager.var_node("a")
    b = manager.var_node("b")
    function = manager.conj(a, b)
    manager.clear_caches()
    assert manager.statistics().cache_entries == 0
    # Node ids survive a cache clear; recomputation gives the same node.
    assert manager.conj(a, b) == function


def test_garbage_collect_reclaims_and_relocates(manager):
    a = manager.var_node("a")
    b = manager.var_node("b")
    c = manager.var_node("c")
    keep = manager.conj(a, b)
    manager.disj(manager.conj(a, c), manager.var_node("d"))  # becomes garbage
    before = manager.node_count()
    remap = manager.garbage_collect([keep])
    assert manager.node_count() < before
    assert manager.statistics().gc_runs == 1
    assert manager.statistics().nodes_reclaimed == before - manager.node_count()
    # The surviving function is intact under the relocation map.
    relocated = remap[keep]
    assert manager.evaluate(relocated, {"a": True, "b": True})
    assert not manager.evaluate(relocated, {"a": True, "b": False})
    assert manager.support(relocated) == {"a", "b"}
    # Terminals map to themselves.
    assert remap[manager.FALSE] == manager.FALSE
    assert remap[manager.TRUE] == manager.TRUE


def test_garbage_collect_then_rebuild_is_consistent(manager):
    a = manager.var_node("a")
    b = manager.var_node("b")
    keep = manager.conj(a, b)
    remap = manager.garbage_collect([keep])
    # Rebuilding the same function after collection lands on the same node.
    assert manager.conj(manager.var_node("a"), manager.var_node("b")) == remap[keep]


def test_child_constraint_matches_its_partitioned_form():
    # The monolithic wrapper must agree with the partitioned constraint the
    # model reconstruction consumes.
    from repro.logic import syntax as sx
    from repro.logic.closure import lean as compute_lean
    from repro.solver.relations import LeanEncoding, TransitionRelation

    formula = sx.prop("a") & sx.dia(1, sx.prop("b")) & sx.START
    encoding = LeanEncoding(compute_lean(formula))
    relation = TransitionRelation(encoding, 1)
    # A parent claiming ⟨1⟩⊤ and ⟨1⟩b (all other bits clear).
    bits = {
        encoding.top_index(1): True,
        encoding.lean.position(sx.dia(1, sx.prop("b"))): True,
    }
    monolithic = relation.child_constraint(bits)
    rebuilt = encoding.manager.true()
    for part in relation.child_constraint_parts(bits):
        rebuilt = rebuilt & part
    assert monolithic == rebuilt
    assert not monolithic.is_false


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_rename_fast_path_used_for_order_preserving_maps(backend):
    manager = create_manager(["x0", "y0", "x1", "y1"], backend=backend)
    x0 = manager.var_node("x0")
    x1 = manager.var_node("x1")
    function = manager.conj(x0, x1)
    before = manager.statistics().rename_fast_paths
    renamed = manager.rename(function, {"x0": "y0", "x1": "y1"})
    assert manager.statistics().rename_fast_paths == before + 1
    assert manager.support(renamed) == {"y0", "y1"}
    assert manager.evaluate(renamed, {"y0": True, "y1": True})


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_rename_general_path_for_order_swapping_maps(backend):
    manager = create_manager(["x0", "x1"], backend=backend)
    x0 = manager.var_node("x0")
    x1 = manager.var_node("x1")
    function = manager.disj(x0, manager.neg(x1))  # x0 ∨ ¬x1 (asymmetric)
    before = manager.statistics().rename_fast_paths
    swapped = manager.rename(function, {"x0": "x1", "x1": "x0"})
    assert manager.statistics().rename_fast_paths == before
    for vx0 in (False, True):
        for vx1 in (False, True):
            # The renamed function is x1 ∨ ¬x0.
            assert manager.evaluate(swapped, {"x0": vx0, "x1": vx1}) == (vx1 or not vx0)
