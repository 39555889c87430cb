"""Tests of the satisfiability solvers (Sections 6 and 7).

The central properties checked here:

* soundness — when the solver reports "satisfiable" it produces a model, and
  the model really satisfies the formula according to the declarative
  semantics of Figure 2;
* completeness — formulas known to be satisfiable (because a concrete document
  satisfies them) are reported satisfiable;
* agreement between the explicit solver (Figure 16) and the symbolic BDD
  solver (Section 7);
* the mark-tracking update keeps exactly one start mark in every model.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import BudgetExceeded
from repro.logic import syntax as sx
from repro.logic.negation import negate
from repro.logic.semantics import interpret
from repro.solver.explicit import ExplicitSolver
from repro.solver.governor import Budget
from repro.solver.symbolic import SymbolicSolver
from repro.solver.truth import psi_types, status_on_set
from repro.logic.closure import lean as compute_lean
from repro.trees.binary import binary_forest_to_unranked
from repro.trees.focus import all_focuses
from repro.trees.unranked import parse_tree


def model_satisfies(result, formula) -> bool:
    """Check a solver model against the declarative semantics."""
    forest = result.model_forest()
    assert forest is not None
    assert sum(tree.mark_count() for tree in forest) == 1
    for tree in forest:
        if tree.mark_count() != 1:
            continue
        universe = frozenset(all_focuses(tree))
        if interpret(formula, universe):
            return True
    return False


# -- truth assignment ------------------------------------------------------------------


def test_status_of_lean_atoms():
    formula = sx.mk_and(sx.prop("a"), sx.dia(1, sx.prop("b")))
    lean = compute_lean(formula)
    members = frozenset({sx.prop("a"), sx.dia(1, sx.prop("b")), sx.dia(1, sx.TRUE)})
    assert status_on_set(formula, members)
    assert not status_on_set(sx.prop("b"), members)
    assert status_on_set(sx.nprop("b"), members)
    assert status_on_set(sx.no_dia(2), members)
    assert not status_on_set(sx.NSTART, members) is False  # ¬s holds: no mark
    assert len(lean) >= 7


def test_status_unfolds_fixpoints():
    formula = sx.mu1(lambda x: sx.prop("a") | sx.dia(1, x))
    members_direct = frozenset({sx.prop("a")})
    assert status_on_set(formula, members_direct)
    members_modal = frozenset({sx.dia(1, sx.TRUE), sx.dia(1, formula), sx.prop("b")})
    assert status_on_set(formula, members_modal)
    assert not status_on_set(formula, frozenset({sx.prop("b")}))


def test_psi_types_satisfy_constraints():
    lean = compute_lean(sx.mk_and(sx.prop("a"), sx.dia(1, sx.prop("b"))))
    types = list(psi_types(lean))
    assert types
    for assignment in types:
        assert sum(1 for item in assignment.members if item.kind == sx.KIND_PROP) == 1
        assert not (
            assignment.has_parent_program(-1) and assignment.has_parent_program(-2)
        )


# -- symbolic solver: satisfiable cases ---------------------------------------------------


SATISFIABLE = [
    sx.prop("a") & sx.START,
    sx.prop("a") & sx.dia(1, sx.prop("b")) & sx.START,
    sx.dia(1, sx.dia(2, sx.prop("c"))) & sx.no_dia(-1) & sx.START,
    sx.mu1(lambda x: sx.prop("b") | sx.dia(1, x)) & sx.START,
    sx.dia(-1, sx.prop("a") & sx.START),
    sx.NSTART & sx.dia(1, sx.START),
]


@pytest.mark.parametrize("formula", SATISFIABLE)
def test_symbolic_satisfiable_with_verified_model(formula):
    result = SymbolicSolver(formula).solve()
    assert result.satisfiable
    assert model_satisfies(result, formula)


UNSATISFIABLE = [
    sx.FALSE,
    sx.prop("a") & sx.nprop("a"),
    sx.prop("a") & sx.prop("b"),
    sx.dia(1, sx.TRUE) & sx.no_dia(1),
    sx.dia(-1, sx.TRUE) & sx.dia(-2, sx.TRUE),
    sx.START & sx.NSTART,
    sx.START & sx.dia(1, sx.START),       # two marks are impossible
    sx.mu1(lambda x: sx.dia(1, x)),       # no base case: empty least fixpoint
]


@pytest.mark.parametrize("formula", UNSATISFIABLE)
def test_symbolic_unsatisfiable(formula):
    result = SymbolicSolver(formula).solve()
    assert not result.satisfiable
    assert result.model is None


def test_symbolic_statistics_are_populated():
    result = SymbolicSolver(SATISFIABLE[1]).solve()
    stats = result.statistics.as_dict()
    assert stats["lean_size"] > 0 and stats["iterations"] >= 1
    assert stats["solve_seconds"] >= 0.0


def test_solver_options_do_not_change_the_answer():
    formula = sx.prop("a") & sx.dia(1, sx.prop("b") & sx.dia(2, sx.prop("c"))) & sx.START
    reference = SymbolicSolver(formula).solve().satisfiable
    for options in (
        {"early_quantification": False},
        {"monolithic_relation": True},
        {"interleaved_order": False},
    ):
        assert SymbolicSolver(formula, **options).solve().satisfiable == reference


def test_mark_tracking_rejects_double_mark_requirement():
    # ⟨1⟩(s ∧ ⟨2⟩s): two distinct nodes would have to carry the mark.
    formula = sx.dia(1, sx.START & sx.dia(2, sx.START))
    assert not SymbolicSolver(formula).solve().satisfiable
    # Without mark tracking (ablation mode) the solver accepts it — this is
    # exactly the unsoundness the four-case update of Figure 16 prevents.
    assert SymbolicSolver(formula, track_marks=False).solve().satisfiable


def test_cycle_freeness_check_option():
    from repro.core.errors import CycleFreenessError

    bad = sx.mu1(lambda x: sx.dia(1, sx.dia(-1, x)))
    with pytest.raises(CycleFreenessError):
        SymbolicSolver(bad, check_cycle_freeness=True)


# -- explicit solver and agreement ---------------------------------------------------------


SMALL_FORMULAS = [
    sx.prop("a") & sx.START,
    sx.prop("a") & sx.nprop("a"),
    sx.dia(1, sx.prop("b")) & sx.START,
    sx.dia(1, sx.TRUE) & sx.no_dia(1),
    sx.dia(-1, sx.START),
    sx.START & sx.dia(2, sx.TRUE),
]


@pytest.mark.parametrize("formula", SMALL_FORMULAS)
def test_explicit_and_symbolic_agree(formula):
    explicit = ExplicitSolver(formula).solve()
    symbolic = SymbolicSolver(formula).solve()
    assert explicit.satisfiable == symbolic.satisfiable
    if explicit.satisfiable:
        forest = binary_forest_to_unranked(explicit.model)
        assert sum(tree.mark_count() for tree in forest) == 1


def test_explicit_solver_reports_statistics():
    result = ExplicitSolver(sx.prop("a") & sx.START).solve()
    assert result.type_count > 0 and result.iterations >= 1


# -- satisfiability is consistent with negation (small property) ----------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(
        [
            sx.prop("a"),
            sx.dia(1, sx.prop("b")),
            sx.no_dia(-1),
            sx.dia(2, sx.TRUE),
            sx.prop("a") & sx.dia(1, sx.prop("a")),
        ]
    )
)
def test_formula_or_negation_is_satisfiable(formula):
    anchored = formula & sx.START
    negated = negate(formula) & sx.START
    sat_positive = SymbolicSolver(anchored).solve().satisfiable
    sat_negative = SymbolicSolver(negated).solve().satisfiable
    assert sat_positive or sat_negative


# -- product accounting, garbage collection, determinism -------------------------------------


def _containment_formula(depth: int) -> sx.Formula:
    """The depth-N nested containment formula of the scaling benchmark."""
    from repro.analysis.problems import _query_formula

    steps = ["a1"] + [f"a{i}[b{i}]" for i in range(2, depth + 1)]
    query = "/".join(steps)
    return sx.mk_and(
        _query_formula(query, None),
        negate(_query_formula(query.replace("[b2]", ""), None)),
    )


@pytest.mark.parametrize("satisfiable_case", [True, False])
def test_fixpoint_stops_at_its_first_decisive_iteration(satisfiable_case):
    """A satisfiable formula stops at the first iteration whose marked set
    meets the final filter, an unsatisfiable one at the first iteration that
    adds nothing: an iteration budget of exactly that many iterations gives
    the same answer, one fewer trips the budget."""
    if satisfiable_case:
        formula = sx.prop("a") & sx.dia(1, sx.prop("b") & sx.dia(1, sx.prop("c")))
    else:
        formula = _containment_formula(3)
    plain = SymbolicSolver(formula).solve()
    assert plain.satisfiable is satisfiable_case
    iterations = plain.statistics.iterations
    assert iterations >= 2

    exact = SymbolicSolver(formula, budget=Budget(max_iterations=iterations)).solve()
    assert exact.satisfiable is satisfiable_case
    assert exact.statistics.iterations == iterations
    assert exact.model == plain.model

    with pytest.raises(BudgetExceeded) as raised:
        SymbolicSolver(formula, budget=Budget(max_iterations=iterations - 1)).solve()
    assert raised.value.reason == "iterations"


def test_partitions_skipped_counts_empty_set_products():
    result = SymbolicSolver(_containment_formula(2)).solve()
    # Iteration 1 runs every product against the empty set: each partition
    # of each relation is skipped at least once over the run.
    assert result.statistics.partitions_skipped >= result.statistics.relation_partitions


@pytest.mark.parametrize("satisfiable_case", [True, False])
def test_garbage_collection_mid_fixpoint_preserves_results(satisfiable_case):
    if satisfiable_case:
        formula = sx.prop("a") & sx.dia(1, sx.prop("b") & sx.dia(1, sx.prop("c")))
    else:
        formula = _containment_formula(2)
    plain = SymbolicSolver(formula).solve()
    collected = SymbolicSolver(formula, collect_every=1).solve()
    assert collected.satisfiable == plain.satisfiable
    assert collected.statistics.iterations == plain.statistics.iterations
    if plain.model is not None:
        assert collected.model is not None
        assert collected.model == plain.model
    # The collector actually ran (and reclaimed mid-fixpoint garbage).
    solver = SymbolicSolver(formula, collect_every=1)
    result = solver.solve()
    assert result.satisfiable == plain.satisfiable


def test_garbage_collection_reclaims_and_keeps_statistics_sane():
    formula = _containment_formula(3)
    collected = SymbolicSolver(formula, collect_every=2).solve()
    plain = SymbolicSolver(formula).solve()
    assert collected.satisfiable == plain.satisfiable
    # GC shrinks the live table: the collected run must not end with more
    # live nodes than the uncollected one.
    assert collected.statistics.bdd_node_count <= plain.statistics.bdd_node_count


def test_gc_hooks_translate_external_caches():
    """A GC during a solve leaves relation/status caches usable (no stale ids)."""
    from repro.solver.relations import LeanEncoding, TransitionRelation

    formula = sx.prop("a") & sx.dia(1, sx.prop("b"))
    plunged = sx.mu1(lambda x: formula | sx.dia(1, x) | sx.dia(2, x), prefix="T")
    lean = compute_lean(plunged)
    encoding = LeanEncoding(lean)
    relation = TransitionRelation(encoding, 1)
    types = encoding.types_constraint()
    witness_before = relation.witness(types)
    generation = encoding.manager.generation
    remap = encoding.manager.garbage_collect([types.node, witness_before.node])
    assert encoding.manager.generation == generation + 1
    # The relation's blocks and the encoding's status and rename memos were
    # translated or emptied, not left stale: the same product again is the
    # translated function.
    witness_after = relation.witness(encoding.manager.wrap(remap[types.node]))
    assert witness_after.node == remap[witness_before.node]


def _xhtml_typed_formula() -> sx.Formula:
    """A query under the projected xhtml-strict DTD (a Lean of 47 formulas)."""
    from repro.analysis.problems import _query_formula, relevant_attributes, relevant_labels
    from repro.xmltypes.library import builtin_dtd

    expr = "descendant::a[ancestor::a]"
    return _query_formula(
        expr, builtin_dtd("xhtml-strict"), relevant_attributes(expr), relevant_labels(expr)
    )


def _random_targets(encoding, rng: random.Random, count: int) -> list:
    """Random sets of types: unions of a few random cubes over ``x``, most of
    them cut down to the consistent types, plus ⊤ and the consistent types."""
    manager = encoding.manager
    types = encoding.types_constraint()
    size = len(encoding.lean)
    targets = [manager.true(), types]
    for _ in range(count):
        target = manager.false()
        for _ in range(rng.randint(1, 4)):
            cube = manager.true()
            for index in rng.sample(range(size), rng.randint(1, 6)):
                literal = encoding.x(index)
                cube = cube & (literal if rng.random() < 0.5 else ~literal)
            target = target | cube
        targets.append(target & types if rng.random() < 0.7 else target)
    return targets


@pytest.mark.parametrize("formula_name", ["scaling", "xhtml"])
def test_clustered_product_equals_the_monolithic_product(formula_name, monkeypatch):
    """The clustered schedule computes ∃y. T(y) ∧ ∆ₐ(x, y) exactly: the same
    function as conjoining the whole relation before quantifying."""
    from repro.solver import relations
    from repro.solver.relations import LeanEncoding, TransitionRelation

    formula = _containment_formula(3) if formula_name == "scaling" else _xhtml_typed_formula()
    plunged = sx.mu1(lambda x: formula | sx.dia(1, x) | sx.dia(2, x), prefix="Plunge")
    encoding = LeanEncoding(compute_lean(plunged))
    targets = _random_targets(encoding, random.Random(7), 60)
    for program in (1, 2):
        clustered = TransitionRelation(encoding, program)
        monolithic = TransitionRelation(encoding, program, monolithic=True)
        with monkeypatch.context() as patch:
            patch.setattr(relations, "CLUSTER_NODES", 0)
            unclustered = TransitionRelation(encoding, program)
        # The schedule really merged blocks into fewer, larger steps.
        assert len(clustered._schedule) < len(unclustered._schedule)
        for target in targets:
            operand = clustered._primed_operand(target)
            assert clustered._product(operand) == monolithic._product(operand)
            assert clustered.witness_strict(target) == monolithic.witness_strict(target)


def test_solver_counters_are_deterministic_across_runs():
    """Byte-identical counters let CI guard performance without wall-clock."""
    formula = _containment_formula(3)

    def counters():
        stats = SymbolicSolver(formula).solve().statistics.as_dict()
        stats.pop("translation_seconds")
        stats.pop("solve_seconds")
        return stats

    first = counters()
    second = counters()
    assert first == second
    for key in ("iterations", "product_calls",
                "partitions_skipped", "bdd_ite_calls", "peak_set_nodes"):
        assert first[key] == second[key], key
