"""Unit tests for the Lµ syntax: hash-consing, constructors, substitution, expansion."""

from pathlib import Path

import pytest

from repro.logic import syntax as sx
from repro.logic.closure import fisher_ladner_closure
from repro.logic.negation import negate
from repro.testing.corpus import load_corpus
from repro.testing.fuzz import case_formula
from repro.xmltypes.compile import compile_dtd
from repro.xmltypes.library import smil_dtd, xhtml_core_dtd
from repro.xpath.compile import compile_xpath

from test_integration_paper import FIGURE_21


def test_hash_consing_makes_equal_formulas_identical():
    one = sx.mk_and(sx.prop("a"), sx.dia(1, sx.prop("b")))
    two = sx.mk_and(sx.prop("a"), sx.dia(1, sx.prop("b")))
    assert one is two


def test_or_simplifications():
    assert sx.mk_or(sx.TRUE, sx.prop("a")) is sx.TRUE
    assert sx.mk_or(sx.FALSE, sx.prop("a")) is sx.prop("a")
    assert sx.mk_or(sx.prop("a"), sx.prop("a")) is sx.prop("a")


def test_and_simplifications():
    assert sx.mk_and(sx.FALSE, sx.prop("a")) is sx.FALSE
    assert sx.mk_and(sx.TRUE, sx.prop("a")) is sx.prop("a")


def test_dia_of_false_is_false():
    assert sx.dia(1, sx.FALSE) is sx.FALSE


def test_dia_rejects_bad_program():
    with pytest.raises(ValueError):
        sx.dia(3, sx.TRUE)


def test_big_or_and_big_and():
    props = [sx.prop(name) for name in "abc"]
    assert sx.big_or([]) is sx.FALSE
    assert sx.big_and([]) is sx.TRUE
    assert sx.formula_size(sx.big_or(props)) == 5


def test_fixpoint_requires_definitions():
    with pytest.raises(ValueError):
        sx.mu((), sx.TRUE)
    with pytest.raises(ValueError):
        sx.mu((("X", sx.TRUE), ("X", sx.FALSE)), sx.TRUE)


def test_free_variables():
    formula = sx.mu((("X", sx.dia(1, sx.var("X")) | sx.var("Y")),), sx.var("X"))
    assert sx.free_variables(formula) == {"Y"}
    assert sx.free_variables(sx.prop("a")) == frozenset()


def test_substitute_replaces_free_occurrences_only():
    inner = sx.mu((("X", sx.dia(1, sx.var("X"))),), sx.var("X"))
    formula = sx.mk_or(sx.var("X"), inner)
    substituted = sx.substitute(formula, {"X": sx.prop("a")})
    assert substituted.left is sx.prop("a")
    assert substituted.right is inner  # bound occurrence untouched


def test_substitute_empty_mapping_is_identity():
    formula = sx.dia(1, sx.var("X"))
    assert sx.substitute(formula, {}) is formula


def test_expand_fixpoint_substitutes_closed_definitions():
    formula = sx.mu((("X", sx.dia(1, sx.var("X")) | sx.prop("a")),), sx.var("X"))
    expanded = sx.expand_fixpoint(formula)
    assert sx.free_variables(expanded) == frozenset()
    # Expanding again below the modality reaches the same closed formula.
    assert expanded.is_fixpoint or expanded.kind in (sx.KIND_OR, sx.KIND_DIA)


def test_expand_fixpoint_terminates_on_mutual_recursion():
    formula = sx.mu(
        (
            ("X", sx.dia(1, sx.var("Y"))),
            ("Y", sx.dia(2, sx.var("X")) | sx.prop("leaf")),
        ),
        sx.var("X"),
    )
    expanded = sx.expand_fixpoint(formula)
    assert sx.free_variables(expanded) == frozenset()


def test_mu1_builds_guarded_unary_fixpoint():
    formula = sx.mu1(lambda x: sx.dia(1, x) | sx.prop("a"))
    assert formula.is_fixpoint
    assert len(formula.defs) == 1
    assert formula.body is formula.defs[0][1]


def test_formula_size_counts_shared_subterms_once():
    shared = sx.dia(1, sx.prop("a"))
    formula = sx.mk_and(shared, sx.mk_or(shared, sx.prop("b")))
    assert sx.formula_size(formula) == 5  # and, or, dia, a, b


def test_atomic_propositions():
    formula = sx.mk_and(sx.prop("a"), sx.mk_or(sx.nprop("b"), sx.START))
    assert sx.atomic_propositions(formula) == {"a", "b"}


def test_rename_bound_variables_freshens_binders():
    formula = sx.mu((("X", sx.dia(1, sx.var("X"))),), sx.var("X"))
    renamed = sx.rename_bound_variables(formula)
    assert renamed.defs[0][0] != "X"
    assert sx.free_variables(renamed) == frozenset()


def test_operator_overloading_matches_constructors():
    a, b = sx.prop("a"), sx.prop("b")
    assert (a | b) is sx.mk_or(a, b)
    assert (a & b) is sx.mk_and(a, b)


def test_substitute_refuses_to_capture_a_variable():
    # Y occurs under the binder of X, so replacing Y by X would capture it.
    formula = sx.mu((("X", sx.dia(1, sx.var("X")) | sx.var("Y")),), sx.var("X"))
    with pytest.raises(ValueError, match="capture"):
        sx.substitute(formula, {"Y": sx.var("X")})


# ---------------------------------------------------------------------------
# Per-node facts over the committed formulas
# ---------------------------------------------------------------------------


def _committed_formulas() -> list[sx.Formula]:
    """The fuzz corpus reductions and the Table 2 translations (Figure 21)."""
    formulas = []
    for entry in load_corpus(Path(__file__).parent / "corpus"):
        dtd = entry.case.dtd()
        formulas.extend(case_formula(entry.case, dtd, pruned) for pruned in (False, True))
    queries = [compile_xpath(text) for text in FIGURE_21.values()]
    queries.append(compile_xpath(FIGURE_21[7], compile_dtd(smil_dtd())))
    queries.append(compile_xpath(FIGURE_21[8], compile_dtd(xhtml_core_dtd())))
    formulas.extend(queries)
    formulas.extend(negate(query) for query in queries)
    return formulas


@pytest.fixture(scope="module")
def committed_subformulas() -> list[sx.Formula]:
    """Every subformula of the committed formulas and of their closures."""
    seen: dict[int, sx.Formula] = {}
    for formula in _committed_formulas():
        for member in fisher_ladner_closure(formula):
            for sub in sx.iter_subformulas(member):
                seen.setdefault(id(sub), sub)
    return list(seen.values())


def _reference_free_variables(formula: sx.Formula, cache: dict) -> frozenset[str]:
    """Free variables by a plain recursive walk over the syntax tree."""
    if id(formula) not in cache:
        if formula.kind == sx.KIND_VAR:
            result = frozenset({formula.label})
        else:
            result = frozenset().union(
                *(_reference_free_variables(child, cache) for child in sx.iter_children(formula))
            )
            if formula.is_fixpoint:
                result -= {name for name, _ in formula.defs}
        cache[id(formula)] = result
    return cache[id(formula)]


def test_free_variables_match_a_reference_walk(committed_subformulas):
    cache: dict = {}
    assert len(committed_subformulas) > 1000
    for sub in committed_subformulas:
        assert sx.free_variables(sub) == _reference_free_variables(sub, cache), sub


def test_expansion_is_stored_and_equals_a_fresh_substitution(committed_subformulas):
    fixpoints = [sub for sub in committed_subformulas if sub.is_fixpoint]
    assert fixpoints
    for fixpoint in fixpoints:
        expanded = sx.expand_fixpoint(fixpoint)
        assert sx.expand_fixpoint(fixpoint) is expanded
        mapping = {
            name: (sx.mu if fixpoint.kind == sx.KIND_MU else sx.nu)(fixpoint.defs, definition)
            for name, definition in fixpoint.defs
        }
        assert sx.substitute(fixpoint.body, mapping) is expanded
