"""Unit and property tests for the ROBDD engines (every registered backend)."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.bdd.backends import BACKENDS, create_manager
from repro.bdd.ordering import interleaved_pairs, order_by_first_use

NAMES = ["a", "b", "c", "d"]


@pytest.fixture(params=sorted(BACKENDS))
def manager(request):
    return create_manager(NAMES, backend=request.param)


def brute_force(function, names=NAMES):
    """Truth table of a BDD as a set of satisfying assignments."""
    table = set()
    for bits in itertools.product((False, True), repeat=len(names)):
        assignment = dict(zip(names, bits))
        if function.evaluate(assignment):
            table.add(bits)
    return table


def test_terminals(manager):
    assert manager.true().is_true
    assert manager.false().is_false
    assert (~manager.true()).is_false


def test_variable_and_negation(manager):
    a = manager.variable("a")
    assert a.evaluate({"a": True}) and not a.evaluate({"a": False})
    assert (~a).evaluate({"a": False})


def test_connectives_against_truth_tables(manager):
    a, b, c, d = (manager.variable(name) for name in NAMES)
    cases = {
        "and": (a & b, lambda va, vb, vc, vd: va and vb),
        "or": (a | b, lambda va, vb, vc, vd: va or vb),
        "xor": (a ^ c, lambda va, vb, vc, vd: va != vc),
        "iff": (b.iff(d), lambda va, vb, vc, vd: vb == vd),
        "implies": (a.implies(d), lambda va, vb, vc, vd: (not va) or vd),
        "ite": (a.ite(b, c), lambda va, vb, vc, vd: vb if va else vc),
    }
    for name, (function, predicate) in cases.items():
        expected = {
            bits
            for bits in itertools.product((False, True), repeat=4)
            if predicate(*bits)
        }
        assert brute_force(function) == expected, name


def test_reduction_canonical_form(manager):
    a, b = manager.variable("a"), manager.variable("b")
    assert ((a & b) | (a & ~b)).node == a.node  # Shannon reduction
    assert (a | ~a).is_true
    assert (a & ~a).is_false


def test_exists_and_forall(manager):
    a, b = manager.variable("a"), manager.variable("b")
    function = a & b
    assert brute_force(function.exists(["a"])) == brute_force(b)
    assert function.forall(["a"]).is_false
    assert (a | b).forall(["a"]).node == b.node


def test_and_exists_equals_conjoin_then_quantify(manager):
    a, b, c, d = (manager.variable(name) for name in NAMES)
    left = (a & b) | (c & ~d)
    right = a.iff(c) & (b | d)
    fused = left.and_exists(right, ["a", "c"])
    naive = (left & right).exists(["a", "c"])
    assert fused.node == naive.node


def test_rename(manager):
    a, b = manager.variable("a"), manager.variable("b")
    renamed = (a & ~b).rename({"a": "c", "b": "d"})
    assert renamed.support() == {"c", "d"}
    assert renamed.evaluate({"c": True, "d": False})


def test_restrict(manager):
    a, b = manager.variable("a"), manager.variable("b")
    assert (a & b).restrict({"a": True}).node == b.node
    assert (a & b).restrict({"a": False}).is_false


def test_support_and_dag_size(manager):
    a, b, c = manager.variable("a"), manager.variable("b"), manager.variable("c")
    function = (a & b) | c
    assert function.support() == {"a", "b", "c"}
    assert function.dag_size() >= 3
    assert manager.true().dag_size() == 0


def test_pick_assignment(manager):
    a, b = manager.variable("a"), manager.variable("b")
    assert (a & ~b).pick_assignment() == {"a": True, "b": False}
    assert manager.false().pick_assignment() is None
    chosen = (a | b).pick_assignment()
    assert (a | b).evaluate({"a": False, "b": False, **chosen})


def test_count_assignments(manager):
    a, b, c, d = (manager.variable(name) for name in NAMES)
    assert manager.true().count_assignments() == 16
    assert (a & b).count_assignments() == 4
    assert (a | b).count_assignments(["a", "b"]) == 3


def test_iter_assignments(manager):
    a, b = manager.variable("a"), manager.variable("b")
    models = list((a ^ b).iter_assignments(["a", "b"]))
    assert len(models) == 2
    assert {frozenset(m.items()) for m in models} == {
        frozenset({("a", True), ("b", False)}.items() if False else {("a", True), ("b", False)}),
        frozenset({("a", False), ("b", True)}),
    }


def test_no_implicit_truthiness(manager):
    with pytest.raises(TypeError):
        bool(manager.true())


def test_duplicate_variable_rejected(manager):
    with pytest.raises(ValueError):
        manager.add_variable("a")


def test_ordering_helpers():
    assert interleaved_pairs(["x0", "x1"]) == ["x0", "x0'", "x1", "x1'"]
    ordered = order_by_first_use(["p", "q", "r"], [["r"], ["q", "p"]])
    assert ordered == ["r", "p", "q"] or ordered == ["r", "q", "p"]


# -- property-based equivalence with Python boolean evaluation -------------------------


@st.composite
def boolean_exprs(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return ("var", draw(st.sampled_from(NAMES)))
    op = draw(st.sampled_from(["and", "or", "not", "xor"]))
    if op == "not":
        return ("not", draw(boolean_exprs(depth=depth - 1)))
    return (op, draw(boolean_exprs(depth=depth - 1)), draw(boolean_exprs(depth=depth - 1)))


def build_bdd(manager, expr):
    if expr[0] == "var":
        return manager.variable(expr[1])
    if expr[0] == "not":
        return ~build_bdd(manager, expr[1])
    left, right = build_bdd(manager, expr[1]), build_bdd(manager, expr[2])
    return {"and": left & right, "or": left | right, "xor": left ^ right}[expr[0]]


def eval_expr(expr, assignment):
    if expr[0] == "var":
        return assignment[expr[1]]
    if expr[0] == "not":
        return not eval_expr(expr[1], assignment)
    left, right = eval_expr(expr[1], assignment), eval_expr(expr[2], assignment)
    return {"and": left and right, "or": left or right, "xor": left != right}[expr[0]]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@given(expr=boolean_exprs())
def test_bdd_matches_boolean_semantics(backend, expr):
    manager = create_manager(NAMES, backend=backend)
    function = build_bdd(manager, expr)
    for bits in itertools.product((False, True), repeat=len(NAMES)):
        assignment = dict(zip(NAMES, bits))
        assert function.evaluate(assignment) == eval_expr(expr, assignment)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@given(expr=boolean_exprs(), name=st.sampled_from(NAMES))
def test_quantification_property(backend, expr, name):
    manager = create_manager(NAMES, backend=backend)
    function = build_bdd(manager, expr)
    exists = function.exists([name])
    forall = function.forall([name])
    for bits in itertools.product((False, True), repeat=len(NAMES)):
        assignment = dict(zip(NAMES, bits))
        either = any(
            function.evaluate({**assignment, name: value}) for value in (False, True)
        )
        both = all(
            function.evaluate({**assignment, name: value}) for value in (False, True)
        )
        assert exists.evaluate(assignment) == either
        assert forall.evaluate(assignment) == both
