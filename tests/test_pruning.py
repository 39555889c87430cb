"""Cone-of-influence Lean pruning: semantics preservation and proportionality.

The projection collapses element names a problem's expressions never test
onto the "any other label" proposition before any BDD is built
(:func:`repro.xmltypes.compile.project_grammar`).  These tests check the
three properties the optimisation rests on:

* **semantics preservation** — every verdict matches the unpruned run
  (``Analyzer(prune_labels=False)``), including across problem kinds;
* **proportionality** — a query touching 2 of 40 element names solves with a
  proportionally smaller Lean;
* **witness quality** — satisfying models are lifted back to concrete
  element names and validate against the original DTD.
"""

import random

import pytest

from repro.analysis import Analyzer
from repro.analysis.problems import label_projection, relevant_labels
from repro.api import Query, StaticAnalyzer
from repro.logic import syntax as sx
from repro.logic.closure import OTHER_LABEL
from repro.testing.generators import GeneratorConfig, gen_dtd
from repro.xmltypes.ast import BinaryTypeGrammar, LabelAlternative
from repro.xmltypes.binarize import binarize_dtd
from repro.xmltypes.compile import compile_dtd, project_grammar
from repro.xmltypes.dtd import parse_dtd
from repro.xmltypes.library import builtin_dtd
from repro.xmltypes.membership import dtd_accepts, grammar_accepts, lift_wildcards


def wide_dtd(sections: int = 19):
    """A DTD with ``2 * sections + 2`` elements: root -> s1..sN -> leafN."""
    parts = [
        "<!ELEMENT root ("
        + ", ".join(f"s{i}" for i in range(1, sections + 1))
        + ", leaf0?)>"
    ]
    for i in range(1, sections + 1):
        parts.append(f"<!ELEMENT s{i} (leaf{i})*>")
        parts.append(f"<!ELEMENT leaf{i} EMPTY>")
    parts.append("<!ELEMENT leaf0 EMPTY>")
    return parse_dtd("\n".join(parts), name="wide", root="root")


# -- the projection itself -----------------------------------------------------------


def test_relevant_labels_collects_name_tests_only():
    assert relevant_labels("a/b[c]", "descendant::d/following::*") == (
        "a",
        "b",
        "c",
        "d",
    )
    assert relevant_labels("child::*") == ()


def test_label_projection_requires_a_single_shared_type():
    dtd = wide_dtd()
    other = wide_dtd()
    # One shared type (possibly repeated, possibly with None sides): prune.
    assert label_projection(("a", "b"), (dtd, dtd)) == ("a", "b")
    assert label_projection(("a",), (dtd, None)) == ("a",)
    # Two distinct type objects can be told apart through collapsed names:
    # pruning must be skipped.
    assert label_projection(("a", "b"), (dtd, other)) is None
    # Raw-formula constraints contribute their alphabet instead.
    assert label_projection(("a",), (dtd, sx.prop("x"))) == ("a", "x")


def test_projected_grammar_is_a_label_homomorphism():
    from repro.trees.unranked import Tree

    grammar = binarize_dtd(wide_dtd())
    projected = project_grammar(grammar, {"s2", "leaf2"})
    assert projected.labels() == {"s2", "leaf2", "#other"}
    # Structure is preserved: the projected grammar accepts exactly the
    # label-homomorphic image of the original language (spot-check one
    # document and its image).
    original = Tree(
        "root",
        tuple(
            Tree("s2", (Tree("leaf2", ()),)) if i == 2 else Tree(f"s{i}", ())
            for i in range(1, 20)
        ),
    )
    image = Tree(
        "root" if "root" in projected.labels() else "#other",
        tuple(
            Tree("s2", (Tree("leaf2", ()),)) if i == 2 else Tree("#other", ())
            for i in range(1, 20)
        ),
    )
    assert grammar_accepts(grammar, original)
    assert grammar_accepts(projected, image)


def _reference_relabelled(grammar, keep, other_label):
    """The original string-keyed label homomorphism, kept as a reference."""
    if keep >= grammar.labels():
        return grammar
    relabelled = {}
    for variable, alternatives in grammar.variables.items():
        relabelled[variable] = tuple(
            alternative
            if not isinstance(alternative, LabelAlternative)
            or alternative.label in keep
            else LabelAlternative(other_label, alternative.first, alternative.next)
            for alternative in alternatives
        )
    return BinaryTypeGrammar(variables=relabelled, start=grammar.start, name=grammar.name)


def _reference_minimized(grammar):
    """The original string-keyed partition refinement, kept as a reference."""
    variables = list(grammar.variables)
    classes = {variable: 0 for variable in variables}
    classes[grammar.EPSILON_VARIABLE] = -1

    def signature(variable):
        parts = set()
        for alternative in grammar.alternatives(variable):
            if isinstance(alternative, LabelAlternative):
                parts.add(
                    (
                        alternative.label,
                        classes.get(alternative.first, -1),
                        classes.get(alternative.next, -1),
                    )
                )
            else:
                parts.add(("ε",))
        return frozenset(parts)

    while True:
        buckets = {}
        next_classes = {grammar.EPSILON_VARIABLE: -1}
        for variable in variables:
            key = (classes[variable], signature(variable))
            next_classes[variable] = buckets.setdefault(key, len(buckets))
        stable = len(buckets) == len({classes[v] for v in variables})
        classes = next_classes
        if stable:
            break
    representative = {}
    for variable in variables:
        representative.setdefault(classes[variable], variable)
    if len(representative) == len(variables):
        return grammar

    def rename(variable):
        if variable == grammar.EPSILON_VARIABLE or variable not in classes:
            return variable
        return representative[classes[variable]]

    minimized = {}
    for variable in variables:
        name = representative[classes[variable]]
        if name in minimized:
            continue
        minimized[name] = tuple(
            dict.fromkeys(
                alternative
                if not isinstance(alternative, LabelAlternative)
                else LabelAlternative(
                    alternative.label, rename(alternative.first), rename(alternative.next)
                )
                for alternative in grammar.alternatives(variable)
            )
        )
    return BinaryTypeGrammar(variables=minimized, start=rename(grammar.start), name=grammar.name)


def _reference_projection(grammar, keep):
    projected = _reference_relabelled(grammar, keep, OTHER_LABEL)
    return grammar if projected is grammar else _reference_minimized(projected)


def _grammar_key(grammar):
    return grammar.start, grammar.name, list(grammar.variables.items())


def test_integer_projection_matches_the_string_reference():
    """Same variables, order, representatives, alternatives and start, on the
    bundled schemas and generated DTDs, each under random alphabets."""
    rng = random.Random(0)
    grammars = [binarize_dtd(builtin_dtd(name)) for name in ("smil", "xhtml-strict", "xhtml", "wikipedia")]
    grammars.append(binarize_dtd(wide_dtd()))
    for config in (GeneratorConfig(), GeneratorConfig(max_elements=6, max_content_depth=3)):
        grammars += [binarize_dtd(gen_dtd(random.Random(seed), config)[1]) for seed in range(150)]
    # A grammar that declares no Epsilon and references undeclared variables.
    grammars.append(
        BinaryTypeGrammar(
            variables={
                "S": (LabelAlternative("a", "X", "Epsilon"), LabelAlternative("b", "Y", "Epsilon")),
                "X": (LabelAlternative("c", "Missing", "Epsilon"),),
                "Y": (LabelAlternative("d", "Missing", "Epsilon"),),
            },
            start="S",
        )
    )
    compared = 0
    for grammar in grammars:
        labels = sorted(grammar.labels())
        alphabets = [set(), set(labels)] + [
            set(rng.sample(labels, rng.randint(0, len(labels)))) for _ in range(40)
        ]
        for keep in alphabets:
            got = project_grammar(grammar, keep)
            want = _reference_projection(grammar, keep)
            assert _grammar_key(got) == _grammar_key(want), (grammar.name, sorted(keep))
            assert got.describe() == want.describe()
            compared += 1
    assert compared > 12_000


def test_compile_dtd_projects_through_the_kept_index():
    """``compile_dtd(labels=...)`` equals compiling the reference projection."""
    from repro.xmltypes.compile import compile_grammar

    dtd = builtin_dtd("xhtml-strict")
    labels = sorted(binarize_dtd(dtd).labels())
    rng = random.Random(1)
    for _ in range(10):
        keep = set(rng.sample(labels, rng.randint(0, 8)))
        reference = _reference_projection(binarize_dtd(dtd), keep)
        assert compile_dtd(dtd, labels=keep) == compile_grammar(reference)


def test_minimization_merges_collapsed_variables():
    grammar = binarize_dtd(wide_dtd())
    projected = project_grammar(grammar, {"s2", "leaf2"})
    # The 19 isomorphic (sN, leafN) chains collapse into a handful of
    # classes once their labels coincide.
    assert projected.variable_count() < grammar.variable_count() / 2


# -- semantics preservation across problem kinds -------------------------------------


@pytest.mark.parametrize(
    "method, args",
    [
        ("satisfiability", ("child::s2/child::leaf2",)),
        ("satisfiability", ("child::s2/child::leaf3",)),
        ("emptiness", ("child::leaf0/child::s1",)),
        ("containment", ("child::s2[leaf2]", "child::s2")),
        ("containment", ("child::s2", "child::s2[leaf2]")),
        ("overlap", ("child::s2", "child::s3")),
    ],
)
def test_pruned_verdicts_match_unpruned(method, args):
    dtd = wide_dtd()
    pruned = Analyzer()
    unpruned = Analyzer(prune_labels=False)
    types = (dtd,) * (2 if method in ("containment", "overlap") else 1)
    fast = getattr(pruned, method)(*args, *types)
    slow = getattr(unpruned, method)(*args, *types)
    assert fast.holds == slow.holds


def test_pruned_lean_is_proportionally_smaller():
    """A query touching 2 of 40 element names: the Lean shrinks ~3x."""
    dtd = wide_dtd()
    assert len(dtd.element_names()) == 40
    pruned = Analyzer().satisfiability("child::s2/child::leaf2", dtd)
    unpruned = Analyzer(prune_labels=False).satisfiability(
        "child::s2/child::leaf2", dtd
    )
    assert pruned.holds == unpruned.holds is True
    pruned_lean = pruned.solver_result.statistics.lean_size
    unpruned_lean = unpruned.solver_result.statistics.lean_size
    # 40 collapsed propositions and their content-model chains are gone.
    assert pruned_lean < unpruned_lean / 2


def test_pruned_witness_is_lifted_to_a_valid_document():
    dtd = wide_dtd()
    result = Analyzer().satisfiability("child::s2/child::leaf2", dtd)
    assert result.holds
    witness = result.counterexample
    assert witness is not None
    # Collapsed labels were reassigned concrete element names.
    assert dtd_accepts(dtd, witness.unmark_all())


def test_lift_wildcards_returns_none_when_no_assignment_exists():
    from repro.trees.unranked import Tree

    dtd = wide_dtd()
    # `_` cannot be the root's only child: the root requires 19 sections.
    assert lift_wildcards(dtd, Tree("root", (Tree("_", ()),))) is None


# -- the API façade mirrors the problem layer ----------------------------------------


def test_api_prunes_and_lifts_like_the_analyzer():
    analyzer = StaticAnalyzer()
    outcome = analyzer.solve(
        Query.satisfiability("child::meta/child::title", "wikipedia")
    )
    assert outcome.holds
    # The witness validates against the schema (labels were lifted).
    from repro.trees.unranked import parse_tree

    assert dtd_accepts(builtin_dtd("wikipedia"), parse_tree(outcome.counterexample).unmark_all())


def test_api_prune_labels_off_reproduces_unpruned_lean():
    query = Query.satisfiability("child::meta/child::title", "wikipedia")
    pruned = StaticAnalyzer().solve(query)
    unpruned = StaticAnalyzer(prune_labels=False).solve(query)
    assert pruned.holds == unpruned.holds
    assert pruned.statistics["lean_size"] < unpruned.statistics["lean_size"]


def test_lifted_witness_never_reuses_a_tested_label():
    """Lifting must pick labels *outside* the pruned alphabet.

    Regression: with elements c and x both allowed where the witness has a
    collapsed node, assigning the tested name c would make the counterexample
    to `//a ⊆ //c/a` select the node on both sides — no longer a witness.
    """
    from repro.xmltypes.membership import dtd_accepts

    dtd = parse_dtd(
        "<!ELEMENT r (x | c)>\n<!ELEMENT c (a)>\n<!ELEMENT x (a)>\n"
        "<!ELEMENT a EMPTY>",
        name="lift",
        root="r",
    )
    result = Analyzer().containment("//a", "//c/a", dtd, dtd)
    reference = Analyzer(prune_labels=False).containment("//a", "//c/a", dtd, dtd)
    assert result.holds == reference.holds is False
    witness = result.counterexample
    assert witness is not None
    # The lifted witness must still separate the two queries: the `a` node
    # must not sit under a `c`.
    assert all(node.label != "c" for node in witness.iter_nodes())
    assert dtd_accepts(dtd, witness.unmark_all())
