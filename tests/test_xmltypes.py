"""Tests for content models, DTD parsing, binarisation and type membership."""

import random

import pytest

from repro.core.errors import ParseError
from repro.testing.generators import GeneratorConfig, gen_dtd
from repro.trees.unranked import parse_tree
from repro.xmltypes import binarize
from repro.xmltypes import compile as compile_module
from repro.xmltypes import content as cm
from repro.xmltypes.ast import BinaryTypeGrammar, EPSILON, LabelAlternative
from repro.xmltypes.binarize import binarize_dtd
from repro.xmltypes.compile import compile_dtd
from repro.xmltypes.dtd import parse_dtd
from repro.xmltypes.library import (
    smil_dtd,
    wikipedia_dtd,
    xhtml_core_dtd,
    xhtml_strict_dtd,
)
from repro.xmltypes.membership import dtd_accepts, grammar_accepts

WIKI_DTD = """
<!ELEMENT article (meta, (text | redirect))>
<!ELEMENT meta (title, status?, interwiki*, history?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT interwiki (#PCDATA)>
<!ELEMENT status (#PCDATA)>
<!ELEMENT history (edit)+>
<!ELEMENT edit (status?, interwiki*, (text | redirect)?)>
<!ELEMENT redirect EMPTY>
<!ELEMENT text (#PCDATA)>
"""


# -- content models -----------------------------------------------------------------


def test_content_nullable():
    assert cm.nullable(cm.CEmpty())
    assert not cm.nullable(cm.CSymbol("a"))
    assert cm.nullable(cm.CStar(cm.CSymbol("a")))
    assert cm.nullable(cm.COptional(cm.CSymbol("a")))
    assert not cm.nullable(cm.CPlus(cm.CSymbol("a")))
    assert cm.nullable(cm.CSeq(cm.CStar(cm.CSymbol("a")), cm.COptional(cm.CSymbol("b"))))


def test_content_matches():
    model = cm.CSeq(cm.CSymbol("a"), cm.CSeq(cm.CStar(cm.CSymbol("b")), cm.COptional(cm.CSymbol("c"))))
    assert cm.matches(model, ["a"])
    assert cm.matches(model, ["a", "b", "b", "c"])
    assert not cm.matches(model, ["b"])
    assert not cm.matches(model, ["a", "c", "b"])


def test_content_choice_and_plus():
    model = cm.CPlus(cm.CChoice(cm.CSymbol("x"), cm.CSymbol("y")))
    assert cm.matches(model, ["x", "y", "x"])
    assert not cm.matches(model, [])


def test_content_symbols():
    model = cm.CSeq(cm.CSymbol("a"), cm.CChoice(cm.CSymbol("b"), cm.CEmpty()))
    assert cm.symbols(model) == {"a", "b"}


# -- DTD parsing ---------------------------------------------------------------------


def test_parse_wikipedia_dtd():
    dtd = parse_dtd(WIKI_DTD, root="article")
    assert dtd.symbol_count() == 9
    assert dtd.root == "article"
    assert cm.nullable(dtd.content_of("text"))
    assert not cm.nullable(dtd.content_of("article"))


def test_parse_dtd_with_parameter_entities():
    text = """
    <!ENTITY % inline "a | b">
    <!ELEMENT p (#PCDATA | %inline;)*>
    <!ELEMENT a EMPTY>
    <!ELEMENT b EMPTY>
    """
    dtd = parse_dtd(text, root="p")
    assert cm.symbols(dtd.content_of("p")) == {"a", "b"}


def test_parse_dtd_with_any_content():
    dtd = parse_dtd("<!ELEMENT a ANY><!ELEMENT b EMPTY>", root="a")
    assert cm.symbols(dtd.content_of("a")) == {"a", "b"}


def test_parse_dtd_ignores_attlist_and_comments():
    text = """
    <!-- a comment with <!ELEMENT fake (ignored)> inside -->
    <!ELEMENT a (b)>
    <!ATTLIST a id CDATA #IMPLIED>
    <!ELEMENT b EMPTY>
    """
    dtd = parse_dtd(text, root="a")
    assert dtd.symbol_count() == 2


def test_parse_dtd_errors():
    with pytest.raises(ParseError):
        parse_dtd("<!ATTLIST a id CDATA #IMPLIED>")
    with pytest.raises(ParseError):
        parse_dtd("<!ELEMENT a (b,)><!ELEMENT b EMPTY>")
    with pytest.raises(ParseError):
        parse_dtd("<!ELEMENT a (b)>", root="zzz")


def test_with_root_changes_designated_root():
    dtd = parse_dtd(WIKI_DTD, root="article")
    assert dtd.with_root("meta").root == "meta"
    with pytest.raises(ValueError):
        dtd.with_root("nope")


# -- binarisation -----------------------------------------------------------------------


def test_binarize_produces_figure13_like_grammar():
    dtd = parse_dtd(WIKI_DTD, root="article")
    grammar = binarize_dtd(dtd)
    assert grammar.start.startswith("Doc_")
    start_alternatives = grammar.alternatives(grammar.start)
    assert len(start_alternatives) == 1
    assert isinstance(start_alternatives[0], LabelAlternative)
    assert start_alternatives[0].label == "article"
    assert grammar.labels() == {
        "article", "meta", "title", "interwiki", "status", "history", "edit",
        "redirect", "text",
    }


def test_binarize_nullability():
    dtd = parse_dtd(WIKI_DTD, root="article")
    grammar = binarize_dtd(dtd)
    assert grammar.is_epsilon_only("C_title")
    assert grammar.is_nullable("C_edit")
    assert not grammar.is_nullable("C_article")


@pytest.mark.parametrize(
    "spec,word",
    [
        ("((b)*)*", ["b"]),
        ("((b)*)*", []),
        ("((b)+)*", ["b"]),
        ("((b)+)+", ["b", "b"]),
        ("(c, (b)?)*", ["c"]),
        ("(c, (b)?)*", ["c", "b", "c"]),
        ("((b | (c)*))*", ["c", "b"]),
    ],
)
def test_binarize_nested_nullable_constructs(spec, word):
    """Nested stars/options must keep their loop exits.

    A nullable construct inlines its continuation's alternatives; while an
    enclosing loop variable was still being defined that inline used to read
    an empty placeholder, so ``(b*)*`` compiled to a sibling chain that could
    never terminate and rejected every non-empty valid document.  Found by
    differential fuzzing (tests/corpus/fuzz-containment-0044cc20ad80.json).
    """
    from repro.trees.unranked import Tree
    from repro.xmltypes.membership import dtd_accepts, grammar_accepts

    dtd = parse_dtd(
        f"<!ELEMENT a {spec}><!ELEMENT b EMPTY><!ELEMENT c EMPTY>", root="a"
    )
    document = Tree("a", tuple(Tree(name) for name in word))
    assert dtd_accepts(dtd, document)
    assert grammar_accepts(binarize_dtd(dtd), document)


def test_grammar_reachability_and_describe():
    dtd = parse_dtd(WIKI_DTD, root="article")
    grammar = binarize_dtd(dtd).restricted_to_reachable()
    assert grammar.variable_count() > 5
    description = grammar.describe()
    assert "Start Symbol" in description and "terminals" in description


# -- membership (validation) ---------------------------------------------------------------


VALID_DOCS = [
    "<article><meta><title/></meta><text/></article>",
    "<article><meta><title/><status/><interwiki/><interwiki/></meta><redirect/></article>",
    "<article><meta><title/><history><edit><text/></edit><edit/></history></meta><text/></article>",
]

INVALID_DOCS = [
    "<article><text/></article>",                       # missing meta
    "<article><meta><title/></meta></article>",         # missing text|redirect
    "<article><meta/><text/></article>",                 # meta missing title
    "<meta><title/></meta>",                             # wrong root
    "<article><meta><title/></meta><text/><text/></article>",  # too many children
]


@pytest.mark.parametrize("text", VALID_DOCS)
def test_valid_documents_accepted(text):
    dtd = parse_dtd(WIKI_DTD, root="article")
    document = parse_tree(text)
    assert dtd_accepts(dtd, document)
    assert grammar_accepts(binarize_dtd(dtd), document)


@pytest.mark.parametrize("text", INVALID_DOCS)
def test_invalid_documents_rejected(text):
    dtd = parse_dtd(WIKI_DTD, root="article")
    document = parse_tree(text)
    assert not dtd_accepts(dtd, document)
    assert not grammar_accepts(binarize_dtd(dtd), document)


def test_grammar_accepts_ignores_marks():
    dtd = parse_dtd(WIKI_DTD, root="article")
    document = parse_tree("<article><meta><title!/></meta><text/></article>")
    assert grammar_accepts(binarize_dtd(dtd), document)


def test_empty_grammar_variable():
    grammar = BinaryTypeGrammar(variables={"X": ()}, start="X")
    assert grammar.is_empty("X")
    assert not grammar_accepts(grammar, parse_tree("<a/>"))
    assert grammar.alternatives("Epsilon") == (EPSILON,)


# -- one linear binarization per schema -----------------------------------------------


def _reference_merge(left, right):
    """The original list-membership merge (quadratic), kept as a reference."""
    merged = list(left)
    for alternative in right:
        if alternative not in merged:
            merged.append(alternative)
    return tuple(merged)


def _reference_resolve_refs(grammar):
    """The original list-membership reference resolution, kept as a reference."""
    resolved = {}

    def resolve(name):
        done = resolved.get(name)
        if done is not None:
            return done
        raw = grammar.variables[name]
        if not any(isinstance(alternative, binarize._Ref) for alternative in raw):
            resolved[name] = raw
            return raw
        out = []
        visited = set()

        def expand(variable):
            if variable in visited:
                return
            visited.add(variable)
            for alternative in resolved.get(variable, grammar.variables[variable]):
                if isinstance(alternative, binarize._Ref):
                    expand(alternative.variable)
                elif alternative not in out:
                    out.append(alternative)

        expand(name)
        resolved[name] = tuple(out)
        return resolved[name]

    for name in list(grammar.variables):
        grammar.variables[name] = resolve(name)


def _grammar_key(grammar):
    return grammar.start, grammar.name, list(grammar.variables.items())


def test_linear_binarization_matches_the_quadratic_reference(monkeypatch):
    """Same variables, names, alternative order and start, schema by schema."""
    dtds = [smil_dtd(), xhtml_strict_dtd(), xhtml_core_dtd(), wikipedia_dtd()]
    for config in (GeneratorConfig(), GeneratorConfig(max_elements=6, max_content_depth=3)):
        dtds += [gen_dtd(random.Random(seed), config)[1] for seed in range(1000)]
    linear = [_grammar_key(binarize_dtd(dtd)) for dtd in dtds]
    monkeypatch.setattr(binarize, "_merge", _reference_merge)
    monkeypatch.setattr(binarize, "_resolve_refs", _reference_resolve_refs)
    reference = [_grammar_key(binarize_dtd(dtd)) for dtd in dtds]
    for dtd, got, want in zip(dtds, linear, reference):
        assert got == want, dtd


@pytest.fixture
def binarize_calls(monkeypatch):
    """Roots passed to the binarizer ``compile_dtd`` calls, one per call."""
    calls = []
    real = compile_module.binarize_dtd

    def counting(dtd, root=None):
        calls.append(root)
        return real(dtd, root=root)

    monkeypatch.setattr(compile_module, "binarize_dtd", counting)
    return calls


def test_compile_dtd_binarizes_a_schema_once(binarize_calls):
    dtd = parse_dtd(WIKI_DTD, name="wiki")
    alphabets = [
        (None, None),
        (("edit",), None),
        (("title", "text"), ("id",)),
        (("history", "edit", "redirect"), ("id", "lang")),
        (None, ("lang",)),
    ]
    formulas = [
        compile_dtd(dtd, labels=labels, attributes=attributes)
        for labels, attributes in alphabets
    ]
    assert binarize_calls == [None]
    # The shared grammar gives the formulas a fresh binarization gives.
    for (labels, attributes), formula in zip(alphabets, formulas):
        fresh = parse_dtd(WIKI_DTD, name="wiki")
        assert compile_dtd(fresh, labels=labels, attributes=attributes) == formula
    assert dtd == parse_dtd(WIKI_DTD, name="wiki")


def test_each_root_and_with_root_copy_get_their_own_grammar(binarize_calls):
    dtd = parse_dtd(WIKI_DTD, name="wiki")
    whole = compile_dtd(dtd)
    meta = compile_dtd(dtd, root="meta")
    assert compile_dtd(dtd, root="meta") == meta
    assert meta != whole
    copy = dtd.with_root("edit")
    edit = compile_dtd(copy)
    assert compile_dtd(copy, root="edit") == edit
    assert edit not in (whole, meta)
    # The copy's own root is "edit": both calls share its one grammar.
    assert binarize_calls == [None, "meta", None]
    assert compile_dtd(dtd) == whole


def test_mutating_a_public_grammar_leaves_compile_dtd_alone():
    expected = compile_dtd(parse_dtd(WIKI_DTD, name="wiki"))
    dtd = parse_dtd(WIKI_DTD, name="wiki")
    for _ in range(2):  # before and after compile_dtd has kept a grammar
        grammar = binarize_dtd(dtd)
        grammar.variables.clear()
        grammar.start = BinaryTypeGrammar.EPSILON_VARIABLE
        assert compile_dtd(dtd) == expected
