"""Translation of binary regular tree types into Lµ (Section 5.2, Figure 14).

The translation is::

    [[∅]] = [[ε]]          = ⊥
    [[T₁ ∪ T₂]]            = [[T₁]] ∨ [[T₂]]
    [[σ(X₁, X₂)]]          = σ ∧ succ₁(X₁) ∧ succ₂(X₂)
    [[let Xᵢ.Tᵢ in T]]     = µ Xᵢ = [[Tᵢ]] in [[T]]

with the successor formulas handling the type frontier::

    succ_α(X) = ¬⟨α⟩⊤               if X is bound to ε
              = ¬⟨α⟩⊤ ∨ ⟨α⟩X        if X is nullable
              = ⟨α⟩X                 otherwise

Only downward modalities occur: a type formula describes the subtree allowed
at a node and leaves its context unconstrained, which is exactly what makes it
composable with the XPath translation in the decision problems of Section 8.

**Attribute constraints** (the thesis extension).  When a DTD carries
``<!ATTLIST ...>`` declarations, :func:`compile_dtd` can additionally conjoin
per-element attribute constraints.  Because one bit per attribute name would
blow the Lean up on real DTDs (XHTML declares dozens of names), the
constraints are *projected onto a finite attribute alphabet* — normally the
attribute names the surrounding problem's XPath expressions mention.  The
projection is sound and complete for presence-based queries: for every
attribute ``a`` in the alphabet and every element ``σ``,

* ``@a`` is conjoined when ``a`` is ``#REQUIRED`` on ``σ``,
* ``¬@a`` is conjoined when ``σ`` does not declare ``a`` at all
  (valid documents cannot carry undeclared attributes),
* nothing is conjoined otherwise (the attribute is optional).

The constrained elements are the declared ones *plus* every element a
content model references without declaring: such elements are valid (as
empty nodes) but declare no attributes, so every alphabet attribute is
pinned to ``¬@a`` on them.

When the alphabet contains the "other attribute" marker (because a query used
``@*``), the marker bit is additionally pinned down wherever the DTD decides
it: an element with a ``#REQUIRED`` attribute outside the named alphabet gets
``@other`` (it always carries an attribute only the marker can account for),
and an element whose declared attributes all lie inside the alphabet gets
``¬@other`` (it has no way to carry an attribute the alphabet cannot name).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.logic import syntax as sx
from repro.logic.closure import OTHER_ATTRIBUTE, OTHER_LABEL
from repro.xmltypes.ast import (
    Alternative,
    BinaryTypeGrammar,
    GrammarIndex,
    LabelAlternative,
)
from repro.xmltypes.binarize import binarize_dtd
from repro.xmltypes.content import symbols as content_symbols
from repro.xmltypes.dtd import DTD


def project_grammar(
    grammar: BinaryTypeGrammar,
    labels: Iterable[str],
    protected: Iterable[str] = (),
) -> BinaryTypeGrammar:
    """Project a grammar onto the element alphabet a problem observes.

    Labels outside ``labels`` (and outside ``protected`` — e.g. elements
    carrying attribute constraints the problem can test) collapse onto the
    logic's "any other label" proposition, and language-equivalent variables
    are then merged.  The projection is a pure label homomorphism followed by
    a congruence quotient, so it is **semantics-preserving for any problem
    whose node tests stay inside** ``labels``: a query that never names a
    collapsed element cannot distinguish it from any other collapsed element,
    and the grammar's structure (content models, recursion, nullability) is
    kept intact.  See :func:`repro.analysis.problems.label_projection` for
    when a whole decision problem may apply it.
    """
    return GrammarIndex(grammar).project(set(labels) | set(protected), OTHER_LABEL)


def _variable_formula_name(grammar_name: str, variable: str) -> str:
    # Keep names readable in printed formulas and unique across grammars.
    return f"{grammar_name}.{variable}"


def _successor(
    grammar: BinaryTypeGrammar, program: int, variable: str, var_name: str
) -> sx.Formula:
    if grammar.is_epsilon_only(variable):
        return sx.no_dia(program)
    if grammar.is_empty(variable):
        # An empty continuation can never be satisfied: the whole alternative
        # is contradictory.
        return sx.FALSE
    reference = sx.var(var_name)
    if grammar.is_nullable(variable):
        return sx.mk_or(sx.no_dia(program), sx.dia(program, reference))
    return sx.dia(program, reference)


def _attribute_constraint(
    attribute_constraints: Mapping[str, sx.Formula] | None, label: str
) -> sx.Formula:
    if attribute_constraints is None:
        return sx.TRUE
    return attribute_constraints.get(label, sx.TRUE)


def _alternative_formula(
    grammar: BinaryTypeGrammar,
    alternative: Alternative,
    names: dict[str, str],
    attribute_constraints: Mapping[str, sx.Formula] | None = None,
) -> sx.Formula:
    if not isinstance(alternative, LabelAlternative):
        # The ε alternative contributes no formula: a node cannot be the empty
        # tree.  Emptiness is expressed by the parent's succ_α(¬⟨α⟩⊤) clause.
        return sx.FALSE
    constraint = _attribute_constraint(attribute_constraints, alternative.label)
    return sx.big_and(
        (
            sx.prop(alternative.label),
            constraint,
            _successor(grammar, 1, alternative.first, names.get(alternative.first, alternative.first)),
            _successor(grammar, 2, alternative.next, names.get(alternative.next, alternative.next)),
        )
    )


def compile_grammar(
    grammar: BinaryTypeGrammar,
    constrain_siblings: bool = True,
    attribute_constraints: Mapping[str, sx.Formula] | None = None,
) -> sx.Formula:
    """Translate a binary type grammar into a closed Lµ formula.

    The resulting formula holds at a node exactly when the subtree rooted
    there (together with its following siblings, per the binary encoding)
    belongs to the start variable's language.

    With ``constrain_siblings=False`` the siblings of the node itself are left
    unconstrained (only its content is checked).  This corresponds to the
    paper's remark that a type compared against the *result* of an XPath
    expression should not fix where the root of the type is: selected nodes
    usually sit deep inside a document and do have following siblings.

    ``attribute_constraints`` optionally maps element labels to a formula
    conjoined at every node carrying that label (used by :func:`compile_dtd`
    for required/forbidden-attribute constraints).
    """
    reachable = grammar.reachable_variables()
    names = {
        variable: _variable_formula_name(grammar.name, variable)
        for variable in grammar.variables
    }

    definitions: list[tuple[str, sx.Formula]] = []
    for variable in grammar.variables:
        if variable not in reachable:
            continue
        if grammar.is_epsilon_only(variable) or grammar.is_empty(variable):
            # Never referenced through ⟨α⟩X (succ_α short-circuits them).
            continue
        body = sx.big_or(
            _alternative_formula(grammar, alternative, names, attribute_constraints)
            for alternative in grammar.alternatives(variable)
        )
        definitions.append((names[variable], body))

    def start_alternative(alternative: Alternative) -> sx.Formula:
        if constrain_siblings or not isinstance(alternative, LabelAlternative):
            return _alternative_formula(grammar, alternative, names, attribute_constraints)
        constraint = _attribute_constraint(attribute_constraints, alternative.label)
        return sx.big_and(
            (
                sx.prop(alternative.label),
                constraint,
                _successor(grammar, 1, alternative.first, names.get(alternative.first, alternative.first)),
            )
        )

    start_formula = sx.big_or(
        start_alternative(alternative)
        for alternative in grammar.alternatives(grammar.start)
    )
    if not definitions:
        return start_formula
    return sx.mu(tuple(definitions), start_formula)


def attribute_constraints(
    dtd: DTD, attributes: Iterable[str]
) -> dict[str, sx.Formula]:
    """Per-element attribute constraints projected onto ``attributes``.

    ``attributes`` is the finite attribute alphabet the surrounding problem
    observes (usually the names mentioned by its XPath expressions); it may
    contain :data:`~repro.logic.closure.OTHER_ATTRIBUTE` to account for the
    wildcard ``@*``.  See the module docstring for the projection rules.
    """
    alphabet = tuple(dict.fromkeys(attributes))
    named = [name for name in alphabet if name != OTHER_ATTRIBUTE]
    track_other = OTHER_ATTRIBUTE in alphabet
    constraints: dict[str, sx.Formula] = {}
    if not alphabet:
        return constraints
    # Referenced-but-undeclared elements are valid (empty) document nodes,
    # yet declare no attributes at all — they need the ¬@a constraints too,
    # or witnesses could decorate them with attributes no valid document
    # carries (membership.dtd_attribute_violations rejects exactly that).
    declared_names = dtd.element_names()
    referenced = set()
    for declaration in dtd.elements.values():
        referenced |= content_symbols(declaration.content)
    elements = tuple(declared_names) + tuple(
        sorted(referenced - set(declared_names))
    )
    for element in elements:
        declared = {decl.name for decl in dtd.attributes_of(element)}
        required = set(dtd.required_attributes(element))
        parts: list[sx.Formula] = []
        for name in named:
            if name in required:
                parts.append(sx.attr(name))
            elif name not in declared:
                parts.append(sx.nattr(name))
        if track_other:
            if required - set(named):
                # A required attribute without a bit of its own is always
                # present, so the "other attribute" bit must be on.
                parts.append(sx.attr(OTHER_ATTRIBUTE))
            elif declared <= set(named):
                # Every attribute the element may legally carry already has a
                # bit of its own, so the "other attribute" bit must stay off.
                parts.append(sx.nattr(OTHER_ATTRIBUTE))
        formula = sx.big_and(parts)
        if formula is not sx.TRUE:
            constraints[element] = formula
    return constraints


def compile_dtd(
    dtd: DTD,
    root: str | None = None,
    constrain_siblings: bool = True,
    attributes: Iterable[str] | None = None,
    labels: Iterable[str] | None = None,
) -> sx.Formula:
    """Translate a DTD (with designated root element) into a closed Lµ formula.

    ``attributes`` is the attribute alphabet to project the DTD's ATTLIST
    declarations onto (``None`` or empty: attributes are unconstrained, the
    attribute-free behaviour of the paper).

    ``labels`` is the element alphabet of the surrounding problem: when
    given, element names outside it collapse onto the "any other label"
    proposition before translation (:func:`project_grammar`), shrinking the
    Lean proportionally.  Elements with a non-trivial attribute constraint
    under the ``attributes`` alphabet are never collapsed — the problem can
    still distinguish them through their attributes.

    The binarized grammar is a pure function of the DTD and its root, so it
    is built and indexed on the first call and kept on the DTD for every
    later one.
    """
    root_element = root if root is not None else dtd.root
    index = dtd._grammars.get(root_element)
    if index is None:
        # Binarized once per DTD and root; projections below never mutate it.
        index = dtd._grammars[root_element] = GrammarIndex(
            binarize_dtd(dtd, root=root)
        )
    constraints = (
        attribute_constraints(dtd, attributes) if attributes is not None else None
    )
    grammar = index.grammar
    if labels is not None:
        # project_grammar over the kept index.
        grammar = index.project(set(labels) | set(constraints or ()), OTHER_LABEL)
    return compile_grammar(
        grammar,
        constrain_siblings=constrain_siblings,
        attribute_constraints=constraints or None,
    )
