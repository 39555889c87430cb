"""Conversion of a DTD (unranked regular tree grammar) to binary tree types.

This reproduces the step from Figure 12 to Figure 13 of the paper: the
children content model of every element is compiled, with a continuation
variable describing the remaining siblings, into binary type variables whose
alternatives are either ``ε`` or ``σ(first-child-type, next-sibling-type)``.

The construction hash-conses alternative sets, so equivalent continuations
share one variable; the resulting variable counts are in the same range as the
ones reported in Table 1 of the paper.

Nullable constructs (``ε``, ``?``, ``*``) *inline* their continuation's
alternatives.  While a recursive variable is still being defined — the loop
variable of an enclosing ``*``/``+``, or an element's content variable — its
alternatives are not known yet, so inlining would silently read an empty
placeholder and drop every exit of the loop (historically, ``(b*)*`` compiled
to a chain that could never terminate; found by differential fuzzing).  Such
reads now produce a :class:`_Ref` marker instead, and a final resolution pass
expands the markers transitively once every definition is complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xmltypes import content as cm
from repro.xmltypes.ast import (
    Alternative,
    BinaryTypeGrammar,
    EPSILON,
    LabelAlternative,
)
from repro.xmltypes.dtd import DTD


@dataclass(frozen=True)
class _Ref:
    """Build-time marker: "include the (final) alternatives of ``variable``".

    Only exists between construction and :func:`_resolve_refs`; resolved
    grammars never contain one.
    """

    variable: str


class _Builder:
    def __init__(self, dtd: DTD):
        self.dtd = dtd
        self.grammar = BinaryTypeGrammar(name=dtd.name)
        self.grammar.variables[BinaryTypeGrammar.EPSILON_VARIABLE] = (EPSILON,)
        # One "content" variable per element, describing its children forest.
        self.content_variable: dict[str, str] = {}
        self.counter = 0
        # Variables whose definition is in progress: their alternatives must
        # not be inlined (they would read as empty), see _Ref.
        self.pending: set[str] = set()
        # Hash-consing of alternative sets.
        self.by_alternatives: dict[tuple[Alternative, ...], str] = {
            (EPSILON,): BinaryTypeGrammar.EPSILON_VARIABLE
        }

    def continuation_alternatives(self, continuation: str) -> tuple[Alternative, ...]:
        """The alternatives of a continuation variable, safe to inline.

        While the continuation is still being defined, a reference marker is
        returned instead of its (incomplete) alternatives; the marker is
        expanded by :func:`_resolve_refs` once building is finished.
        """
        if continuation in self.pending:
            return (_Ref(continuation),)
        return self.grammar.alternatives(continuation)

    def fresh(self, hint: str) -> str:
        self.counter += 1
        return f"{hint}_{self.counter}"

    def define(self, alternatives: tuple[Alternative, ...], hint: str) -> str:
        """Return a variable with exactly these alternatives (hash-consed)."""
        key = tuple(alternatives)
        existing = self.by_alternatives.get(key)
        if existing is not None:
            return existing
        name = self.fresh(hint)
        self.grammar.variables[name] = key
        self.by_alternatives[key] = name
        return name

    def content_of(self, element: str) -> str:
        """Variable describing the children forest of ``element``."""
        existing = self.content_variable.get(element)
        if existing is not None:
            return existing
        # Reserve the name first: recursive elements reference themselves.
        name = f"C_{element}"
        self.content_variable[element] = name
        self.grammar.variables[name] = ()
        self.pending.add(name)
        if element in self.dtd.elements:
            model = self.dtd.content_of(element)
        else:
            # Referenced but undeclared elements are treated as empty, which
            # is what XML validators do modulo a warning.
            model = cm.CEmpty()
        alternatives = self.alternatives_of(
            model, BinaryTypeGrammar.EPSILON_VARIABLE, hint=element
        )
        self.grammar.variables[name] = alternatives
        self.pending.discard(name)
        return name

    def alternatives_of(
        self, model: cm.ContentModel, continuation: str, hint: str
    ) -> tuple[Alternative, ...]:
        """Alternatives of the type "a forest matching ``model`` followed by a
        forest of type ``continuation``"."""
        if isinstance(model, cm.CEmpty):
            return self.continuation_alternatives(continuation)
        if isinstance(model, cm.CSymbol):
            child_content = self.content_of(model.name)
            return (LabelAlternative(model.name, child_content, continuation),)
        if isinstance(model, cm.CSeq):
            rest = self.variable_of(model.right, continuation, hint)
            return self.alternatives_of(model.left, rest, hint)
        if isinstance(model, cm.CChoice):
            left = self.alternatives_of(model.left, continuation, hint)
            right = self.alternatives_of(model.right, continuation, hint)
            return _merge(left, right)
        if isinstance(model, cm.COptional):
            inner = self.alternatives_of(model.inner, continuation, hint)
            return _merge(inner, self.continuation_alternatives(continuation))
        if isinstance(model, cm.CStar):
            return self._star_alternatives(model.inner, continuation, hint)
        if isinstance(model, cm.CPlus):
            loop = self._star_variable(model.inner, continuation, hint)
            return self.alternatives_of(model.inner, loop, hint)
        raise AssertionError(f"unknown content model {model!r}")

    def variable_of(self, model: cm.ContentModel, continuation: str, hint: str) -> str:
        """A variable for ``model`` followed by ``continuation``."""
        alternatives = self.alternatives_of(model, continuation, hint)
        return self.define(alternatives, hint)

    def _star_variable(self, inner: cm.ContentModel, continuation: str, hint: str) -> str:
        """A variable ``X`` with ``X = inner · X  |  continuation``."""
        name = self.fresh(hint)
        self.grammar.variables[name] = ()
        self.pending.add(name)
        looped = self.alternatives_of(inner, name, hint)
        alternatives = _merge(looped, self.continuation_alternatives(continuation))
        self.grammar.variables[name] = alternatives
        self.pending.discard(name)
        # Register for hash-consing only after the definition is complete; a
        # recursive definition cannot be shared by key before it is known.
        self.by_alternatives.setdefault(alternatives, name)
        return name

    def _star_alternatives(
        self, inner: cm.ContentModel, continuation: str, hint: str
    ) -> tuple[Alternative, ...]:
        return self.grammar.alternatives(self._star_variable(inner, continuation, hint))


def _merge(
    left: tuple[Alternative, ...], right: tuple[Alternative, ...]
) -> tuple[Alternative, ...]:
    # Both sides are duplicate-free, so an insertion-ordered dict keeps the
    # list-membership order ("left, then what right adds") in linear time.
    return tuple(dict.fromkeys(left + right))


def _resolve_refs(grammar: BinaryTypeGrammar) -> None:
    """Expand every :class:`_Ref` marker into the referenced alternatives.

    Reference chains (and cycles through a loop variable referencing itself)
    are followed transitively; the original alternative order is preserved
    and duplicates are dropped.  Variables without markers — every grammar
    the old inlining handled correctly — come out untouched.
    """
    resolved: dict[str, tuple[Alternative, ...]] = {}

    def resolve(name: str) -> tuple[Alternative, ...]:
        done = resolved.get(name)
        if done is not None:
            return done
        raw = grammar.variables[name]
        if not any(isinstance(alternative, _Ref) for alternative in raw):
            resolved[name] = raw
            return raw
        # Insertion-ordered: re-adding a key keeps its first position.
        out: dict[Alternative, None] = {}
        visited: set[str] = set()

        def expand(variable: str) -> None:
            if variable in visited:
                return
            visited.add(variable)
            for alternative in resolved.get(variable, grammar.variables[variable]):
                if isinstance(alternative, _Ref):
                    expand(alternative.variable)
                else:
                    out[alternative] = None

        expand(name)
        result = tuple(out)
        resolved[name] = result
        return result

    for name in list(grammar.variables):
        grammar.variables[name] = resolve(name)


def binarize_dtd(dtd: DTD, root: str | None = None) -> BinaryTypeGrammar:
    """Convert a DTD to a binary regular tree type grammar.

    The start variable describes a forest made of exactly one ``root`` element
    (the document element) and nothing else, matching the encoding of
    Figure 13 where ``$article -> article($1, $Epsilon)``.
    """
    builder = _Builder(dtd)
    root_element = root if root is not None else dtd.root
    if root_element is None or root_element not in dtd.elements:
        raise ValueError(f"unknown root element {root_element!r}")
    root_content = builder.content_of(root_element)
    start_alternatives: tuple[Alternative, ...] = (
        LabelAlternative(root_element, root_content, BinaryTypeGrammar.EPSILON_VARIABLE),
    )
    start_name = f"Doc_{root_element}"
    builder.grammar.variables[start_name] = start_alternatives
    builder.grammar.start = start_name
    builder.grammar.name = dtd.name
    _resolve_refs(builder.grammar)
    return builder.grammar
