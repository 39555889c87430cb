"""Binary regular tree type expressions (Section 5.2).

The paper's binary tree type expressions are::

    T ::= ∅ | ε | T₁ ∪ T₂ | σ(X₁, X₂) | let Xᵢ.Tᵢ in T

A whole ``let`` is represented here as a *grammar*: a mapping from type
variables to their sets of alternatives, where each alternative is either the
leaf ``ε`` or a labelled pair ``σ(X₁, X₂)`` (label, type of the first child,
type of the next sibling), plus a designated start variable.  This matches the
textual presentation of Figure 13::

    $5 -> edit($6, $Epsilon) | edit($6, $5)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union


@dataclass(frozen=True)
class Epsilon:
    """The alternative ε: the empty tree (end of a sibling chain)."""

    def __str__(self) -> str:
        return "EPSILON"


#: The unique ε alternative.
EPSILON = Epsilon()


@dataclass(frozen=True)
class LabelAlternative:
    """The alternative ``σ(X₁, X₂)``: a node labelled ``label`` whose children
    forest has type ``first`` and whose remaining siblings have type ``next``."""

    label: str
    first: str
    next: str

    def __str__(self) -> str:
        return f"{self.label}(${self.first}, ${self.next})"


Alternative = Union[Epsilon, LabelAlternative]


@dataclass
class BinaryTypeGrammar:
    """A binary regular tree type: variables, alternatives and a start variable."""

    variables: dict[str, tuple[Alternative, ...]] = field(default_factory=dict)
    start: str = "Start"
    name: str = "type"

    #: Conventional name of the variable denoting the empty tree.
    EPSILON_VARIABLE = "Epsilon"

    def alternatives(self, variable: str) -> tuple[Alternative, ...]:
        if variable == self.EPSILON_VARIABLE and variable not in self.variables:
            return (EPSILON,)
        return self.variables[variable]

    def is_nullable(self, variable: str) -> bool:
        """Whether the variable's language contains the empty tree."""
        return any(isinstance(alt, Epsilon) for alt in self.alternatives(variable))

    def is_epsilon_only(self, variable: str) -> bool:
        """Whether the variable is bound to exactly ε."""
        alternatives = self.alternatives(variable)
        return len(alternatives) == 1 and isinstance(alternatives[0], Epsilon)

    def is_empty(self, variable: str) -> bool:
        """Whether the variable denotes the empty language ∅."""
        return len(self.alternatives(variable)) == 0

    def variable_count(self) -> int:
        """Number of type variables (the second column of Table 1)."""
        return len(self.variables)

    def labels(self) -> set[str]:
        """Element labels mentioned by the grammar."""
        return {
            alternative.label
            for alternatives in self.variables.values()
            for alternative in alternatives
            if isinstance(alternative, LabelAlternative)
        }

    def reachable_variables(self, roots: Iterable[str] | None = None) -> set[str]:
        """Variables reachable from the start (or from the given roots)."""
        frontier = list(roots) if roots is not None else [self.start]
        seen: set[str] = set()
        while frontier:
            current = frontier.pop()
            if current in seen or current == self.EPSILON_VARIABLE:
                continue
            seen.add(current)
            for alternative in self.alternatives(current):
                if isinstance(alternative, LabelAlternative):
                    frontier.append(alternative.first)
                    frontier.append(alternative.next)
        return seen

    def restricted_to_reachable(self) -> "BinaryTypeGrammar":
        """A copy keeping only the variables reachable from the start."""
        keep = self.reachable_variables()
        return BinaryTypeGrammar(
            variables={name: alts for name, alts in self.variables.items() if name in keep},
            start=self.start,
            name=self.name,
        )

    def describe(self) -> str:
        """Textual rendering in the style of Figure 13."""
        lines = []
        for variable, alternatives in self.variables.items():
            rendered = " | ".join(str(alt) for alt in alternatives) or "EMPTY"
            lines.append(f"${variable} -> {rendered}")
        lines.append(f"Start Symbol is ${self.start}")
        lines.append(f"{len(self.variables)} type variables.")
        lines.append(f"{len(self.labels())} terminals.")
        return "\n".join(lines)


class GrammarIndex:
    """A grammar in integer form, for projecting it onto label alphabets.

    Variables are numbered in declaration order and labels in order of first
    use; an alternative becomes ``(label, first, next)`` over those numbers
    (``None`` for ε), where a reference to an undeclared variable — the
    implicit ``Epsilon`` included — becomes the extra number ``n``.  The
    index is built once per grammar (``compile_dtd`` keeps one per DTD and
    root) and serves every alphabet, so the grammar must not change
    afterwards.
    """

    def __init__(self, grammar: BinaryTypeGrammar):
        self.grammar = grammar
        self.variables = tuple(grammar.variables)
        self.sources = tuple(grammar.variables.values())
        self.number = number = {
            variable: position for position, variable in enumerate(self.variables)
        }
        undeclared = len(self.variables)
        label_ids: dict[str, int] = {}
        self.alternatives = tuple(
            tuple(
                None
                if not isinstance(alternative, LabelAlternative)
                else (
                    label_ids.setdefault(alternative.label, len(label_ids)),
                    number.get(alternative.first, undeclared),
                    number.get(alternative.next, undeclared),
                )
                for alternative in alternatives
            )
            for alternatives in self.sources
        )
        self.labels = tuple(label_ids)
        #: Position of a declared ``Epsilon`` (it starts in a class of its own).
        self.epsilon = number.get(BinaryTypeGrammar.EPSILON_VARIABLE)

    def project(self, keep: set[str], other_label: str) -> BinaryTypeGrammar:
        """The grammar with labels outside ``keep`` renamed ``other_label``,
        quotiented by language equivalence of its variables.

        The relabelling is a *label homomorphism*: the grammar's variables,
        alternatives and recursion structure are untouched, only node labels
        collapse, so the language is exactly the homomorphic image of the
        original one.  It is the projection step of cone-of-influence Lean
        pruning: element names a problem's expressions never test are
        indistinguishable to the problem, and collapsing them onto the
        logic's "any other label" proposition removes one Lean bit per name.
        When ``keep`` covers every label the grammar itself is returned.

        The quotient merges two variables when their alternative sets
        coincide once every referenced variable is replaced by its class —
        the coarsest congruence, computed by the classic refine-until-stable
        loop over integer signatures.  The declared ``Epsilon`` starts in a
        class of its own and every undeclared reference stays in class -1.
        Each class is named after its first variable in declaration order
        (so the start variable's class keeps a stable name), and keeps that
        variable's alternatives in order, without repeats.  When no two
        variables merge, the relabelled grammar comes back as it is.
        """
        grammar = self.grammar
        if keep.issuperset(self.labels):
            return grammar
        labels = [label if label in keep else other_label for label in self.labels]
        count = len(self.variables)
        # A class is held shifted by one (``rank``), so every undeclared
        # reference has rank 0 and a signature part is a non-negative int.
        width = count + 1
        # The label part of a signature: collapsed labels share it.
        label_parts: dict[str, int] = {}
        parts = [
            label_parts.setdefault(label, len(label_parts) * width * width)
            for label in labels
        ]
        # Per variable, its alternatives as (label part, first, next); ε is
        # (-1, n, n), whose part is -1 at any ranks.
        encoded = [
            [
                (-1, count, count)
                if alternative is None
                else (parts[alternative[0]], alternative[1], alternative[2])
                for alternative in alternatives
            ]
            for alternatives in self.alternatives
        ]
        ranks = [1] * count + [0]
        if self.epsilon is not None:
            ranks[self.epsilon] = 0
        while True:
            buckets: dict[tuple[int, frozenset[int]], int] = {}
            next_ranks = [0] * (count + 1)
            for variable, alternatives in enumerate(encoded):
                signature = frozenset(
                    [
                        base + ranks[first] * width + ranks[next_]
                        for base, first, next_ in alternatives
                    ]
                )
                next_ranks[variable] = buckets.setdefault(
                    (ranks[variable], signature), len(buckets) + 1
                )
            stable = len(buckets) == len(set(ranks[:count]))
            ranks = next_ranks
            if stable:
                break

        representative: dict[int, int] = {}
        for variable in range(count):
            representative.setdefault(ranks[variable], variable)
        # When nothing merges, every variable represents itself and the
        # relabelled grammar comes back alternative for alternative.
        merged = len(representative) < count
        names = self.variables

        def rename(number: int, name: str) -> str:
            if not merged or number == count or number == self.epsilon:
                return name
            return names[representative[ranks[number]]]

        variables: dict[str, tuple[Alternative, ...]] = {}
        for variable in representative.values():
            alternatives = [
                source
                if alternative is None
                else LabelAlternative(
                    labels[alternative[0]],
                    rename(alternative[1], source.first),
                    rename(alternative[2], source.next),
                )
                for alternative, source in zip(
                    self.alternatives[variable], self.sources[variable]
                )
            ]
            variables[names[variable]] = tuple(
                dict.fromkeys(alternatives) if merged else alternatives
            )
        start = grammar.start
        return BinaryTypeGrammar(
            variables=variables,
            start=rename(self.number.get(start, count), start),
            name=grammar.name,
        )
