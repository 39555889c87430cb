"""Hash-consed abstract syntax of the logic Lµ (Figure 1).

Formulas are::

    ϕ, ψ ::= ⊤ | ⊥                    truth / falsity
           | σ | ¬σ                   atomic proposition (possibly negated)
           | @l | ¬@l                 attribute proposition (possibly negated)
           | s | ¬s                   start proposition (possibly negated)
           | X                        recursion variable
           | ϕ ∨ ψ | ϕ ∧ ψ            disjunction / conjunction
           | ⟨a⟩ϕ | ¬⟨a⟩⊤             existential modality (possibly negated)
           | µ(Xᵢ = ϕᵢ) in ψ          least n-ary fixpoint
           | ν(Xᵢ = ϕᵢ) in ψ          greatest n-ary fixpoint

Programs ``a`` range over ``1, 2, -1, -2`` (first child, next sibling and the
converse modalities written 1̄, 2̄ in the paper).

The paper encodes falsity as ``σ ∧ ¬σ``; an explicit ``⊥`` node is provided
here for convenience and is treated exactly like that encoding by every
algorithm (its truth status is constantly false).

Attribute propositions ``@l`` follow the attribute extension of the companion
thesis ("Logics for XML"): ``@l`` holds at a focused tree whose focus node
carries attribute ``l``.  Unlike element labels, any number of attribute
propositions may hold at a node simultaneously.  The special label ``*``
(:data:`ANY_ATTRIBUTE`) stands for "some attribute, whatever its name".

Every construction goes through the module-level intern table, so formulas are
immutable, structurally shared, and can be compared and hashed by identity.
The smart constructors :func:`mk_or` and :func:`mk_and` perform the obvious
boolean simplifications; this keeps translated formulas small without changing
their meaning.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator

from repro.trees.focus import MODALITIES

# Formula kinds -------------------------------------------------------------

KIND_TRUE = "true"
KIND_FALSE = "false"
KIND_PROP = "prop"        # σ
KIND_NPROP = "nprop"      # ¬σ
KIND_ATTR = "attr"        # @l
KIND_NATTR = "nattr"      # ¬@l
KIND_START = "start"      # s
KIND_NSTART = "nstart"    # ¬s
KIND_VAR = "var"          # X
KIND_OR = "or"
KIND_AND = "and"
KIND_DIA = "dia"          # ⟨a⟩ϕ
KIND_NDIA = "ndia"        # ¬⟨a⟩⊤
KIND_MU = "mu"
KIND_NU = "nu"

_FIXPOINT_KINDS = (KIND_MU, KIND_NU)

#: The free-variable set shared by every closed formula.
_NO_FREE: frozenset[str] = frozenset()


class Formula:
    """A hash-consed Lµ formula node.

    Do not instantiate directly; use the module-level constructors
    (:func:`prop`, :func:`dia`, :func:`mu`, ...).  Two structurally equal
    formulas are always the *same* object, so ``==`` and ``is`` coincide.
    """

    __slots__ = (
        "kind", "label", "prog", "left", "right", "defs", "body", "_hash",
        "free", "expansion",
    )

    def __init__(
        self,
        hash_value: int,
        kind: str,
        label: str | None = None,
        prog: int | None = None,
        left: "Formula | None" = None,
        right: "Formula | None" = None,
        defs: tuple[tuple[str, "Formula"], ...] | None = None,
        body: "Formula | None" = None,
    ):
        self.kind = kind
        self.label = label
        self.prog = prog
        self.left = left
        self.right = right
        self.defs = defs
        self.body = body
        self._hash = hash_value
        # Pure per-node facts, computed from the children once per interned
        # node and so living exactly as long as the intern table.
        if kind == KIND_VAR:
            self.free = frozenset((label,))
        elif defs is not None:
            free = body.free.union(*(definition.free for _name, definition in defs))
            self.free = free.difference(name for name, _ in defs) or _NO_FREE
        elif right is not None and left.free and right.free:
            self.free = left.free | right.free
        elif right is not None:
            self.free = left.free or right.free  # share the one non-empty set
        else:
            self.free = _NO_FREE if left is None else left.free
        #: ``exp(ϕ)`` of a fixpoint node, filled in by :func:`expand_fixpoint`.
        self.expansion: Formula | None = None

    def __hash__(self) -> int:
        return self._hash

    # Hash-consing makes structural equality coincide with identity.
    def __eq__(self, other: object) -> bool:
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other

    def __repr__(self) -> str:
        from repro.logic.printer import format_formula

        return format_formula(self)

    # -- convenient predicates ------------------------------------------------

    @property
    def is_fixpoint(self) -> bool:
        """True for µ and ν nodes."""
        return self.kind in _FIXPOINT_KINDS

    @property
    def is_atom(self) -> bool:
        """True for leaves: ⊤, ⊥, σ, ¬σ, @l, ¬@l, s, ¬s, X and ¬⟨a⟩⊤."""
        return self.kind in (
            KIND_TRUE,
            KIND_FALSE,
            KIND_PROP,
            KIND_NPROP,
            KIND_ATTR,
            KIND_NATTR,
            KIND_START,
            KIND_NSTART,
            KIND_VAR,
            KIND_NDIA,
        )

    # -- operator sugar (used pervasively by the translations) ----------------

    def __or__(self, other: "Formula") -> "Formula":
        return mk_or(self, other)

    def __and__(self, other: "Formula") -> "Formula":
        return mk_and(self, other)


# ---------------------------------------------------------------------------
# Intern table and constructors
# ---------------------------------------------------------------------------

_INTERN: dict[tuple, Formula] = {}


def _intern(
    kind: str,
    label: str | None = None,
    prog: int | None = None,
    left: Formula | None = None,
    right: Formula | None = None,
    defs: tuple[tuple[str, Formula], ...] | None = None,
    body: Formula | None = None,
) -> Formula:
    key = (
        kind,
        label,
        prog,
        id(left),
        id(right),
        None if defs is None else tuple((name, id(f)) for name, f in defs),
        id(body),
    )
    found = _INTERN.get(key)
    if found is None:
        found = Formula(hash(key), kind, label, prog, left, right, defs, body)
        _INTERN[key] = found
    return found


#: The constant true formula ⊤.
TRUE = _intern(KIND_TRUE)
#: The constant false formula (the paper writes it σ ∧ ¬σ).
FALSE = _intern(KIND_FALSE)
#: The start proposition ``s`` (the focus carries the start mark).
START = _intern(KIND_START)
#: The negated start proposition ``¬s``.
NSTART = _intern(KIND_NSTART)


def prop(label: str) -> Formula:
    """Atomic proposition σ: the node in focus is labelled ``label``."""
    return _intern(KIND_PROP, label=label)


def nprop(label: str) -> Formula:
    """Negated atomic proposition ¬σ."""
    return _intern(KIND_NPROP, label=label)


#: The wildcard attribute label: ``attr(ANY_ATTRIBUTE)`` holds at nodes that
#: carry at least one attribute, whatever its name.
ANY_ATTRIBUTE = "*"


def attr(label: str) -> Formula:
    """Attribute proposition @l: the node in focus carries attribute ``label``.

    ``attr(ANY_ATTRIBUTE)`` (i.e. ``attr("*")``) holds when the node carries
    *some* attribute.
    """
    return _intern(KIND_ATTR, label=label)


def nattr(label: str) -> Formula:
    """Negated attribute proposition ¬@l (for ``*``: the node has no attribute)."""
    return _intern(KIND_NATTR, label=label)


def var(name: str) -> Formula:
    """Recursion variable X."""
    return _intern(KIND_VAR, label=name)


def mk_or(left: Formula, right: Formula) -> Formula:
    """Disjunction with the obvious simplifications."""
    if left is TRUE or right is TRUE:
        return TRUE
    if left is FALSE:
        return right
    if right is FALSE:
        return left
    if left is right:
        return left
    return _intern(KIND_OR, left=left, right=right)


def mk_and(left: Formula, right: Formula) -> Formula:
    """Conjunction with the obvious simplifications."""
    if left is FALSE or right is FALSE:
        return FALSE
    if left is TRUE:
        return right
    if right is TRUE:
        return left
    if left is right:
        return left
    return _intern(KIND_AND, left=left, right=right)


def big_or(formulas: Iterable[Formula]) -> Formula:
    """Disjunction of a (possibly empty) collection; empty gives ⊥."""
    result = FALSE
    for formula in formulas:
        result = mk_or(result, formula)
    return result


def big_and(formulas: Iterable[Formula]) -> Formula:
    """Conjunction of a (possibly empty) collection; empty gives ⊤."""
    result = TRUE
    for formula in formulas:
        result = mk_and(result, formula)
    return result


def dia(program: int, sub: Formula) -> Formula:
    """Existential modality ⟨a⟩ϕ (``a`` one of 1, 2, -1, -2)."""
    if program not in MODALITIES:
        raise ValueError(f"not a program: {program!r}")
    if sub is FALSE:
        return FALSE
    return _intern(KIND_DIA, prog=program, left=sub)


def no_dia(program: int) -> Formula:
    """The negated modality ¬⟨a⟩⊤ ("there is no a-successor")."""
    if program not in MODALITIES:
        raise ValueError(f"not a program: {program!r}")
    return _intern(KIND_NDIA, prog=program)


def _make_fixpoint(kind: str, defs, body: Formula) -> Formula:
    defs = tuple((str(name), formula) for name, formula in defs)
    if not defs:
        raise ValueError("a fixpoint needs at least one definition")
    names = [name for name, _ in defs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate fixpoint variables: {names}")
    return _intern(kind, defs=defs, body=body)


def mu(defs: Iterable[tuple[str, Formula]], body: Formula) -> Formula:
    """Least n-ary fixpoint ``µ(Xᵢ = ϕᵢ) in ψ``."""
    return _make_fixpoint(KIND_MU, defs, body)


def nu(defs: Iterable[tuple[str, Formula]], body: Formula) -> Formula:
    """Greatest n-ary fixpoint ``ν(Xᵢ = ϕᵢ) in ψ``."""
    return _make_fixpoint(KIND_NU, defs, body)


_FRESH_COUNTER = itertools.count(1)


def fresh_var_name(prefix: str = "X") -> str:
    """Return a globally fresh recursion-variable name."""
    return f"{prefix}{next(_FRESH_COUNTER)}"


def mu1(build: Callable[[Formula], Formula], prefix: str = "X") -> Formula:
    """Unary least fixpoint ``µX.ϕ(X)`` with a fresh variable.

    ``build`` receives the variable (as a formula) and returns the definition.
    Following the paper, ``µX.ϕ`` abbreviates ``µX = ϕ in ϕ``.
    """
    name = fresh_var_name(prefix)
    definition = build(var(name))
    return mu(((name, definition),), definition)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def iter_children(formula: Formula) -> Iterator[Formula]:
    """Yield the immediate syntactic children of a formula."""
    if formula.kind in (KIND_OR, KIND_AND):
        yield formula.left
        yield formula.right
    elif formula.kind == KIND_DIA:
        yield formula.left
    elif formula.is_fixpoint:
        for _name, definition in formula.defs:
            yield definition
        yield formula.body


def iter_subformulas(formula: Formula) -> Iterator[Formula]:
    """Yield every distinct subformula (including ``formula``), depth first."""
    seen: set[int] = set()
    stack = [formula]
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        yield current
        stack.extend(iter_children(current))


def formula_size(formula: Formula) -> int:
    """Size of the formula as a syntax tree (shared subterms counted once).

    This is the measure used by Proposition 5.1(3): the translations of XPath
    expressions and regular tree types are linear in this size.
    """
    return sum(1 for _ in iter_subformulas(formula))


def atomic_propositions(formula: Formula) -> set[str]:
    """The set of atomic propositions σ occurring in the formula."""
    return {
        sub.label
        for sub in iter_subformulas(formula)
        if sub.kind in (KIND_PROP, KIND_NPROP)
    }


def attribute_propositions(formula: Formula) -> set[str]:
    """The set of *named* attribute propositions @l occurring in the formula.

    The wildcard :data:`ANY_ATTRIBUTE` is not a name and is excluded; use
    :func:`uses_attributes` to detect it.
    """
    return {
        sub.label
        for sub in iter_subformulas(formula)
        if sub.kind in (KIND_ATTR, KIND_NATTR) and sub.label != ANY_ATTRIBUTE
    }


def uses_attributes(formula: Formula) -> bool:
    """Whether any attribute proposition (named or wildcard) occurs."""
    return any(
        sub.kind in (KIND_ATTR, KIND_NATTR) for sub in iter_subformulas(formula)
    )


def free_variables(formula: Formula) -> frozenset[str]:
    """The free recursion variables of a formula (stored on the node)."""
    return formula.free


def substitute(formula: Formula, mapping: dict[str, Formula]) -> Formula:
    """Capture-avoiding substitution of recursion variables.

    Fixpoint binders shadow outer variables of the same name: substitution
    does not descend for names re-bound by the fixpoint, nor into subtrees
    in which no mapped name is free.  The formulas built
    by the XPath and type translations always use globally fresh variable
    names, so capture can only arise through deliberately crafted inputs; in
    that case the substitution raises ``ValueError`` rather than silently
    capturing.
    """
    active_names = formula.free.intersection(mapping)
    if not active_names:
        return formula
    cache: dict[tuple[int, frozenset[str]], Formula] = {}

    def go(current: Formula, active: frozenset[str]) -> Formula:
        if active.isdisjoint(current.free):
            return current
        key = (id(current), active)
        cached = cache.get(key)
        if cached is not None:
            return cached
        if current.kind == KIND_VAR:
            result = mapping[current.label]
        elif current.is_fixpoint:
            bound = frozenset(name for name, _ in current.defs)
            remaining = active - bound
            for name in bound:
                for active_name in remaining:
                    if name in mapping[active_name].free:
                        raise ValueError(
                            f"substitution would capture variable {name!r}; "
                            "rename bound variables first"
                        )
            new_defs = tuple(
                (name, go(definition, remaining)) for name, definition in current.defs
            )
            new_body = go(current.body, remaining)
            result = _intern(current.kind, defs=new_defs, body=new_body)
        elif current.kind in (KIND_OR, KIND_AND):
            result = _intern(
                current.kind,
                left=go(current.left, active),
                right=go(current.right, active),
            )
        else:  # KIND_DIA: the only other kind with a free variable below it
            result = _intern(KIND_DIA, prog=current.prog, left=go(current.left, active))
        cache[key] = result
        return result

    return go(formula, active_names)


def expand_fixpoint(formula: Formula) -> Formula:
    """The expansion ``exp(ϕ)`` of Section 6.1.

    For ``ϕ = µ(Xᵢ = ϕᵢ) in ψ`` (or ν), returns ``ψ`` with every occurrence of
    an ``Xᵢ`` replaced by the closed fixpoint formula defining ``Xᵢ``.

    The paper writes the replacement as ``µ(Xᵢ = ϕᵢ) in Xᵢ``; we use the
    equivalent ``µ(Xᵢ = ϕᵢ) in ϕᵢ`` (the interpretation of both is the i-th
    component of the fixpoint).  The latter makes the expansion well-founded
    for guarded formulas: repeatedly expanding always ends up below a modality
    — which is what the truth-assignment relation of Figure 15 and the
    Fisher–Ladner closure rely on.

    The expansion is computed once per fixpoint node and stored on it.
    """
    if not formula.is_fixpoint:
        raise ValueError("expand_fixpoint expects a fixpoint formula")
    if formula.expansion is None:
        mapping = {
            name: _intern(formula.kind, defs=formula.defs, body=definition)
            for name, definition in formula.defs
        }
        formula.expansion = substitute(formula.body, mapping)
    return formula.expansion


def rename_bound_variables(formula: Formula, prefix: str = "R") -> Formula:
    """Alpha-rename every bound variable to a globally fresh name.

    Used before analyses that require distinct binder names (for instance the
    cycle-freeness graph construction).
    """

    def go(current: Formula, env: dict[str, str]) -> Formula:
        if current.kind == KIND_VAR:
            new_name = env.get(current.label)
            return var(new_name) if new_name is not None else current
        if current.is_fixpoint:
            new_env = dict(env)
            fresh_names = {}
            for name, _definition in current.defs:
                fresh = fresh_var_name(prefix)
                fresh_names[name] = fresh
                new_env[name] = fresh
            new_defs = tuple(
                (fresh_names[name], go(definition, new_env))
                for name, definition in current.defs
            )
            return _intern(current.kind, defs=new_defs, body=go(current.body, new_env))
        if current.kind in (KIND_OR, KIND_AND):
            return _intern(
                current.kind, left=go(current.left, env), right=go(current.right, env)
            )
        if current.kind == KIND_DIA:
            return _intern(KIND_DIA, prog=current.prog, left=go(current.left, env))
        return current

    return go(formula, {})
