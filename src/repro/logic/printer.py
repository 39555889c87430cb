"""Textual rendering of Lµ formulas, in the style of Figure 14 of the paper.

The concrete syntax (also accepted by :mod:`repro.logic.parser`) is::

    T  F  s  ~s            truth, falsity, start proposition and its negation
    name   ~name           atomic proposition and its negation
    @name  ~@name  @*      attribute propositions (``@*``: some attribute)
    $X                     recursion variable
    <1>phi <2>phi          existential modalities (first child / next sibling)
    <-1>phi <-2>phi        converse modalities (parent / previous sibling)
    ~<1>T ...              negated modalities
    phi & psi   phi | psi  conjunction / disjunction
    let_mu X = phi, Y = psi in body
    let_nu X = phi, Y = psi in body
"""

from __future__ import annotations

from typing import Iterator

from repro.logic import syntax as sx


def _format_program(program: int) -> str:
    return str(program)


def format_formula(formula: sx.Formula) -> str:
    """Render a formula as a single-line string."""
    return "".join(_chunks(formula, 0))


def format_formula_prefix(formula: sx.Formula, limit: int) -> str:
    """``format_formula(formula)[:limit]``, rendering only what it keeps."""
    kept: list[str] = []
    size = 0
    for chunk in _chunks(formula, 0):
        kept.append(chunk)
        size += len(chunk)
        if size >= limit:
            break
    return "".join(kept)[:limit]


# Precedence levels: 1 = | , 2 = & , 3 = prefix (modalities), 4 = atoms.


def _chunks(formula: sx.Formula, parent_precedence: int) -> Iterator[str]:
    """The rendering of ``formula`` as a stream of text chunks, left to right.

    An explicit stack of pending items (a text chunk, or a subformula with the
    precedence of its context) replaces recursion, so a caller that needs
    only a prefix stops early and deep formulas cost no Python frames.
    """
    stack: list[str | tuple[sx.Formula, int]] = [(formula, parent_precedence)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            yield item
            continue
        formula, precedence = item
        kind = formula.kind
        if kind == sx.KIND_TRUE:
            yield "T"
        elif kind == sx.KIND_FALSE:
            yield "F"
        elif kind == sx.KIND_START:
            yield "s"
        elif kind == sx.KIND_NSTART:
            yield "~s"
        elif kind == sx.KIND_PROP:
            yield formula.label
        elif kind == sx.KIND_NPROP:
            yield f"~{formula.label}"
        elif kind == sx.KIND_ATTR:
            yield f"@{formula.label}"
        elif kind == sx.KIND_NATTR:
            yield f"~@{formula.label}"
        elif kind == sx.KIND_VAR:
            yield f"${formula.label}"
        elif kind == sx.KIND_NDIA:
            yield f"~<{_format_program(formula.prog)}>T"
        elif kind == sx.KIND_DIA:
            yield f"<{_format_program(formula.prog)}>"
            stack.append((formula.left, 3))
        elif kind in (sx.KIND_OR, sx.KIND_AND):
            # The parser is left-associative, so a right-nested operand of the
            # same connective must keep its parentheses to round-trip
            # (parse(format(f)) is f — exercised by generator-based tests).
            level, operator = (1, " | ") if kind == sx.KIND_OR else (2, " & ")
            nested = formula.right.kind == kind
            parts: list[str | tuple[sx.Formula, int]] = [
                (formula.left, level),
                operator + ("(" if nested else ""),
                (formula.right, level),
            ]
            if nested:
                parts.append(")")
            if precedence > level:
                parts = ["(", *parts, ")"]
            stack.extend(reversed(parts))
        elif kind in (sx.KIND_MU, sx.KIND_NU):
            keyword = "let_mu" if kind == sx.KIND_MU else "let_nu"
            parts = [keyword + " "]
            for position, (name, definition) in enumerate(formula.defs):
                parts.append(f"{', ' if position else ''}{name} = ")
                parts.append((definition, 0))
            parts += [" in ", (formula.body, 0)]
            if precedence > 0:
                parts = ["(", *parts, ")"]
            stack.extend(reversed(parts))
        else:
            raise AssertionError(f"unknown formula kind {kind!r}")


def format_formula_pretty(formula: sx.Formula, indent: int = 2) -> str:
    """Render a formula with one fixpoint binding per line (for reports)."""
    kind = formula.kind
    if kind in (sx.KIND_MU, sx.KIND_NU):
        keyword = "let_mu" if kind == sx.KIND_MU else "let_nu"
        pad = " " * indent
        bindings = (",\n").join(
            f"{pad}{name} = {format_formula(definition)}" for name, definition in formula.defs
        )
        return f"{keyword}\n{bindings}\nin {format_formula(formula.body)}"
    return format_formula(formula)
