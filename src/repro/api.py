"""Stable batch façade over the static analyzer: ``repro.api``.

This module is the recommended entry point for programs that issue *many*
decision problems — a schema-aware editor validating every XPath expression in
a stylesheet, a query optimiser probing containment between rewrite
candidates, a service answering analysis requests over the same few schemas.
It wraps the problem reductions of :mod:`repro.analysis` behind three layers
of memoisation so that work is shared across an entire workload instead of
being redone per call:

1. **Type-translation cache** — compiling a DTD to its Lµ formula
   (Section 5.2 of the paper) is pure and depends only on the type, so each
   distinct type is translated once per analyzer.
2. **Query-translation cache** — likewise for the XPath-to-Lµ translation
   (Section 5.1), keyed by ``(expression, type)``.
3. **Solve cache** — Lµ formulas are hash-consed (:mod:`repro.logic.syntax`),
   so two problems that reduce to the same logical formula are *the same
   satisfiability question*; the solver runs once per distinct formula and
   every later occurrence is answered from cache.  This is where batch
   workloads win: containment, emptiness and equivalence checks over the same
   schema keep meeting the same sub-translations and often the same formulas.
4. **Persistent solve cache** (opt-in) — constructing the analyzer with
   ``cache_dir=...`` writes every solver verdict through to an on-disk,
   content-addressed store (:mod:`repro.cache`) and consults it on in-memory
   misses, so a *cold process* replaying a workload answered by an earlier
   process performs zero solver runs.

Results are plain data: every :class:`AnalysisOutcome` (and the
:class:`BatchReport` returned by :meth:`StaticAnalyzer.solve_many`) converts
to JSON-compatible dictionaries via ``as_dict()`` / ``to_json()``, including
the solver statistics of :class:`repro.solver.symbolic.SolverStatistics` and a
serialized counterexample document when one exists.

Quickstart::

    from repro.api import Query, StaticAnalyzer

    analyzer = StaticAnalyzer()
    report = analyzer.solve_many([
        Query.containment("child::a[b]", "child::a"),
        Query.satisfiability("descendant::a[ancestor::a]", "xhtml-core"),
        Query.emptiness("child::title/child::meta", "wikipedia"),
    ])
    for outcome in report.outcomes:
        print(outcome.problem, outcome.holds)
    print(report.to_json())

XML types may be given as built-in schema names (``"smil"``, ``"xhtml"``,
``"xhtml-core"``, ``"wikipedia"``), parsed :class:`repro.xmltypes.dtd.DTD`
objects, binary type grammars, raw Lµ formulas, or ``None`` for "any tree".

Expressions may use attribute steps (``@href``, ``attribute::*``); DTD types
then contribute their ``<!ATTLIST>`` constraints, projected onto the
attribute names the query mentions::

    # Under XHTML 1.0 Strict every img carries an alt attribute...
    analyzer.solve(Query.containment(".//img", ".//img[@alt]", "xhtml", "xhtml"))
    # ...but not every a carries href (a counterexample document is returned).
    analyzer.solve(Query.containment(".//a", ".//a[@href]", "xhtml", "xhtml"))

(The queries are relative to the marked, typed node: a bare DTD constraint
deliberately leaves the context of that node unconstrained — Section 5.2 —
so absolute ``//`` queries could select nodes outside the typed subtree.
For whole-document readings wrap the type in
:class:`repro.analysis.problems.Rooted` — ``Query.satisfiability("/html/head",
Rooted("xhtml"))`` — which anchors the context node at a virtual document
node above the typed root element, the data model XSLT patterns use; on the
CLI wire the same wrapper is spelled ``"rooted:xhtml"``.)
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.problems import (
    Rooted,
    document_formula,
    label_projection,
    relevant_attributes,
    type_inclusion_attributes,
)
from repro.cache import DiskSolveCache, SolveRecord
from repro.core import faults
from repro.core.errors import BudgetExceeded, ReproError, UnsupportedTypeError
from repro.logic import syntax as sx
from repro.logic.negation import negate
from repro.solver.governor import Budget
from repro.solver.symbolic import SymbolicSolver
from repro.trees.unranked import serialize_tree
from repro.xmltypes.ast import BinaryTypeGrammar
from repro.xmltypes.compile import compile_dtd, compile_grammar, project_grammar
from repro.xmltypes.dtd import DTD
from repro.xmltypes.membership import lift_wildcards
from repro.xmltypes.library import builtin_dtd
from repro.xpath import ast as xp
from repro.xpath.compile import compile_xpath
from repro.xpath.parser import parse_xpath_cached

#: Query kinds accepted by :class:`Query` / :meth:`StaticAnalyzer.solve_many`.
KINDS = (
    "satisfiability",
    "emptiness",
    "containment",
    "equivalence",
    "overlap",
    "coverage",
    "type_inclusion",
)


@dataclass(frozen=True)
class Query:
    """One decision problem, as plain data (JSON-able via :meth:`as_dict`).

    Use the factory classmethods rather than the constructor; they document
    which fields each kind uses.  ``exprs`` holds the XPath expressions
    involved (the subject first) and ``types`` the matching tree-type
    constraints (``None`` entries mean "any tree").
    """

    kind: str
    exprs: tuple[str, ...]
    types: tuple[object, ...] = ()

    #: Required (exprs, types) arities per kind; ``None`` means "one or more
    #: expressions, with exactly one type each" (coverage).
    _ARITIES = {
        "satisfiability": (1, 1),
        "emptiness": (1, 1),
        "containment": (2, 2),
        "equivalence": (2, 2),
        "overlap": (2, 2),
        "coverage": None,
        "type_inclusion": (1, 2),
    }

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown query kind {self.kind!r}; expected one of {KINDS}")
        arity = self._ARITIES[self.kind]
        if arity is None:
            if not self.exprs or len(self.types) != len(self.exprs):
                raise ValueError(
                    f"{self.kind} takes one or more expressions with one type "
                    f"each; got {len(self.exprs)} expressions and "
                    f"{len(self.types)} types"
                )
        elif (len(self.exprs), len(self.types)) != arity:
            raise ValueError(
                f"{self.kind} takes {arity[0]} expression(s) and {arity[1]} "
                f"type(s); got {len(self.exprs)} and {len(self.types)}"
            )

    # -- factories ---------------------------------------------------------------

    @classmethod
    def satisfiability(cls, expr: str, xml_type: object = None) -> "Query":
        """Can ``expr`` select at least one node in a document of ``xml_type``?"""
        return cls("satisfiability", (expr,), (xml_type,))

    @classmethod
    def emptiness(cls, expr: str, xml_type: object = None) -> "Query":
        """Is ``expr`` empty on every document of ``xml_type``?"""
        return cls("emptiness", (expr,), (xml_type,))

    @classmethod
    def containment(
        cls, expr1: str, expr2: str, type1: object = None, type2: object = None
    ) -> "Query":
        """Is every node selected by ``expr1`` also selected by ``expr2``?"""
        return cls("containment", (expr1, expr2), (type1, type2))

    @classmethod
    def equivalence(
        cls, expr1: str, expr2: str, type1: object = None, type2: object = None
    ) -> "Query":
        """Containment in both directions."""
        return cls("equivalence", (expr1, expr2), (type1, type2))

    @classmethod
    def overlap(
        cls, expr1: str, expr2: str, type1: object = None, type2: object = None
    ) -> "Query":
        """Can the two expressions select a common node?"""
        return cls("overlap", (expr1, expr2), (type1, type2))

    @classmethod
    def coverage(
        cls,
        expr: str,
        covering: Sequence[str],
        xml_type: object = None,
        covering_types: Sequence[object] | None = None,
    ) -> "Query":
        """Is every node selected by ``expr`` selected by one of ``covering``?"""
        others = tuple(covering)
        other_types = (
            tuple(covering_types) if covering_types is not None else (None,) * len(others)
        )
        # Arity (one type per covering expression) is enforced by __post_init__.
        return cls("coverage", (expr,) + others, (xml_type,) + other_types)

    @classmethod
    def type_inclusion(cls, expr: str, input_type: object, output_type: object) -> "Query":
        """Does every node ``expr`` selects under ``input_type`` root a subtree
        of ``output_type``?"""
        return cls("type_inclusion", (expr,), (input_type, output_type))

    # -- serialisation -----------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "exprs": list(self.exprs),
            "types": [_describe_type(t) for t in self.types],
        }


def _describe_type(xml_type: object) -> str | None:
    if xml_type is None:
        return None
    if isinstance(xml_type, Rooted):
        inner = _describe_type(xml_type.xml_type)
        return f"rooted:{inner if inner is not None else 'any'}"
    if isinstance(xml_type, str):
        return xml_type
    if isinstance(xml_type, DTD):
        return xml_type.name
    if isinstance(xml_type, BinaryTypeGrammar):
        return "grammar"
    if isinstance(xml_type, sx.Formula):
        return "formula"
    return type(xml_type).__name__


#: The three verdict statuses an :class:`AnalysisOutcome` can carry.
#: ``"definite"`` — ``holds``/``satisfiable`` are valid booleans;
#: ``"unknown"`` — a resource budget ran out before a verdict (``holds`` and
#: ``satisfiable`` are ``None``, ``budget_reason`` says which bound tripped);
#: ``"error"`` — the input itself was bad (``error``/``error_kind`` are set).
VERDICT_STATUSES = ("definite", "unknown", "error")


@dataclass
class AnalysisOutcome:
    """Outcome of one :class:`Query`, as structured JSON-able data.

    ``holds`` answers the question the query asked; ``satisfiable`` reports
    the verdict of the underlying satisfiability test (they differ for the
    "negative" problems: containment holds iff its formula is unsatisfiable).
    ``from_cache`` is True when the verdict was answered from the analyzer's
    solve cache without running the solver.

    Outcomes are three-valued (see :data:`VERDICT_STATUSES`): a resource
    budget running out produces a first-class *unknown* outcome — not an
    error — with ``verdict_status == "unknown"``, ``holds is None`` and the
    structured ``budget_reason`` (``"deadline"``, ``"steps"``,
    ``"iterations"``, ``"lean"``, ``"worker-crash"``).  Consumers acting on
    a verdict must gate on :attr:`definite`, never on ``holds`` alone.
    """

    query: Query
    problem: str
    holds: bool | None
    satisfiable: bool | None
    from_cache: bool
    solve_seconds: float
    statistics: dict
    counterexample: str | None = None
    #: Which cache layer answered: ``"memory"``, ``"disk"``, or ``None`` when
    #: the solver actually ran (always ``None`` for error outcomes).
    cache: str | None = None
    #: Machine-readable failure: the exception class name (``"ParseError"``,
    #: ``"KeyError"``, ...) and its message.  ``None`` on success.
    error_kind: str | None = None
    error: str | None = None
    #: One of :data:`VERDICT_STATUSES`.
    verdict_status: str = "definite"
    #: Which budget bound tripped (:data:`repro.core.errors.BUDGET_REASONS`);
    #: ``None`` unless ``verdict_status == "unknown"``.
    budget_reason: str | None = None
    #: For equivalence queries: the two directed containment outcomes.
    parts: list["AnalysisOutcome"] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the query was *analysed* — no structured input error.

        Unknown outcomes are ``ok`` (the input was fine; the budget was not):
        check :attr:`definite` before trusting ``holds``.
        """
        return self.error is None

    @property
    def definite(self) -> bool:
        """True when ``holds``/``satisfiable`` carry a valid verdict."""
        return self.verdict_status == "definite"

    @property
    def unknown(self) -> bool:
        """True when a resource budget ran out before a verdict."""
        return self.verdict_status == "unknown"

    @property
    def time_ms(self) -> float:
        """Solver running time in milliseconds (as reported in Table 2)."""
        return 1000.0 * self.solve_seconds

    def as_dict(self) -> dict:
        result = {
            "query": self.query.as_dict(),
            "problem": self.problem,
            "verdict_status": self.verdict_status,
            "holds": self.holds,
            "satisfiable": self.satisfiable,
            "budget_reason": self.budget_reason,
            "from_cache": self.from_cache,
            "cache": self.cache,
            "solve_seconds": round(self.solve_seconds, 6),
            "statistics": self.statistics,
            "counterexample": self.counterexample,
            "error": None
            if self.error is None
            else {"kind": self.error_kind, "message": self.error},
        }
        if self.parts:
            result["parts"] = [part.as_dict() for part in self.parts]
        return result

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.as_dict(), **kwargs)


@dataclass
class BatchReport:
    """The outcomes of a :meth:`StaticAnalyzer.solve_many` run plus totals."""

    outcomes: list[AnalysisOutcome]
    total_seconds: float
    solver_runs: int
    cache_hits: int
    #: Verdicts answered from the persistent cache (0 without ``cache_dir``).
    disk_cache_hits: int = 0
    #: Worker processes the batch fanned out to (1: solved in-process).
    workers: int = 1

    @property
    def errors(self) -> int:
        """Number of outcomes that are structured errors (``not outcome.ok``)."""
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    @property
    def unknowns(self) -> int:
        """Number of outcomes whose budget ran out (``verdict_status=="unknown"``)."""
        return sum(1 for outcome in self.outcomes if outcome.unknown)

    def as_dict(self) -> dict:
        return {
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
            "total_seconds": round(self.total_seconds, 6),
            "solver_runs": self.solver_runs,
            "cache_hits": self.cache_hits,
            "disk_cache_hits": self.disk_cache_hits,
            "workers": self.workers,
            "errors": self.errors,
            "unknowns": self.unknowns,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.as_dict(), **kwargs)


@dataclass
class _WorkItem:
    """One solvable unit of a batch: a query, or one equivalence direction.

    The multiprocess batch path decomposes each equivalence query into its
    two directed containments so the directions can share solver work with
    the rest of the batch exactly like the sequential path's recursive
    :meth:`StaticAnalyzer.solve` does; ``role`` remembers which direction
    this item is so the equivalence outcome can be reassembled.
    """

    out_index: int
    #: ``None`` for a plain query, ``"forward"``/``"backward"`` for the two
    #: directed containments of an equivalence query.
    role: str | None
    query: Query


# ---------------------------------------------------------------------------
# Worker-process plumbing for multiprocess batch solving
# ---------------------------------------------------------------------------

#: The per-process analyzer of a :class:`~concurrent.futures.
#: ProcessPoolExecutor` worker, created once by :func:`_pool_initializer`;
#: its in-memory caches warm up over the worker's lifetime and its disk cache
#: (when configured) is shared with every sibling process.
_WORKER_ANALYZER: "StaticAnalyzer | None" = None


def _pool_initializer(options: dict) -> None:
    global _WORKER_ANALYZER
    _WORKER_ANALYZER = StaticAnalyzer(**options)


def _pool_solve(item: tuple) -> tuple:
    """Solve one indexed query in a worker; returns counters for aggregation.

    ``item`` is ``(index, query)`` optionally followed by a per-query
    :class:`~repro.solver.governor.Budget` override and a *marker directory*.
    While this function runs it keeps ``<marker_dir>/<index>.running`` on
    disk; a worker dying mid-solve (OOM kill, injected crash) leaves the
    marker behind, which is how :meth:`StaticAnalyzer._solve_many_parallel`
    attributes a ``BrokenProcessPool`` to the query that poisoned the pool.
    The per-query wall-clock timeout is the budget's deadline, enforced
    cooperatively *inside* the worker by the resource governor.
    """
    index, query = item[0], item[1]
    budget = item[2] if len(item) > 2 else None
    marker_dir = item[3] if len(item) > 3 else None
    marker = None
    if marker_dir is not None:
        marker = os.path.join(marker_dir, f"{index}.running")
        try:
            with open(marker, "w", encoding="utf-8"):
                pass
        except OSError:
            marker = None
    if faults.should_fire("worker-crash", " ".join(query.exprs)):
        os._exit(137)  # simulate an OOM kill: no cleanup, no marker removal
    analyzer = _WORKER_ANALYZER
    runs = analyzer.solver_runs
    hits = analyzer.solve_cache_hits
    disk_hits = analyzer.disk_cache_hits
    disk_writes = analyzer.disk_cache_writes
    outcome = analyzer.solve(query, budget=budget)
    if marker is not None:
        try:
            os.unlink(marker)
        except OSError:
            pass
    return (
        index,
        outcome,
        analyzer.solver_runs - runs,
        analyzer.solve_cache_hits - hits,
        analyzer.disk_cache_hits - disk_hits,
        analyzer.disk_cache_writes - disk_writes,
    )


def _parallel_safe(query: Query) -> bool:
    """Whether a query can be shipped to a worker process.

    Raw-formula type constraints are hash-consed (equality is identity), so
    pickling them across a process boundary would break their semantics;
    such queries are solved in the parent instead.  Everything else — names,
    ``None``, DTDs, grammars, and :class:`Rooted` wrappers thereof —
    round-trips through pickle safely.
    """
    return all(
        not isinstance(
            xml_type.xml_type if isinstance(xml_type, Rooted) else xml_type,
            sx.Formula,
        )
        for xml_type in query.types
    )


#: Input-shaped failures that :meth:`StaticAnalyzer.solve` converts into
#: structured error outcomes instead of raising.  Everything input-shaped is
#: a :class:`repro.core.errors.ReproError` subclass: parser errors, solver
#: limits, unknown built-in schema names (``SchemaLookupError``, also a
#: :class:`KeyError`) and unsupported type-constraint objects
#: (``UnsupportedTypeError``, also a :class:`TypeError`).  A plain
#: ``KeyError``/``TypeError`` out of the translation or solver internals is a
#: bug and still raises.
ANALYSIS_ERRORS = (ReproError,)


class StaticAnalyzer:
    """Caching façade over the decision problems of Section 8.

    Construction options mirror :class:`repro.solver.symbolic.SymbolicSolver`
    (they are forwarded to every solver run).  All methods are pure with
    respect to the caches: a cached answer is always the answer the solver
    would produce — the solve cache is keyed by the (hash-consed) Lµ formula,
    the translation caches by the expression/type pair they translate.

    With ``cache_dir`` set, solver verdicts are additionally written through
    to a :class:`repro.cache.DiskSolveCache` rooted at that directory and
    looked up there on in-memory misses, so a fresh process replaying a
    workload another process has answered performs zero solver runs.  The
    disk cache is content-addressed by the canonical formula (alpha-invariant
    across processes) and safe under concurrent writers; see
    :mod:`repro.cache`.

    **Resource governance.**  ``budget`` bounds every solve (see
    :class:`repro.solver.governor.Budget`); ``max_lean`` is shorthand for a
    Lean-size bound — the analyzer then refuses to *compile* an
    exponentially-sized problem (Lemma 6.7 prices it at ``2^O(lean)``) and
    returns an ``unknown`` outcome up front.  Budget exhaustion never raises:
    it produces a first-class ``unknown`` outcome with a structured
    ``budget_reason``.  With ``degrade=True`` a budget-exhausted solve falls
    back to the bounded ψ-type :class:`repro.solver.explicit.ExplicitSolver`
    when the problem is small enough (``≤ DEGRADE_MAX_TYPES`` estimated
    ψ-types), so small-but-tightly-budgeted queries still get a definite
    verdict.  Only definite verdicts ever enter a cache layer.
    """

    #: Estimated-ψ-type ceiling under which graceful degradation engages
    #: (mirrors the fuzzer's explicit-oracle gate, ``Bounds.explicit_types``).
    DEGRADE_MAX_TYPES = 2048

    def __init__(
        self,
        early_quantification: bool = True,
        monolithic_relation: bool = False,
        interleaved_order: bool = True,
        track_marks: bool = True,
        cache_dir: str | None = None,
        prune_labels: bool = True,
        backend: str | None = None,
        budget: Budget | None = None,
        max_lean: int | None = None,
        degrade: bool = False,
        batch_fixpoint: str = "off",
    ):
        """See the class docstring for the options.

        ``batch_fixpoint`` exists only for one caller: the repo benchmark's
        worker (``perfbench/worker.py``) still passes ``batch_fixpoint="off"``.
        Merged-Lean batch solving was removed, so ``"off"`` is the only
        accepted value and it is neither stored nor forwarded.
        """
        if batch_fixpoint != "off":
            raise ValueError(
                "merged-Lean batch solving was removed; batch_fixpoint "
                f"accepts only 'off', got {batch_fixpoint!r}"
            )
        self.early_quantification = early_quantification
        self.monolithic_relation = monolithic_relation
        self.interleaved_order = interleaved_order
        self.track_marks = track_marks
        self.prune_labels = prune_labels
        #: BDD engine for every solver run (``"arena"``, ``"native"``, or
        #: ``None`` to follow ``REPRO_BDD_BACKEND`` / the default).  Verdicts
        #: are backend-independent, so cache layers need no qualification.
        self.backend = backend
        #: Default resource budget for every solve (``None`` = unlimited);
        #: per-call overrides merge on top (see :meth:`solve`).
        self.budget = budget
        if max_lean is not None:
            base = self.budget or Budget()
            if base.max_lean is None:
                self.budget = base.merged_with(Budget(max_lean=max_lean))
        self.degrade = degrade
        self.disk_cache = (
            None
            if cache_dir is None
            else DiskSolveCache(cache_dir, track_marks=track_marks)
        )
        # (type key, constrain_siblings) -> compiled type formula.
        self._type_cache: dict[tuple, sx.Formula] = {}
        # (expression text, type key) -> compiled query formula.
        self._query_cache: dict[tuple, sx.Formula] = {}
        # Lµ formula (hash-consed, so identity == structure) -> SolveRecord.
        self._solve_cache: dict[sx.Formula, SolveRecord] = {}
        # Strong references keeping id()-keyed type objects alive (one entry
        # per distinct object, tracked via _pinned_ids).
        self._type_refs: list[object] = []
        self._pinned_ids: set[int] = set()
        self.solver_runs = 0
        self.solve_cache_hits = 0
        self.disk_cache_hits = 0
        self.disk_cache_writes = 0

    # -- caching layers ----------------------------------------------------------

    def _resolve_type(self, xml_type: object) -> object:
        if isinstance(xml_type, Rooted):
            return Rooted(self._resolve_type(xml_type.xml_type))
        return builtin_dtd(xml_type) if isinstance(xml_type, str) else xml_type

    def _type_key(self, xml_type: object) -> object:
        if xml_type is None:
            return None
        if isinstance(xml_type, Rooted):
            return ("rooted", self._type_key(xml_type.xml_type))
        if isinstance(xml_type, str):
            return ("builtin", xml_type)
        if isinstance(xml_type, sx.Formula):
            return ("formula", xml_type)
        # DTDs and grammars are mutable containers: key by identity and pin a
        # reference so the id cannot be recycled while the cache lives.
        if id(xml_type) not in self._pinned_ids:
            self._pinned_ids.add(id(xml_type))
            self._type_refs.append(xml_type)
        return ("object", id(xml_type))

    def _label_projection(
        self, exprs: Sequence[object], types: Sequence[object]
    ) -> tuple[str, ...] | None:
        """The element alphabet to prune type constraints onto, or ``None``.

        Delegates to :func:`repro.analysis.problems.label_projection` (the
        single home of the soundness rule), comparing types through this
        analyzer's cache keys so two mentions of the same built-in schema
        name count as one type.  Returns ``None`` — no pruning — when the
        analyzer was built with ``prune_labels=False`` or the problem mixes
        distinct schemas.
        """
        if not self.prune_labels:
            return None
        return label_projection(exprs, types, type_key=self._type_key)

    def type_formula(
        self,
        xml_type: object,
        constrain_siblings: bool = True,
        attributes: tuple[str, ...] = (),
        labels: tuple[str, ...] | None = None,
    ) -> sx.Formula:
        """The (cached) Lµ translation of a type constraint (⊤ for ``None``).

        ``attributes`` is the attribute alphabet of the surrounding problem:
        DTD types project their ATTLIST constraints onto it (see
        :mod:`repro.xmltypes.compile`).  ``labels`` is the problem's element
        alphabet: when given, DTD/grammar element names outside it collapse
        onto the "any other label" proposition (cone-of-influence Lean
        pruning).  Both are part of the cache key.
        """
        key = (self._type_key(xml_type), constrain_siblings, attributes, labels)
        cached = self._type_cache.get(key)
        if cached is not None:
            return cached
        resolved = self._resolve_type(xml_type)
        if resolved is None:
            formula = sx.TRUE
        elif isinstance(resolved, Rooted):
            # Recurse on the *unresolved* inner type so the inner translation
            # is cached under its own key (shared with unwrapped uses).
            inner_type = (
                xml_type.xml_type if isinstance(xml_type, Rooted) else resolved.xml_type
            )
            formula = document_formula(
                self.type_formula(
                    inner_type,
                    constrain_siblings=True,
                    attributes=attributes,
                    labels=labels,
                )
            )
        elif isinstance(resolved, sx.Formula):
            formula = resolved
        elif isinstance(resolved, DTD):
            formula = compile_dtd(
                resolved,
                constrain_siblings=constrain_siblings,
                attributes=attributes or None,
                labels=labels,
            )
        elif isinstance(resolved, BinaryTypeGrammar):
            grammar = (
                project_grammar(resolved, labels) if labels is not None else resolved
            )
            formula = compile_grammar(grammar, constrain_siblings=constrain_siblings)
        else:
            raise UnsupportedTypeError(f"unsupported type constraint {resolved!r}")
        self._type_cache[key] = formula
        return formula

    def query_formula(
        self,
        expr: str | xp.Expr,
        xml_type: object = None,
        attributes: tuple[str, ...] | None = None,
        labels: tuple[str, ...] | None = None,
    ) -> sx.Formula:
        """The (cached) Lµ translation ``E→[[expr]]([[xml_type]])``.

        ``attributes`` is the problem's attribute alphabet (defaults to the
        names this expression mentions on its own); ``labels`` the problem's
        element alphabet for type pruning (defaults to no pruning).
        """
        if not isinstance(expr, str):
            # Pre-parsed expressions are not cacheable by text; translate only.
            if attributes is None:
                attributes = relevant_attributes(expr)
            return compile_xpath(
                expr,
                self.type_formula(xml_type, attributes=attributes, labels=labels),
            )
        if attributes is None:
            attributes = relevant_attributes(expr)
        key = (expr, self._type_key(xml_type), attributes, labels)
        cached = self._query_cache.get(key)
        if cached is not None:
            return cached
        formula = compile_xpath(
            parse_xpath_cached(expr),
            self.type_formula(xml_type, attributes=attributes, labels=labels),
        )
        self._query_cache[key] = formula
        return formula

    def _solve(
        self,
        formula: sx.Formula,
        lift_context: tuple[DTD, tuple[str, ...]] | None = None,
        budget: Budget | None = None,
    ) -> tuple[SolveRecord, str | None]:
        """Solve a formula, answering from a cache layer when possible.

        Returns the verdict record plus the layer that answered: ``"memory"``,
        ``"disk"``, or ``None`` when the solver actually ran.
        ``lift_context`` is the ``(schema, kept alphabet)`` to lift a pruned
        witness's collapsed labels against (see :func:`repro.xmltypes.
        membership.lift_wildcards`); lifting is deterministic, so cached
        records are already lifted.

        ``budget`` governs the solver run; exhaustion raises
        :class:`BudgetExceeded` *without* touching any cache layer — an
        unknown is a statement about the budget, not about the formula, so
        it must never shadow a definite verdict (cached answers, being free,
        are immune to budgets by construction).
        """
        record = self._solve_cache.get(formula)
        if record is not None:
            self.solve_cache_hits += 1
            return record, "memory"
        if self.disk_cache is not None:
            record = self.disk_cache.get(formula)
            if record is not None:
                self.disk_cache_hits += 1
                self._solve_cache[formula] = record
                return record, "disk"
        solver = SymbolicSolver(
            formula,
            early_quantification=self.early_quantification,
            monolithic_relation=self.monolithic_relation,
            interleaved_order=self.interleaved_order,
            track_marks=self.track_marks,
            backend=self.backend,
            budget=budget,
        )
        result = solver.solve()
        self.solver_runs += 1
        document = result.model_document()
        if document is not None and lift_context is not None:
            lift_dtd, kept_labels = lift_context
            document = lift_wildcards(lift_dtd, document, exclude=kept_labels) or document
        record = SolveRecord(
            satisfiable=result.satisfiable,
            counterexample=None if document is None else serialize_tree(document),
            statistics=result.statistics.as_dict(),
            solve_seconds=result.statistics.solve_seconds,
        )
        self._solve_cache[formula] = record
        if self.disk_cache is not None:
            self.disk_cache.put(formula, record)
            self.disk_cache_writes += 1
        return record, None

    def _degraded_record(
        self,
        formula: sx.Formula,
        lift_context: tuple[DTD, tuple[str, ...]] | None,
    ) -> SolveRecord | None:
        """Definite verdict from the bounded ψ-type solver, or ``None``.

        The degradation ladder's second rung: when the budgeted symbolic
        solve ran out, the eager algorithm of Figure 16 may still decide the
        problem — its cost is governed by the ψ-type count, not by how hard
        the BDD fixpoint happened to be under this budget.  Engages only
        below :data:`DEGRADE_MAX_TYPES` estimated types.  A verdict from
        here is sound and complete, so it enters the caches like any other.
        """
        from repro.core.errors import SolverLimitError
        from repro.solver.explicit import ExplicitSolver
        from repro.trees.binary import binary_forest_to_unranked

        started = time.perf_counter()
        solver = ExplicitSolver(formula, max_types=self.DEGRADE_MAX_TYPES)
        if solver.estimated_types() > self.DEGRADE_MAX_TYPES:
            return None
        try:
            result = solver.solve()
        except SolverLimitError:
            return None
        self.solver_runs += 1
        document = None
        if result.model is not None:
            document = binary_forest_to_unranked(result.model)[0]
            if lift_context is not None:
                lift_dtd, kept_labels = lift_context
                document = (
                    lift_wildcards(lift_dtd, document, exclude=kept_labels) or document
                )
        elapsed = time.perf_counter() - started
        record = SolveRecord(
            satisfiable=result.satisfiable,
            counterexample=None if document is None else serialize_tree(document),
            statistics={
                "degraded": True,
                "lean_size": len(result.lean),
                "iterations": result.iterations,
                "entry_count": result.entry_count,
                "type_count": result.type_count,
                "solve_seconds": round(elapsed, 6),
            },
            solve_seconds=elapsed,
        )
        self._solve_cache[formula] = record
        if self.disk_cache is not None:
            self.disk_cache.put(formula, record)
            self.disk_cache_writes += 1
        return record

    def clear_caches(self) -> None:
        """Drop every in-memory cached translation and solver verdict.

        The persistent cache (if any) is left untouched; clear it explicitly
        with ``analyzer.disk_cache.clear()``.
        """
        self._type_cache.clear()
        self._query_cache.clear()
        self._solve_cache.clear()
        self._type_refs.clear()
        self._pinned_ids.clear()

    def cache_statistics(self) -> dict[str, int]:
        return {
            "type_cache_entries": len(self._type_cache),
            "query_cache_entries": len(self._query_cache),
            "solve_cache_entries": len(self._solve_cache),
            "solver_runs": self.solver_runs,
            "solve_cache_hits": self.solve_cache_hits,
            "disk_cache_hits": self.disk_cache_hits,
            "disk_cache_writes": self.disk_cache_writes,
        }

    # -- single queries ----------------------------------------------------------

    def solve(self, query: Query, budget: Budget | None = None) -> AnalysisOutcome:
        """Answer one query (cached); see :class:`Query` for the kinds.

        Input-shaped failures — a malformed expression, an unknown built-in
        schema name, an unsupported type object — are returned as structured
        error outcomes (``outcome.ok`` is False, ``outcome.error`` carries
        the message) rather than raised, so one bad query never aborts a
        :meth:`solve_many` batch.  Programming errors still raise.

        ``budget`` tightens the analyzer-wide budget for this call only (the
        per-call limits win where both are set).  A budgeted solve that runs
        out returns an *unknown* outcome — ``verdict_status == "unknown"``,
        ``holds``/``satisfiable`` both ``None``, ``budget_reason`` naming the
        exhausted resource — unless ``degrade=True`` and the bounded explicit
        solver can still decide the instance.
        """
        if query.kind == "equivalence":
            return self._equivalence(query, budget)
        effective = self._effective_budget(budget)
        try:
            formula, problem, positive = self._reduce(query)
        except ANALYSIS_ERRORS as exc:
            return self._error_outcome(query, exc)
        lift_context = self._lift_context(query)
        try:
            record, source = self._solve(formula, lift_context, effective)
        except BudgetExceeded as exc:
            # Must precede the ANALYSIS_ERRORS arm: BudgetExceeded is a
            # ReproError, and swallowing it there would misreport resource
            # exhaustion as a definite input failure.
            if self.degrade and exc.reason != "worker-crash":
                record = self._degraded_record(formula, lift_context)
                if record is not None:
                    return self._outcome(query, problem, record, None, positive)
            return self._unknown_outcome(query, problem, exc)
        except ANALYSIS_ERRORS as exc:
            return self._error_outcome(query, exc)
        return self._outcome(query, problem, record, source, positive)

    def _effective_budget(self, budget: Budget | None) -> Budget | None:
        """The analyzer-wide budget tightened by a per-call override."""
        if budget is None:
            return self.budget
        if self.budget is None:
            return budget
        return self.budget.merged_with(budget)

    def _lift_context(self, query: Query) -> tuple[DTD, tuple[str, ...]] | None:
        """The schema and kept alphabet to lift pruned witnesses against.

        ``None`` when no lifting applies (pruning off or skipped, or no DTD
        in the problem).  The alphabet is passed to
        :func:`repro.xmltypes.membership.lift_wildcards` as the *excluded*
        names: a collapsed node stands for a label the queries never test.
        """
        labels = self._label_projection(query.exprs, query.types)
        if labels is None:
            return None
        for xml_type in query.types:
            resolved = self._resolve_type(xml_type)
            if isinstance(resolved, Rooted):
                resolved = resolved.xml_type
            if isinstance(resolved, DTD):
                return resolved, labels
        return None

    def _error_outcome(self, query: Query, exc: Exception) -> AnalysisOutcome:
        return AnalysisOutcome(
            query=query,
            problem=f"{query.kind} (failed)",
            holds=False,
            satisfiable=False,
            from_cache=False,
            solve_seconds=0.0,
            statistics={},
            counterexample=None,
            error_kind=type(exc).__name__,
            error=str(exc),
            verdict_status="error",
        )

    def _unknown_outcome(
        self, query: Query, problem: str, exc: BudgetExceeded
    ) -> AnalysisOutcome:
        """A structured three-valued outcome for a budget-exhausted solve.

        Unknowns are *ok* (nothing was malformed) but not *definite*;
        consumers that act on ``holds`` must gate on ``outcome.definite``.
        Nothing is cached: an unknown describes the budget, not the formula.
        """
        return AnalysisOutcome(
            query=query,
            problem=problem,
            holds=None,
            satisfiable=None,
            from_cache=False,
            solve_seconds=0.0,
            statistics={"budget": exc.as_dict()},
            counterexample=None,
            verdict_status="unknown",
            budget_reason=exc.reason,
        )

    def _crash_outcome(self, query: Query) -> AnalysisOutcome:
        """Unknown outcome for a query whose worker died twice (quarantined)."""
        exc = BudgetExceeded(
            "worker-crash",
            "worker process died while solving this query "
            "(in the shared pool and again in an isolated retry)",
        )
        return self._unknown_outcome(query, f"{query.kind} (unknown)", exc)

    def _problem_description(self, query: Query) -> str:
        """The human-readable problem string of a query (byte-stable: the
        batch paths rebuild outcomes for folded duplicates with it)."""
        kind, exprs = query.kind, query.exprs
        if kind == "satisfiability":
            return f"satisfiability of {exprs[0]}"
        if kind == "emptiness":
            return f"emptiness of {exprs[0]}"
        if kind == "containment":
            return f"containment {exprs[0]} ⊆ {exprs[1]}"
        if kind == "overlap":
            return f"overlap of {exprs[0]} and {exprs[1]}"
        if kind == "coverage":
            return f"coverage of {exprs[0]} by {len(exprs) - 1} expressions"
        if kind == "type_inclusion":
            return f"type inclusion of {exprs[0]}"
        if kind == "equivalence":
            return f"equivalence {exprs[0]} ≡ {exprs[1]}"
        raise ValueError(f"unknown query kind {kind!r}")  # pragma: no cover

    def _problem_attributes(self, query: Query) -> tuple[str, ...]:
        """The attribute alphabet a query's reduction is built over."""
        if query.kind == "type_inclusion":
            # The negated output type acts as a predicate on subtrees, so the
            # alphabet must also cover the DTDs' required/declared names (see
            # repro.analysis.problems.type_inclusion_attributes).
            return type_inclusion_attributes(
                query.exprs[0],
                self._resolve_type(query.types[0]),
                self._resolve_type(query.types[1]),
            )
        return relevant_attributes(*query.exprs)

    def _reduce(self, query: Query) -> tuple[sx.Formula, str, bool]:
        """Reduce a (non-equivalence) query to one satisfiability question.

        Returns ``(formula, problem description, positive)`` where ``positive``
        tells whether the property *holds* when the formula is satisfiable
        (satisfiability, overlap) or when it is unsatisfiable (the rest).
        """
        kind, exprs, types = query.kind, query.exprs, query.types
        # All expressions of a problem share one attribute alphabet (and one
        # element alphabet for pruning) so type constraints agree across the
        # sub-formulas (see repro.analysis); type_inclusion derives a richer
        # attribute alphabet of its own (see _problem_attributes).
        labels = self._label_projection(exprs, types)
        attributes = self._problem_attributes(query)
        problem = self._problem_description(query)
        if kind == "satisfiability":
            return (
                self.query_formula(exprs[0], types[0], attributes, labels),
                problem,
                True,
            )
        if kind == "emptiness":
            return (
                self.query_formula(exprs[0], types[0], attributes, labels),
                problem,
                False,
            )
        if kind == "containment":
            formula = sx.mk_and(
                self.query_formula(exprs[0], types[0], attributes, labels),
                negate(self.query_formula(exprs[1], types[1], attributes, labels)),
            )
            return formula, problem, False
        if kind == "overlap":
            formula = sx.mk_and(
                self.query_formula(exprs[0], types[0], attributes, labels),
                self.query_formula(exprs[1], types[1], attributes, labels),
            )
            return formula, problem, True
        if kind == "coverage":
            formula = self.query_formula(exprs[0], types[0], attributes, labels)
            for other, other_type in zip(exprs[1:], types[1:]):
                formula = sx.mk_and(
                    formula,
                    negate(self.query_formula(other, other_type, attributes, labels)),
                )
            return formula, problem, False
        if kind == "type_inclusion":
            formula = sx.mk_and(
                self.query_formula(exprs[0], types[0], attributes, labels),
                negate(
                    self.type_formula(
                        types[1],
                        constrain_siblings=False,
                        attributes=attributes,
                        labels=labels,
                    )
                ),
            )
            return formula, problem, False
        raise ValueError(f"unknown query kind {kind!r}")  # pragma: no cover

    def _equivalence(
        self, query: Query, budget: Budget | None = None
    ) -> AnalysisOutcome:
        expr1, expr2 = query.exprs
        type1, type2 = query.types
        forward = self.solve(Query.containment(expr1, expr2, type1, type2), budget)
        backward = self.solve(Query.containment(expr2, expr1, type2, type1), budget)
        return self._assemble_equivalence(query, forward, backward)

    def _assemble_equivalence(
        self, query: Query, forward: AnalysisOutcome, backward: AnalysisOutcome
    ) -> AnalysisOutcome:
        """Combine the two directed containment outcomes of an equivalence.

        Shared by the sequential path (which solves the directions through
        :meth:`solve`) and the multiprocess batch path (which decomposes
        equivalence into two :class:`_WorkItem` containments so the directions
        join batch deduplication like any other query).
        """
        expr1, expr2 = query.exprs
        if not forward.ok or not backward.ok:
            broken = forward if not forward.ok else backward
            return AnalysisOutcome(
                query=query,
                problem=f"{query.kind} (failed)",
                holds=False,
                satisfiable=False,
                from_cache=False,
                solve_seconds=0.0,
                statistics={},
                error_kind=broken.error_kind,
                error=broken.error,
                verdict_status="error",
                parts=[forward, backward],
            )
        if not forward.definite or not backward.definite:
            # A definite failed containment already refutes the equivalence,
            # so an unknown in the *other* direction does not matter.
            refuted = next(
                (p for p in (forward, backward) if p.definite and not p.holds), None
            )
            if refuted is None:
                vague = forward if not forward.definite else backward
                return AnalysisOutcome(
                    query=query,
                    problem=f"equivalence {expr1} ≡ {expr2}",
                    holds=None,
                    satisfiable=None,
                    from_cache=False,
                    solve_seconds=forward.solve_seconds + backward.solve_seconds,
                    statistics={
                        "forward": forward.statistics,
                        "backward": backward.statistics,
                    },
                    verdict_status="unknown",
                    budget_reason=vague.budget_reason,
                    parts=[forward, backward],
                )
            return AnalysisOutcome(
                query=query,
                problem=f"equivalence {expr1} ≡ {expr2}",
                holds=False,
                satisfiable=refuted.satisfiable,
                from_cache=refuted.from_cache,
                cache=refuted.cache,
                solve_seconds=forward.solve_seconds + backward.solve_seconds,
                statistics={
                    "forward": forward.statistics,
                    "backward": backward.statistics,
                },
                counterexample=refuted.counterexample,
                parts=[forward, backward],
            )
        failed = forward if not forward.holds else backward
        # Answered from cache only when both directions were; the slower
        # layer that answered names the source.
        cache = None
        if forward.cache is not None and backward.cache is not None:
            cache = "disk" if "disk" in (forward.cache, backward.cache) else "memory"
        return AnalysisOutcome(
            query=query,
            problem=f"equivalence {expr1} ≡ {expr2}",
            holds=forward.holds and backward.holds,
            satisfiable=failed.satisfiable,
            from_cache=forward.from_cache and backward.from_cache,
            cache=cache,
            solve_seconds=forward.solve_seconds + backward.solve_seconds,
            statistics={
                "forward": forward.statistics,
                "backward": backward.statistics,
            },
            counterexample=failed.counterexample,
            parts=[forward, backward],
        )

    def _outcome(
        self,
        query: Query,
        problem: str,
        record: SolveRecord,
        source: str | None,
        positive: bool,
    ) -> AnalysisOutcome:
        from_cache = source is not None
        return AnalysisOutcome(
            query=query,
            problem=problem,
            holds=record.satisfiable if positive else not record.satisfiable,
            satisfiable=record.satisfiable,
            from_cache=from_cache,
            cache=source,
            solve_seconds=0.0 if from_cache else record.solve_seconds,
            statistics=dict(record.statistics),
            counterexample=record.counterexample,
        )

    # -- batch -------------------------------------------------------------------

    def _options(self) -> dict:
        """Constructor options replicating this analyzer in another process."""
        return {
            "early_quantification": self.early_quantification,
            "monolithic_relation": self.monolithic_relation,
            "interleaved_order": self.interleaved_order,
            "track_marks": self.track_marks,
            "cache_dir": None if self.disk_cache is None else str(self.disk_cache.directory),
            "prune_labels": self.prune_labels,
            "backend": self.backend,
            "budget": self.budget,
            "degrade": self.degrade,
        }

    def solve_many(
        self,
        queries: Iterable[Query],
        workers: int = 1,
        budget: Budget | None = None,
    ) -> BatchReport:
        """Answer a batch of queries, amortising translations and solves.

        Queries over the same schema share its type translation; queries that
        reduce to the same Lµ formula (duplicates, or e.g. a containment that
        an equivalence in the batch already checked) share one solver run.
        The returned :class:`BatchReport` records how much was shared.

        With ``workers > 1``, independent queries fan out to a
        :class:`~concurrent.futures.ProcessPoolExecutor`; result order always
        matches query order.  Workers are fresh processes whose in-memory
        caches warm up per worker — construct the analyzer with
        ``cache_dir=...`` to share solver verdicts between them (the disk
        store is atomic-publish-safe under concurrent writers, and its hits
        and writes are aggregated into this analyzer's counters).  Queries
        whose type constraints cannot cross a process boundary (raw Lµ
        formulas) are transparently solved in the parent.

        ``budget`` applies per query (tightening the analyzer-wide budget),
        and with ``workers > 1`` it doubles as the per-query wall-clock cap
        inside each worker.  The batch survives worker crashes: the pool is
        respawned, surviving queries are retried with capped backoff, and a
        query whose worker dies twice (once in the shared pool, once in an
        isolated single-worker retry) is quarantined as
        ``unknown("worker-crash")`` — every other verdict is unaffected.
        """
        queries = list(queries)
        if workers <= 1 or len(queries) <= 1:
            runs_before = self.solver_runs
            hits_before = self.solve_cache_hits
            disk_before = self.disk_cache_hits
            started = time.perf_counter()
            outcomes = [self.solve(query, budget) for query in queries]
            return BatchReport(
                outcomes=outcomes,
                total_seconds=time.perf_counter() - started,
                solver_runs=self.solver_runs - runs_before,
                cache_hits=self.solve_cache_hits - hits_before,
                disk_cache_hits=self.disk_cache_hits - disk_before,
            )
        return self._solve_many_parallel(queries, workers, budget)

    def _dedupe_key(self, query: Query) -> tuple:
        """A hashable identity for batch deduplication (types via cache keys).

        Satisfiability and emptiness of the same expression reduce to the
        *same* formula (only the polarity of the answer differs), so they
        share one class — the sequential path answers the second from its
        solve cache, and the parallel path must fold them onto one worker
        solve to keep :class:`BatchReport` counters in parity.
        """
        kind = "satclass" if query.kind in ("satisfiability", "emptiness") else query.kind
        return (
            kind,
            query.exprs,
            tuple(self._type_key(xml_type) for xml_type in query.types),
        )

    def _expand_work_items(self, queries: list[Query]) -> list[_WorkItem]:
        """Decompose a batch into work items (equivalence → two containments)."""
        items: list[_WorkItem] = []
        for index, query in enumerate(queries):
            if query.kind == "equivalence":
                expr1, expr2 = query.exprs
                type1, type2 = query.types
                items.append(
                    _WorkItem(
                        index, "forward", Query.containment(expr1, expr2, type1, type2)
                    )
                )
                items.append(
                    _WorkItem(
                        index, "backward", Query.containment(expr2, expr1, type2, type1)
                    )
                )
            else:
                items.append(_WorkItem(index, None, query))
        return items

    def _assemble_outcomes(
        self,
        queries: list[Query],
        items: list[_WorkItem],
        item_outcomes: list[AnalysisOutcome],
    ) -> list[AnalysisOutcome]:
        """Map work-item outcomes back onto the batch's query order."""
        outcomes: list[AnalysisOutcome | None] = [None] * len(queries)
        parts: dict[int, dict[str, AnalysisOutcome]] = {}
        for item, outcome in zip(items, item_outcomes):
            if item.role is None:
                outcomes[item.out_index] = outcome
            else:
                parts.setdefault(item.out_index, {})[item.role] = outcome
        for index, pair in parts.items():
            outcomes[index] = self._assemble_equivalence(
                queries[index], pair["forward"], pair["backward"]
            )
        return outcomes

    #: Pool respawns tolerated per batch before the remaining queries are
    #: declared ``unknown("worker-crash")`` wholesale.  A bound this small is
    #: only reached when workers die repeatedly without attribution (e.g. the
    #: pool initializer itself crashes), where retrying cannot converge.
    MAX_POOL_RESPAWNS = 5

    def _record_payload(self, payload: tuple, queries: list[Query], outcomes: list) -> None:
        """Fold one worker result into ``outcomes`` and the cache counters."""
        index, outcome, runs, hits, disk_hits, disk_writes = payload
        # The worker's query object is a pickle round-trip copy; hand the
        # caller back the exact object it submitted.
        outcome.query = queries[index]
        outcomes[index] = outcome
        self.solver_runs += runs
        self.solve_cache_hits += hits
        self.disk_cache_hits += disk_hits
        self.disk_cache_writes += disk_writes

    def _retry_isolated(
        self, index: int, query: Query, budget: Budget | None, marker_dir: str
    ) -> tuple | None:
        """One quarantined retry in a fresh single-worker pool.

        Returns the worker payload, or ``None`` when the worker died again —
        at which point the query is confirmed poison, not a bystander that
        happened to share a pool with one.
        """
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(
            max_workers=1,
            initializer=_pool_initializer,
            initargs=(self._options(),),
        )
        try:
            return pool.submit(_pool_solve, (index, query, budget, marker_dir)).result()
        except BrokenProcessPool:
            return None
        finally:
            pool.shutdown(wait=False)
            try:
                os.unlink(os.path.join(marker_dir, f"{index}.running"))
            except OSError:
                pass

    def _replicate_outcome(
        self, leader: AnalysisOutcome, query: Query
    ) -> AnalysisOutcome:
        """A duplicate item's outcome, derived from its dedupe-class leader.

        Mirrors what the sequential path produces when the duplicate answers
        from the in-memory solve cache: the polarity and problem description
        are the duplicate's *own* (a satisfiability and an emptiness share a
        leader but disagree on ``holds``); only the verdict is shared.
        """
        from dataclasses import replace

        if leader.verdict_status == "error":
            return replace(leader, query=query, problem=f"{query.kind} (failed)")
        problem = self._problem_description(query)
        if not leader.definite:
            return replace(leader, query=query, problem=problem)
        record = SolveRecord(
            satisfiable=leader.satisfiable,
            counterexample=leader.counterexample,
            statistics=dict(leader.statistics),
            solve_seconds=leader.solve_seconds,
        )
        positive = query.kind in ("satisfiability", "overlap")
        return self._outcome(query, problem, record, "memory", positive)

    def _solve_many_parallel(
        self, queries: list[Query], workers: int, budget: Budget | None = None
    ) -> BatchReport:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        import shutil
        import tempfile

        started = time.perf_counter()
        runs_before = self.solver_runs
        hits_before = self.solve_cache_hits
        disk_before = self.disk_cache_hits
        # Fan out *work items*, not queries: an equivalence decomposes into
        # its two containment halves so a standalone containment elsewhere in
        # the batch shares a solve with it, exactly as the sequential path's
        # solve cache would.
        items = self._expand_work_items(queries)
        item_queries = [item.query for item in items]
        outcomes: list[AnalysisOutcome | None] = [None] * len(items)
        # Ship each *distinct* item once: without deduplication every worker
        # re-solves the duplicates the sequential path answers from its solve
        # cache, and the fan-out loses exactly what the batch API gained.
        groups: dict[tuple, list[int]] = {}
        local: list[int] = []
        for index, query in enumerate(item_queries):
            if _parallel_safe(query):
                groups.setdefault(self._dedupe_key(query), []).append(index)
            else:
                local.append(index)
        # Each worker drops a `<index>.running` marker in this directory for
        # the duration of a solve; a marker that survives a pool collapse is
        # how the crash gets blamed on specific queries.
        marker_dir = tempfile.mkdtemp(prefix="repro-batch-")
        pending = {indices[0] for indices in groups.values()}
        pool = None
        respawns = 0
        backoff = 0.05
        first_round = True
        try:
            while pending or first_round:
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=workers,
                        initializer=_pool_initializer,
                        initargs=(self._options(),),
                    )
                submit = sorted(pending)
                futures = {
                    leader: pool.submit(
                        _pool_solve, (leader, item_queries[leader], budget, marker_dir)
                    )
                    for leader in submit
                }
                if first_round:
                    # Queries that cannot be shipped (raw-formula types) run
                    # in the parent while the workers chew on theirs.
                    for index in local:
                        outcomes[index] = self.solve(item_queries[index], budget)
                    first_round = False
                broken = False
                for leader in submit:
                    # Futures that completed before a pool collapse still
                    # hold their results, so drain every one rather than
                    # bailing at the first BrokenProcessPool.
                    try:
                        payload = futures[leader].result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    self._record_payload(payload, item_queries, outcomes)
                    pending.discard(leader)
                if not broken:
                    continue
                pool.shutdown(wait=False)
                pool = None
                respawns += 1
                # Leftover markers name the queries that were mid-solve when
                # the pool died (the killer plus any collateral siblings the
                # executor tore down with it).  Each gets one isolated retry;
                # dying again in a pool of one is conclusive.
                suspects = set()
                for name in os.listdir(marker_dir):
                    if not name.endswith(".running"):
                        continue
                    try:
                        suspect = int(name.split(".", 1)[0])
                    except ValueError:
                        continue
                    suspects.add(suspect)
                    try:
                        os.unlink(os.path.join(marker_dir, name))
                    except OSError:
                        pass
                for leader in sorted(suspects & pending):
                    payload = self._retry_isolated(
                        leader, item_queries[leader], budget, marker_dir
                    )
                    if payload is None:
                        outcomes[leader] = self._crash_outcome(item_queries[leader])
                    else:
                        self._record_payload(payload, item_queries, outcomes)
                    pending.discard(leader)
                if pending:
                    if respawns >= self.MAX_POOL_RESPAWNS:
                        for leader in sorted(pending):
                            outcomes[leader] = self._crash_outcome(item_queries[leader])
                        pending.clear()
                    else:
                        time.sleep(backoff)
                        backoff = min(backoff * 2, 1.0)
        finally:
            if pool is not None:
                pool.shutdown(wait=False)
            shutil.rmtree(marker_dir, ignore_errors=True)
        for indices in groups.values():
            outcome = outcomes[indices[0]]
            for duplicate in indices[1:]:
                outcomes[duplicate] = self._replicate_outcome(
                    outcome, item_queries[duplicate]
                )
                if outcome.definite:
                    self.solve_cache_hits += 1
        return BatchReport(
            outcomes=self._assemble_outcomes(queries, items, outcomes),
            total_seconds=time.perf_counter() - started,
            solver_runs=self.solver_runs - runs_before,
            cache_hits=self.solve_cache_hits - hits_before,
            disk_cache_hits=self.disk_cache_hits - disk_before,
            workers=workers,
        )


def solve_many(queries: Iterable[Query], workers: int = 1, **options) -> BatchReport:
    """One-shot batch entry point (a fresh :class:`StaticAnalyzer` per call)."""
    return StaticAnalyzer(**options).solve_many(queries, workers=workers)
