"""Batch solving is observationally invisible.

A query solved inside a ``StaticAnalyzer.solve_many`` batch must get the same
``holds``/``satisfiable``/``verdict_status`` — and the byte-identical
serialised witness — that a stand-alone ``solve`` in a fresh analyzer
produces.  These tests pin that contract over the committed fuzz corpus (both
BDD backends), the governor's behaviour inside a batch (a budgeted
pathological query must leave its bystanders definite), the per-query disk
cache entries a batch publishes, and a small stylesheet audit replayed from
its cache.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.api import Query, StaticAnalyzer
from repro.bdd.backends import available_backends
from repro.solver.governor import Budget
from repro.testing.corpus import FuzzCase, load_corpus
from repro.xmltypes.dtd import parse_dtd
from repro.xslt import audit_stylesheet

BACKENDS = available_backends()
CORPUS_DIR = Path(__file__).parent / "corpus"
ENTRIES = load_corpus(CORPUS_DIR)

#: The committed regression instance of test_robustness: depth-14 nested
#: containment, effectively unbounded for the symbolic solver.
PATHOLOGICAL = "/".join(["a1"] + [f"a{i}[b{i}]" for i in range(2, 15)])
PATHOLOGICAL_SUPERSET = PATHOLOGICAL.replace("[b2]", "")

#: What "observationally identical" means, field by field.
OBSERVABLE_FIELDS = (
    "holds",
    "satisfiable",
    "verdict_status",
    "budget_reason",
    "error_kind",
    "counterexample",
)


def _observed(outcome) -> dict:
    return {name: getattr(outcome, name) for name in OBSERVABLE_FIELDS}


def _case_query(case: FuzzCase) -> Query:
    """The :class:`Query` asking a corpus case's own question."""
    dtd = case.dtd()
    if case.kind in ("satisfiability", "emptiness"):
        return getattr(Query, case.kind)(case.exprs[0], dtd)
    return getattr(Query, case.kind)(case.exprs[0], case.exprs[1], dtd, dtd)


# ---------------------------------------------------------------------------
# Differential: one batch vs stand-alone solves
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_matches_solo_solves_on_corpus(backend):
    """Every committed corpus seed plus one satisfiability probe per
    expression, as one batch: each outcome must equal a stand-alone solve in
    a fresh analyzer, serialised witness included."""
    queries = []
    for entry in ENTRIES:
        dtd = entry.case.dtd()
        queries.append(_case_query(entry.case))
        queries.extend(Query.satisfiability(text, dtd) for text in entry.case.exprs)
    batch = StaticAnalyzer(backend=backend).solve_many(queries)
    assert len(batch.outcomes) == len(queries)
    for query, outcome in zip(queries, batch.outcomes):
        solo = StaticAnalyzer(backend=backend).solve(query)
        assert _observed(outcome) == _observed(solo), query.as_dict()
    assert batch.solver_runs <= len(queries)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_witness_matches_solo(backend):
    """Regression (fuzz seed 7, trial 20): a batch whose queries share labels
    must still decode each witness exactly as a stand-alone solve does — the
    pick walks to the lex-min assignment of the query's own variable order,
    so any drift in that order would change the document."""
    dtd = parse_dtd("<!ELEMENT c EMPTY>", root="c")
    queries = [
        Query.containment("/descendant::a", "descendant::c", dtd, dtd),
        Query.satisfiability("/descendant::a", dtd),
        Query.satisfiability("descendant::c", dtd),
    ]
    batch = StaticAnalyzer(backend=backend).solve_many(queries)
    for query, outcome in zip(queries, batch.outcomes):
        solo = StaticAnalyzer(backend=backend).solve(query)
        assert _observed(outcome) == _observed(solo)
    assert batch.outcomes[0].holds is False
    assert batch.outcomes[0].counterexample is not None


# ---------------------------------------------------------------------------
# Resource governance inside a batch
# ---------------------------------------------------------------------------


def test_batch_pathological_query_has_one_reason_on_both_backends():
    """The depth-14 containment inside a batch: the steps budget must surface
    as the identical structured ``budget_reason`` on both BDD engines (the
    governor's step accounting is backend-independent at the verdict level),
    and the cheap query of the same batch must come out definite."""
    queries = [
        Query.satisfiability("child::a"),
        Query.containment(PATHOLOGICAL, PATHOLOGICAL_SUPERSET),
    ]
    reasons = {}
    for backend in BACKENDS:
        report = StaticAnalyzer(backend=backend).solve_many(
            queries, budget=Budget(max_steps=100_000)
        )
        cheap, pathological = report.outcomes
        assert cheap.definite and cheap.holds is True, backend
        assert pathological.unknown, backend
        reasons[backend] = pathological.budget_reason
    assert reasons == {backend: "steps" for backend in BACKENDS}


def test_batch_budget_leaves_bystanders_definite():
    """A ``BudgetExceeded`` on one query of a batch leaves every other
    query's verdict definite and identical to an unbudgeted batch."""
    bystanders = [
        Query.satisfiability("child::a/child::b"),
        Query.containment("a/b", "a//b"),
        Query.overlap("a//b", "a/b"),
        Query.emptiness("child::c"),
    ]
    queries = bystanders + [Query.containment(PATHOLOGICAL, PATHOLOGICAL_SUPERSET)]
    reference = StaticAnalyzer().solve_many(bystanders)
    budgeted = StaticAnalyzer().solve_many(queries, budget=Budget(max_steps=100_000))
    for expected, outcome in zip(reference.outcomes, budgeted.outcomes):
        assert outcome.definite, outcome.problem
        assert _observed(outcome) == _observed(expected)
    assert budgeted.outcomes[-1].unknown
    assert budgeted.outcomes[-1].budget_reason == "steps"
    assert budgeted.unknowns == 1


# ---------------------------------------------------------------------------
# Disk cache: a batch publishes per-query entries
# ---------------------------------------------------------------------------


def test_batch_solves_replay_from_disk_as_single_queries(tmp_path):
    """A batch publishes each solve under its batch-independent per-formula
    key, so a later single solve of one member is a disk hit."""
    cache_dir = str(tmp_path / "solve-cache")
    queries = [
        Query.satisfiability("child::a/child::b"),
        Query.overlap("a//b", "a/b"),
    ]
    batch = StaticAnalyzer(cache_dir=cache_dir).solve_many(queries)
    assert batch.solver_runs == 2

    for query, outcome in zip(queries, batch.outcomes):
        replay = StaticAnalyzer(cache_dir=cache_dir).solve(query)
        assert replay.from_cache and replay.cache == "disk"
        assert _observed(replay) == _observed(outcome)


# ---------------------------------------------------------------------------
# A small stylesheet audit, cold and replayed
# ---------------------------------------------------------------------------


def test_audit_small_stylesheet_replays_with_identical_findings(tmp_path):
    """A fast end-to-end audit (kept cheap for -x runs): a tiny stylesheet
    with a dead template, audited cold and then again over the filled disk
    cache, must give identical findings with no second solver run."""
    stylesheet = tmp_path / "tiny.xsl"
    stylesheet.write_text(
        textwrap.dedent(
            """\
            <xsl:stylesheet version="1.0"
                xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
              <xsl:template match="title/meta"><dead/></xsl:template>
              <xsl:template match="meta"><xsl:apply-templates/></xsl:template>
            </xsl:stylesheet>
            """
        )
    )
    cache_dir = str(tmp_path / "solve-cache")
    cold = audit_stylesheet(
        stylesheet, "wikipedia", analyzer=StaticAnalyzer(cache_dir=cache_dir)
    )
    warm = audit_stylesheet(
        stylesheet, "wikipedia", analyzer=StaticAnalyzer(cache_dir=cache_dir)
    )
    assert [f.as_dict() for f in warm.findings] == [f.as_dict() for f in cold.findings]
    assert any(f.rule == "dead-template" for f in cold.findings)
    assert cold.solver_runs >= 1
    assert warm.solver_runs == 0
