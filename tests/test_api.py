"""Tests for the ``repro.api`` batch façade."""

import json

import pytest

from repro.analysis import Analyzer
from repro.api import KINDS, AnalysisOutcome, BatchReport, Query, StaticAnalyzer, solve_many
from repro.xmltypes.dtd import parse_dtd

#: The fast Table 2 decision problems (Figure 21 queries; the SMIL and XHTML
#: rows are exercised by the slow integration suite instead).
TABLE2_FAST = [
    Query.containment("/a[.//b[c/*//d]/b[c//d]/b[c/d]]", "/a[.//b[c/*//d]/b[c/d]]"),
    Query.containment("/a[.//b[c/*//d]/b[c/d]]", "/a[.//b[c/*//d]/b[c//d]/b[c/d]]"),
    Query.equivalence("a/b//c/foll-sibling::d/e", "a/b//d[prec-sibling::c]/e"),
    Query.containment(
        "a/b[//c]/following::d/e ∩ a/d[preceding::c]/e", "a/c/following::d/e"
    ),
]


def test_query_factories_and_validation():
    query = Query.containment("a", "b", "wikipedia")
    assert query.kind == "containment"
    assert query.exprs == ("a", "b")
    with pytest.raises(ValueError):
        Query("spelling", ("a",))
    # Arity is validated up front, not left to fail inside the solver.
    with pytest.raises(ValueError):
        Query("containment", ("a", "b"))  # missing the two type slots
    with pytest.raises(ValueError):
        Query("satisfiability", ("a", "b"), (None, None))
    assert set(KINDS) >= {"satisfiability", "containment", "equivalence"}


def test_coverage_rejects_mismatched_type_list():
    with pytest.raises(ValueError):
        Query.coverage("child::a", ["child::b", "child::a"], covering_types=[None])


def test_coverage_holds_for_trivial_cover():
    outcome = StaticAnalyzer().solve(Query.coverage("child::a", ["child::b", "child::a"]))
    assert outcome.holds is True


def test_query_as_dict_is_json_compatible():
    query = Query.coverage("a", ["b", "c"], "wikipedia")
    payload = json.loads(json.dumps(query.as_dict()))
    assert payload["kind"] == "coverage"
    assert payload["exprs"] == ["a", "b", "c"]
    assert payload["types"] == ["wikipedia", None, None]


def test_solve_many_matches_one_by_one_solve_on_table2():
    batch = StaticAnalyzer().solve_many(TABLE2_FAST)
    one_by_one = [StaticAnalyzer().solve(query) for query in TABLE2_FAST]
    assert [o.holds for o in batch.outcomes] == [o.holds for o in one_by_one]
    # And both agree with the reference Analyzer of repro.analysis.
    analyzer = Analyzer()
    expected = [
        analyzer.containment(*TABLE2_FAST[0].exprs).holds,
        analyzer.containment(*TABLE2_FAST[1].exprs).holds,
        all(r.holds for r in analyzer.equivalence(*TABLE2_FAST[2].exprs)),
        analyzer.containment(*TABLE2_FAST[3].exprs).holds,
    ]
    assert [o.holds for o in batch.outcomes] == expected == [True, False, True, False]


def test_solve_cache_shares_repeated_queries():
    analyzer = StaticAnalyzer()
    query = Query.containment("child::a[b]", "child::a")
    first = analyzer.solve(query)
    second = analyzer.solve(query)
    assert not first.from_cache
    assert second.from_cache
    assert first.holds == second.holds
    assert analyzer.solver_runs == 1
    assert analyzer.solve_cache_hits == 1


def test_equivalence_shares_containment_solves():
    analyzer = StaticAnalyzer()
    analyzer.solve(Query.containment("child::a[b]", "child::a"))
    outcome = analyzer.solve(Query.equivalence("child::a[b]", "child::a"))
    # The forward direction was already solved by the explicit containment.
    forward, backward = outcome.parts
    assert forward.from_cache
    assert not backward.from_cache
    assert outcome.holds is False  # child::a ⊄ child::a[b]
    assert outcome.counterexample is not None


def test_batch_report_is_json_round_trippable():
    report = solve_many(
        [
            Query.satisfiability("child::meta/child::title", "wikipedia"),
            Query.emptiness("child::title/child::meta", "wikipedia"),
            Query.satisfiability("child::meta/child::title", "wikipedia"),
        ]
    )
    assert isinstance(report, BatchReport)
    payload = json.loads(report.to_json())
    assert len(payload["outcomes"]) == 3
    assert payload["solver_runs"] == 2
    assert payload["cache_hits"] == 1
    first = payload["outcomes"][0]
    assert first["holds"] is True
    assert first["statistics"]["lean_size"] > 0
    assert first["counterexample"] is not None  # a witness document
    assert payload["outcomes"][2]["from_cache"] is True


def test_type_objects_and_names_are_both_accepted():
    from repro.xmltypes.library import wikipedia_dtd

    by_name = StaticAnalyzer().solve(Query.emptiness("child::meta/child::edit", "wikipedia"))
    by_object = StaticAnalyzer().solve(
        Query.emptiness("child::meta/child::edit", wikipedia_dtd())
    )
    assert by_name.holds is True
    assert by_object.holds is True


def test_type_translation_cache_is_shared_across_queries():
    # With label pruning (the default), the two queries project the schema
    # onto different element alphabets, so each gets its own translation;
    # with pruning off, the translation is shared across the whole workload.
    analyzer = StaticAnalyzer()
    analyzer.solve(Query.satisfiability("child::meta/child::title", "wikipedia"))
    analyzer.solve(Query.emptiness("child::meta/child::edit", "wikipedia"))
    stats = analyzer.cache_statistics()
    assert stats["type_cache_entries"] == 2
    assert stats["query_cache_entries"] == 2

    unpruned = StaticAnalyzer(prune_labels=False)
    unpruned.solve(Query.satisfiability("child::meta/child::title", "wikipedia"))
    unpruned.solve(Query.emptiness("child::meta/child::edit", "wikipedia"))
    stats = unpruned.cache_statistics()
    assert stats["type_cache_entries"] == 1
    assert stats["query_cache_entries"] == 2
    analyzer.clear_caches()
    assert analyzer.cache_statistics()["solve_cache_entries"] == 0


def test_witness_never_decorates_undeclared_elements_with_attributes():
    """Regression (fuzz seed 7, trial 154): ``attribute_constraints`` only
    constrained *declared* elements, so an element a content model references
    without declaring (valid only as an empty node) could carry an attribute
    in a witness — which ``membership.dtd_attribute_violations`` rejects.
    Referenced-but-undeclared elements now get the same ``¬@a`` pins as an
    attribute-free declaration."""
    dtd = parse_dtd("<!ELEMENT b (a)>", root="b")
    outcome = StaticAnalyzer().solve(
        Query.containment("parent::a/descendant::*", "desc-or-self::a/@p", dtd, dtd)
    )
    assert outcome.holds is False
    assert outcome.counterexample is not None
    assert 'p="' not in outcome.counterexample


def test_analyzer_rejects_removed_batch_fixpoint_modes():
    # "off" is still accepted (and ignored) for existing callers.
    assert StaticAnalyzer(batch_fixpoint="off").solve(
        Query.containment("child::a[b]", "child::a")
    ).holds
    for mode in ("on", "auto"):
        with pytest.raises(ValueError, match="merged-Lean batch solving was removed"):
            StaticAnalyzer(batch_fixpoint=mode)


def test_outcome_time_ms_matches_seconds():
    outcome = StaticAnalyzer().solve(Query.satisfiability("child::a"))
    assert isinstance(outcome, AnalysisOutcome)
    assert outcome.time_ms == pytest.approx(outcome.solve_seconds * 1000.0)


# ---------------------------------------------------------------------------
# Structured error outcomes (one bad query must never kill a batch)
# ---------------------------------------------------------------------------


def test_malformed_expression_is_a_structured_error():
    outcome = StaticAnalyzer().solve(Query.satisfiability("child::a["))
    assert not outcome.ok
    assert outcome.holds is False
    assert outcome.error_kind == "ParseError"
    assert "qualifier" in outcome.error
    payload = json.loads(outcome.to_json())
    assert payload["error"]["kind"] == "ParseError"
    assert payload["counterexample"] is None


def test_unknown_schema_name_is_a_structured_error():
    outcome = StaticAnalyzer().solve(Query.satisfiability("child::a", "nosuch"))
    assert not outcome.ok
    assert outcome.error_kind == "SchemaLookupError"
    assert "unknown built-in DTD 'nosuch'" in outcome.error


def test_unsupported_type_object_is_a_structured_error():
    outcome = StaticAnalyzer().solve(Query.satisfiability("child::a", object()))
    assert not outcome.ok
    assert outcome.error_kind == "UnsupportedTypeError"


def test_internal_bugs_are_not_masked_as_error_outcomes(monkeypatch):
    # A KeyError out of the solver machinery is a programming error, not an
    # input error: it must raise, not become a structured outcome.
    from repro import api as api_module

    def broken_solver(*args, **kwargs):
        raise KeyError("internal bug")

    monkeypatch.setattr(api_module, "SymbolicSolver", broken_solver)
    with pytest.raises(KeyError):
        StaticAnalyzer().solve(Query.satisfiability("child::a"))


def test_successful_outcomes_report_ok_and_no_error():
    outcome = StaticAnalyzer().solve(Query.satisfiability("child::a"))
    assert outcome.ok
    assert json.loads(outcome.to_json())["error"] is None


def test_bad_query_does_not_abort_solve_many():
    report = StaticAnalyzer().solve_many(
        [
            Query.containment("child::a[b]", "child::a"),
            Query.satisfiability("child::a[", None),
            Query.emptiness("child::title/child::meta", "wikipedia"),
        ]
    )
    assert [o.ok for o in report.outcomes] == [True, False, True]
    assert report.errors == 1
    assert report.outcomes[0].holds is True
    assert report.outcomes[2].holds is True
    assert json.loads(report.to_json())["errors"] == 1


def test_equivalence_with_bad_side_is_a_structured_error():
    outcome = StaticAnalyzer().solve(Query.equivalence("child::a[", "child::a"))
    assert not outcome.ok
    assert outcome.error_kind == "ParseError"
    assert len(outcome.parts) == 2
    # Both containment directions mention the malformed expression.
    assert all(not part.ok for part in outcome.parts)


# ---------------------------------------------------------------------------
# Multiprocess batch solving
# ---------------------------------------------------------------------------


def test_solve_many_workers_matches_sequential_order_and_verdicts():
    queries = [
        Query.containment("child::a[b]", "child::a"),
        Query.satisfiability("child::a"),
        Query.containment("child::a[b]", "child::a"),  # duplicate
        Query.overlap("a//b", "a/b"),
        Query.emptiness("child::title/child::meta", "wikipedia"),
    ]
    sequential = StaticAnalyzer().solve_many(queries, workers=1)
    parallel = StaticAnalyzer().solve_many(queries, workers=2)
    assert [o.holds for o in parallel.outcomes] == [o.holds for o in sequential.outcomes]
    assert [o.problem for o in parallel.outcomes] == [o.problem for o in sequential.outcomes]
    assert parallel.workers == 2
    # Callers get back the exact query objects they submitted.
    assert all(o.query is q for o, q in zip(parallel.outcomes, queries))
    # The duplicate was answered once and replicated, like the solve cache.
    assert parallel.solver_runs == sequential.solver_runs
    assert parallel.outcomes[2].from_cache


def test_solve_many_workers_keeps_raw_formula_queries_in_parent():
    from repro.logic import syntax as sx

    queries = [
        Query.satisfiability("child::a", sx.prop("a")),  # not picklable safely
        Query.satisfiability("child::b"),
    ]
    report = StaticAnalyzer().solve_many(queries, workers=2)
    assert [o.ok for o in report.outcomes] == [True, True]
    assert [o.holds for o in report.outcomes] == [True, True]


def test_solve_many_workers_propagates_structured_errors():
    queries = [
        Query.satisfiability("child::a["),          # parse error
        Query.satisfiability("child::a", "nosuch"), # unknown schema
        Query.satisfiability("child::a"),
    ]
    report = StaticAnalyzer().solve_many(queries, workers=2)
    assert [o.ok for o in report.outcomes] == [False, False, True]
    assert report.errors == 2
    assert report.outcomes[0].error_kind == "ParseError"
    assert report.outcomes[1].error_kind == "SchemaLookupError"


def test_solve_many_workers_share_the_disk_cache(tmp_path):
    cache_dir = str(tmp_path / "solve-cache")
    first = StaticAnalyzer(cache_dir=cache_dir)
    queries = [
        Query.containment("child::a[b]", "child::a"),
        Query.overlap("a//b", "a/b"),
    ]
    report = first.solve_many(queries, workers=2)
    assert report.solver_runs == 2
    assert first.disk_cache_writes == 2  # aggregated from the workers
    # A second analyzer (fresh workers) answers everything from disk.
    second = StaticAnalyzer(cache_dir=cache_dir)
    replay = second.solve_many(queries, workers=2)
    assert replay.solver_runs == 0
    assert replay.disk_cache_hits == 2
    assert [o.holds for o in replay.outcomes] == [o.holds for o in report.outcomes]


def test_parallel_batch_counters_equal_sequential(tmp_path):
    """``_solve_many_parallel`` must report the *same* ``solver_runs``/
    ``cache_hits``/``disk_cache_hits`` as a sequential pass over the identical
    batch — including the satisfiability/emptiness satclass fold and the
    equivalence decomposition."""
    queries = [
        Query.satisfiability("child::a[b]"),
        Query.emptiness("child::a[b]"),  # same satclass: no second solve
        Query.containment("a/b", "a//b"),
        Query.equivalence("a//b", "a//b[c] | a//b[not(c)]"),
        Query.containment("a/b", "a//b"),  # duplicate
    ]
    cache_dir = str(tmp_path / "solve-cache")
    StaticAnalyzer(cache_dir=cache_dir).solve_many(queries, workers=1)

    sequential = StaticAnalyzer(cache_dir=cache_dir).solve_many(queries, workers=1)
    parallel = StaticAnalyzer(cache_dir=cache_dir).solve_many(queries, workers=2)

    def observed(outcome) -> tuple:
        return (
            outcome.holds,
            outcome.satisfiable,
            outcome.verdict_status,
            outcome.budget_reason,
            outcome.error_kind,
            outcome.counterexample,
        )

    assert [observed(o) for o in parallel.outcomes] == [
        observed(o) for o in sequential.outcomes
    ]
    assert parallel.solver_runs == sequential.solver_runs
    assert parallel.cache_hits == sequential.cache_hits
    assert parallel.disk_cache_hits == sequential.disk_cache_hits
