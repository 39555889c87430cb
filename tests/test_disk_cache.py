"""Tests for the persistent solve cache (:mod:`repro.cache`)."""

import json

import pytest

from repro.api import Query, StaticAnalyzer
from repro.cache import (
    CACHE_FORMAT_VERSION,
    DiskSolveCache,
    SolveRecord,
    formula_digest,
    lean_alphabet,
    solve_cache_key,
)
from repro.logic import syntax as sx
from repro.solver.governor import Budget
from repro.logic.parser import parse_formula


QUERY = Query.containment("child::a[b]", "child::a")


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------


def test_digest_is_alpha_invariant():
    # Two structurally identical fixpoints over *different* bound names (as
    # produced by the globally-fresh variable generator in two processes).
    first = sx.mu1(lambda x: sx.prop("a") | sx.dia(1, x))
    second = sx.mu1(lambda x: sx.prop("a") | sx.dia(1, x))
    assert first is not second  # different bound names, so not interned
    assert formula_digest(first) == formula_digest(second)
    assert solve_cache_key(first) == solve_cache_key(second)


def test_digest_distinguishes_formulas():
    digests = {
        formula_digest(parse_formula(text))
        for text in ("a & <1>b", "a | <1>b", "a & <2>b", "a & <1>c", "~a & <1>b")
    }
    assert len(digests) == 5


def test_solve_cache_key_covers_options_and_alphabet():
    formula = parse_formula("a & <1>b")
    assert solve_cache_key(formula, track_marks=True) != solve_cache_key(
        formula, track_marks=False
    )
    alphabet = lean_alphabet(parse_formula("a & @href"))
    assert alphabet == {"labels": ["a"], "attributes": ["href"]}


def test_solve_cache_key_is_pinned():
    # Literal addresses: a cache directory written by any earlier version of
    # the format must keep hitting, so the key material may not drift.
    formula = parse_formula("a & <1>b")
    assert solve_cache_key(formula) == (
        "9daaeedbff1ac4b0779cc7e972fda863ed1abee52ec1358822341eb87e36f13f"
    )
    assert solve_cache_key(formula, track_marks=False) == (
        "c77e31b47b1647bbd6041dab8c5bd21338c80f9f260818cd2ada2c0876c3bd68"
    )


# ---------------------------------------------------------------------------
# The store itself
# ---------------------------------------------------------------------------


def test_put_get_round_trip(tmp_path):
    cache = DiskSolveCache(tmp_path)
    formula = parse_formula("a & <1>b")
    record = SolveRecord(
        satisfiable=True,
        counterexample="<a><b/></a>",
        statistics={"lean_size": 9},
        solve_seconds=0.25,
    )
    path = cache.put(formula, record)
    assert path.is_file()
    assert len(cache) == 1
    assert cache.get(formula) == record
    entry = next(iter(cache.entries()))
    assert entry["version"] == CACHE_FORMAT_VERSION
    assert entry["alphabet"]["labels"] == ["a", "b"]


def _preview_formulas():
    """Corpus, generated and schema-sized formulas (some far over 400 chars)."""
    import random
    from pathlib import Path

    from repro.testing.corpus import load_corpus
    from repro.testing.fuzz import case_formula
    from repro.testing.generators import gen_case
    from repro.xmltypes.compile import compile_dtd
    from repro.xmltypes.library import builtin_dtd

    cases = [entry.case for entry in load_corpus(Path(__file__).parent / "corpus")]
    rng = random.Random(20261017)
    cases += [gen_case(rng) for _ in range(40)]
    formulas = [case_formula(case, case.dtd(), pruned) for case in cases for pruned in (False, True)]
    formulas += [compile_dtd(builtin_dtd(name)) for name in ("wikipedia", "smil")]
    return formulas


def test_entry_preview_renders_only_the_kept_prefix(tmp_path):
    """The stored preview is exactly the first 400 characters of the
    rendering, produced without rendering the rest."""
    from repro.logic.printer import format_formula, format_formula_prefix

    formulas = _preview_formulas()
    assert max(len(format_formula(formula)) for formula in formulas) > 10_000
    for formula in formulas:
        text = format_formula(formula)
        for limit in (0, 1, 37, 400, len(text), len(text) + 5):
            assert format_formula_prefix(formula, limit) == text[:limit]
    cache = DiskSolveCache(tmp_path)
    record = SolveRecord(satisfiable=True, counterexample=None, statistics={}, solve_seconds=0.0)
    for formula in formulas[-2:]:
        cache.put(formula, record)
    previews = sorted(entry["formula"] for entry in cache.entries())
    assert previews == sorted(format_formula(formula)[:400] for formula in formulas[-2:])


def test_corrupt_entries_are_misses(tmp_path):
    cache = DiskSolveCache(tmp_path)
    formula = parse_formula("a & <1>b")
    record = SolveRecord(True, None, {}, 0.0)
    path = cache.put(formula, record)
    path.write_text("{ truncated", encoding="utf-8")
    assert cache.get(formula) is None
    # A different key under the same entry name is also rejected.
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "key": "0" * 64,
        **record.as_dict(),
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert cache.get(formula) is None


def test_cache_format_version_is_bumped():
    assert CACHE_FORMAT_VERSION == 2


def test_v1_entries_are_clean_misses(tmp_path):
    """Old-format entries live under ``v1/`` (never read) or carry
    ``version: 1`` (well-formed mismatch): both are plain misses — no
    quarantine, no deletion — and the next solve republishes under v2."""
    formula = sx.prop("a")
    cache = DiskSolveCache(tmp_path)
    v1_file = tmp_path / "v1" / "ab" / "abcdef.json"
    v1_file.parent.mkdir(parents=True)
    v1_file.write_text(json.dumps({"version": 1, "satisfiable": True}))
    # A v1 payload parked at the entry's v2 path: versioned miss, kept as-is.
    stale = cache.path_for_key(cache.key_for(formula))
    stale.parent.mkdir(parents=True, exist_ok=True)
    stale.write_text(json.dumps({"version": 1, "key": cache.key_for(formula)}))

    assert cache.get(formula) is None
    assert v1_file.exists() and stale.exists()
    assert not list(tmp_path.rglob("*.corrupt"))

    record = SolveRecord(
        satisfiable=True, counterexample="<a/>", statistics={}, solve_seconds=0.1
    )
    cache.put(formula, record)
    assert cache.get(formula) == record


def test_clear_removes_entries(tmp_path):
    cache = DiskSolveCache(tmp_path)
    cache.put(parse_formula("a"), SolveRecord(True, None, {}, 0.0))
    cache.put(parse_formula("b"), SolveRecord(True, None, {}, 0.0))
    assert cache.clear() == 2
    assert len(cache) == 0


# ---------------------------------------------------------------------------
# Through the analyzer: two instances, one cache directory
# ---------------------------------------------------------------------------


def test_second_analyzer_answers_from_disk(tmp_path):
    first = StaticAnalyzer(cache_dir=tmp_path)
    original = first.solve(QUERY)
    assert first.solver_runs == 1
    assert first.disk_cache_writes == 1

    # A second instance re-translates the query (fresh recursion variables),
    # yet must find the verdict on disk without running the solver.
    second = StaticAnalyzer(cache_dir=tmp_path)
    replayed = second.solve(QUERY)
    assert second.solver_runs == 0
    assert second.disk_cache_hits == 1
    assert replayed.from_cache and replayed.cache == "disk"
    assert replayed.holds == original.holds
    assert replayed.counterexample == original.counterexample
    assert replayed.statistics["lean_size"] == original.statistics["lean_size"]

    # Within one instance the in-memory layer answers before the disk.
    again = second.solve(QUERY)
    assert again.cache == "memory"
    assert second.disk_cache_hits == 1


def test_equivalence_replayed_from_cache_reports_its_layer(tmp_path):
    holding = Query.equivalence("a/b//c/foll-sibling::d/e", "a/b//d[prec-sibling::c]/e")
    refuted = Query.equivalence("child::a", "child::a[b]")
    first = StaticAnalyzer(cache_dir=tmp_path)
    for query in (holding, refuted):
        outcome = first.solve(query)
        assert outcome.cache is None and not outcome.from_cache

    # A fresh analyzer over the filled directory: both directions from disk.
    second = StaticAnalyzer(cache_dir=tmp_path)
    replayed = second.solve(holding)
    assert second.solver_runs == 0
    assert [part.cache for part in replayed.parts] == ["disk", "disk"]
    assert replayed.holds and replayed.from_cache and replayed.cache == "disk"

    # One direction in memory, the other on disk: the slower layer answers.
    third = StaticAnalyzer(cache_dir=tmp_path)
    forward, backward = refuted.exprs
    assert third.solve(Query.containment(forward, backward)).cache == "disk"
    mixed = third.solve(refuted)
    assert third.solver_runs == 0
    assert [part.cache for part in mixed.parts] == ["memory", "disk"]
    assert not mixed.holds and mixed.from_cache and mixed.cache == "disk"

    # Fully from memory.
    again = third.solve(refuted)
    assert again.cache == "memory" and again.counterexample == mixed.counterexample

    # Refuted from disk while the other direction runs out of budget: the
    # refuting part's layer answers.
    fourth = StaticAnalyzer(cache_dir=tmp_path)
    fourth.disk_cache.clear()
    StaticAnalyzer(cache_dir=tmp_path).solve(Query.containment(forward, backward))
    partial = fourth.solve(refuted, budget=Budget(max_steps=1))
    assert [part.verdict_status for part in partial.parts] == ["definite", "unknown"]
    assert not partial.holds and partial.from_cache and partial.cache == "disk"


def test_counterexample_survives_the_disk_round_trip(tmp_path):
    failing = Query.containment("child::a", "child::a[b]")
    first = StaticAnalyzer(cache_dir=tmp_path).solve(failing)
    second = StaticAnalyzer(cache_dir=tmp_path).solve(failing)
    assert not first.holds and not second.holds
    assert first.counterexample is not None
    assert second.counterexample == first.counterexample


def test_clearing_the_disk_cache_invalidates(tmp_path):
    first = StaticAnalyzer(cache_dir=tmp_path)
    first.solve(QUERY)
    assert first.disk_cache.clear() == 1
    second = StaticAnalyzer(cache_dir=tmp_path)
    second.solve(QUERY)
    assert second.solver_runs == 1  # miss: the entry was invalidated


def test_disk_cache_disabled_by_default(tmp_path):
    analyzer = StaticAnalyzer()
    assert analyzer.disk_cache is None
    analyzer.solve(QUERY)
    assert analyzer.cache_statistics()["disk_cache_writes"] == 0


def test_batch_report_counts_disk_hits(tmp_path):
    StaticAnalyzer(cache_dir=tmp_path).solve(QUERY)
    report = StaticAnalyzer(cache_dir=tmp_path).solve_many([QUERY, QUERY])
    assert report.solver_runs == 0
    assert report.disk_cache_hits == 1
    assert report.cache_hits == 1  # the repeat, from memory
    payload = json.loads(report.to_json())
    assert payload["disk_cache_hits"] == 1


def test_unsound_solver_options_do_not_share_entries(tmp_path):
    sound = StaticAnalyzer(cache_dir=tmp_path)
    sound.solve(QUERY)
    ablated = StaticAnalyzer(cache_dir=tmp_path, track_marks=False)
    ablated.solve(QUERY)
    assert ablated.disk_cache_hits == 0  # keys differ by track_marks
    assert ablated.solver_runs == 1


def test_concurrent_writers_publish_atomically(tmp_path):
    # Simulate a racing writer: the scratch file of one writer never shadows
    # the published entry of another, and duplicate puts are idempotent.
    cache_a = DiskSolveCache(tmp_path)
    cache_b = DiskSolveCache(tmp_path)
    formula = parse_formula("a & <1>b")
    record = SolveRecord(True, "<a/>", {"lean_size": 9}, 0.1)
    cache_a.put(formula, record)
    cache_b.put(formula, record)
    assert len(cache_a) == 1
    assert cache_a.get(formula) == record
    assert not list(cache_a.root.glob("**/*.tmp"))  # no scratch files leak


@pytest.mark.parametrize("expression", ["child::a[b]", ".//a[@href]"])
def test_attribute_alphabet_is_part_of_the_key(tmp_path, expression):
    analyzer = StaticAnalyzer(cache_dir=tmp_path)
    analyzer.solve(Query.satisfiability(expression))
    for entry in analyzer.disk_cache.entries():
        assert ("@" in expression) == bool(entry["alphabet"]["attributes"])
