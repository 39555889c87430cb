"""Permanent replay of the fuzz corpus (``tests/corpus/*.json``).

Every corpus entry is a shrunk fuzz case: either a regression seed written
with the verdict every engine agreed on, or an unresolved disagreement (which
keeps failing here until the underlying bug is fixed).  Replaying re-runs the
full differential evaluation — the pruning on/off symbolic matrix run once
per registered BDD backend, the bounded enumeration oracle with its sampled
Proposition 5.1 checks, the gated ψ-type solver and the witness replay —
and asserts that everything still agrees (and still matches the recorded
verdict).

New cases appear here automatically: ``repro fuzz`` serialises every shrunk
disagreement into this directory, and ``--sample-corpus N`` adds shrunk
regression seeds.
"""

from pathlib import Path

import pytest

from repro.bdd.backends import available_backends
from repro.testing.corpus import load_corpus
from repro.testing.fuzz import evaluate_case
from repro.testing.oracle import Bounds

CORPUS_DIR = Path(__file__).parent / "corpus"
ENTRIES = load_corpus(CORPUS_DIR)

#: Corpus entries are shrunk (hence cheap), so every replay enrols every
#: registered BDD engine — the corpus doubles as a cross-backend regression
#: suite even for entries written before the backend axis was recorded.
BACKENDS = available_backends()

#: The corpus must stay populated: the fuzzing subsystem ships with at least
#: this many shrunk, replayable cases covering every kind.
MINIMUM_CASES = 10


def test_corpus_is_populated():
    assert len(ENTRIES) >= MINIMUM_CASES
    kinds = {entry.case.kind for entry in ENTRIES}
    assert kinds == {"satisfiability", "emptiness", "containment", "overlap"}
    assert any(entry.case.dtd_source is not None for entry in ENTRIES)
    assert any("@" in " ".join(entry.case.exprs) for entry in ENTRIES)


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.name for entry in ENTRIES]
)
def test_corpus_case_replays_without_disagreement(entry):
    outcome = evaluate_case(entry.case, Bounds(), backends=BACKENDS)
    assert outcome.error is None, outcome.error
    assert not outcome.disagreements, (
        f"{entry.name} ({entry.origin}): symbolic verdict and explicit "
        f"oracles disagree: {outcome.disagreements}"
    )
    if entry.expected is not None:
        assert outcome.satisfiable == entry.expected["satisfiable"], (
            f"{entry.name}: recorded verdict changed "
            f"(was satisfiable={entry.expected['satisfiable']})"
        )
        assert outcome.holds == entry.expected["holds"]
    if entry.disagreement is not None:
        pytest.fail(
            f"{entry.name} is a checked-in unresolved disagreement that now "
            "replays cleanly — promote it to a regression seed by replacing "
            "its 'disagreement' field with the agreed 'expected' verdict"
        )
