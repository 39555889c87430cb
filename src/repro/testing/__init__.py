"""Differential fuzzing for the decision procedure: ``repro.testing``.

The paper's correctness claim — that the symbolic Lµ solver agrees with
XPath's denotational semantics and XML-type membership on *all* inputs — is
only as strong as the inputs it is exercised on.  This package manufactures
those inputs and cross-checks every layer of the pipeline against executable
specifications that share no code with the BDD engine:

* :mod:`repro.testing.generators` — seeded random generators for DTDs
  (:func:`gen_dtd`), XPath expressions over a DTD's alphabet
  (:func:`gen_xpath`, including attribute steps and nested qualifiers) and
  documents valid for a DTD (:func:`gen_tree`);
* :mod:`repro.testing.oracle` — a *bounded explicit oracle* that decides the
  same problems by enumerating focused trees up to depth/width bounds and
  evaluating the denotational XPath semantics, a gated run of the ψ-type
  :class:`repro.solver.explicit.ExplicitSolver`, and a witness-replay check
  for every satisfiable verdict;
* :mod:`repro.testing.shrink` — a disagreement shrinker that minimises
  failing (DTD, query) pairs while a predicate keeps holding;
* :mod:`repro.testing.fuzz` — the campaign driver behind ``repro fuzz``:
  every trial runs the symbolic solver with pruning on/off on every
  selected BDD backend, compares all verdicts against the oracles, shrinks any
  disagreement, and serialises it into ``tests/corpus/`` for permanent
  replay by ``tests/test_corpus.py``;
* :mod:`repro.testing.faults` — deterministic fault injection (worker
  crashes, torn cache writes, expiring deadlines) behind ``repro fuzz
  --chaos`` and the robustness test-suite.

See ``docs/TESTING.md`` for the user-facing guide.
"""

from repro.testing.fuzz import (
    FuzzConfig,
    FuzzReport,
    TrialOutcome,
    evaluate_case,
    run_fuzz,
)
from repro.testing.generators import (
    GeneratorConfig,
    gen_case,
    gen_content_model,
    gen_dtd,
    gen_tree,
    gen_xpath,
    render_content,
)
from repro.testing.oracle import (
    Bounds,
    BoundedVerdict,
    bounded_search,
    enumerate_trees,
    explicit_verdict,
    replay_witness,
)
from repro.testing.shrink import shrink_case
from repro.testing.corpus import FuzzCase, load_corpus, write_corpus_case
from repro.testing import faults

__all__ = [
    "Bounds",
    "BoundedVerdict",
    "FuzzCase",
    "faults",
    "FuzzConfig",
    "FuzzReport",
    "GeneratorConfig",
    "TrialOutcome",
    "bounded_search",
    "enumerate_trees",
    "evaluate_case",
    "explicit_verdict",
    "gen_case",
    "gen_content_model",
    "gen_dtd",
    "gen_tree",
    "gen_xpath",
    "load_corpus",
    "render_content",
    "replay_witness",
    "run_fuzz",
    "shrink_case",
    "write_corpus_case",
]
