"""Byte-for-byte pins of verdicts and witnesses.

The ten distinct problems of the 50-query ``repro serve`` workload
(:func:`repro.cli.bench.cli_cache_workload`) — the fast Table 2 rows plus the
Wikipedia/XHTML-typed problems — are solved on every BDD backend and their
``holds``/``verdict_status``/``counterexample`` strings compared literally.
Any change to the fixpoint loop, the variable order or witness
reconstruction that moves a witness shows up here, not only in verdicts.
"""

import pytest

from repro.api import StaticAnalyzer
from repro.bdd.backends import available_backends
from repro.cli import wire
from repro.cli.bench import cli_cache_workload

#: (kind, exprs, types, holds, verdict_status, counterexample), in workload order.
PINNED = [
    ("containment", ["/a[.//b[c/*//d]/b[c//d]/b[c/d]]", "/a[.//b[c/*//d]/b[c/d]]"],
     None, True, "definite", None),
    ("containment", ["/a[.//b[c/*//d]/b[c/d]]", "/a[.//b[c/*//d]/b[c//d]/b[c/d]]"],
     None, False, "definite",
     "<_><a><b><c><_><d!/></_></c><b><c><d/></c></b></b></a></_>"),
    ("equivalence", ["a/b//c/foll-sibling::d/e", "a/b//d[prec-sibling::c]/e"],
     None, True, "definite", None),
    ("containment", ["a/b[//c]/following::d/e ∩ a/d[preceding::c]/e", "a/c/following::d/e"],
     None, False, "definite", "<_!><a><b><_><c/></_></b><d><e/></d><c/></a></_>"),
    ("satisfiability", ["child::meta/child::title"], ["wikipedia"], True, "definite",
     "<article!><meta><title/></meta><text/></article>"),
    ("containment", ["child::history", "child::history[edit]"], ["wikipedia"],
     True, "definite", None),
    ("emptiness", ["child::title/child::meta"], ["wikipedia"], True, "definite", None),
    ("satisfiability", ["descendant::a[ancestor::a]"], ["xhtml-core"], True, "definite",
     "<a><_!><_><_/></_><_><_><a/></_></_></_></a>"),
    ("overlap", ["a//b", "a/b"], None, True, "definite", "<_!><a><b/></a></_>"),
    ("coverage", ["child::a", "child::b", "child::a"], None, True, "definite", None),
]


@pytest.mark.parametrize("backend", available_backends())
def test_serve_workload_witnesses_are_pinned(backend):
    requests = cli_cache_workload(repeats=1)
    assert len(requests) == len(PINNED)
    analyzer = StaticAnalyzer(backend=backend)
    for request, pinned in zip(requests, PINNED):
        kind, exprs, types, holds, status, counterexample = pinned
        assert (request["kind"], request["exprs"], request.get("types")) == (
            kind, exprs, types,
        )
        payload = {key: value for key, value in request.items() if key != "id"}
        outcome = analyzer.solve(wire.query_from_dict(payload))
        assert (outcome.holds, outcome.verdict_status, outcome.counterexample) == (
            holds, status, counterexample,
        ), (kind, exprs)

