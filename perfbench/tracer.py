"""Per-layer span tracing installed from outside the program.

Every layer of the analyzer is timed by wrapping its public entry points at
the binding sites their callers actually use (a module attribute such as
``repro.api.compile_dtd``, or a method on its class).  No file of the
program changes: :func:`install` rebinds the attributes in the running
process, so only a benchmark process that asked for tracing pays for it.

A span's *self* time is its duration minus the time covered by the spans it
caused (its children), so the layer ``self_ns`` values sum to the time
covered by the outermost spans; whatever no span covers is reported by the
caller as ``other``.
"""

from __future__ import annotations

import functools
import importlib
import time

ALL = ("scaling", "audit-cold", "audit-replay", "serve")
SOLVING = ("scaling", "audit-cold", "serve")
SCHEMA = ("audit-cold", "audit-replay", "serve")
AUDIT = ("audit-cold", "audit-replay")

#: (layer, module, attribute, workloads that must call through this site).
#: ``Class.method`` names a method.  The expectations were read off traced
#: runs of every workload; a site that stops firing where it is expected
#: means a caller moved and its time now lands in the layer above.  The two
#: grammar sites serve typed queries over binary grammars, which no workload
#: sends; they are wrapped so that such time is still attributed.
SITES = (
    ("xpath.parse", "repro.api", "parse_xpath_cached", ALL),
    ("xpath.parse", "repro.analysis.problems", "parse_xpath_cached", ALL),
    ("xpath.parse", "repro.xslt.patterns", "parse_xpath_cached", AUDIT),
    ("xpath.parse", "repro.xslt.patterns", "parse_pattern_cached", AUDIT),
    ("xpath.parse", "repro.xslt.rules", "parse_xpath_cached", AUDIT),
    ("xpath.compile", "repro.api", "compile_xpath", ALL),
    ("xmltypes.binarize", "repro.xmltypes.compile", "binarize_dtd", SCHEMA),
    ("xmltypes.compile", "repro.api", "compile_dtd", SCHEMA),
    ("xmltypes.compile", "repro.api", "compile_grammar", ()),
    ("xmltypes.compile", "repro.api", "project_grammar", ()),
    ("logic.closure", "repro.solver.symbolic", "compute_lean", SOLVING),
    ("logic.expand", "repro.logic.syntax", "expand_fixpoint", SOLVING),
    ("solver.encode", "repro.solver.relations", "LeanEncoding.__init__", SOLVING),
    ("solver.encode", "repro.solver.relations", "LeanEncoding.types_constraint", SOLVING),
    ("solver.encode", "repro.solver.relations", "LeanEncoding.root_filter", SOLVING),
    ("solver.encode", "repro.solver.relations", "TransitionRelation.__init__", SOLVING),
    ("solver.product", "repro.solver.relations", "TransitionRelation.witness", SOLVING),
    ("solver.product", "repro.solver.relations", "TransitionRelation.witness_strict", SOLVING),
    ("solver.fixpoint", "repro.solver.symbolic", "SymbolicSolver.solve", SOLVING),
    ("solver.reconstruct", "repro.solver.models", "reconstruct_counterexample", ("audit-cold", "serve")),
    ("solver.reconstruct", "repro.api", "lift_wildcards", ("audit-cold", "serve")),
    ("cache.disk", "repro.cache", "DiskSolveCache.get", SCHEMA),
    ("cache.disk", "repro.cache", "DiskSolveCache.put", ("audit-cold", "serve")),
    ("api", "repro.api", "StaticAnalyzer.solve", ALL),
    ("api", "repro.api", "StaticAnalyzer.solve_many", AUDIT),
    ("xslt", "repro.xslt", "audit_stylesheet", AUDIT),
    ("cli.wire", "repro.cli.serve", "handle_line", ("serve",)),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_rest in SITES))


class Tracer:
    """Span stack, per-layer self times (nanoseconds) and per-site call counts."""

    def __init__(self) -> None:
        self.self_ns = dict.fromkeys(LAYER_NAMES, 0)
        #: Calls per binding site, keyed ``module.attribute``.
        self.calls: dict[str, int] = {}
        #: Time covered by outermost spans; equals the sum of ``self_ns``.
        self.covered_ns = 0
        #: Binding sites that could not be wrapped (module or name gone).
        self.missing: list[str] = []
        self._stack: list[list[int]] = []

    def wrap(self, layer: str, site: str, function):
        clock = time.perf_counter_ns
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        calls[site] = 0

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = [clock(), 0]  # start, time covered by child spans
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                span = clock() - frame[0]
                stack.pop()
                calls[site] += 1
                self_ns[layer] += span - frame[1]
                if stack:
                    stack[-1][1] += span
                else:
                    self.covered_ns += span

        return traced

    def reset(self) -> None:
        """Forget everything recorded so far (between requests only)."""
        if self._stack:
            raise RuntimeError("tracer reset inside an open span")
        for layer in LAYER_NAMES:
            self.self_ns[layer] = 0
        for site in self.calls:
            self.calls[site] = 0
        self.covered_ns = 0

    def snapshot(self) -> dict:
        if self._stack:
            raise RuntimeError("tracer snapshot inside an open span")
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "covered_ns": self.covered_ns,
            "missing": list(self.missing),
        }


def install() -> Tracer:
    """Wrap every binding site of :data:`SITES` and return the tracer."""
    tracer = Tracer()
    for layer, module_name, attribute, _expected in SITES:
        site = f"{module_name}.{attribute}"
        try:
            owner = importlib.import_module(module_name)
            *classes, name = attribute.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            tracer.missing.append(site)
            continue
        setattr(owner, name, tracer.wrap(layer, site, original))
    return tracer


def layer_calls(calls: dict) -> dict:
    """Calls per layer: the sum over its binding sites."""
    totals = dict.fromkeys(LAYER_NAMES, 0)
    for layer, module_name, attribute, _expected in SITES:
        totals[layer] += calls.get(f"{module_name}.{attribute}", 0)
    return totals


def unfired(workload: str, calls: dict, missing: list[str]) -> list[str]:
    """Binding sites that are gone, or never called where they are expected."""
    silent = [
        f"{module_name}.{attribute}"
        for _layer, module_name, attribute, expected in SITES
        if workload in expected and calls.get(f"{module_name}.{attribute}") == 0
    ]
    return sorted(missing) + silent
