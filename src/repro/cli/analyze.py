"""``repro analyze`` — one-shot decision problems from the command line.

Queries come either from the positional arguments (one expression →
satisfiability, two → containment, unless ``--kind`` says otherwise) or from
a ``--batch`` file in the wire format of :mod:`repro.cli.wire`.  The full
:class:`repro.api.BatchReport` is printed to stdout as JSON; exit code 0
means every query was analysed, 1 that at least one produced a structured
error outcome (malformed expression, unknown schema, ...), 2 that the
invocation itself was unusable (bad flags, unreadable batch file), 3 that
every query was analysed without error but at least one verdict is
*unknown* — a ``--deadline``/``--max-steps``/``--max-lean`` budget (or a
per-request ``budget`` object in the batch file) ran out first.
"""

from __future__ import annotations

import json
import sys
import time

from repro.api import BatchReport, StaticAnalyzer
from repro.cli import wire
from repro.cli.main import budget_from_args

#: Exit codes of ``repro analyze`` (and ``repro serve``, which only uses 0/2).
EXIT_OK = 0
EXIT_ANALYSIS_ERROR = 1
EXIT_USAGE = 2
#: Every query analysed, no errors, but at least one budgeted verdict is
#: unknown (``verdict_status == "unknown"``).
EXIT_UNKNOWN = 3


def default_kind(expression_count: int) -> str | None:
    """The implied ``--kind`` for bare positional expressions."""
    return {1: "satisfiability", 2: "containment"}.get(expression_count)


def request_payloads(args) -> list[dict]:
    """The request objects this invocation describes (see module docstring)."""
    if args.batch:
        if args.exprs or args.kind or args.types:
            raise wire.WireError("--batch cannot be combined with inline queries")
        return wire.read_batch(args.batch)
    kind = args.kind or default_kind(len(args.exprs))
    if kind is None:
        raise wire.WireError(
            f"--kind is required for {len(args.exprs)} expressions "
            "(only 1 or 2 have an implied kind)"
        )
    payload = {"kind": kind, "exprs": list(args.exprs)}
    if args.types:
        payload["types"] = list(args.types)
    return [payload]


def run(args) -> int:
    try:
        payloads = request_payloads(args)
        if not payloads:
            raise wire.WireError("no queries to analyze")
    except (OSError, wire.WireError) as exc:
        print(f"repro analyze: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # Convert what converts; wire-format failures become error entries in the
    # report (mirroring the analyzer's structured error outcomes) so one bad
    # batch line never hides the verdicts of the others.
    analyzer = StaticAnalyzer(
        cache_dir=args.cache_dir,
        backend=getattr(args, "backend", None),
        budget=budget_from_args(args),
        degrade=getattr(args, "degrade", False),
    )
    dtd_cache: wire.DTDCache = {}
    queries, budgets, conversion_errors = [], [], {}
    for position, payload in enumerate(payloads):
        try:
            query = wire.query_from_dict(payload, dtd_cache)
            budget = wire.budget_from_dict(payload)
        except (wire.WireError, ValueError) as exc:
            # Same shape as AnalysisOutcome.as_dict() so consumers of the
            # outcomes array never meet a second schema.
            conversion_errors[position] = {
                "query": payload,
                "problem": f"{payload.get('kind', 'query') if isinstance(payload, dict) else 'query'} (failed)",
                "verdict_status": "error",
                "holds": False,
                "satisfiable": False,
                "budget_reason": None,
                "from_cache": False,
                "cache": None,
                "solve_seconds": 0.0,
                "statistics": {},
                "counterexample": None,
                "error": wire.error_payload(exc),
            }
        else:
            queries.append(query)
            budgets.append(budget)

    if any(budget is not None for budget in budgets):
        # Per-request budgets: solve one by one — each request's budget
        # tightens the flag-level budget for its own query only.
        started = time.perf_counter()
        runs = analyzer.solver_runs
        hits = analyzer.solve_cache_hits
        disk = analyzer.disk_cache_hits
        report = BatchReport(
            outcomes=[
                analyzer.solve(query, budget)
                for query, budget in zip(queries, budgets)
            ],
            total_seconds=time.perf_counter() - started,
            solver_runs=analyzer.solver_runs - runs,
            cache_hits=analyzer.solve_cache_hits - hits,
            disk_cache_hits=analyzer.disk_cache_hits - disk,
        )
    else:
        report = analyzer.solve_many(queries)
    solved = iter(report.outcomes)
    outcomes = [
        conversion_errors[position]
        if position in conversion_errors
        else next(solved).as_dict()
        for position in range(len(payloads))
    ]
    document = report.as_dict()
    document["outcomes"] = outcomes
    document["errors"] = report.errors + len(conversion_errors)
    document["cache_statistics"] = analyzer.cache_statistics()

    indent = None if args.compact else 2
    print(json.dumps(document, ensure_ascii=False, indent=indent))
    if document["errors"] != 0:
        return EXIT_ANALYSIS_ERROR
    return EXIT_UNKNOWN if report.unknowns else EXIT_OK
