"""``repro audit`` — whole-stylesheet static analysis from the command line.

Audits one XSLT stylesheet (and its ``xsl:import``/``xsl:include`` closure)
against one schema, printing either a compiler-style text listing or the
stable JSON report of :meth:`repro.xslt.report.AuditReport.as_dict`.

Exit codes follow the shared CLI contract, refined by ``--fail-on``: 0 when
no finding reaches the threshold severity (default ``error``), 1 when one
does, 2 when the invocation itself was unusable (missing stylesheet,
unknown schema, malformed XML), 3 when nothing reached the threshold but at
least one audit query was *inconclusive* — a ``--deadline``/``--max-steps``
budget ran out, so the report carries ``analysis-unknown`` findings and the
audit cannot vouch for the rules those queries back.
"""

from __future__ import annotations

import sys

from repro.api import StaticAnalyzer
from repro.cli.analyze import EXIT_UNKNOWN, EXIT_USAGE
from repro.cli.main import budget_from_args
from repro.core.errors import ReproError
from repro.xslt import audit_stylesheet


def run(args) -> int:
    analyzer = StaticAnalyzer(
        cache_dir=args.cache_dir,
        backend=getattr(args, "backend", None),
        budget=budget_from_args(args),
        degrade=getattr(args, "degrade", False),
    )
    try:
        report = audit_stylesheet(
            args.stylesheet, args.schema, analyzer=analyzer, workers=args.workers
        )
    except (OSError, ReproError) as exc:
        print(f"repro audit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        indent = None if args.compact else 2
        print(report.to_json(ensure_ascii=False, indent=indent))
    else:
        print(report.to_text())
    fail_on = None if args.fail_on == "never" else args.fail_on
    code = report.exit_code(fail_on)
    if code == 0 and any(f.rule == "analysis-unknown" for f in report.findings):
        return EXIT_UNKNOWN
    return code
