"""One timed pass of an in-process workload, in a fresh interpreter.

Usage: ``python perfbench/worker.py {scaling|audit-cold|audit-replay}
--cache-dir DIR [--trace] [--setup-only]`` with the program's ``src`` on
``PYTHONPATH``.

The process imports the program and builds its analyzer, then prints
``ready`` (the parent times set-up from spawn to that line).  It then runs
the workload once, timing from the first call to the last verdict, and
prints one JSON line with the wall time, the answers and the program's own
counters.  With ``--trace`` the layer wrappers of :mod:`tracer` are
installed after ``ready`` and their totals are added to the JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

STARTED = time.time()

from repro.api import Query, StaticAnalyzer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("scaling", "audit-cold", "audit-replay"))
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.workload == "scaling":
        analyzer = StaticAnalyzer()
    else:
        import repro.xslt

        # The analyzer exactly as `repro audit --cache-dir DIR` builds it.
        analyzer = StaticAnalyzer(
            cache_dir=args.cache_dir,
            backend=None,
            budget=None,
            degrade=False,
            batch_fixpoint="off",
        )
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()

    import workloads

    if args.workload == "scaling":
        rows = workloads.scaling_queries()
        outcomes, api = [], []
        started = time.perf_counter()
        for position, (_depth, query, weaker) in enumerate(rows):
            if position:
                analyzer = StaticAnalyzer()  # a fresh analyzer per depth
            outcomes.append(analyzer.solve(Query.containment(query, weaker)))
            api.append(analyzer.cache_statistics())
        wall = time.perf_counter() - started
        result = {
            "answers": [
                {
                    "depth": depth,
                    "holds": outcome.holds,
                    "verdict_status": outcome.verdict_status,
                }
                for (depth, _q, _w), outcome in zip(rows, outcomes)
            ],
            "counters": workloads.program_counters(
                [outcome.statistics for outcome in outcomes],
                workloads.sum_api_statistics(api),
            ),
        }
    else:
        expected = workloads.EXPECTED["audit"]
        started = time.perf_counter()
        report = repro.xslt.audit_stylesheet(
            expected["stylesheet"], expected["schema"], analyzer=analyzer, workers=1
        )
        wall = time.perf_counter() - started
        result = {
            "answers": report.as_dict(),
            "counters": workloads.program_counters(
                workloads.new_record_statistics(args.cache_dir, STARTED),
                analyzer.cache_statistics(),
            ),
            "cache_entries": len(analyzer.disk_cache),
        }
    result["wall_s"] = wall
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
