"""Argument parsing and dispatch for the ``repro`` console entry point.

Subcommands (see :mod:`repro.cli` for the overview and ``docs/CLI.md`` for
the user guide):

* ``repro analyze`` — one-shot queries from arguments or a batch file.
* ``repro audit``   — static analysis of an XSLT stylesheet against a schema.
* ``repro serve``   — streaming JSON-lines request/response loop.
* ``repro schemas`` — list/inspect the bundled DTDs.
* ``repro bench``   — re-emit the ``BENCH_*.json`` reports.
* ``repro fuzz``    — differential fuzzing against the explicit oracles.

Every subcommand shares the exit-code contract of ``repro analyze``: 0 on
success, 1 when the run found what it looked for but the answer is "bad"
(analysis errors, benchmark regressions, fuzz disagreements), 2 when the
invocation or the run itself failed — internal errors print one diagnostic
line to stderr instead of a traceback — and 3 when every query was analysed
but at least one verdict is *unknown* because a resource budget ran out
(see the ``--deadline``/``--max-steps``/``--max-lean`` options shared by
``analyze``, ``audit`` and ``serve``).

The persistent solve cache is enabled by ``--cache-dir`` on ``analyze`` and
``serve``, or by the ``REPRO_CACHE_DIR`` environment variable (the flag
wins).
"""

from __future__ import annotations

import argparse
import os
import sys

#: Environment variable consulted when ``--cache-dir`` is not given.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Registered BDD engines, kept in sync with ``repro.bdd.backends.BACKENDS``
#: (hard-coded here so ``repro ... --help`` never imports the solver stack).
BACKEND_CHOICES = ("arena", "native")


def _add_cache_dir_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get(CACHE_DIR_ENV) or None,
        metavar="DIR",
        help="persistent solve-cache directory (default: $REPRO_CACHE_DIR if set, "
        "else no persistence)",
    )


def _add_backend_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default=None,
        help="BDD engine for solver runs (default: $REPRO_BDD_BACKEND if set, "
        "else native when its C library builds, otherwise arena); both engines "
        "produce identical verdicts",
    )


def _add_budget_options(parser: argparse.ArgumentParser) -> None:
    budget = parser.add_argument_group(
        "resource budgets",
        "bound every solver run; a query that runs out of budget gets a "
        "structured 'unknown' verdict (exit code 3) instead of hanging",
    )
    budget.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline per solver run",
    )
    budget.add_argument(
        "--max-steps",
        type=int,
        default=None,
        metavar="N",
        help="cap on BDD kernel steps per solver run (machine-independent)",
    )
    budget.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        metavar="N",
        help="cap on fixpoint iterations per solver run",
    )
    budget.add_argument(
        "--max-lean",
        type=int,
        default=None,
        metavar="N",
        help="refuse formulas whose Lean exceeds N before any BDD is built "
        "(the algorithm is 2^O(lean))",
    )
    budget.add_argument(
        "--degrade",
        action="store_true",
        help="when a budget runs out, fall back to the bounded explicit "
        "solver for instances small enough to decide eagerly",
    )


def budget_from_args(args) -> "object | None":
    """The analyzer-wide :class:`repro.solver.governor.Budget` the flags ask
    for, or ``None`` when every limit is absent (imported lazily so
    ``repro --help`` stays solver-free)."""
    from repro.solver.governor import Budget

    budget = Budget(
        deadline_seconds=getattr(args, "deadline", None),
        max_steps=getattr(args, "max_steps", None),
        max_iterations=getattr(args, "max_iterations", None),
        max_lean=getattr(args, "max_lean", None),
    )
    return None if budget.unlimited else budget


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Static analyzer for XPath/XML-type decision problems "
        "(Genevès, Layaïda & Schmitt, PLDI 2007).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser(
        "analyze",
        help="answer decision problems from arguments or a batch file",
        description="Answer one query (1 expression: satisfiability, 2: containment, "
        "override with --kind) or a --batch file of queries; prints a JSON report.",
    )
    analyze.add_argument("exprs", nargs="*", metavar="EXPR", help="XPath expression(s)")
    analyze.add_argument(
        "--kind",
        choices=(
            "satisfiability",
            "emptiness",
            "containment",
            "equivalence",
            "overlap",
            "coverage",
            "type_inclusion",
        ),
        help="decision problem to run on the expressions",
    )
    analyze.add_argument(
        "--type",
        dest="types",
        action="append",
        metavar="SCHEMA",
        help="type constraint per expression: a built-in schema name or a .dtd file; "
        "give once to apply to every side, repeat for per-side types",
    )
    analyze.add_argument(
        "--batch", metavar="FILE", help="JSON array or JSONL file of query objects"
    )
    analyze.add_argument(
        "--compact", action="store_true", help="single-line JSON output"
    )
    _add_cache_dir_option(analyze)
    _add_backend_option(analyze)
    _add_budget_options(analyze)

    audit = subparsers.add_parser(
        "audit",
        help="static analysis of an XSLT stylesheet against a schema",
        description="Audit an XSLT 1.0 stylesheet (with its import/include "
        "closure) against a schema: dead templates, shadowed templates, "
        "unreachable branches, dead selects, coverage gaps. All checks are "
        "decided in one batched solver pass.",
    )
    audit.add_argument("stylesheet", metavar="STYLESHEET", help="path to the .xsl file")
    audit.add_argument(
        "--schema",
        required=True,
        metavar="SCHEMA",
        help="document schema the stylesheet consumes: a built-in schema name "
        "(see `repro schemas`) or a .dtd file",
    )
    audit.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    audit.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="lowest severity that makes the exit code 1 (default: error; "
        "'never' always exits 0 for findings)",
    )
    audit.add_argument(
        "--compact", action="store_true", help="single-line JSON output"
    )
    audit.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan the decision-problem batch out to N worker processes "
        "(default: 1, in-process)",
    )
    _add_cache_dir_option(audit)
    _add_backend_option(audit)
    _add_budget_options(audit)

    serve = subparsers.add_parser(
        "serve",
        help="answer JSONL requests on stdin until end-of-input",
        description="Stream JSON-lines requests on stdin; one JSON response per "
        "line on stdout. Control ops: {\"op\": \"ping\"|\"stats\"|\"schemas\"}.",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan queries out to N worker processes (responses stay in request "
        "order; default: 1, in-process)",
    )
    _add_cache_dir_option(serve)
    _add_backend_option(serve)
    _add_budget_options(serve)

    schemas = subparsers.add_parser(
        "schemas",
        help="list or inspect the bundled DTDs",
        description="List the bundled schema registry, or inspect one schema.",
    )
    schemas.add_argument("name", nargs="?", help="schema name or alias to inspect")
    schemas.add_argument("--json", action="store_true", help="machine-readable output")

    bench = subparsers.add_parser(
        "bench",
        help="re-emit the BENCH_*.json benchmark reports",
        description="Run the built-in benchmarks and write BENCH_<name>.json files.",
    )
    bench.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="benchmarks to run: api-batch, cli-cache, scaling, backend, audit "
        "(default: all)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: scaling runs depths 1-3 only, and the run "
        "fails if the depth-3 product_calls counter regresses above the "
        "committed threshold",
    )
    bench.add_argument(
        "--output-dir",
        default=".",
        metavar="DIR",
        help="where to write the BENCH_*.json files (default: current directory)",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the multiprocess benchmark sections "
        "(default: the benchmark's own setting)",
    )

    fuzz = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing against bounded explicit oracles",
        description="Generate random DTD/XPath decision problems, solve each "
        "with pruning on/off on every selected BDD backend, and cross-check every "
        "verdict against bounded enumeration, the psi-type solver, and "
        "witness replay. Prints a JSON campaign report; exit code 1 means a "
        "disagreement was found (and shrunk into the corpus directory).",
    )
    from repro.cli import fuzz as fuzz_command

    fuzz_command.add_arguments(fuzz)

    return parser


#: Exit code for internal failures, shared by every subcommand (matching the
#: documented ``repro analyze`` contract).
EXIT_INTERNAL = 2


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro`` console script; returns the exit code."""
    args = build_parser().parse_args(argv)
    # Imported lazily so `repro schemas --help` never pays solver import cost.
    if args.command == "analyze":
        from repro.cli import analyze as command
    elif args.command == "audit":
        from repro.cli import audit as command
    elif args.command == "serve":
        from repro.cli import serve as command
    elif args.command == "schemas":
        from repro.cli import schemas as command
    elif args.command == "fuzz":
        from repro.cli import fuzz as command
    else:
        from repro.cli import bench as command
    try:
        return command.run(args)
    except BrokenPipeError:
        # Output was piped into something like `head` that closed early;
        # exit quietly the way standard Unix filters do.  Point stdout at
        # /dev/null so the interpreter's exit-time flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # noqa: BLE001 - the CLI's last line of defence
        # Internal errors become one diagnostic line and exit code 2, never
        # a traceback: scripts driving the CLI rely on the 0/1/2 contract.
        print(
            f"repro {args.command}: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
