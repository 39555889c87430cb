"""``repro fuzz`` — the differential fuzzing campaign from the command line.

Runs :func:`repro.testing.fuzz.run_fuzz`: every trial generates a random
decision problem, answers it with the symbolic engine under pruning on/off ×
one run per selected BDD backend (``--backend``, accepting a name or
``all``), and cross-checks the verdicts against the
bounded explicit oracles (see ``docs/TESTING.md``).  The JSON campaign
report is printed to stdout.

With ``--chaos`` every trial additionally stresses resource governance: a
seeded budgeted re-solve and an injected deadline expiry must both degrade
into structured ``BudgetExceeded`` outcomes, never a wrong verdict or a hard
crash (the fault-injection harness of :mod:`repro.testing.faults`).

Exit codes follow the ``repro analyze`` contract:

* ``0`` — every trial agreed across all engines and oracles;
* ``1`` — at least one cross-oracle disagreement was found (the shrunk
  case(s) are serialised into the corpus directory for permanent replay);
* ``2`` — the campaign itself failed (internal error in a trial, unusable
  flags).

Campaigns are deterministic: ``--seed`` fixes every generated case, and
``--workers`` only changes wall-clock time, never results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.testing.fuzz import FuzzConfig, run_fuzz
from repro.testing.generators import GeneratorConfig
from repro.testing.oracle import Bounds

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_INTERNAL = 2

#: Corpus directory used when ``--corpus-dir`` is not given and this
#: directory exists under the working directory (the in-repo layout).
DEFAULT_CORPUS_DIR = "tests/corpus"


def add_arguments(parser) -> None:
    """Flags of the ``fuzz`` subcommand (called by :mod:`repro.cli.main`)."""
    parser.add_argument(
        "--budget", type=int, default=100, metavar="N", help="trials to run (default: 100)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="campaign seed; every trial derives deterministically from it (default: 0)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="fan trials out to N worker processes (identical results; default: 1)",
    )
    parser.add_argument(
        "--max-depth", type=int, default=Bounds.max_depth, metavar="D",
        help="depth bound of oracle document enumeration (default: %(default)s)",
    )
    parser.add_argument(
        "--max-width", type=int, default=Bounds.max_width, metavar="W",
        help="children bound of oracle document enumeration (default: %(default)s)",
    )
    parser.add_argument(
        "--max-docs", type=int, default=Bounds.max_documents, metavar="N",
        help="marked documents the enumeration oracle examines per trial "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--semantic-samples", type=int, default=Bounds.semantic_samples, metavar="N",
        help="documents per trial cross-checked against the compiled formula "
        "(Proposition 5.1; default: %(default)s)",
    )
    parser.add_argument(
        "--explicit-types", type=int, default=Bounds.explicit_types, metavar="N",
        help="psi-type budget above which the explicit solver oracle is "
        "skipped (default: %(default)s)",
    )
    parser.add_argument(
        "--max-lean", type=int, default=Bounds.max_lean, metavar="N",
        help="skip trials whose formula Lean exceeds N entries (the solver "
        "is 2^O(lean); skips are deterministic and reported; "
        "default: %(default)s)",
    )
    parser.add_argument(
        "--corpus-dir", metavar="DIR", default=None,
        help="where shrunk disagreements are serialised for permanent replay "
        f"(default: {DEFAULT_CORPUS_DIR!r} when it exists, else disabled)",
    )
    parser.add_argument(
        "--sample-corpus", type=int, default=0, metavar="N",
        help="additionally write N shrunk agreeing cases as regression seeds",
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="BDD engine axis of the ablation matrix: a backend name, or "
        "'all' to solve every cell once per registered engine and demand "
        "identical verdicts (default: $REPRO_BDD_BACKEND if set, else the "
        "default engine: native when its C library builds, otherwise arena)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="also stress resource governance on every trial: a seeded "
        "budgeted re-solve must agree with the reference verdict or yield a "
        "structured BudgetExceeded, and an injected deadline expiry must "
        "surface as one (never a wrong verdict, never a hard crash)",
    )
    parser.add_argument(
        "--compact", action="store_true", help="single-line JSON output"
    )


def _corpus_dir(args) -> str | None:
    if args.corpus_dir is not None:
        return args.corpus_dir
    return DEFAULT_CORPUS_DIR if Path(DEFAULT_CORPUS_DIR).is_dir() else None


def _backends(args) -> tuple[str, ...]:
    from repro.bdd.backends import available_backends, resolve_backend

    choice = getattr(args, "backend", None)
    if choice == "all":
        return available_backends()
    return (resolve_backend(choice),)


def run(args) -> int:
    if args.budget < 1:
        print("repro fuzz: --budget must be at least 1", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        backends = _backends(args)
    except ValueError as exc:
        print(f"repro fuzz: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    config = FuzzConfig(
        budget=args.budget,
        seed=args.seed,
        workers=max(1, args.workers),
        bounds=Bounds(
            max_depth=args.max_depth,
            max_width=args.max_width,
            max_documents=args.max_docs,
            semantic_samples=args.semantic_samples,
            explicit_types=args.explicit_types,
            max_lean=args.max_lean,
        ),
        generator=GeneratorConfig(),
        corpus_dir=_corpus_dir(args),
        sample_corpus=args.sample_corpus,
        backends=backends,
        chaos=args.chaos,
    )
    report = run_fuzz(config)
    payload = report.as_dict()
    indent = None if args.compact else 2
    print(json.dumps(payload, ensure_ascii=False, indent=indent))
    if payload["errors"]:
        summary = payload["errors"][0]
        print(
            f"repro fuzz: internal error in trial {summary['trial']}: "
            f"{summary['error']}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    if payload["disagreements"]:
        print(
            f"repro fuzz: {len(payload['disagreements'])} cross-oracle "
            f"disagreement(s); shrunk cases: {payload['corpus_files']}",
            file=sys.stderr,
        )
        return EXIT_DISAGREEMENT
    return EXIT_OK
