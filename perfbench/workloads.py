"""Workload inputs, the hand-written answers they are checked against, and
the program's own counters.

The inputs are fixed committed data except the order of the ``serve``
stream, which is drawn from the workload seed.  ``expected.json`` holds the
answers: the paper's Table 2 and Lemma 6.7, and the verdicts and seeded
audit defects the test-suite pins.  Nothing here compares the program with
its own earlier output.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
WORKLOADS = ("scaling", "audit-cold", "audit-replay", "serve")


def scaling_queries() -> list[tuple[int, str, str]]:
    """(depth, a1/a2[b2]/.../ad[bd], the same path without ``[b2]``)."""
    rows = []
    for depth in EXPECTED["scaling"]["depths"]:
        query = "/".join(["a1"] + [f"a{i}[b{i}]" for i in range(2, depth + 1)])
        rows.append((depth, query, query.replace("[b2]", "") if depth >= 2 else "*"))
    return rows


def serve_requests(seed: int) -> list[dict]:
    """The 50-request stream in the seed's order; ``id`` indexes the problem list."""
    problems = EXPECTED["serve"]["problems"]
    requests = []
    for repeat in range(EXPECTED["serve"]["repeats"]):
        for index, problem in enumerate(problems):
            request = {"id": repeat * len(problems) + index, "kind": problem["kind"]}
            request["exprs"] = problem["exprs"]
            if "types" in problem:
                request["types"] = problem["types"]
            requests.append(request)
    random.Random(seed).shuffle(requests)
    return requests


def serve_expected(request_id: int) -> dict:
    problems = EXPECTED["serve"]["problems"]
    return problems[request_id % len(problems)]


# -- the program's counters ------------------------------------------------------


def new_record_statistics(cache_dir: str, since: float) -> list[dict]:
    """Solver statistics of the disk-cache entries written at or after ``since``."""
    from repro.cache import DiskSolveCache

    return [
        entry["statistics"]
        for entry in DiskSolveCache(cache_dir).entries()
        if entry.get("created", 0.0) >= since
    ]


def program_counters(runs: list[dict], api: dict) -> dict:
    """Counters of one workload pass: ``runs`` holds the statistics of every
    solver run it made, ``api`` the analyzer's ``cache_statistics()``."""
    return {
        "solver_runs": api["solver_runs"],
        "solved_records": len(runs),
        "memory_hits": api["solve_cache_hits"],
        "disk_hits": api["disk_cache_hits"],
        "disk_writes": api["disk_cache_writes"],
        "product_calls": sum(run["product_calls"] for run in runs),
        "product_cache_hits": sum(run["product_cache_hits"] for run in runs),
        "bdd_ite_calls": sum(run["bdd_ite_calls"] for run in runs),
        "bdd_ite_cache_hits": sum(run["bdd_ite_cache_hits"] for run in runs),
        "iterations": sum(run["iterations"] for run in runs),
        "lean_size_max": max((run["lean_size"] for run in runs), default=0),
        "bdd_peak_nodes": max((run["bdd_peak_node_count"] for run in runs), default=0),
    }


def sum_api_statistics(parts: list[dict]) -> dict:
    keys = ("solver_runs", "solve_cache_hits", "disk_cache_hits", "disk_cache_writes")
    return {key: sum(part[key] for part in parts) for key in keys}


# -- correctness -----------------------------------------------------------------


def witness_problems(text: str | None, type_name: str | None, exprs) -> list[str]:
    """Why a returned counterexample is not a document of its schema.

    Membership is decided by :mod:`repro.xmltypes.membership`, which does not
    use the solver.  A plain type constrains the subtree of the marked node
    (the paper's semantics); a ``rooted:`` type the whole document.  Subtrees
    that still carry the wildcard label of a pruned model the program could
    not lift are checked for attributes only, as the test-suite does.
    """
    if text is None:
        return []
    from repro.analysis.problems import relevant_attributes
    from repro.solver.models import FRESH_LABEL
    from repro.trees.unranked import parse_tree
    from repro.xmltypes.library import builtin_dtd
    from repro.xmltypes.membership import dtd_accepts, dtd_attribute_violations

    document = parse_tree(text)
    if document.mark_count() != 1:
        return [f"witness carries {document.mark_count()} marks: {text}"]
    if type_name is None:
        return []
    rooted = type_name.startswith("rooted:")
    dtd = builtin_dtd(type_name.removeprefix("rooted:"))
    subtree = document
    if not rooted:
        for index in document.find_mark():
            subtree = subtree.children[index]
    subtree = subtree.unmark_all()
    problems = []
    if FRESH_LABEL not in subtree.labels() and not dtd_accepts(dtd, subtree):
        problems.append(f"witness does not validate against {dtd.name}: {text}")
    alphabet = relevant_attributes(*exprs) if exprs else ()
    problems += dtd_attribute_violations(dtd, subtree, alphabet)
    return problems


def check_scaling(results: list[dict]) -> list[str]:
    expected = EXPECTED["scaling"]
    problems = []
    if [row["depth"] for row in results] != expected["depths"]:
        problems.append("scaling did not answer every depth")
    for row in results:
        if row["verdict_status"] != "definite" or row["holds"] is not expected["holds"]:
            problems.append(f"depth {row['depth']}: {row['verdict_status']} {row['holds']}")
    return problems


def check_serve(requests: list[dict], responses: list[dict]) -> list[str]:
    problems = []
    answered = {response.get("id"): response for response in responses}
    for request in requests:
        response = answered.get(request["id"])
        if response is None:
            problems.append(f"request {request['id']}: no response")
            continue
        expected = serve_expected(request["id"])
        outcome = response.get("outcome") or {}
        if not response.get("ok") or outcome.get("verdict_status") != "definite":
            problems.append(f"request {request['id']}: not a definite verdict: {response}")
        elif outcome["holds"] is not expected["holds"]:
            problems.append(f"request {request['id']}: holds={outcome['holds']}")
        else:
            types = request.get("types") or [None]
            witness = witness_problems(outcome.get("counterexample"), types[0], request["exprs"])
            problems += [f"request {request['id']}: {line}" for line in witness]
    return problems


def check_audit(report: dict) -> list[str]:
    """Wrong, missing or inconclusive findings (info findings are not compared)."""
    expected = EXPECTED["audit"]
    want = sorted(
        (f["rule"], f["file"], f["line"], f["element"] or "") for f in expected["findings"]
    )
    got = sorted(
        (
            f["rule"],
            Path(f["file"]).name,
            f["line"],
            (f.get("detail") or {}).get("element") or "",
        )
        for f in report["findings"]
        if f["severity"] != "info"
    )
    problems = [f"missing finding {item}" for item in want if item not in got]
    problems += [f"unexpected finding {item}" for item in got if item not in want]
    queries = sum(report["queries"].values())
    if queries != expected["queries"]:
        problems.append(f"{queries} audit queries, expected {expected['queries']}")
    for finding in report["findings"]:
        witness = (finding.get("detail") or {}).get("witness")
        if witness is not None:
            type_name = f"rooted:{expected['schema']}"
            problems += witness_problems(witness, type_name, finding["detail"]["candidates"])
    return problems
