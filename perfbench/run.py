"""The repository benchmark: one workload, end-to-end or traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {scaling,audit-cold,audit-replay,serve}
        --seed N --seconds S --trace {0,1}

Every timed pass runs in a fresh process, because the formula intern table
and the parse caches are process-global and a second pass in one process
measures a warm program that no command-line user runs.  Passes repeat until
``--seconds`` have gone by (at least one).  ``--trace 0`` reports the
end-to-end metrics (medians over the passes); ``--trace 1`` alternates
untraced and traced passes and reports the per-layer breakdown of the
traced pass with the median wall time.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See DESIGN.md next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
#: Set-up samples per run; passes that run the workload count towards them.
SETUP_SAMPLES = 7
#: A child still running after this many seconds is killed (a failed pass).
PASS_TIMEOUT_S = 150.0

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class PassFailed(Exception):
    """A child process died, hung or answered out of protocol."""


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Child:
    """A child process with piped stdin/stdout, a kill timer and its rusage.

    Use it as a context manager: leaving the block kills and reaps a child
    that :meth:`finish` has not reaped, so no error path leaves one behind.
    """

    def __init__(self, argv: list[str], log: Path):
        self.log = log
        self.log_handle = open(log, "w", encoding="utf-8")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log_handle,
            text=True,
            encoding="utf-8",
            bufsize=1,
        )
        self.timer = threading.Timer(PASS_TIMEOUT_S, self.process.kill)
        self.timer.start()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc_info) -> None:
        self.timer.cancel()
        if self.process.returncode is None:
            self.process.kill()
            self.process.wait()
        for stream in (self.process.stdin, self.process.stdout, self.log_handle):
            stream.close()

    def send(self, line: str) -> None:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()

    def receive(self) -> str:
        line = self.process.stdout.readline()
        if not line:
            raise PassFailed(f"child ended early: {self.log.read_text()[-800:]}")
        return line

    def finish(self) -> float:
        """Close stdin, reap the child and return its peak RSS in MiB."""
        self.process.stdin.close()
        self.process.stdout.read()
        _pid, status, usage = os.wait4(self.process.pid, 0)
        self.process.returncode = os.waitstatus_to_exitcode(status)
        if self.process.returncode != 0:
            raise PassFailed(
                f"child exited {self.process.returncode}: {self.log.read_text()[-800:]}"
            )
        return usage.ru_maxrss / 1024.0  # Linux reports KiB


# -- one pass --------------------------------------------------------------------


def worker_pass(workload: str, cache_dir: Path, trace: bool, setup_only: bool = False) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), workload, "--cache-dir", str(cache_dir)]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    with Child(argv, cache_dir.with_suffix(".log")) as child:
        if child.receive().strip() != "ready":
            raise PassFailed("worker did not report ready")
        setup_s = time.perf_counter() - child.started
        payload = {} if setup_only else json.loads(child.receive())
        payload["rss_mb"] = child.finish()
    payload["setup_s"] = setup_s
    return payload


def serve_pass(requests: list[dict], cache_dir: Path, trace: bool, setup_only: bool = False) -> dict:
    """The stream through one ``repro serve`` process, one request in flight."""
    trace_out = cache_dir.with_suffix(".trace.json")
    if trace:
        argv = [sys.executable, str(HERE / "traced_serve.py"), "--cache-dir", str(cache_dir)]
        argv += ["--trace-out", str(trace_out)]
    else:
        argv = [sys.executable, "-m", "repro.cli", "serve", "--cache-dir", str(cache_dir)]
    with Child(argv, cache_dir.with_suffix(".log")) as child:
        child.send(json.dumps({"op": "ping"}))
        if not json.loads(child.receive()).get("ok"):
            raise PassFailed("serve did not answer ping")
        setup_s = time.perf_counter() - child.started
        if setup_only:
            return {"setup_s": setup_s, "rss_mb": child.finish()}
        responses = []
        started = time.perf_counter()
        for request in requests:
            child.send(json.dumps(request, ensure_ascii=False))
            responses.append(json.loads(child.receive()))
        wall_s = time.perf_counter() - started
        child.send(json.dumps({"op": "stats"}))
        stats = json.loads(child.receive())["stats"]
        rss_mb = child.finish()
    payload = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "answers": responses,
        "cache_entries": stats.get("disk_cache_entries"),
        "counters": workloads.program_counters(
            workloads.new_record_statistics(str(cache_dir), 0.0), stats
        ),
    }
    if trace:
        payload["trace"] = json.loads(trace_out.read_text(encoding="utf-8"))
        if payload["trace"] is None:
            raise PassFailed("the serve trace window never closed")
    return payload


# -- fixtures --------------------------------------------------------------------


def source_digest() -> str:
    """Digest of the program sources and the audited stylesheets."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "examples").glob("audit_*.xsl"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def replay_fixture() -> Path:
    """The cache directory a cold audit fills, made once per program version.

    Filled untimed by a cold-audit pass whose answers are checked, then kept
    read-only in spirit: every replay pass reads its own copy.
    """
    from repro.cache import DiskSolveCache

    fixture = WORK / f"replay-fixture-{source_digest()}"
    if not fixture.is_dir():
        scratch = WORK / f"replay-fixture-{os.getpid()}.tmp"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        payload = worker_pass("audit-cold", scratch / "cache", trace=False)
        problems = workloads.check_audit(payload["answers"])
        if problems:
            raise PassFailed(f"the cold audit filling the replay fixture is wrong: {problems}")
        os.replace(scratch / "cache", fixture)
        shutil.rmtree(scratch, ignore_errors=True)
    entries = len(DiskSolveCache(fixture))
    if entries != workloads.EXPECTED["audit"]["cache_entries"]:
        raise PassFailed(f"replay fixture holds {entries} entries")
    return fixture


# -- checks ----------------------------------------------------------------------


def check_pass(workload: str, payload: dict, requests: list[dict]) -> tuple[int, list[str]]:
    """(queries attempted, problems) of one pass against the expected answers."""
    counters = payload["counters"]
    if workload == "scaling":
        attempted = len(workloads.EXPECTED["scaling"]["depths"])
        problems = workloads.check_scaling(payload["answers"])
    elif workload == "serve":
        attempted = len(requests)
        problems = workloads.check_serve(requests, payload["answers"])
    else:
        attempted = workloads.EXPECTED["audit"]["queries"]
        problems = workloads.check_audit(payload["answers"])
        if payload["cache_entries"] != workloads.EXPECTED["audit"]["cache_entries"]:
            problems.append(f"{payload['cache_entries']} cache entries after the audit")
    if workload == "audit-replay" and counters["solver_runs"] != 0:
        problems.append(f"replay ran the solver {counters['solver_runs']} times")
    if counters["solved_records"] != counters["solver_runs"]:
        problems.append(f"{counters['solved_records']} solver records for {counters['solver_runs']} runs")
    return attempted, problems


def check_trace(workload: str, payload: dict) -> tuple[list[str], list[str]]:
    """(problems, unfired sites) of one traced pass."""
    trace = payload["trace"]
    wall_ns = payload["wall_s"] * 1e9
    problems = []
    layer_sum = sum(trace["self_ns"].values())
    if layer_sum != trace["covered_ns"]:
        problems.append(f"layer self times sum to {layer_sum} ns, spans cover {trace['covered_ns']} ns")
    if trace["covered_ns"] > wall_ns:
        problems.append(f"spans cover {trace['covered_ns']} ns of a {wall_ns:.0f} ns wall time")
    return problems, tracing.unfired(workload, trace["calls"], trace["missing"])


# -- metrics ---------------------------------------------------------------------


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(traced: dict, untraced_wall_s: float) -> dict:
    trace, counters = traced["trace"], traced["counters"]
    calls = tracing.layer_calls(trace["calls"])
    self_s = {layer: ns / 1e9 for layer, ns in trace["self_ns"].items()}
    lookups = counters["solver_runs"] + counters["disk_hits"]
    values = {
        "xpath.parse.calls": (calls["xpath.parse"], "count"),
        "xpath.parse.self_s": (self_s["xpath.parse"], "s"),
        "xpath.compile.self_s": (self_s["xpath.compile"], "s"),
        "xmltypes.binarize.calls": (calls["xmltypes.binarize"], "count"),
        "xmltypes.binarize.self_s": (self_s["xmltypes.binarize"], "s"),
        "xmltypes.compile.self_s": (self_s["xmltypes.compile"], "s"),
        "logic.closure.calls": (calls["logic.closure"], "count"),
        "logic.closure.self_s": (self_s["logic.closure"], "s"),
        "logic.closure.lean_size_max": (counters["lean_size_max"], "count"),
        "logic.expand.calls": (calls["logic.expand"], "count"),
        "logic.expand.self_s": (self_s["logic.expand"], "s"),
        "solver.encode.self_s": (self_s["solver.encode"], "s"),
        "solver.product.calls": (calls["solver.product"], "count"),
        "solver.product.self_s": (self_s["solver.product"], "s"),
        "solver.product.cache_hit_ratio": (
            ratio(counters["product_cache_hits"], counters["product_calls"]),
            "ratio",
        ),
        "solver.fixpoint.self_s": (self_s["solver.fixpoint"], "s"),
        "solver.fixpoint.iterations": (counters["iterations"], "count"),
        "bdd.ite_calls": (counters["bdd_ite_calls"], "count"),
        "bdd.ite_hit_ratio": (ratio(counters["bdd_ite_cache_hits"], counters["bdd_ite_calls"]), "ratio"),
        "bdd.peak_nodes": (counters["bdd_peak_nodes"], "count"),
        "solver.reconstruct.calls": (calls["solver.reconstruct"], "count"),
        "solver.reconstruct.self_s": (self_s["solver.reconstruct"], "s"),
        "cache.disk.calls": (calls["cache.disk"], "count"),
        "cache.disk.self_s": (self_s["cache.disk"], "s"),
        "cache.disk.hit_ratio": (ratio(counters["disk_hits"], lookups), "ratio"),
        "cache.memory.hit_ratio": (
            ratio(counters["memory_hits"], counters["memory_hits"] + lookups),
            "ratio",
        ),
        "api.self_s": (self_s["api"], "s"),
        "api.solver_runs": (counters["solver_runs"], "count"),
        "xslt.self_s": (self_s["xslt"], "s"),
        "cli.wire.self_s": (self_s["cli.wire"], "s"),
        "other.self_s": (traced["wall_s"] - trace["covered_ns"] / 1e9, "s"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead_s": (traced["wall_s"] - untraced_wall_s, "s"),
        "trace.unfired": (len(traced["unfired"]), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


# -- one run ---------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    requests = workloads.serve_requests(seed) if workload == "serve" else []
    fixture = replay_fixture() if workload == "audit-replay" else None

    numbers = itertools.count(1)

    def one_pass(traced: bool, setup_only: bool = False) -> dict:
        cache_dir = scratch / f"pass-{next(numbers)}"
        if fixture is not None and not setup_only:
            shutil.copytree(fixture, cache_dir)
        if workload == "serve":
            return serve_pass(requests, cache_dir, traced, setup_only)
        return worker_pass(workload, cache_dir, traced, setup_only)

    untraced, traced, problems = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        for tracing_on in (False, True) if trace else (False,):
            payload = one_pass(tracing_on)
            count, found = check_pass(workload, payload, requests)
            attempted += count
            failed += min(count, len(found))
            problems += found
            if tracing_on:
                found, payload["unfired"] = check_trace(workload, payload)
                problems += found
                traced.append(payload)
            else:
                untraced.append(payload)
        if time.perf_counter() >= deadline:
            break
    setups = [payload["setup_s"] for payload in untraced]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(one_pass(False, setup_only=True)["setup_s"])

    reference = untraced[0]["counters"]
    for payload in untraced[1:] + traced:
        if payload["counters"] != reference:
            problems.append(f"program counters differ between passes: {payload['counters']} vs {reference}")

    wall_s = statistics.median(payload["wall_s"] for payload in untraced)
    if trace:
        middle = sorted(traced, key=lambda payload: payload["wall_s"])[(len(traced) - 1) // 2]
        metrics = layer_metrics(middle, wall_s)
        site_calls = middle["trace"]["calls"]
        unfired = sorted({site for payload in traced for site in payload["unfired"]})
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(payload["rss_mb"] for payload in untraced),
                "unit": "MiB",
            },
        }
        site_calls, unfired = {}, []
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "unfired": unfired,
        "site_calls": site_calls,
        "passes": len(untraced) + len(traced),
        "walls": [payload["wall_s"] for payload in untraced + traced],
        "counters": reference,
    }


def report(workload: str, seed: int, result: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"workload {workload}  seed {seed}  passes {result['passes']}")
    print(f"  pass wall times: {' '.join(f'{wall:.4f}' for wall in result['walls'])} s")
    metrics = result["metrics"]
    traced_wall = metrics.get("trace.wall_s", {}).get("value")
    for name, metric in metrics.items():
        share = ""
        if traced_wall and name.endswith(".self_s"):
            share = f"  ({100 * metric['value'] / traced_wall:.1f}% of traced wall)"
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}{share}")
    print(
        f"  {'failed_ratio':32s} {ratio(result['failed'], result['attempted']):.6g} "
        f"({result['failed']} of {result['attempted']} queries)"
    )
    print(f"  program counters: {json.dumps(result['counters'])}")
    for site, calls in result["site_calls"].items():
        print(f"  calls through {site}: {calls}")
    for site in result["unfired"]:
        print(f"  wrapper never fired where expected: {site}")
    for problem in result["problems"][:20]:
        print(f"  PROBLEM: {problem}")
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=workloads.WORKLOADS + ("all",),
        help="one workload, or all four in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/repro/__init__.py", workloads.EXPECTED["audit"]["stylesheet"]):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} not found; run from the repository root", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    code = 0
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in names:
        scratch = WORK / f"run-{os.getpid()}"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        try:
            result = run(workload, args.seed, args.seconds, bool(args.trace), scratch)
        except PassFailed as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        report(workload, args.seed, result)
        code = max(code, 0 if result["correct"] else 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
