"""BDD-backend ablation — the pure-Python arena vs its native C kernels.

Runs the nested-containment scaling family once per engine registered in
:data:`repro.bdd.backends.BACKENDS` and records the wall clock each spent
(min over repetitions with collector control).  Verdicts and every solver
and BDD counter are asserted identical inside the runner — the native
kernels run the arena's algorithm frame for frame, so this benchmark
measures only what the interpreter costs.  The measurement lives in
:func:`repro.cli.bench.run_backend`, shared with ``repro bench backend``.
"""

from conftest import write_bench_json, write_report
from repro.cli.bench import BACKEND_ITE_CALLS_MAX_DEPTH3, run_backend


def test_backend_ablation(benchmark):
    payload = benchmark.pedantic(run_backend, rounds=1, iterations=1)
    rows = payload["rows"]
    report = ["BDD backend ablation: arena vs native on the scaling rows"]
    for row in rows:
        columns = row["backends"]
        cells = " | ".join(
            f"{name}: {column['solve_seconds']:.3f}s "
            f"ite={column['bdd_ite_calls']} peak={column['bdd_peak_node_count']}"
            for name, column in columns.items()
        )
        speedup = row.get("native_speedup")
        report.append(
            f"depth {row['depth']}: {cells}"
            + (f" | native speedup {speedup}x" if speedup is not None else "")
        )
    # Every committed ceiling names a registered backend that produced rows.
    for name in BACKEND_ITE_CALLS_MAX_DEPTH3:
        assert name in rows[0]["backends"]
    # The counters are equal across engines on every row (the runner raises
    # otherwise); spelled out here for the two engines of the ceilings.
    for row in rows:
        arena, native = row["backends"]["arena"], row["backends"]["native"]
        assert {k: v for k, v in arena.items() if k != "solve_seconds"} == {
            k: v for k, v in native.items() if k != "solve_seconds"
        }
    write_report("backend_ablation", report)
    write_bench_json("backend", payload)
