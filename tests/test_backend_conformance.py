"""Cross-backend conformance suite for the BDD engines.

Every engine registered in :data:`repro.bdd.backends.BACKENDS` must be
observationally equivalent: same verdicts, same model counts, same algebraic
laws, same statistics counters for the same operation sequence.  The suite
parametrises each property test over the registry (registering a backend
enrols it automatically) and finishes with a seeded differential check that
builds a few hundred random formula DAGs on *all* backends at once and
demands identical satisfiability and model counts.

Within one engine node ids are canonical — equal functions must be the same
id.  Across the two shipped engines they are identical too: the native
kernels run the arena's algorithm frame for frame, so the same operation
sequence yields the same ids, counters, peak node counts and budget trips
on both (the "native ≡ arena" section at the end).
"""

import gc
import itertools
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import repro
from repro.bdd import arena
from repro.bdd.backends import BACKENDS, available_backends, create_manager
from repro.bdd.protocol import BDDBackend

NAMES = ["v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"]


@pytest.fixture(params=sorted(BACKENDS))
def manager(request):
    return create_manager(NAMES, backend=request.param)


def brute_force(function, names=NAMES):
    table = set()
    for bits in itertools.product((False, True), repeat=len(names)):
        if function.evaluate(dict(zip(names, bits))):
            table.add(bits)
    return table


# ---------------------------------------------------------------------------
# Protocol and registry
# ---------------------------------------------------------------------------


def test_registry_instances_satisfy_protocol():
    for name in available_backends():
        instance = create_manager(NAMES, backend=name)
        assert isinstance(instance, BDDBackend)
        assert instance.backend_name == name
        assert instance.TRUE != instance.FALSE


def test_resolve_precedence(monkeypatch):
    from repro.bdd.backends import BACKEND_ENV, resolve_backend

    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert resolve_backend() == "native"
    monkeypatch.setenv(BACKEND_ENV, "arena")
    assert resolve_backend() == "arena"
    assert resolve_backend("native") == "native"  # explicit beats environment
    with pytest.raises(ValueError):
        resolve_backend("no-such-engine")


# ---------------------------------------------------------------------------
# Algebraic laws (each backend independently)
# ---------------------------------------------------------------------------


def test_negation_involution(manager):
    a, b = manager.variable("v0"), manager.variable("v1")
    f = (a & ~b) | (b ^ a)
    assert (~~f).node == f.node
    assert (~f).node != f.node
    assert (~manager.true()).node == manager.false().node


def test_ite_identities(manager):
    a, b, c = (manager.variable(n) for n in ("v0", "v1", "v2"))
    f = a.iff(b) | c
    assert f.ite(manager.true(), manager.false()).node == f.node
    assert f.ite(b, b).node == b.node
    assert a.ite(b, c).node == ((a & b) | (~a & c)).node
    assert (a ^ b).node == a.ite(~b, b).node
    assert a.iff(b).node == a.ite(b, ~b).node
    assert a.implies(b).node == (~a | b).node


def test_de_morgan_and_absorption(manager):
    a, b = manager.variable("v3"), manager.variable("v5")
    assert (~(a & b)).node == (~a | ~b).node
    assert (a | (a & b)).node == a.node
    assert (a & (a | b)).node == a.node


def test_quantifier_laws(manager):
    a, b, c = (manager.variable(n) for n in ("v0", "v1", "v2"))
    f = (a & b) | (~a & c)
    # ∃x f == f|x=0 ∨ f|x=1 ; ∀x f == f|x=0 ∧ f|x=1.
    assert f.exists(["v0"]).node == (f.restrict({"v0": False}) | f.restrict({"v0": True})).node
    assert f.forall(["v0"]).node == (f.restrict({"v0": False}) & f.restrict({"v0": True})).node
    # Quantifiers over distinct variables commute.
    assert f.exists(["v0"]).exists(["v1"]).node == f.exists(["v1"]).exists(["v0"]).node
    assert f.exists(["v0", "v1"]).node == f.exists(["v1"]).exists(["v0"]).node
    # ∀x f == ¬∃x ¬f.
    assert f.forall(["v1"]).node == (~((~f).exists(["v1"]))).node
    # and_exists is the fused relational product.
    g = b.iff(c)
    assert f.and_exists(g, ["v1", "v2"]).node == (f & g).exists(["v1", "v2"]).node


def test_rename_quantifier_commutation(manager):
    a, b, c = (manager.variable(n) for n in ("v0", "v2", "v4"))
    f = (a ^ b) | (b & c)
    mapping = {"v0": "v1", "v2": "v3", "v4": "v5"}
    renamed = f.rename(mapping)
    # Semantics: renamed(y) == f(x) pointwise under the substitution.
    for bits in itertools.product((False, True), repeat=len(NAMES)):
        assignment = dict(zip(NAMES, bits))
        pulled = {n: assignment[mapping.get(n, n)] for n in NAMES}
        assert renamed.evaluate(assignment) == f.evaluate(pulled)
    # ∃(unrenamed var) commutes with the rename.
    assert f.exists(["v4"]).rename({"v0": "v1"}).node == f.rename({"v0": "v1"}).exists(["v4"]).node


def test_canonicity_equal_functions_equal_ids(manager):
    a, b, c, d = (manager.variable(n) for n in ("v0", "v1", "v2", "v3"))
    left = (a & b) | (a & c) | (b & c)
    right = (a | b) & (a | c) & (b | c)  # majority, factored differently
    assert left.node == right.node
    assert ((a ^ b) ^ c ^ d).node == (a ^ (b ^ (c ^ d))).node
    assert (left & ~left).node == manager.false().node
    assert (left | ~left).node == manager.true().node


def test_counting_and_assignments(manager):
    a, b, c = (manager.variable(n) for n in ("v0", "v1", "v2"))
    f = (a & b) | c
    assert f.count_assignments(["v0", "v1", "v2"]) == len(brute_force(f, ["v0", "v1", "v2"]))
    assert manager.true().count_assignments(["v0"]) == 2
    assert manager.false().count_assignments() == 0
    picked = f.pick_assignment()
    assert picked is not None
    full = {name: picked.get(name, False) for name in NAMES}
    assert f.evaluate(full)
    models = list(f.iter_assignments(["v0", "v1", "v2"]))
    assert len(models) == f.count_assignments(["v0", "v1", "v2"])
    assert all(f.evaluate({**{n: False for n in NAMES}, **m}) for m in models)


def test_statistics_deterministic_per_backend():
    def workload(engine):
        m = create_manager(NAMES, backend=engine)
        a, b, c = (m.variable(n) for n in ("v0", "v1", "v2"))
        f = (a ^ b).iff(c) | (a & b)
        f = f.and_exists(b | c, ["v1"])
        _ = (~f).exists(["v0"])
        return m.statistics().as_dict()

    for engine in available_backends():
        first, second = workload(engine), workload(engine)
        assert first == second, engine
        assert first["ite_calls"] > 0
        assert first["node_count"] >= 1


def test_gc_preserves_semantics(manager):
    a, b, c = (manager.variable(n) for n in ("v0", "v1", "v2"))
    kept = (a & b) | (~a & c)
    table = brute_force(kept)
    # Build garbage the sweep should reclaim.
    for i in range(6):
        _ = (a ^ b).ite(c, manager.variable(NAMES[3 + i % 4]))
    holder = {"f": kept}
    manager.add_gc_hook(
        lambda: [holder["f"].node],
        lambda remap: holder.update(f=manager.wrap(manager.translate(remap, holder["f"].node))),
    )
    before = manager.generation
    remap = manager.garbage_collect()
    assert manager.generation == before + 1
    # The relocation map covers both terminals (mapped to themselves).
    assert remap[manager.TRUE] == manager.TRUE
    assert remap[manager.FALSE] == manager.FALSE
    assert brute_force(holder["f"]) == table
    # The engine keeps working after the sweep.
    assert (holder["f"] | ~holder["f"]).is_true


def test_gc_skips_hooks_of_freed_participants(manager):
    class Participant:
        remaps = 0

        def roots(self):
            return []

        def remap(self, relocations):
            Participant.remaps += 1

    alive, dead = Participant(), Participant()
    manager.add_gc_hook(alive.roots, alive.remap)
    manager.add_gc_hook(dead.roots, dead.remap)
    del dead
    manager.garbage_collect()
    assert Participant.remaps == 1


def test_freed_arena_empties_its_node_arrays():
    """The arena's kernels are self-recursive closures over its node arrays.

    That cycle only goes with a cyclic collection, so the arena empties
    the arrays it replaces in a sweep and, when freed, the ones it holds.
    """
    from repro.bdd.arena import ArenaBDDManager

    manager = ArenaBDDManager(NAMES)
    kept = manager.variable("v0") & manager.variable("v1")
    replaced = manager._node_tables()
    remap = manager.garbage_collect([kept.node])
    assert all(len(table) == 0 for table in replaced)
    assert manager.wrap(manager.translate(remap, kept.node)).evaluate(
        dict.fromkeys(NAMES, True)
    )
    held = manager._node_tables()
    assert all(len(table) > 0 for table in held[:3])
    del kept, manager
    assert all(len(table) == 0 for table in held)


def test_numpy_and_python_sweeps_agree(monkeypatch):
    """Both arena sweeps turn the same garbage into the same arena."""
    numpy = pytest.importorskip("numpy")

    def swept(sweep_numpy):
        monkeypatch.setattr(arena, "_numpy", lambda: sweep_numpy)
        manager = arena.ArenaBDDManager(NAMES)
        v = [manager.variable(name) for name in NAMES]
        kept = (v[0] & v[1]) | (~v[2] ^ v[3])
        for i in range(8):
            _ = (v[i] ^ v[(i + 3) % 8]).ite(v[(i + 5) % 8], ~v[(i + 1) % 8])
        before = manager.node_count()
        remap = manager.garbage_collect([kept.node])
        assert manager.node_count() < before
        return (
            remap,
            manager._levels,
            manager._lows,
            manager._highs,
            manager._unique,
        )

    assert swept(numpy) == swept(None)


def test_importing_the_front_ends_leaves_numpy_unloaded():
    """numpy is only imported by an arena sweep, never at start-up."""
    source = Path(repro.__file__).resolve().parents[1]
    code = (
        "import sys, repro.api, repro.xslt, repro.cli.main; "
        "print('numpy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(source))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_finished_solve_releases_its_manager(backend, monkeypatch):
    """A solve's manager is freed by reference counting alone.

    The encoding and the transition relations register bound-method GC
    hooks on the manager they hold; held strongly, those hooks would make
    every finished solve's node table cyclic garbage.  ``collect_every=1``
    also runs collections through the (weakly held) hooks mid-solve.
    """
    from repro.logic import syntax as sx
    from repro.solver import relations
    from repro.solver.symbolic import SymbolicSolver

    managers = []

    def recording_create_manager(*args, **kwargs):
        created = create_manager(*args, **kwargs)
        managers.append(weakref.ref(created))
        return created

    monkeypatch.setattr(relations, "create_manager", recording_create_manager)
    formula = sx.mu1(lambda x: sx.prop("b") | sx.dia(1, x)) & sx.START
    gc.collect()
    gc.disable()
    try:
        solver = SymbolicSolver(formula, backend=backend, collect_every=1)
        result = solver.solve()
        assert result.satisfiable
        assert result.statistics.iterations >= 1  # so at least one collection ran
        assert len(managers) == 1
        del solver, result
        assert managers[0]() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Seeded randomized differential check: all backends on the same DAGs
# ---------------------------------------------------------------------------

TRIALS = 200


def _random_dag(rng, manager):
    """Build one random formula DAG; mirrors exactly for every manager."""
    pool = [manager.variable(rng.choice(NAMES)) for _ in range(3)]
    ops = rng.randrange(4, 14)
    for _ in range(ops):
        op = rng.randrange(9)
        f = rng.choice(pool)
        g = rng.choice(pool)
        if op == 0:
            pool.append(~f)
        elif op == 1:
            pool.append(f & g)
        elif op == 2:
            pool.append(f | g)
        elif op == 3:
            pool.append(f ^ g)
        elif op == 4:
            pool.append(f.iff(g))
        elif op == 5:
            pool.append(f.ite(g, rng.choice(pool)))
        elif op == 6:
            names = rng.sample(NAMES, rng.randrange(1, 3))
            pool.append(f.exists(names) if rng.random() < 0.5 else f.forall(names))
        elif op == 7:
            half = len(NAMES) // 2
            mapping = dict(zip(NAMES[:half], NAMES[half:]))
            if rng.random() < 0.5:
                mapping = {value: key for key, value in mapping.items()}
            pool.append(f.rename(mapping))
        else:
            names = rng.sample(NAMES, rng.randrange(1, 3))
            pool.append(f.and_exists(g, names))
    return pool[-1]


def test_differential_random_dags():
    engines = available_backends()
    assert len(engines) >= 2, "the differential check needs at least two backends"
    master = random.Random(20260807)
    for trial in range(TRIALS):
        seed = master.randrange(2**60)
        results = {}
        for engine in engines:
            rng = random.Random(seed)
            manager = create_manager(NAMES, backend=engine)
            function = _random_dag(rng, manager)
            sample_rng = random.Random(seed + 1)
            samples = tuple(
                function.evaluate({name: sample_rng.random() < 0.5 for name in NAMES})
                for _ in range(8)
            )
            results[engine] = (
                function.is_false,
                function.is_true,
                function.count_assignments(NAMES),
                samples,
            )
        reference = results[engines[0]]
        for engine in engines[1:]:
            assert results[engine] == reference, (
                f"trial {trial} (seed {seed}): backend {engine!r} disagrees "
                f"with {engines[0]!r}: {results[engine]} != {reference}"
            )


def test_psi_type_count_agrees_across_backends():
    """The symbolic |Types(ψ)| (Section 7.1) matches explicit enumeration."""
    from repro.logic import syntax as sx
    from repro.logic.closure import lean as compute_lean
    from repro.solver.truth import count_types_symbolically, psi_types

    formula = sx.mk_and(sx.prop("a"), sx.dia(1, sx.mk_or(sx.prop("b"), sx.dia(2, sx.prop("a")))))
    lean = compute_lean(formula)
    explicit = sum(1 for _ in psi_types(lean))
    for engine in available_backends():
        assert count_types_symbolically(lean, backend=engine) == explicit, engine


# ---------------------------------------------------------------------------
# Regression: node ids never cross engines
# ---------------------------------------------------------------------------


def test_foreign_manager_targets_are_rejected():
    """Node ids are engine-local: a witness target from another manager must
    be rejected, not read as a node of the relation's own table."""
    from repro.logic import syntax as sx
    from repro.logic.closure import lean as compute_lean
    from repro.solver.relations import LeanEncoding, TransitionRelation

    formula = sx.mk_and(sx.prop("a"), sx.dia(1, sx.prop("b")))
    lean = compute_lean(formula)
    for engine in available_backends():
        encoding = LeanEncoding(lean, backend=engine)
        relation = TransitionRelation(encoding, 1)
        relation.witness(encoding.types_constraint())
        for other_engine in available_backends():
            foreign = LeanEncoding(lean, backend=other_engine)
            for witness in (relation.witness, relation.witness_strict):
                with pytest.raises(ValueError, match="different BDD manager"):
                    witness(foreign.types_constraint())


# ---------------------------------------------------------------------------
# native ≡ arena: same ids, same counters, same budget trips
# ---------------------------------------------------------------------------


def _operation_trace(engine, seed, max_steps=None, steps=160, after_trip=40):
    """Run one seeded operation sequence; return every result and the stats.

    The sequence covers the kernels (conj/disj/xor/iff/implies/ite),
    quantification (``exists``/``forall``/``and_exists`` with a step memo
    reused per quantified set, as the transition relations do), renaming on
    both the structural and the general path with a rename memo reused per
    mapping, restriction, inspection, and garbage collection with the remap
    applied to every held id (the memos are kept across collections: each
    engine must empty them itself).  A governor
    counts the kernel steps after every operation; with ``max_steps`` it
    trips mid-kernel, and ``after_trip`` more operations run ungoverned on
    whatever the unwound kernels left behind.
    """
    from repro.core.errors import BudgetExceeded
    from repro.solver.governor import Budget, ResourceGovernor

    rng = random.Random(seed)
    names_all = [f"w{i}" for i in range(14)]
    manager = create_manager(names_all, backend=engine)
    governor = ResourceGovernor(Budget(max_steps=max_steps or 10**12))
    manager.set_governor(governor)
    variables = [manager.var_node(name) for name in names_all]
    pool = [
        manager.xor(manager.conj(*rng.sample(variables, 2)), rng.choice(variables))
        for _ in range(8)
    ]
    state = {"pool": pool, "memos": {}}
    trace = []

    def pick():
        pool = state["pool"]
        return rng.choice(pool[-10:] if rng.random() < 0.7 else pool)


    def draw():
        """Draw one operation; returns it as a re-runnable closure."""
        memos = state["memos"]
        op = rng.randrange(12)
        f, g, h = pick(), pick(), pick()
        names = tuple(sorted(rng.sample(names_all, rng.randrange(1, 5))))
        flip, shift = rng.random() < 0.5, rng.choice((1, 2))
        values = {name: rng.random() < 0.5 for name in names}
        if op == 0:
            return lambda: manager.conj(f, g)
        if op == 1:
            return lambda: manager.disj(f, manager.neg(g))
        if op == 2:
            return lambda: manager.xor(f, g) if flip else manager.iff(f, g)
        if op == 3:
            return lambda: manager.ite(f, g, h)
        if op == 4:
            return lambda: manager.implies(f, g)
        if op == 5:
            return lambda: manager.exists(f, names) if flip else manager.forall(f, names)
        if op == 6:
            memo = memos.setdefault(names, manager.product_memo())
            return lambda: manager.and_exists(f, g, names, memo)
        if op == 7:
            mapping = {
                names_all[i]: names_all[i + shift] for i in range(0, len(names_all) - shift, 3)
            }
            if flip:
                mapping = {target: source for source, target in mapping.items()}
            memo = memos.setdefault(tuple(mapping.items()), manager.rename_memo())
            return lambda: manager.rename(f, mapping, memo)
        if op == 8:
            return lambda: manager.restrict(f, values)
        if op == 9:
            return lambda: trace.append(
                (sorted(manager.support(f)), manager.dag_size(f), manager.dag_size(f, 2),
                 manager.pick_assignment(f), manager.count_assignments(f))
            )
        if op == 10 and len(state["pool"]) > 24:
            kept = rng.sample(state["pool"], len(state["pool"]) // 2)

            def collect():
                remap = manager.garbage_collect(kept)
                state["pool"] = [remap[node] for node in kept]
                trace.append(("gc", sorted(remap.items())))

            return collect
        operands = rng.sample(state["pool"], 3)
        return lambda: manager.conj_all(operands)

    def run(operation):
        result = operation()
        if result is not None:
            state["pool"].append(result)
            trace.append((result, governor.steps))

    try:
        for _ in range(steps):
            operation = draw()
            run(operation)
    except BudgetExceeded as error:
        trace.append(("trip", error.reason, error.limit, error.observed, str(error)))
        manager.set_governor(None)
        run(operation)  # the interrupted operation, redone on the unwound tables
        for _ in range(after_trip):
            run(draw())
    return trace, governor.steps, manager.statistics().as_dict()


@pytest.mark.parametrize("seed", range(12))
def test_native_matches_arena_on_random_operation_sequences(seed):
    assert _operation_trace("native", seed) == _operation_trace("arena", seed)


@pytest.mark.parametrize("seed", [1, 3, 5, 6, 9, 10])
def test_native_matches_arena_after_a_mid_kernel_budget_trip(seed):
    """A trip unwinds without computed-table entries for unfinished frames:
    the interrupted operation, redone, and the ones after it see the same
    tables on both engines."""
    _trace, total_steps, _stats = _operation_trace("arena", seed)
    max_steps = total_steps // 2
    native = _operation_trace("native", seed, max_steps=max_steps)
    assert any(item[0] == "trip" for item in native[0] if isinstance(item, tuple) and item)
    assert native == _operation_trace("arena", seed, max_steps=max_steps)


def test_native_matches_arena_solver_statistics_on_scaling_depths():
    from repro.analysis.problems import _query_formula
    from repro.cli.bench import scaling_query
    from repro.logic import syntax as sx
    from repro.logic.negation import negate
    from repro.solver.symbolic import SymbolicSolver

    for depth in range(1, 7):
        query = scaling_query(depth)
        weaker = query.replace("[b2]", "") if depth >= 2 else "*"
        formula = sx.mk_and(_query_formula(query, None), negate(_query_formula(weaker, None)))
        runs = {}
        for engine in ("arena", "native"):
            result = SymbolicSolver(formula, backend=engine).solve()
            stats = result.statistics.as_dict()
            for timing in ("solve_seconds", "translation_seconds"):
                stats.pop(timing, None)
            runs[engine] = (result.satisfiable, stats)
        assert runs["native"] == runs["arena"], depth


#: Counter ceilings of the depth-3 scaling row, on every engine (the same
#: bounds the ``repro bench scaling|backend --quick`` runs enforce).
PRODUCT_CALLS_MAX_DEPTH3 = 22
ITE_CALLS_MAX_DEPTH3 = 20_500


@pytest.mark.parametrize("engine", ["arena", "native"])
def test_scaling_depth3_counters_stay_under_their_ceilings(engine):
    from repro.analysis.problems import _query_formula
    from repro.cli import bench
    from repro.logic import syntax as sx
    from repro.logic.negation import negate
    from repro.solver.symbolic import SymbolicSolver

    assert bench.SCALING_PRODUCT_CALLS_MAX_DEPTH3 == PRODUCT_CALLS_MAX_DEPTH3
    assert bench.BACKEND_ITE_CALLS_MAX_DEPTH3[engine] == ITE_CALLS_MAX_DEPTH3
    query = bench.scaling_query(3)
    formula = sx.mk_and(
        _query_formula(query, None), negate(_query_formula(query.replace("[b2]", ""), None))
    )
    statistics = SymbolicSolver(formula, backend=engine).solve().statistics
    assert statistics.product_calls <= PRODUCT_CALLS_MAX_DEPTH3
    assert statistics.bdd_ite_calls <= ITE_CALLS_MAX_DEPTH3


def _rename_trace(engine: str) -> list:
    """Rename a growing set through one persistent memo per mapping, with a
    collection in the middle; every memoised result is checked against a
    fresh rename and recorded by node id."""
    rng = random.Random(5)
    names = [f"{prefix}{i}" for i in range(10) for prefix in "xy"]
    manager = create_manager(names, backend=engine)
    mappings = {
        "x->y": {f"x{i}": f"y{i}" for i in range(10)},  # always structural
        "swap": {"x1": "x4", "x4": "x1"},  # breaks the order on some edges
    }
    memos = {name: manager.rename_memo() for name in mappings}
    grown = manager.FALSE
    trace = []
    for step in range(40):
        cube = manager.TRUE
        for index in rng.sample(range(10), 4):
            literal = manager.var_node(f"x{index}")
            cube = manager.conj(cube, literal if rng.random() < 0.5 else manager.neg(literal))
        grown = manager.disj(grown, cube)
        for name, mapping in mappings.items():
            renamed = manager.rename(grown, mapping, memos[name])
            manager.clear_caches()  # a fresh rename: no result cache, no memo
            assert manager.rename(grown, mapping) == renamed, (engine, step, name)
            trace.append((step, name, renamed))
        if step == 20:
            grown = manager.garbage_collect([grown])[grown]
            trace.append(("gc", manager.node_count()))
    return trace


def test_persistent_rename_memo_equals_a_fresh_rename():
    assert _rename_trace("native") == _rename_trace("arena")


@pytest.mark.parametrize("max_steps", [1, 4096, 60_000])
def test_native_and_arena_trip_the_same_step_budget(max_steps):
    from repro.cli.bench import scaling_query
    from repro.analysis.problems import _query_formula
    from repro.core.errors import BudgetExceeded
    from repro.logic import syntax as sx
    from repro.logic.negation import negate
    from repro.solver.governor import Budget
    from repro.solver.symbolic import SymbolicSolver

    query = scaling_query(5)
    formula = sx.mk_and(
        _query_formula(query, None), negate(_query_formula(query.replace("[b2]", ""), None))
    )
    trips = {}
    for engine in ("arena", "native"):
        solver = SymbolicSolver(formula, backend=engine, budget=Budget(max_steps=max_steps))
        with pytest.raises(BudgetExceeded) as info:
            solver.solve()
        error = info.value
        trips[engine] = (error.reason, error.limit, error.observed, str(error))
    assert trips["native"] == trips["arena"]
    assert trips["native"][0] == "steps"


def test_native_load_failure_falls_back_to_arena(monkeypatch, tmp_path):
    from repro.bdd import native
    from repro.bdd.backends import BACKEND_ENV, default_backend, resolve_backend

    def broken_build(target):
        raise native.NativeUnavailableError("no C compiler on this machine")

    monkeypatch.setattr(native, "_loaded", None)
    monkeypatch.setattr(native, "library_path", lambda: tmp_path / "absent.so")
    monkeypatch.setattr(native, "_build", broken_build)
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert default_backend() == "arena"
    assert resolve_backend() == "arena"
    assert create_manager(NAMES).backend_name == "arena"
    assert available_backends() == ("arena", "native")
    for attempt in (lambda: resolve_backend("native"), lambda: create_manager(NAMES, "native")):
        with pytest.raises(native.NativeUnavailableError, match="no C compiler on this machine"):
            attempt()


def test_native_build_publishes_atomically(monkeypatch, tmp_path):
    """A cold build lands in the user cache under its digest, leaving no
    private build directory behind, and the published file loads."""
    from repro.bdd import native

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_loaded", None)
    target = native.library_path()
    assert target.parent == tmp_path / "repro" / "native"
    assert not target.exists()
    module = native.library()
    assert target.is_file()
    assert [path.name for path in target.parent.iterdir()] == [target.name]
    assert module.TERMINAL_LEVEL == arena.TERMINAL_LEVEL
    assert module.Arena().conj(0, 1) == 1


def test_processes_that_never_solve_never_load_the_native_library():
    source = Path(repro.__file__).resolve().parents[1]
    code = (
        "import repro.api, repro.xslt, repro.cli.main; "
        "from repro.bdd import native; "
        "print(native._loaded is None)"
    )
    env = dict(os.environ, PYTHONPATH=str(source))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "True"


def test_native_rejects_a_foreign_product_memo():
    """A memo's entries (product or rename) are node ids of the manager that
    made it."""
    first = create_manager(NAMES, backend="native")
    second = create_manager(NAMES, backend="native")
    a, b = first.var_node("v0"), first.var_node("v1")
    with pytest.raises(TypeError, match="this manager"):
        first.and_exists(a, b, ["v0"], second.product_memo())
    assert first.and_exists(a, b, ["v0"], first.product_memo()) == b
    with pytest.raises(TypeError, match="this manager"):
        first.rename(a, {"v0": "v2"}, second.rename_memo())
    assert first.rename(a, {"v0": "v2"}, first.rename_memo()) == first.var_node("v2")
