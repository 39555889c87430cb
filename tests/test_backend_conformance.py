"""Cross-backend conformance suite for the BDD engines.

Every engine registered in :data:`repro.bdd.backends.BACKENDS` must be
observationally equivalent: same verdicts, same model counts, same algebraic
laws, same statistics counters for the same operation sequence.  The suite
parametrises each property test over the registry (registering a backend
enrols it automatically) and finishes with a seeded differential check that
builds a few hundred random formula DAGs on *all* backends at once and
demands identical satisfiability and model counts.

Node ids are *not* comparable across engines (the arena's terminals differ
from the dict engine's); within one engine they are canonical — equal
functions must be the same id — and that is tested too.
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
    assert resolve_backend() == "dict"
    monkeypatch.setenv(BACKEND_ENV, "arena")
    assert resolve_backend() == "arena"
    assert resolve_backend("dict") == "dict"  # explicit beats environment
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
# Regression: product caches must be backend-qualified
# ---------------------------------------------------------------------------


def test_product_cache_keys_are_backend_qualified():
    """Node ids are engine-local: the witness-product cache must never mix
    entries from managers of different backends (regression for the cache
    that keyed on bare node ids)."""
    from repro.logic import syntax as sx
    from repro.logic.closure import lean as compute_lean
    from repro.solver.relations import LeanEncoding, TransitionRelation

    formula = sx.mk_and(sx.prop("a"), sx.dia(1, sx.prop("b")))
    lean = compute_lean(formula)
    for engine in available_backends():
        encoding = LeanEncoding(lean, backend=engine)
        relation = TransitionRelation(encoding, 1)
        target = encoding.types_constraint()
        relation.witness(target)
        assert all(
            key[0] == engine for key in relation._product_cache
        ), f"cache keys of the {engine!r} relation must carry the backend name"

        # A target from a *different* manager must be rejected, not silently
        # looked up by its (engine-local) node id.
        other_engine = next(e for e in available_backends() if e != engine)
        foreign = LeanEncoding(lean, backend=other_engine)
        with pytest.raises(ValueError, match="different BDD manager"):
            relation.witness(foreign.types_constraint())
