"""The symbolic (BDD-based) satisfiability solver of Section 7.

The solver tests the "plunging" formula ``µX. ψ ∨ ⟨1⟩X ∨ ⟨2⟩X`` at the root of
focused trees: ψ is satisfiable exactly when some root type — a ψ-type with no
pending backward modality, below which the start mark occurs exactly once —
satisfies the plunging formula.  This removes the need to keep witness sets:
at every iteration the solver only maintains the *set of types proved so far*,
represented as a BDD over the Lean bit-vector.

Two sets are maintained so that the start mark occurs exactly once in the
proved trees, mirroring the four cases of ``Upd`` in Figure 16:

* ``U`` — types of trees containing **no** mark,
* ``M`` — types of trees containing **exactly one** mark (either at the root
  of the subtree, or in exactly one of its branches).

Each iteration adds to ``U`` the mark-free types whose required children have
witnesses in ``U``, and to ``M`` the types marked at the node (children in
``U``) or marked through exactly one branch (that branch's witness in ``M``,
the other in ``U``).  The algorithm stops as soon as the final check succeeds
(early termination on satisfiable formulas, one of the key practical
advantages discussed in Section 9) or when both sets are stable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bdd.manager import BDD
from repro.logic import syntax as sx
from repro.logic.closure import Lean, lean as compute_lean
from repro.logic.cyclefree import assert_cycle_free
from repro.solver.governor import Budget, governor_for
from repro.solver.relations import LeanEncoding, TransitionRelation
from repro.trees.binary import BinTree
from repro.trees.unranked import Tree
from repro.trees.binary import binary_forest_to_unranked


@dataclass
class SolverStatistics:
    """Measurements collected during one solver run.

    Fields:

    * ``lean_size`` — number of formulas in the Lean of the plunged formula;
      the BDD manager works over twice this many variables (the unprimed
      ``~x`` and primed ``~y`` vectors).  Lemma 6.7 bounds the running time
      by ``2^O(lean_size)``.
    * ``iterations`` — fixpoint iterations performed before the final check
      succeeded (early termination, Section 9) or the sets became stable.
    * ``relation_partitions`` — conjuncts across the two partitioned ``∆ₐ``
      relations (Section 7.3); 0 partitions means a trivial relation.
    * ``partitions_skipped`` — relation partitions never conjoined because
      the cone-of-influence check proved they could not affect a product
      (vacuous components disjoint from the product's operand, and every
      partition of a product against the empty set).
    * ``peak_set_nodes`` — largest combined BDD size (in nodes) of the two
      proved-type sets ``U``/``M`` across iterations: the memory high-water
      mark of the fixpoint computation.
    * ``product_calls`` — relational products computed by the two
      :class:`repro.solver.relations.TransitionRelation` objects.
      ``as_dict()`` still reports a ``product_cache_hits`` of 0: the
      per-target product cache it counted never hit (the fixpoint loop only
      asks for a product once a set changed) and is gone, but readers of
      recorded statistics keep the key.
    * ``bdd_node_count`` / ``bdd_peak_node_count`` — live and peak nodes of
      the solver's BDD manager at the end of the run.
    * ``bdd_ite_calls`` / ``bdd_ite_cache_hits`` — ternary operations issued
      to the manager and computed-table hits among them.
    * ``translation_seconds`` — time to build the Lean encoding, the ``∆ₐ``
      partitions with their elimination schedule, and the root filter.
    * ``solve_seconds`` — time spent in the fixpoint loop itself (the "time"
      column of Table 2).
    """

    lean_size: int = 0
    iterations: int = 0
    relation_partitions: int = 0
    partitions_skipped: int = 0
    peak_set_nodes: int = 0
    product_calls: int = 0
    bdd_node_count: int = 0
    bdd_peak_node_count: int = 0
    bdd_ite_calls: int = 0
    bdd_ite_cache_hits: int = 0
    translation_seconds: float = 0.0
    solve_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "lean_size": self.lean_size,
            "iterations": self.iterations,
            "relation_partitions": self.relation_partitions,
            "partitions_skipped": self.partitions_skipped,
            "peak_set_nodes": self.peak_set_nodes,
            "product_calls": self.product_calls,
            "product_cache_hits": 0,  # kept for readers of recorded statistics
            "bdd_node_count": self.bdd_node_count,
            "bdd_peak_node_count": self.bdd_peak_node_count,
            "bdd_ite_calls": self.bdd_ite_calls,
            "bdd_ite_cache_hits": self.bdd_ite_cache_hits,
            "translation_seconds": round(self.translation_seconds, 6),
            "solve_seconds": round(self.solve_seconds, 6),
        }


@dataclass
class SolverResult:
    """Outcome of a satisfiability test."""

    satisfiable: bool
    model: BinTree | None
    statistics: SolverStatistics
    lean: Lean

    @property
    def unsatisfiable(self) -> bool:
        return not self.satisfiable

    def model_document(self) -> Tree | None:
        """The satisfying model as an unranked tree (first top-level tree)."""
        forest = self.model_forest()
        if forest is None:
            return None
        return forest[0]

    def model_forest(self) -> tuple[Tree, ...] | None:
        """The satisfying model decoded as an unranked forest."""
        if self.model is None:
            return None
        return binary_forest_to_unranked(self.model)


@dataclass
class SymbolicSolver:
    """BDD-based decision procedure for cycle-free closed Lµ formulas.

    Parameters mirror the implementation choices discussed in Section 7 and
    are exposed so the benchmarks can ablate them:

    * ``early_quantification`` — conjunctive partitioning with early
      quantification (Section 7.3); when False the relational product conjoins
      everything before quantifying.
    * ``monolithic_relation`` — build the full ``∆ₐ`` BDD up front instead of
      keeping it partitioned.
    * ``interleaved_order`` — interleave the unprimed/primed vectors in the
      BDD variable order (Section 7.4).
    * ``track_marks`` — maintain the two sets ``U``/``M`` enforcing that the
      start mark occurs exactly once; switching this off reproduces the
      unsound behaviour that motivates the four-case update of Figure 16.
    * ``check_cycle_freeness`` — verify the input formula is cycle-free before
      solving (the algorithm is only correct for cycle-free formulas).
    * ``collect_every`` — run a BDD garbage collection every N fixpoint
      iterations, keeping the loop's live sets (and every registered GC
      participant) and remapping in place.  ``None`` disables collection;
      useful for long-running solves whose intermediate results dominate the
      node table.
    * ``backend`` — which registered BDD engine to solve on (``"arena"``,
      ``"native"``); ``None`` defers to ``REPRO_BDD_BACKEND`` and then
      the default.  The verdict is backend-independent (enforced by the
      cross-backend conformance suite and the fuzzer's backend axis).
    * ``budget`` — optional :class:`repro.solver.governor.Budget` bounding
      the run (wall-clock deadline, BDD kernel steps, fixpoint iterations,
      Lean size).  Exhaustion raises :class:`repro.core.errors.
      BudgetExceeded` with a structured, backend-independent reason; the
      governor is polled once per fixpoint iteration and — via the BDD
      engine's kernel ticks — every ~1024 kernel frames, so a deadline bites
      within milliseconds even inside one enormous iteration.
    """

    formula: sx.Formula
    extra_labels: tuple[str, ...] = ()
    early_quantification: bool = True
    monolithic_relation: bool = False
    interleaved_order: bool = True
    track_marks: bool = True
    check_cycle_freeness: bool = False
    collect_every: int | None = None
    max_iterations: int = 10_000
    keep_snapshots: bool = True
    backend: str | None = None
    budget: Budget | None = None

    _lean: Lean = field(init=False, repr=False)
    _plunged: sx.Formula = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.check_cycle_freeness:
            assert_cycle_free(self.formula)
        self._plunged = sx.mu1(
            lambda x: self.formula | sx.dia(1, x) | sx.dia(2, x), prefix="Plunge"
        )
        self._lean = compute_lean(self._plunged, extra_labels=self.extra_labels)

    @property
    def lean(self) -> Lean:
        return self._lean

    # -- main loop --------------------------------------------------------------------

    def solve(self) -> SolverResult:
        statistics = SolverStatistics(lean_size=len(self._lean))
        # Resource governance (all checkpoints are cooperative): refuse
        # over-budget Leans before any BDD exists, then let the engine's
        # kernel ticks and the per-iteration poll below enforce the deadline
        # and step budget.  The governor's clock starts here, so translation
        # time counts against the deadline too.
        governor = governor_for(self.budget)
        if governor is not None:
            governor.check_lean(len(self._lean))
        start_translation = time.perf_counter()

        encoding = LeanEncoding(
            self._lean, interleaved=self.interleaved_order, backend=self.backend
        )
        if governor is not None:
            encoding.manager.set_governor(governor)
        relations = {
            program: TransitionRelation(
                encoding,
                program,
                early_quantification=self.early_quantification,
                monolithic=self.monolithic_relation,
            )
            for program in (1, 2)
        }
        statistics.relation_partitions = sum(
            len(relation.partitions) for relation in relations.values()
        )

        types = encoding.types_constraint(primed=False)
        start_literal = encoding.start(primed=False)
        final_filter = encoding.root_filter(self._plunged, primed=False)

        statistics.translation_seconds = time.perf_counter() - start_translation
        start_solve = time.perf_counter()

        manager = encoding.manager
        false = manager.false()
        unmarked = false
        marked = false
        snapshots: list[tuple[BDD, BDD]] = []
        satisfiable = False
        model: BinTree | None = None

        # Witness BDDs are recomputed only when the set they depend on
        # actually changed in the previous iteration: this removes the
        # redundant relational products a plain loop performs once one of
        # the two sets has stabilised, and the per-step memos of
        # TransitionRelation make a product over a grown set cheap.
        witness_unmarked: dict[int, BDD] = {}
        strict_marked: dict[int, BDD] = {}
        unmarked_node_seen: int | None = None
        marked_node_seen: int | None = None

        def collect_garbage() -> None:
            """GC the node table mid-fixpoint, remapping the loop's live state."""
            nonlocal types, start_literal, final_filter, unmarked, marked
            nonlocal witness_unmarked, strict_marked, snapshots
            nonlocal unmarked_node_seen, marked_node_seen, false
            keep = [types, start_literal, final_filter, unmarked, marked]
            keep.extend(witness_unmarked.values())
            keep.extend(strict_marked.values())
            for pair in snapshots:
                keep.extend(pair)
            remap = manager.garbage_collect([function.node for function in keep])
            wrap = lambda function: manager.wrap(
                manager.translate(remap, function.node)
            )
            types, start_literal = wrap(types), wrap(start_literal)
            final_filter = wrap(final_filter)
            old_unmarked_node, old_marked_node = unmarked.node, marked.node
            unmarked, marked = wrap(unmarked), wrap(marked)
            false = manager.false()
            witness_unmarked = {p: wrap(f) for p, f in witness_unmarked.items()}
            strict_marked = {p: wrap(f) for p, f in strict_marked.items()}
            snapshots = [(wrap(u), wrap(m)) for u, m in snapshots]
            unmarked_node_seen = (
                unmarked.node if unmarked_node_seen == old_unmarked_node else None
            )
            marked_node_seen = (
                marked.node if marked_node_seen == old_marked_node else None
            )

        # Loop invariant hoisted out of the iteration: the mark-free type
        # filter.
        types_unmarked = types & ~start_literal

        for iteration in range(1, self.max_iterations + 1):
            statistics.iterations = iteration
            if governor is not None:
                governor.check_iteration(iteration)
            if self.collect_every and iteration % self.collect_every == 0:
                collect_garbage()
                types_unmarked = types & ~start_literal
            if self.track_marks:
                if unmarked.node != unmarked_node_seen:
                    witness_unmarked = {
                        program: relations[program].witness(unmarked)
                        for program in (1, 2)
                    }
                    unmarked_node_seen = unmarked.node
                # Every term is conjoined with ``types`` first: the witness
                # sets alone are unconstrained and far larger than their
                # typed parts.
                typed_both = (types & witness_unmarked[1]) & witness_unmarked[2]
                new_unmarked = typed_both & ~start_literal
                if marked.node != marked_node_seen:
                    strict_marked = {
                        program: relations[program].witness_strict(marked)
                        for program in (1, 2)
                    }
                    marked_node_seen = marked.node
                marked_here = typed_both & start_literal
                marked_first = (types_unmarked & strict_marked[1]) & witness_unmarked[2]
                marked_second = (types_unmarked & strict_marked[2]) & witness_unmarked[1]
                new_marked = marked_here | marked_first | marked_second
            else:
                # Unsound shortcut kept for the ablation benchmark: a single
                # set is maintained and the mark is treated as an ordinary
                # proposition, so several marks (or none) may occur in a
                # "model".  This is exactly what the four-case update of
                # Figure 16 prevents.
                new_unmarked = false
                new_marked = (
                    types
                    & relations[1].witness(marked)
                    & relations[2].witness(marked)
                )

            # The update operator is monotone and the iteration starts from
            # ⊥, so the proved sets only grow: ``new_unmarked``/``new_marked``
            # already contain the previous sets and *are* the next sets (no
            # union needed).
            changed = new_unmarked != unmarked or new_marked != marked
            unmarked, marked = new_unmarked, new_marked
            if self.keep_snapshots:
                snapshots.append((unmarked, marked))
            statistics.peak_set_nodes = max(
                statistics.peak_set_nodes, unmarked.dag_size() + marked.dag_size()
            )

            # The loop stops at the first iteration where the check succeeds,
            # so every earlier marked set missed the filter and ``success``
            # holds exactly the root types added this iteration.
            success = marked & final_filter
            if not success.is_false:
                satisfiable = True
                if self.track_marks:
                    from repro.solver.models import reconstruct_counterexample

                    model = reconstruct_counterexample(
                        encoding,
                        relations,
                        snapshots if self.keep_snapshots else [(unmarked, marked)],
                        success,
                    )
                break
            if not changed:
                break

        statistics.solve_seconds = time.perf_counter() - start_solve
        statistics.product_calls = sum(r.product_calls for r in relations.values())
        statistics.partitions_skipped = sum(
            r.partitions_skipped for r in relations.values()
        )
        manager_stats = encoding.manager.statistics()
        statistics.bdd_node_count = manager_stats.node_count
        statistics.bdd_peak_node_count = manager_stats.peak_node_count
        statistics.bdd_ite_calls = manager_stats.ite_calls
        statistics.bdd_ite_cache_hits = manager_stats.ite_cache_hits
        return SolverResult(
            satisfiable=satisfiable,
            model=model,
            statistics=statistics,
            lean=self._lean,
        )


def is_satisfiable(formula: sx.Formula, **options) -> bool:
    """Convenience wrapper: run the symbolic solver and return satisfiability."""
    return SymbolicSolver(formula, **options).solve().satisfiable
