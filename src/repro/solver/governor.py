"""Resource governance for budgeted solving: ``repro.solver.governor``.

The satisfiability algorithm is ``2^O(lean)`` (Lemma 6.7), so a service
answering untrusted queries needs every solve bounded in advance: a
pathological formula must cost a *budget*, not the process.  This module
defines the budget vocabulary and the cooperative enforcement object that the
solver and both BDD engines poll:

* :class:`Budget` — declarative limits: a wall-clock deadline, a cap on BDD
  kernel steps, a cap on fixpoint iterations, and a cap on the Lean size
  (refusing up front what Lemma 6.7 prices as hopeless).
* :class:`ResourceGovernor` — the per-solve enforcement state.  Enforcement
  is *cooperative*: the fixpoint loop of :class:`repro.solver.symbolic.
  SymbolicSolver` calls :meth:`~ResourceGovernor.poll` once per iteration,
  and the BDD engines count one step per kernel frame
  (``ite``/``exists``/``and_exists`` recursion step) — the arena through
  :meth:`~ResourceGovernor.tick`, the native kernels with the same
  arithmetic in C — and poll the clock every
  :data:`~ResourceGovernor.POLL_STRIDE` frames.  A single fixpoint
  iteration can conjoin astronomically large BDDs, so iteration-level checks
  alone would not bound latency — the kernel ticks are what make the deadline
  bite *inside* an iteration, within milliseconds of expiry.

Exhaustion raises :class:`repro.core.errors.BudgetExceeded` with a structured
``reason`` (``"deadline"``, ``"steps"``, ``"iterations"``, ``"lean"``); the
API façade converts it into an ``unknown`` outcome (see
:class:`repro.api.AnalysisOutcome`), optionally after degrading to the
bounded explicit solver.  Reasons are backend-independent by construction:
both engines count the same notion of step (one kernel frame) against the
same governor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import faults
from repro.core.errors import BudgetExceeded


@dataclass(frozen=True)
class Budget:
    """Declarative resource limits for one solve (``None`` = unlimited).

    ``deadline_seconds`` bounds wall-clock time, ``max_steps`` bounds BDD
    kernel frames (a machine-independent work measure), ``max_iterations``
    bounds fixpoint iterations, and ``max_lean`` refuses formulas whose Lean
    exceeds the bound before any BDD is built.  A budget is plain data and
    pickles across process boundaries, so batch workers enforce the same
    limits as the parent.
    """

    deadline_seconds: float | None = None
    max_steps: int | None = None
    max_iterations: int | None = None
    max_lean: int | None = None

    @property
    def unlimited(self) -> bool:
        return (
            self.deadline_seconds is None
            and self.max_steps is None
            and self.max_iterations is None
            and self.max_lean is None
        )

    def as_dict(self) -> dict:
        return {
            "deadline_seconds": self.deadline_seconds,
            "max_steps": self.max_steps,
            "max_iterations": self.max_iterations,
            "max_lean": self.max_lean,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Budget":
        unknown = set(payload) - {
            "deadline_seconds",
            "max_steps",
            "max_iterations",
            "max_lean",
        }
        if unknown:
            raise ValueError(f"unknown budget field(s): {sorted(unknown)}")

        def _number(name: str, converter) -> float | int | None:
            value = payload.get(name)
            if value is None:
                return None
            converted = converter(value)
            if converted <= 0:
                raise ValueError(f"budget field {name} must be positive, got {value!r}")
            return converted

        return cls(
            deadline_seconds=_number("deadline_seconds", float),
            max_steps=_number("max_steps", int),
            max_iterations=_number("max_iterations", int),
            max_lean=_number("max_lean", int),
        )

    def merged_with(self, other: "Budget | None") -> "Budget":
        """This budget with ``other``'s set fields taking precedence."""
        if other is None:
            return self
        return Budget(
            deadline_seconds=(
                other.deadline_seconds
                if other.deadline_seconds is not None
                else self.deadline_seconds
            ),
            max_steps=other.max_steps if other.max_steps is not None else self.max_steps,
            max_iterations=(
                other.max_iterations
                if other.max_iterations is not None
                else self.max_iterations
            ),
            max_lean=other.max_lean if other.max_lean is not None else self.max_lean,
        )


class ResourceGovernor:
    """Per-solve budget enforcement, polled cooperatively by solver layers.

    One governor instance governs one solver run (translation *and* fixpoint
    — the deadline covers everything between :meth:`start` and the verdict).
    The two entry points trade precision for overhead:

    * :meth:`tick` — one BDD kernel frame.  Counts a step; every
      :data:`POLL_STRIDE` steps it falls through to :meth:`poll`.  This is
      the hot path and must stay a counter bump almost always.
    * :meth:`poll` — a full checkpoint (step cap, wall clock, injected
      deadline faults).  Called by :meth:`tick` on stride boundaries and by
      the fixpoint loop once per iteration.
    """

    #: Kernel frames between wall-clock polls (a power of two).  At the
    #: Python arena's ~10⁶ frames/second this bounds checkpoint latency well
    #: under a millisecond while keeping the per-frame cost to one increment
    #: and one masked comparison.  The native kernels read it once, count
    #: steps in C, and write ``steps`` back before every :meth:`poll`.
    POLL_STRIDE = 1024

    __slots__ = ("budget", "steps", "iterations", "_started", "_deadline_at")

    def __init__(self, budget: Budget):
        self.budget = budget
        self.steps = 0
        self.iterations = 0
        self._started = time.monotonic()
        self._deadline_at = (
            None
            if budget.deadline_seconds is None
            else self._started + budget.deadline_seconds
        )

    def start(self) -> None:
        """(Re)start the clock; call at the beginning of the governed solve."""
        self._started = time.monotonic()
        if self.budget.deadline_seconds is not None:
            self._deadline_at = self._started + self.budget.deadline_seconds

    @property
    def elapsed_seconds(self) -> float:
        return time.monotonic() - self._started

    def tick(self) -> None:
        """Account one kernel frame; poll the budget on stride boundaries."""
        self.steps += 1
        if not self.steps & (self.POLL_STRIDE - 1):
            self.poll()

    def poll(self) -> None:
        """Full checkpoint: raise :class:`BudgetExceeded` when out of budget."""
        budget = self.budget
        if budget.max_steps is not None and self.steps > budget.max_steps:
            raise BudgetExceeded(
                "steps",
                f"step budget exhausted: {self.steps} BDD kernel steps "
                f"> {budget.max_steps}",
                limit=budget.max_steps,
                observed=self.steps,
            )
        if self._deadline_at is not None and time.monotonic() > self._deadline_at:
            raise BudgetExceeded(
                "deadline",
                f"deadline exceeded: {self.elapsed_seconds:.3f}s "
                f"> {budget.deadline_seconds}s",
                limit=budget.deadline_seconds,
                observed=round(self.elapsed_seconds, 3),
            )
        if faults.should_fire("deadline"):
            raise BudgetExceeded(
                "deadline",
                "deadline exceeded: expiry injected by fault plan",
                limit=budget.deadline_seconds,
                observed=round(self.elapsed_seconds, 3),
            )

    def check_iteration(self, iteration: int) -> None:
        """Fixpoint-loop checkpoint: iteration cap plus a full poll."""
        self.iterations = iteration
        budget = self.budget
        if budget.max_iterations is not None and iteration > budget.max_iterations:
            raise BudgetExceeded(
                "iterations",
                f"iteration budget exhausted: {iteration} fixpoint iterations "
                f"> {budget.max_iterations}",
                limit=budget.max_iterations,
                observed=iteration,
            )
        self.poll()

    def check_lean(self, lean_size: int) -> None:
        """Refuse up front when the Lean exceeds the budget (Lemma 6.7)."""
        budget = self.budget
        if budget.max_lean is not None and lean_size > budget.max_lean:
            raise BudgetExceeded(
                "lean",
                f"lean budget exceeded before solving: {lean_size} Lean "
                f"formulas > {budget.max_lean} (the algorithm is 2^O(lean), "
                f"Lemma 6.7)",
                limit=budget.max_lean,
                observed=lean_size,
            )


def governor_for(budget: "Budget | None") -> ResourceGovernor | None:
    """A governor enforcing ``budget``, or ``None`` when nothing is limited."""
    if budget is None or budget.unlimited:
        return None
    return ResourceGovernor(budget)
