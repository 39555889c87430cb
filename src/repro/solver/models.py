"""Satisfying model reconstruction (Section 7.2).

When the solver finds the formula satisfiable, it extracts a small satisfying
focused tree from the intermediate sets of types it computed: starting from a
root type selected by the final check, it repeatedly finds a witness for every
pending forward modality, searching the intermediate sets in the order they
were produced so the model depth stays minimal.  The start mark is routed
through exactly one branch, mirroring the marked/unmarked sets of the solver.

The reconstructed model is a binary tree over the Lean's atomic propositions
(the extra "any other label" proposition is rendered as ``_``), which callers
can decode back to unranked XML syntax via
:func:`repro.trees.binary.binary_forest_to_unranked`.
"""

from __future__ import annotations

from repro.bdd.manager import BDD
from repro.logic.closure import OTHER_ATTRIBUTE, OTHER_LABEL
from repro.solver.relations import LeanEncoding, TransitionRelation
from repro.trees.binary import BinTree

#: Label used when the model node's proposition is "any other name".
FRESH_LABEL = "_"

#: Attribute name used when a model node carries "any other attribute".
FRESH_ATTRIBUTE = "_"


def render_attributes(names: tuple[str, ...] | list[str]) -> tuple[str, ...]:
    """Map the internal "other attribute" name to a renderable placeholder."""
    return tuple(
        sorted(FRESH_ATTRIBUTE if name == OTHER_ATTRIBUTE else name for name in names)
    )


def _bits_from_assignment(encoding: LeanEncoding, assignment: dict[str, bool]) -> dict[int, bool]:
    bits: dict[int, bool] = {}
    for index, name in enumerate(encoding.x_names):
        bits[index] = assignment.get(name, False)
    return bits


def _label_of(encoding: LeanEncoding, bits: dict[int, bool]) -> str:
    for label in encoding.lean.propositions:
        if bits.get(encoding.lean.proposition_index(label), False):
            return FRESH_LABEL if label == OTHER_LABEL else label
    return FRESH_LABEL


def _attributes_of(encoding: LeanEncoding, bits: dict[int, bool]) -> tuple[str, ...]:
    present = [
        name
        for name in encoding.lean.attributes
        if bits.get(encoding.lean.attribute_index(name), False)
    ]
    return render_attributes(present)


def reconstruct_counterexample(
    encoding: LeanEncoding,
    relations: dict[int, TransitionRelation],
    snapshots: list[tuple[BDD, BDD]],
    success: BDD,
) -> BinTree:
    """Build a satisfying binary tree from the solver's intermediate sets.

    ``snapshots`` holds the (unmarked, marked) set pairs in the order they
    were computed; ``success`` is the non-empty set of admissible (marked)
    root types.  The root is taken from ``success`` and children are searched
    in the earliest snapshot that contains a compatible witness, which keeps
    the model depth minimal (Section 7.2).  Every type is picked by the
    manager's top-down walk, the lexicographically smallest assignment
    (False < True) in the variable order, so witnesses are deterministic.
    """
    root_assignment = success.pick_assignment()
    if root_assignment is None:
        raise ValueError("reconstruction called on an empty success set")
    root_bits = _bits_from_assignment(encoding, root_assignment)
    return _build_node(encoding, relations, snapshots, root_bits, carries_mark=True)


def _build_node(
    encoding: LeanEncoding,
    relations: dict[int, TransitionRelation],
    snapshots: list[tuple[BDD, BDD]],
    bits: dict[int, bool],
    carries_mark: bool,
) -> BinTree:
    lean = encoding.lean
    marked_here = bool(bits.get(lean.start_index, False)) and carries_mark

    children: dict[int, BinTree | None] = {1: None, 2: None}
    # Decide through which branch the start mark must be routed.  The chooser
    # returns the witnesses it had to find anyway so they are not re-searched.
    mark_branch = 0
    found: dict[tuple[int, bool], dict[int, bool]] = {}
    if carries_mark and not marked_here:
        mark_branch, found = _choose_mark_branch(encoding, relations, snapshots, bits)

    for program in (1, 2):
        needs_child = bits.get(encoding.top_index(program), False)
        if not needs_child:
            continue
        want_marked = program == mark_branch
        child_bits = found.get((program, want_marked))
        if child_bits is None:
            child_bits = _find_child(
                encoding, relations[program], snapshots, bits, want_marked
            )
        children[program] = _build_node(
            encoding, relations, snapshots, child_bits, carries_mark=want_marked
        )

    return BinTree(
        label=_label_of(encoding, bits),
        left=children[1],
        right=children[2],
        marked=marked_here,
        attributes=_attributes_of(encoding, bits),
    )


def _choose_mark_branch(
    encoding: LeanEncoding,
    relations: dict[int, TransitionRelation],
    snapshots: list[tuple[BDD, BDD]],
    bits: dict[int, bool],
) -> tuple[int, dict[tuple[int, bool], dict[int, bool]]]:
    """Pick the branch (1 or 2) through which the start mark is provable.

    The solver proved the type through at least one of the ``Upd`` cases
    "mark through the first branch" / "mark through the second branch"
    (Figure 16), but not necessarily through both: a branch may admit a
    *marked* witness while the other branch only has *marked* witnesses too
    (so routing the mark there would strand the second mark).  The chosen
    branch must therefore have a marked witness **and** leave every other
    claimed branch an unmarked witness — picking the first branch with a
    marked witness alone reconstructs an inconsistent tree.

    Returns the chosen branch together with the witnesses found along the
    way, keyed by ``(program, want_marked)``, so the caller reuses them
    instead of repeating the snapshot scans.
    """
    found: dict[tuple[int, bool], dict[int, bool]] = {}

    def search(program: int, want_marked: bool) -> dict[int, bool] | None:
        key = (program, want_marked)
        if key not in found:
            witness = _search_child(
                encoding, relations[program], snapshots, bits, want_marked
            )
            if witness is None:
                return None
            found[key] = witness
        return found[key]

    for program in (1, 2):
        if not bits.get(encoding.top_index(program), False):
            continue
        if search(program, True) is None:
            continue
        other = 2 if program == 1 else 1
        if bits.get(encoding.top_index(other), False):
            if search(other, False) is None:
                continue
        return program, found
    raise ValueError(
        "inconsistent solver state: a marked subtree has no branch routing "
        "exactly one mark; this indicates a bug in the mark-tracking update"
    )


def _search_child(
    encoding: LeanEncoding,
    relation: TransitionRelation,
    snapshots: list[tuple[BDD, BDD]],
    bits: dict[int, bool],
    want_marked: bool,
) -> dict[int, bool] | None:
    """A compatible (un)marked witness from the earliest snapshot, or ``None``."""
    parts = relation.child_constraint_parts(bits)
    for unmarked, marked in snapshots:
        candidates = _intersect_all(marked if want_marked else unmarked, parts)
        if not candidates.is_false:
            assignment = candidates.pick_assignment()
            assert assignment is not None
            return _bits_from_assignment(encoding, assignment)
    return None


def _find_child(
    encoding: LeanEncoding,
    relation: TransitionRelation,
    snapshots: list[tuple[BDD, BDD]],
    bits: dict[int, bool],
    want_marked: bool,
) -> dict[int, bool]:
    child_bits = _search_child(encoding, relation, snapshots, bits, want_marked)
    if child_bits is None:
        raise ValueError(
            "inconsistent solver state: a proved type has no witness in any "
            "intermediate set; this indicates a bug in the update operation"
        )
    return child_bits


def _intersect_all(candidates: BDD, parts: list[BDD]) -> BDD:
    """Conjoin the constraint parts into ``candidates``, bailing out on ⊥.

    Conjoining part by part keeps every intermediate constrained by the
    (small) set of proved types; building the conjunction of the parts first
    can be exponentially larger (it is unconstrained by the solver's sets).
    """
    for part in parts:
        candidates = candidates & part
        if candidates.is_false:
            break
    return candidates
