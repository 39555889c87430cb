"""Persistent, cross-process solve cache: ``repro.cache``.

:class:`repro.api.StaticAnalyzer` already answers repeated questions from an
in-process dictionary keyed by the hash-consed Lµ formula (the "solve cache"
of the module docstring of :mod:`repro.api`).  That cache dies with the
process, so a service restarting — or a fleet of short-lived CLI invocations —
pays the full solver cost again for questions it has already answered.  This
module stores solver verdicts on disk so *cold processes start warm*:

* **Content-addressed.**  Each entry is keyed by a SHA-256 digest of a
  canonical serialisation of the solved formula together with its Lean
  alphabet (atomic propositions and attribute names, Section 6.1 of the
  paper).  The serialisation renames bound recursion variables to their order
  of first appearance, so two alpha-equivalent formulas — e.g. the same query
  translated in two different processes, where :func:`repro.logic.syntax.
  fresh_var_name` hands out different suffixes — map to the same entry.
* **Versioned.**  Entries live under a ``v<N>/`` directory and carry the
  format version in their payload; bumping :data:`CACHE_FORMAT_VERSION`
  invalidates every old entry without touching it.
* **Safe under concurrent writers.**  One JSON file per entry, written to a
  temporary name and published with :func:`os.replace` (atomic on POSIX and
  NTFS).  Two processes racing on the same key write byte-identical content,
  so last-writer-wins is harmless; readers never observe partial files, and a
  corrupt or truncated entry is treated as a miss, quarantined to a
  ``.corrupt`` sibling for inspection, and rewritten on the next solve.

The cache stores *verdicts*, not BDDs: satisfiability, the serialized
counterexample document (when one exists) and the solver statistics of the
original run.  That is exactly what :class:`repro.api.AnalysisOutcome` needs,
and it keeps entries small (a few hundred bytes) and independent of the BDD
engine's internals.

Usage is normally indirect, through ``StaticAnalyzer(cache_dir=...)`` or the
``repro`` command line's ``--cache-dir`` option::

    from repro.api import Query, StaticAnalyzer

    analyzer = StaticAnalyzer(cache_dir="~/.cache/repro")
    analyzer.solve(Query.containment("a/b", "a//b"))   # first process: solver runs
    # ... a later process with the same cache_dir answers from disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.core import faults
from repro.logic import syntax as sx
from repro.logic.printer import format_formula_prefix

#: Bump to invalidate every existing on-disk entry (entries are stored under
#: a ``v<N>`` directory and re-checked against this value when read).
#: v2: entry keys gained a ``scope=single`` line; v1 entries read as clean
#: misses (they live under the untouched ``v1/`` directory), never as
#: corruption.
CACHE_FORMAT_VERSION = 2

#: Characters of :func:`repro.logic.printer.format_formula` output stored in
#: each entry for human inspection (informational only — never parsed back).
_FORMULA_PREVIEW_CHARS = 400


# ---------------------------------------------------------------------------
# Canonical content addressing
# ---------------------------------------------------------------------------


def _canonical_names(formula: sx.Formula) -> dict[str, str]:
    """Map every bound recursion-variable name to a canonical ``%<k>`` token.

    The map is built by a deterministic pre-order walk of the formula DAG
    (children in syntactic order, each shared node visited once), numbering
    binders in order of first appearance.  The renaming is injective, so it
    preserves the binding structure even for shadowed names; alpha-equivalent
    formulas built independently (with different globally-fresh suffixes)
    receive identical maps.
    """
    names: dict[str, str] = {}
    visited: set[int] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        kind = node.kind
        if kind in (sx.KIND_MU, sx.KIND_NU):
            for name, _ in node.defs:
                if name not in names:
                    names[name] = f"%{len(names)}"
            # Push in reverse so definitions are walked in syntactic order.
            children = [definition for _, definition in node.defs] + [node.body]
            stack.extend(reversed(children))
        elif kind in (sx.KIND_AND, sx.KIND_OR):
            stack.append(node.right)
            stack.append(node.left)
        elif kind == sx.KIND_DIA:
            stack.append(node.left)
    return names


def _node_children(node: sx.Formula) -> tuple[sx.Formula, ...]:
    kind = node.kind
    if kind in (sx.KIND_AND, sx.KIND_OR):
        return (node.left, node.right)
    if kind == sx.KIND_DIA:
        return (node.left,)
    if kind in (sx.KIND_MU, sx.KIND_NU):
        return tuple(definition for _, definition in node.defs) + (node.body,)
    return ()


def _node_header(node: sx.Formula, names: dict[str, str]) -> str:
    kind = node.kind
    if kind in (sx.KIND_PROP, sx.KIND_NPROP, sx.KIND_ATTR, sx.KIND_NATTR):
        return f"{kind}:{node.label}"
    if kind == sx.KIND_VAR:
        # Free variables (never produced by the translations, which build
        # closed formulas) keep their own name so they stay distinguishable.
        return f"var:{names.get(node.label, 'free:' + node.label)}"
    if kind in (sx.KIND_DIA, sx.KIND_NDIA):
        return f"{kind}:{node.prog}"
    if kind in (sx.KIND_MU, sx.KIND_NU):
        bound = ",".join(names[name] for name, _ in node.defs)
        return f"{kind}:{bound}"
    return kind  # true / false / start / nstart


def formula_digest(formula: sx.Formula) -> str:
    """SHA-256 hex digest of the canonical (alpha-invariant) form of a formula.

    Computed as a Merkle hash over the formula DAG — linear in the number of
    *distinct* subformulas, with no recursion and no materialised text, so
    heavily shared translation outputs stay cheap to address.
    """
    names = _canonical_names(formula)
    memo: dict[int, bytes] = {}
    stack: list[tuple[sx.Formula, bool]] = [(formula, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in memo:
            continue
        children = _node_children(node)
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in children)
            continue
        hasher = hashlib.sha256()
        hasher.update(_node_header(node, names).encode())
        for child in children:
            hasher.update(b"|")
            hasher.update(memo[id(child)])
        memo[id(node)] = hasher.digest()
    return memo[id(formula)].hex()


def lean_alphabet(formula: sx.Formula) -> dict[str, list[str]]:
    """The Lean alphabet of a formula: atomic propositions and attribute names.

    This is the ``Σ(ψ)`` part of ``Lean(ψ)`` (Section 6.1) before the
    implicit ``#other``/``#otherattr`` extras are appended; it is part of the
    cache key and stored in each entry for inspection.

    With cone-of-influence pruning (the default), the formulas reaching the
    cache are built over the problem's *pruned* element alphabet — collapsed
    names are gone from the formula itself — so digests key on the pruned
    alphabet automatically: a pruned and an unpruned reduction of the same
    query are distinct cache entries, and pruned entries are shared by every
    problem projecting onto the same alphabet.
    """
    return {
        "labels": sorted(sx.atomic_propositions(formula)),
        "attributes": sorted(sx.attribute_propositions(formula)),
    }


def solve_cache_key(formula: sx.Formula, track_marks: bool = True) -> str:
    """The content address of a formula's solver verdict (``entry_key``).

    Covers the canonical formula digest, the Lean alphabet, the cache format
    version, the only solver option that changes verdicts
    (``track_marks=False`` is the deliberately unsound ablation mode of
    :class:`repro.solver.symbolic.SymbolicSolver`).  The literal
    ``scope=single`` line is part of the version-2 key material: dropping it
    would move every address and orphan existing cache directories.
    """
    alphabet = lean_alphabet(formula)
    material = "\n".join(
        [
            f"repro-solve-cache/v{CACHE_FORMAT_VERSION}",
            "scope=single",
            formula_digest(formula),
            "labels=" + ",".join(alphabet["labels"]),
            "attributes=" + ",".join(alphabet["attributes"]),
            f"track_marks={track_marks}",
        ]
    )
    return hashlib.sha256(material.encode()).hexdigest()


#: Backwards-compatible alias: the function other modules historically call
#: "the entry key" of the disk cache.
entry_key = solve_cache_key


# ---------------------------------------------------------------------------
# Records and the on-disk store
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveRecord:
    """A solver verdict in storable form (what both cache layers hold).

    ``counterexample`` is the satisfying model already serialized by
    :func:`repro.trees.unranked.serialize_tree` (``None`` when the formula is
    unsatisfiable); ``statistics`` is the
    :meth:`repro.solver.symbolic.SolverStatistics.as_dict` of the run that
    produced the verdict.
    """

    satisfiable: bool
    counterexample: str | None
    statistics: dict
    solve_seconds: float

    def as_dict(self) -> dict:
        return {
            "satisfiable": self.satisfiable,
            "counterexample": self.counterexample,
            "statistics": self.statistics,
            "solve_seconds": self.solve_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SolveRecord":
        return cls(
            satisfiable=bool(payload["satisfiable"]),
            counterexample=payload["counterexample"],
            statistics=dict(payload["statistics"]),
            solve_seconds=float(payload["solve_seconds"]),
        )


class DiskSolveCache:
    """A directory of solver verdicts, one atomic JSON file per formula.

    Layout: ``<directory>/v<version>/<key[:2]>/<key>.json`` — the two-level
    fan-out keeps directories small for large caches.  All operations are
    safe under concurrent readers and writers (see the module docstring).
    """

    def __init__(self, directory: str | os.PathLike, track_marks: bool = True):
        self.directory = Path(directory).expanduser()
        self.track_marks = track_marks
        self.root = self.directory / f"v{CACHE_FORMAT_VERSION}"
        self.root.mkdir(parents=True, exist_ok=True)
        self._sequence = 0
        # Formulas are hash-consed (identity == structure), so the canonical
        # digest of each one is computed once — a get followed by the put of
        # a fresh verdict must not walk the formula DAG twice.
        self._key_memo: dict[sx.Formula, str] = {}

    # -- addressing --------------------------------------------------------------

    def key_for(self, formula: sx.Formula) -> str:
        key = self._key_memo.get(formula)
        if key is None:
            key = solve_cache_key(formula, track_marks=self.track_marks)
            self._key_memo[formula] = key
        return key

    def path_for_key(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- read / write ------------------------------------------------------------

    def get(self, formula: sx.Formula) -> SolveRecord | None:
        """The stored verdict for a formula, or ``None`` on miss/corruption.

        A file that exists but does not decode — truncated by a torn write,
        bit-rotted, hand-edited — is *quarantined*: renamed to
        ``<entry>.corrupt`` so the next writer republishes a good entry while
        the evidence stays on disk for inspection.  Version or key mismatches
        are well-formed files and stay in place (plain miss).
        """
        key = self.key_for(formula)
        path = self.path_for_key(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload.get("version") != CACHE_FORMAT_VERSION or payload.get("key") != key:
                return None
            return SolveRecord.from_dict(payload)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self._quarantine(path)
            return None

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a corrupt entry aside; never raises (losing the race is fine)."""
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            pass

    def put(self, formula: sx.Formula, record: SolveRecord) -> Path:
        """Persist a verdict (atomic publish); returns the entry path."""
        key = self.key_for(formula)
        path = self.path_for_key(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "key": key,
            **record.as_dict(),
            "alphabet": lean_alphabet(formula),
            "formula": format_formula_prefix(formula, _FORMULA_PREVIEW_CHARS),
            "created": time.time(),
        }
        encoded = json.dumps(payload, ensure_ascii=False, indent=1) + "\n"
        if faults.should_fire("cache-torn-write", key):
            # Simulate a writer dying mid-write *without* the atomic-publish
            # protection: half a payload lands at the final path.
            path.write_text(encoded[: len(encoded) // 2], encoding="utf-8")
            return path
        self._sequence += 1
        scratch = path.parent / f".{key}.{os.getpid()}.{self._sequence}.tmp"
        scratch.write_text(encoded, encoding="utf-8")
        os.replace(scratch, path)
        return path

    # -- maintenance -------------------------------------------------------------

    def entry_paths(self) -> Iterator[Path]:
        return self.root.glob("??/*.json")

    def __len__(self) -> int:
        return sum(1 for _ in self.entry_paths())

    def entries(self) -> Iterator[dict]:
        """Iterate decoded entry payloads (skipping corrupt files)."""
        for path in sorted(self.entry_paths()):
            try:
                yield json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue

    def clear(self) -> int:
        """Remove every entry of the *current* format version; returns count."""
        removed = 0
        for path in list(self.entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed
