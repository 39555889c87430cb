"""A reduced ordered binary decision diagram (ROBDD) engine.

Section 7 of the paper represents sets of ψ-types implicitly as BDDs [5] and
implements the satisfiability algorithm entirely with BDD operations.  The
reference system used a mature BDD library; this package provides an
equivalent engine — in pure Python, and the same engine with its kernels in
C — with the operations the solver needs:

* hash-consed node table with a fixed variable order,
* boolean connectives via the ``apply`` / ``ite`` algorithms with memoisation,
* existential and universal quantification, and the fused
  conjunction-then-quantification (``and_exists``) used for relational
  products,
* variable renaming (for the primed/unprimed vectors ``~x`` and ``~y``),
* satisfying-assignment extraction and model counting.

Two interchangeable engines implement the :class:`repro.bdd.protocol.BDDBackend`
protocol: the pure-Python packed-array
:class:`repro.bdd.arena.ArenaBDDManager` (``"arena"``) and
:class:`repro.bdd.native.NativeBDDManager` (``"native"``), the same engine
with its kernels in C.  Client code constructs whichever is selected through
:func:`repro.bdd.backends.create_manager`.
"""

from repro.bdd.arena import ArenaBDDManager
from repro.bdd.backends import (
    BACKEND_ENV,
    BACKENDS,
    available_backends,
    create_manager,
    default_backend,
    resolve_backend,
)
from repro.bdd.manager import BDD
from repro.bdd.native import NativeBDDManager
from repro.bdd.ordering import interleaved_pairs, order_by_first_use
from repro.bdd.protocol import BDDBackend

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "BDD",
    "BDDBackend",
    "ArenaBDDManager",
    "NativeBDDManager",
    "available_backends",
    "create_manager",
    "default_backend",
    "interleaved_pairs",
    "order_by_first_use",
    "resolve_backend",
]
