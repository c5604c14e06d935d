"""repro.kernel — the interned-factor kernel under the solver stack.

The exact EF-game solver and the FC model checker both manipulate the
universe ``Facs(w) ∪ {⊥}`` of a word structure.  Doing that with Python
strings and frozensets of string pairs pays hashing and allocation costs
exponentially often in the round count / quantifier depth.  This package
interns each universe once into dense integer ids with precomputed
tables (sorted order, lengths, a full concatenation table, constant
ids), so the EF solver above it (``repro.ef.solver``) runs on machine
integers and tuple indexing; the FC evaluator (``repro.fc.sweep``)
interns whole word families the same way through :mod:`.sweep`.

Layering: ``kernel`` sits between ``words`` and ``{fc, fcreg}`` in the
import DAG (see ``repro.analysis.layering``).  It therefore cannot and
does not import the FC syntax or structure classes; ⊥ is represented by
the reserved id 0 (:data:`BOTTOM_ID`), and the layers above translate
between elements and ids at their boundary.  Search-effort counters
and the kernel's lru caches report to the layer-free
:mod:`repro.metrics` registry, which sits below the whole DAG.
"""

from __future__ import annotations

from repro.kernel.automorphisms import automorphism_group
from repro.kernel.efcore import KernelSolver
from repro.kernel.interning import (
    BOTTOM_ID,
    InternTable,
    intern_restricted_table,
    intern_table,
)

__all__ = [
    "BOTTOM_ID",
    "InternTable",
    "KernelSolver",
    "automorphism_group",
    "intern_restricted_table",
    "intern_table",
]
