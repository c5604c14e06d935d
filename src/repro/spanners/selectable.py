"""Selectability experiments: spanners ↔ FC[REG], and the ζ^R operator.

Freydenberger–Peterfreund: a relation R is *selectable* by generalized
core spanners iff R is definable in FC[REG].  The paper uses this as a
black box to lift its FC[REG] inexpressibility results to spanners.  This
module provides the extensional side of that bridge:

* :func:`agree_extensionally` — compare a spanner's *content* relation
  with an FC[REG] formula's satisfying assignments on every document up to
  a length bound (the finite validation of the correspondence on the
  instances the experiments touch);
* :func:`selection_gap_language` — demonstrate the paper's conclusion
  concretely: wiring an *unselectable* relation (e.g. Num_a, or length
  equality) into ζ^R produces a spanner recognising a language (e.g.
  aⁿbⁿ-style) that no generalized core spanner recognises;
* :func:`regular_intersection_trick` — the conclusion section's closure
  argument: L ∈ FC[REG] iff L ∩ (regular) ∈ FC[REG], used to push
  inexpressibility beyond bounded languages.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.fc.semantics import satisfying_assignments, satisfying_tuples
from repro.fc.syntax import Formula, Var, free_variables
from repro.spanners.spanner import RelationSelect, Spanner
from repro.words.generators import words_up_to

__all__ = [
    "spanner_content_relation",
    "agree_extensionally",
    "selection_gap_language",
    "regular_intersection_trick",
]


def spanner_content_relation(
    spanner: Spanner, document: str, order: Sequence[str]
) -> frozenset[tuple[str, ...]]:
    """The spanner's output as a set of content tuples in ``order``."""
    relation = spanner.evaluate(document)
    return frozenset(
        tuple(row[var].content(document) for var in order)
        for row in relation
    )


def formula_content_relation(
    formula: Formula, document: str, alphabet: str, order: Sequence[Var]
) -> frozenset[tuple[str, ...]]:
    """``⟦φ⟧(d)`` as a set of content tuples in variable ``order``: the
    per-document form of the batched sweep :func:`agree_extensionally`
    runs (the same relational sweep on a one-word family).
    """
    return frozenset(
        tuple(sigma[v] for v in order)
        for sigma in satisfying_assignments(document, formula, alphabet)
    )


def agree_extensionally(
    spanner: Spanner,
    formula: Formula,
    alphabet: str,
    max_length: int,
    variable_order: Sequence[str] | None = None,
) -> tuple[bool, str | None]:
    """Check spanner ≍ formula on all documents of length ≤ ``max_length``.

    The spanner's span tuples are projected to contents and deduplicated
    (spanners are positional, FC is content-based); variable names are
    matched by ``variable_order`` (default: sorted shared names).  Returns
    (agrees, first disagreeing document).
    """
    free = sorted(free_variables(formula), key=lambda v: v.name)
    if variable_order is None:
        names = sorted(spanner.schema())
    else:
        names = list(variable_order)
    if len(names) != len(free):
        raise ValueError(
            f"arity mismatch: spanner schema {names} vs formula free "
            f"variables {[v.name for v in free]}"
        )
    # The formula side is one batched relational sweep over the whole
    # document grid: φ compiles once, and ⟦φ⟧(d) per document is a
    # pool-pruned bitset scan sharing the family's interned tables
    # (repro.fc.sweep) instead of a per-document enumeration.
    formula_batch = satisfying_tuples(
        formula,
        alphabet,
        words_up_to(alphabet, max_length),
        scope=max_length,
    )
    for document, rows in formula_batch:
        from_spanner = spanner_content_relation(spanner, document, names)
        if from_spanner != frozenset(rows):
            return False, document
    return True, None


def selection_gap_language(
    base: Spanner,
    variables: tuple[str, ...],
    predicate: Callable[..., bool],
    alphabet: str,
    max_length: int,
    name: str = "R",
) -> frozenset[str]:
    """The language recognised by ``π_∅ ζ^R(base)``.

    Wiring an unselectable relation into ζ^R and projecting everything
    away yields a Boolean spanner; its language is what the paper shows
    cannot be recognised by any generalized core spanner.  Returned as a
    finite slice for comparison against the witness-language oracles.
    """
    selected = RelationSelect(base, variables, predicate, name)
    boolean = selected.project()
    return boolean.language_slice(alphabet, max_length)


def regular_intersection_trick(
    language_slice: frozenset[str],
    regular_filter: Callable[[str], bool],
) -> frozenset[str]:
    """The conclusion section's closure argument, extensionally.

    FC[REG] is closed under intersection with regular languages, so
    ``L ∈ L(FC[REG])`` implies ``L ∩ R ∈ L(FC[REG])``.  Given a finite
    slice of L and a regular membership test, return the slice of the
    intersection — e.g. {w : |w|_a = |w|_b} ∩ a*b* = {aⁿbⁿ}, whose
    non-definability then propagates back to L.
    """
    return frozenset(word for word in language_slice if regular_filter(word))
