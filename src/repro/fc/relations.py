"""FC-definable word relations.

Section 2 defines when a formula φ_R with free variables ``x₁…x_k``
*defines* a relation ``R ⊆ (Σ*)^k``:  for every ``w``, the satisfying
assignments of φ_R on ``𝔄_w`` must be exactly ``R ∩ Facs(w)^k``.  This
module wraps a formula + variable order into an :class:`FCRelation` and
provides the (finite-instance) "defines" check — used to validate R_copy
and R_{k-copies} positively, and used in reverse by the Theorem 5.8
experiments where a hypothetical defining formula is shown impossible.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from repro.fc.semantics import satisfying_assignments, satisfying_tuples
from repro.fc.structures import word_structure
from repro.fc.syntax import Formula, Var, free_variables

__all__ = ["FCRelation", "relation_slice", "defines_relation"]


class FCRelation:
    """A formula with an ordered tuple of free variables, read as a relation.

    ``evaluate(word)`` returns the set of tuples
    ``(σ(x₁), …, σ(x_k))`` over all σ ∈ ⟦φ⟧(w).
    """

    def __init__(self, formula: Formula, variables: Sequence[Var], alphabet: str):
        declared = tuple(variables)
        actual = free_variables(formula)
        if frozenset(declared) != actual:
            raise ValueError(
                f"declared variables {[v.name for v in declared]} do not match "
                f"free variables {sorted(v.name for v in actual)}"
            )
        if len(set(declared)) != len(declared):
            raise ValueError("variable tuple has repeats")
        self.formula = formula
        self.variables = declared
        self.alphabet = alphabet

    @property
    def arity(self) -> int:
        return len(self.variables)

    def evaluate(self, word: str) -> frozenset[tuple[str, ...]]:
        """Return the relation slice selected on ``word``: the per-word
        form of :meth:`evaluate_many`, the same relational sweep run on
        a one-word family."""
        tuples = set()
        for sigma in satisfying_assignments(word, self.formula, self.alphabet):
            tuples.add(tuple(sigma[v] for v in self.variables))
        return frozenset(tuples)

    def evaluate_many(
        self, words: Iterable[str], scope: int | None = None
    ) -> Iterator[tuple[str, frozenset[tuple[str, ...]]]]:
        """Batched :meth:`evaluate` over a word family: yield
        ``(word, tuples)`` via one compiled relational sweep
        (:func:`repro.fc.semantics.satisfying_tuples`), sharing the
        family's interned id space, pools and pure-atom memos across
        all words.  ``scope`` is as in ``satisfying_tuples``."""
        batch = satisfying_tuples(
            self.formula,
            self.alphabet,
            words,
            scope=scope,
            variables=self.variables,
        )
        for word, rows in batch:
            yield word, frozenset(rows)

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"FCRelation(({names}) | {self.formula!r})"


def relation_slice(
    predicate: Callable[..., bool], word: str, arity: int, alphabet: str
) -> frozenset[tuple[str, ...]]:
    """Return ``R ∩ Facs(word)^arity`` for a Python predicate ``R``."""
    structure = word_structure(word, alphabet)
    pool = sorted(structure.universe_factors, key=lambda f: (len(f), f))
    return frozenset(
        candidate
        for candidate in product(pool, repeat=arity)
        if predicate(*candidate)
    )


def defines_relation(
    relation: FCRelation,
    predicate: Callable[..., bool],
    words: Iterable[str],
    scope: int | None = None,
) -> bool:
    """Check the paper's "φ_R defines R" condition on a finite word sample.

    For every ``w`` in ``words``: ``⟦φ_R⟧(w)`` (as variable tuples) must
    equal ``R ∩ Facs(w)^k`` where ``R`` is given by ``predicate``.  The
    formula side runs as one batched relational sweep over the sample
    (``scope`` as in :meth:`FCRelation.evaluate_many`).
    """
    for word, actual in relation.evaluate_many(words, scope=scope):
        expected = relation_slice(predicate, word, relation.arity, relation.alphabet)
        if actual != expected:
            return False
    return True
