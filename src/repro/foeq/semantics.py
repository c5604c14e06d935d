"""Model checking for FO[EQ] over position structures.

Positions are 1-based; the universe of ``w`` is ``{1, …, |w|}`` (the empty
word has an empty universe, so every ∃ is false and every ∀ is true on ε).
"""

from __future__ import annotations

from typing import Dict

from repro.foeq.compiled import position_program
from repro.foeq.syntax import (
    FactorEq,
    Less,
    PAnd,
    PExists,
    PForall,
    PFormula,
    PImplies,
    PNot,
    POr,
    PVar,
    SymbolAt,
    p_free_variables,
)
from repro.words.generators import words_up_to

__all__ = [
    "p_evaluate",
    "p_models",
    "p_language_slice",
    "factor_at",
]

PAssignment = Dict[PVar, int]


def factor_at(word: str, start: int, end: int) -> str | None:
    """The factor w[start..end] for 1-based closed intervals, or ``None``
    when the interval is not well-formed."""
    if not (1 <= start <= end <= len(word)):
        return None
    return word[start - 1 : end]


def p_evaluate(word: str, formula: PFormula, assignment: PAssignment) -> bool:
    """Decide ``(word-as-position-structure, σ) ⊨ φ``."""
    if isinstance(formula, Less):
        return assignment[formula.x] < assignment[formula.y]
    if isinstance(formula, SymbolAt):
        position = assignment[formula.x]
        return word[position - 1] == formula.symbol
    if isinstance(formula, FactorEq):
        left = factor_at(word, assignment[formula.x1], assignment[formula.y1])
        right = factor_at(word, assignment[formula.x2], assignment[formula.y2])
        return left is not None and left == right
    if isinstance(formula, PNot):
        return not p_evaluate(word, formula.inner, assignment)
    if isinstance(formula, PAnd):
        return p_evaluate(word, formula.left, assignment) and p_evaluate(
            word, formula.right, assignment
        )
    if isinstance(formula, POr):
        return p_evaluate(word, formula.left, assignment) or p_evaluate(
            word, formula.right, assignment
        )
    if isinstance(formula, PImplies):
        return (not p_evaluate(word, formula.left, assignment)) or p_evaluate(
            word, formula.right, assignment
        )
    if isinstance(formula, (PExists, PForall)):
        variable = formula.var
        shadowed = assignment.get(variable)
        had = variable in assignment
        want = isinstance(formula, PExists)
        result = not want
        for position in range(1, len(word) + 1):
            assignment[variable] = position
            if p_evaluate(word, formula.inner, assignment) == want:
                result = want
                break
        if had:
            assignment[variable] = shadowed  # type: ignore[assignment]
        else:
            assignment.pop(variable, None)
        return result
    raise TypeError(f"unknown FO[EQ] node: {formula!r}")


def p_models(
    word: str, formula: PFormula, assignment: PAssignment | None = None
) -> bool:
    """Decide satisfaction; free variables must be assigned positions."""
    assignment = dict(assignment or {})
    for variable in p_free_variables(formula):
        if variable not in assignment:
            raise ValueError(f"free position variable {variable!r} unassigned")
    for variable, position in assignment.items():
        if not (1 <= position <= len(word)):
            raise ValueError(
                f"{variable!r} ↦ {position} is not a position of {word!r}"
            )
    # Fast path: one immutable program of closures per formula, shared
    # process-wide, with per-call interval ids and quantifier caches
    # (repro.foeq.compiled).  p_evaluate above remains the reference
    # semantics the compiled path is differential-tested against.
    return position_program(formula).evaluate(word, assignment)


def p_language_slice(
    sentence: PFormula, alphabet: str, max_length: int
) -> frozenset[str]:
    """``L(φ) ∩ Σ^{≤n}`` for an FO[EQ] sentence."""
    if p_free_variables(sentence):
        raise ValueError("language of an open formula")
    return frozenset(
        word
        for word in words_up_to(alphabet, max_length)
        if p_models(word, sentence)
    )
