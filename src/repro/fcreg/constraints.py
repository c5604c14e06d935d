"""FC[REG]: FC extended with regular constraints (Section 5).

A *regular constraint* is an atomic formula ``(x ∈̇ γ)``; the semantics:
``(𝔄_w, σ) ⊨ (x ∈̇ γ)`` iff ``σ(x) ⊑ w`` and ``σ(x) ∈ L(γ)``.  The atom
plugs into the FC model checker through the extension hooks
(``_evaluate``, ``_assignment_pure``, ``_quantifier_rank``), so every FC
facility (``models``, ``satisfying_assignments``, ``FCLanguage``) works
unchanged on FC[REG] formulas.  With a variable subject the sweep
evaluator also uses the atom as a candidate filter for that variable.

The paper's cautionary note applies and is preserved here: with regular
constraints there are infinitely many rank-1 formulas, so Theorem 3.4
(the EF theorem) does **not** extend to FC[REG]; the inexpressibility
route goes through Lemma 5.4 instead (``repro.fcreg.rewriting``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.fc.structures import BOTTOM, WordStructure
from repro.fc.syntax import Const, Formula, Term, Var
from repro.fcreg.automata import DFA, compile_regex
from repro.fcreg.regex import Regex, parse_regex

__all__ = ["RegularConstraint", "in_regex", "regular_constraints_of"]


@dataclass(frozen=True, repr=False)
class RegularConstraint(Formula):
    """The atom ``(x ∈̇ γ)`` for a variable/constant x and regex γ.

    Compiled to a DFA once at construction; evaluation is a DFA run over
    the candidate factor.
    """

    x: Term
    regex: Regex
    _dfa: DFA = field(init=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_dfa", compile_regex(self.regex))

    def __repr__(self) -> str:
        return f"({self.x!r} ∈̇ {self.regex!r})"

    # -- FC extension hooks --------------------------------------------------

    @property
    def _assignment_pure(self) -> bool:
        """With a variable subject, truth is a function of the assigned
        value alone, so batched sweeps (repro.fc.sweep) may memoise the
        DFA run per value; a Const subject reads the structure (⊥ when
        the letter is absent from the word) and must stay per-word."""
        return isinstance(self.x, Var)

    def _quantifier_rank(self) -> int:
        return 0

    def _atom_terms(self) -> Iterator[Term]:
        yield self.x

    def _substitute(self, mapping: dict) -> "RegularConstraint":
        if isinstance(self.x, Var) and self.x in mapping:
            return RegularConstraint(mapping[self.x], self.regex)
        return self

    def _evaluate(self, structure: WordStructure, assignment: dict) -> bool:
        if isinstance(self.x, Const):
            # repro-lint: allow[effects.assignment-purity] _assignment_pure is False exactly when x is a Const, so sweeps never memoise this branch
            value = structure.constant(self.x.symbol)
        else:
            value = assignment[self.x]
        if value is BOTTOM:
            return False
        return self._dfa.accepts(value)


def in_regex(x: "Term | str", pattern: "Regex | str") -> RegularConstraint:
    """Convenience constructor: ``in_regex(x, "(ba)*")``."""
    if isinstance(x, str):
        if len(x) > 1:
            raise ValueError("constraint subject must be a variable or letter")
        x = Const(x)
    regex = parse_regex(pattern) if isinstance(pattern, str) else pattern
    return RegularConstraint(x, regex)


def regular_constraints_of(formula: Formula) -> list[RegularConstraint]:
    """Collect every regular-constraint atom in a formula tree."""
    from repro.fc.syntax import And, Exists, Forall, Implies, Not, Or

    found: list[RegularConstraint] = []

    def walk(node: Formula) -> None:
        if isinstance(node, RegularConstraint):
            found.append(node)
        elif isinstance(node, Not):
            walk(node.inner)
        elif isinstance(node, (And, Or, Implies)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (Exists, Forall)):
            walk(node.inner)
        else:
            pass  # plain FC atoms (Concat, ConcatChain) hold no constraints

    walk(formula)
    return found
