"""The Primitive Power Lemma (Lemma 4.8) as a certified operation.

Statement: if ``aᵖ ≡_{k+3} a^q`` then ``wᵖ ≡_k w^q`` for every primitive
word ``w``.  As with the Pseudo-Congruence Lemma, this module wraps one
application into an instance object that can

* certify the premise ``aᵖ ≡_{k+3} a^q`` with the exact solver (``equiv_k``),
* build the proof's Duplicator strategy (exp_w look-up + Lemma 4.7
  refactoring) and machine-check it against every Spoiler line,
* cross-check the conclusion with the exact solver directly.

Premise feasibility: ``aᵖ ≡_{k+3} a^q`` with p ≠ q is only certifiable for
k + 3 ≤ 2 by exact search (the minimal ≡₃ pair exceeds exponent 48), so
fully-provisioned non-trivial instances need k < 0 — the harness therefore
also supports *under-provisioned* look-ups (fewer than k+3 rounds) and
*identity* instances (p = q), and reports which level it certified.  The
conclusion cross-check is premise-free and is run wherever tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ef.composition import PrimitivePowerDuplicator
from repro.ef.equivalence import equiv_k, solver_for
from repro.ef.game import GameArena
from repro.ef.strategies import (
    IdentityDuplicator,
    SolverDuplicator,
    VerificationResult,
    exhaustively_verify_duplicator,
)
from repro.fc.structures import word_structure
from repro.words.primitivity import is_primitive

__all__ = ["PrimitivePowerInstance"]


@dataclass
class PrimitivePowerInstance:
    """One application of Lemma 4.8: ``baseᵖ ≡_k base^q``."""

    base: str
    p: int
    q: int
    k: int
    alphabet: str

    def __post_init__(self) -> None:
        if not is_primitive(self.base):
            raise ValueError(f"{self.base!r} is not primitive")
        missing = set(self.base) - set(self.alphabet)
        if missing:
            raise ValueError(f"alphabet misses letters {sorted(missing)}")

    @property
    def lookup_rounds(self) -> int:
        """The proof's look-up budget: k + 3."""
        return self.k + 3

    def premise_holds(self, lookup_rounds: int | None = None) -> bool:
        """``aᵖ ≡_n a^q`` via ``equiv_k`` (default n = k+3)."""
        n = self.lookup_rounds if lookup_rounds is None else lookup_rounds
        return equiv_k("a" * self.p, "a" * self.q, n, alphabet="a")

    def build_duplicator(
        self, lookup_rounds: int | None = None
    ) -> PrimitivePowerDuplicator:
        """The proof's strategy: exp_w projection + unary look-up game."""
        rounds = self.lookup_rounds if lookup_rounds is None else lookup_rounds
        if self.p == self.q:
            lookup = IdentityDuplicator()
        else:
            solver = solver_for("a" * self.p, "a" * self.q, "a")
            lookup = SolverDuplicator(solver, rounds)
        return PrimitivePowerDuplicator(self.base, self.p, self.q, lookup)

    def arena(self) -> GameArena:
        return GameArena(
            word_structure(self.base * self.p, self.alphabet),
            word_structure(self.base * self.q, self.alphabet),
            self.k,
        )

    def verify_strategy(
        self, lookup_rounds: int | None = None
    ) -> VerificationResult:
        """Machine-check the strategy against every Spoiler line (k rounds)."""
        return exhaustively_verify_duplicator(
            self.arena(), lambda: self.build_duplicator(lookup_rounds)
        )

    def verify_conclusion(self) -> bool:
        """Cross-check ``baseᵖ ≡_k base^q`` with the generic exact solver."""
        return equiv_k(
            self.base * self.p, self.base * self.q, self.k, self.alphabet
        )
