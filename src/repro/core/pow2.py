"""Lemma 3.6 (pow2), executable.

The lemma: for every k there exist p ≠ q with ``aᵖ ≡_k a^q``.  The paper's
proof is indirect (``{a^{2ⁿ}}`` is not semi-linear, hence not FC-definable,
hence distinguishing all pairs at some fixed rank is impossible).  The
executable version has two faces:

* the *witness search* — find the minimal such pair by exact game solving
  (:func:`pow2_witness`), which is the building block every later
  experiment bootstraps from;
* the *non-semi-linearity evidence* — show that the length set {2ⁿ} has no
  eventually-periodic structure on any probed window
  (:func:`pow2_semilinearity_evidence`), mirroring the proof's engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ef.equivalence import equiv_k, find_equivalent_unary_pair
from repro.semilinear.unary import detect_eventual_periodicity, powers_of_two

__all__ = ["Pow2Witness", "pow2_witness", "pow2_semilinearity_evidence"]

#: Exactly-known minimal pairs (p, q) with aᵖ ≡_k a^q, verified with
#: ``equiv_k``.  Recomputing them takes well under a second for k ≤ 2;
#: the table lets higher layers (Pseudo-Congruence instances, witness
#: generators) bootstrap instantly.  k = 3 is beyond the exact solver's
#: feasible range (no pair exists below exponent 48; see EXPERIMENTS.md).
KNOWN_MINIMAL_PAIRS: dict[int, tuple[int, int]] = {
    0: (1, 2),
    1: (3, 4),
    2: (12, 14),
}


@dataclass(frozen=True)
class Pow2Witness:
    """A verified pair ``aᵖ ≡_k a^q`` with ``p < q``."""

    k: int
    p: int
    q: int

    def words(self, letter: str = "a") -> tuple[str, str]:
        return letter * self.p, letter * self.q


def pow2_witness(
    k: int, max_exponent: int = 64, verify: bool = True
) -> Pow2Witness:
    """Return the minimal Lemma 3.6 witness for rank ``k``.

    Uses the precomputed table when available (optionally re-verifying the
    equivalence with :func:`~repro.ef.equivalence.equiv_k`); otherwise runs
    the bounded :func:`~repro.ef.equivalence.find_equivalent_unary_pair`
    search.  Raises ``LookupError`` when no pair exists under ``max_exponent`` —
    the lemma guarantees existence, but not within any concrete bound, and
    for k ≥ 3 the minimal pair lies beyond the exact solver's reach.
    """
    known = KNOWN_MINIMAL_PAIRS.get(k)
    if known is not None:
        p, q = known
        if verify and not equiv_k("a" * p, "a" * q, k, alphabet="a"):
            raise AssertionError(
                f"table entry ({p}, {q}) for k={k} failed re-verification"
            )
        return Pow2Witness(k, p, q)
    pair = find_equivalent_unary_pair(k, max_exponent=max_exponent)
    if pair is None:
        raise LookupError(
            f"no pair p < q ≤ {max_exponent} with a^p ≡_{k} a^q; "
            "Lemma 3.6 guarantees one exists at larger exponents"
        )
    return Pow2Witness(k, *pair)


def pow2_semilinearity_evidence(bound: int = 512) -> dict:
    """Evidence that ``{2ⁿ}`` is not semi-linear (the proof's engine).

    Probes ``{2ⁿ} ∩ {0..bound}`` for an eventually-periodic structure and
    reports the outcome plus the doubling gaps.  A semi-linear set would
    exhibit a (threshold, period) pair on a window this large; ``{2ⁿ}``
    exhibits none because its gaps grow without bound.
    """
    sample = powers_of_two(bound)
    detected = detect_eventual_periodicity(sample, bound)
    ordered = sorted(sample)
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    return {
        "bound": bound,
        "members": ordered,
        "gaps": gaps,
        "gaps_strictly_increasing": gaps == sorted(set(gaps)),
        "eventually_periodic": detected,
    }
