"""Unary languages as subsets of ℕ, and semi-linearity detection.

A unary language ``L ⊆ {a}*`` is identified with ``S_L = {|w| : w ∈ L}``.
The paper's Section 3 chain of citations gives: over a unary alphabet,
FC = core spanners = generalized core spanners = Presburger = semi-linear.
Hence any unary language whose length set is *not* eventually periodic —
such as ``L_pow = {a^{2ⁿ}}`` — is outside FC; that is Lemma 3.6's engine.

This module provides the translation, an eventual-periodicity detector for
finite samples (the empirical face of "semi-linear"), and the concrete
``{2ⁿ}`` / ``{i·2ⁿ}`` non-semi-linearity witnesses used by Lemma 3.6 and
Proposition 4.9.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.semilinear.linear_sets import SemiLinearSet

__all__ = [
    "lengths_of",
    "unary_language_of",
    "detect_eventual_periodicity",
    "detect_robust_periodicity",
    "is_sample_semilinear",
    "powers_of_two",
    "scaled_powers_of_two",
    "semilinear_gap_witness",
]


def lengths_of(language: Iterable[str]) -> frozenset[int]:
    """``S_L``: the length set of a unary language sample."""
    return frozenset(len(word) for word in language)


def unary_language_of(numbers: Iterable[int], letter: str = "a") -> list[str]:
    """The unary language ``{ letterⁿ : n ∈ numbers }`` (sorted)."""
    return [letter * n for n in sorted(set(numbers))]


def detect_eventual_periodicity(
    sample: frozenset[int], bound: int
) -> tuple[int, int] | None:
    """Find ``(threshold, period)`` making ``sample`` (as a subset of
    ``{0..bound}``) eventually periodic, or ``None``.

    A set that is semi-linear restricted to ``{0..bound}`` must admit such
    a pair with ``threshold + 2·period ≤ bound`` to be *detectable*; the
    converse direction (a detected period genuinely extends to infinity)
    cannot be concluded from a finite sample, so callers treat a ``None``
    as evidence of non-semi-linearity at the probed scale, exactly like
    the paper treats the growth of ``2ⁿ``.

    Periods are tried in increasing order.  For one period the least
    valid threshold is one past the last ``n ≤ bound − period`` with
    ``membership[n] ≠ membership[n + period]`` (0 if there is none), so
    a downward scan to that mismatch finds it: O(bound²) in all.
    """
    membership = [n in sample for n in range(bound + 1)]
    for period in range(1, bound // 2 + 1):
        threshold = 0
        for n in range(bound - period, -1, -1):
            if membership[n] != membership[n + period]:
                threshold = n + 1
                break
        if threshold <= bound - 2 * period:
            return threshold, period
    return None


def is_sample_semilinear(sample: frozenset[int], bound: int) -> bool:
    """Whether the sample looks eventually periodic on ``{0..bound}``."""
    return detect_eventual_periodicity(sample, bound) is not None


def detect_robust_periodicity(
    member: Callable[[int], bool], bound: int
) -> tuple[int, int] | None:
    """Window-stable eventual periodicity for an *infinite* set.

    Any finite window of any set is trivially eventually periodic (the
    tail beyond the largest member is constant), so windowed detection
    alone cannot refute semi-linearity.  This detector requires the
    structure found on ``{0..bound}`` to *survive doubling*: a
    ``(threshold, period)`` detected on the small window must still
    describe membership on ``{0..2·bound}``.  Genuinely semi-linear sets
    pass for large enough bounds; ``{2ⁿ}`` fails at every bound because
    the next power always lands inside the doubled window.
    """
    sample = frozenset(n for n in range(bound + 1) if member(n))
    detected = detect_eventual_periodicity(sample, bound)
    if detected is None:
        return None
    threshold, period = detected
    for n in range(threshold, 2 * bound - period + 1):
        if member(n) != member(n + period):
            return None
    return detected


def powers_of_two(bound: int) -> frozenset[int]:
    """``{2ⁿ} ∩ {0..bound}`` — the Lemma 3.6 non-semi-linear set."""
    result = set()
    value = 1
    while value <= bound:
        result.add(value)
        value *= 2
    return frozenset(result)


def scaled_powers_of_two(scale: int, bound: int) -> frozenset[int]:
    """``{scale·2ⁿ} ∩ {0..bound}`` — Proposition 4.9's variant."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    result = set()
    value = 2 * scale
    while value <= bound:
        result.add(value)
        value *= 2
    return frozenset(result)


def semilinear_gap_witness(
    semilinear: SemiLinearSet, target: Callable[[int], bool], bound: int
) -> int | None:
    """Return the least ``n ≤ bound`` where ``semilinear`` and the target
    predicate disagree (``None`` if they agree up to ``bound``).

    Used to show concretely that *no* small semi-linear set matches
    ``{2ⁿ}``: every candidate disagrees somewhere below the bound.
    """
    for n in range(bound + 1):
        if (n in semilinear) != target(n):
            return n
    return None
