"""Factor (substring) combinatorics for finite words.

The paper represents a word ``w`` as a relational structure whose universe is
``Facs(w)``, the set of all factors (contiguous substrings) of ``w``.  This
module provides the factor-set primitives used throughout the library:
factor/prefix/suffix enumeration, factor tests, and the factor-intersection
computations that the Pseudo-Congruence Lemma (Lemma 4.4) and the
co-primitivity characterisation (Lemma 4.10) rely on.

Words are plain Python ``str`` objects; the empty word is ``""``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from repro import metrics

__all__ = [
    "factors",
    "iter_factors",
    "prefixes",
    "suffixes",
    "is_factor",
    "is_strict_factor",
    "is_prefix",
    "is_suffix",
    "is_strict_prefix",
    "is_strict_suffix",
    "factor_count",
    "factor_complexity",
    "common_factors",
    "longest_common_factor_length",
    "occurrence_count",
]


def iter_factors(word: str) -> Iterator[str]:
    """Yield every distinct factor of ``word``, including ``""`` and ``word``.

    Factors are yielded in order of increasing length and, within a length,
    in order of their leftmost occurrence.  Each factor appears exactly once.
    """
    seen: set[str] = set()
    n = len(word)
    yield ""
    seen.add("")
    for length in range(1, n + 1):
        for start in range(n - length + 1):
            factor = word[start : start + length]
            if factor not in seen:
                seen.add(factor)
                yield factor


@lru_cache(maxsize=4096)
def factors(word: str) -> frozenset[str]:
    """Return ``Facs(word)``, the set of all factors of ``word``.

    The result is cached: the EF-game machinery repeatedly asks for the
    factor sets of the same handful of words.
    """
    return frozenset(iter_factors(word))


metrics.register("words.factors.factors", factors)


def prefixes(word: str) -> list[str]:
    """Return all prefixes of ``word`` (including ``""`` and ``word``)."""
    return [word[:i] for i in range(len(word) + 1)]


def suffixes(word: str) -> list[str]:
    """Return all suffixes of ``word`` (including ``""`` and ``word``)."""
    return [word[i:] for i in range(len(word) + 1)]


def is_factor(factor: str, word: str) -> bool:
    """Return ``True`` iff ``factor`` ⊑ ``word``."""
    return factor in word


def is_strict_factor(factor: str, word: str) -> bool:
    """Return ``True`` iff ``factor`` ⊏ ``word`` (factor, but not equal)."""
    return factor != word and factor in word


def is_prefix(prefix: str, word: str) -> bool:
    """Return ``True`` iff ``word`` starts with ``prefix``."""
    return word.startswith(prefix)


def is_suffix(suffix: str, word: str) -> bool:
    """Return ``True`` iff ``word`` ends with ``suffix``."""
    return word.endswith(suffix)


def is_strict_prefix(prefix: str, word: str) -> bool:
    """Return ``True`` iff ``prefix`` is a prefix of ``word`` and ≠ ``word``."""
    return prefix != word and word.startswith(prefix)


def is_strict_suffix(suffix: str, word: str) -> bool:
    """Return ``True`` iff ``suffix`` is a suffix of ``word`` and ≠ ``word``."""
    return suffix != word and word.endswith(suffix)


def factor_count(word: str) -> int:
    """Return ``|Facs(word)|`` (the number of distinct factors)."""
    return len(factors(word))


def common_factors(u: str, v: str) -> frozenset[str]:
    """Return ``Facs(u) ∩ Facs(v)``.

    This is the quantity governing the round overhead ``r`` of the
    Pseudo-Congruence Lemma: ``r = max{|x| : x ∈ Facs(w1) ∩ Facs(w2)}``.
    """
    return factors(u) & factors(v)


def longest_common_factor_length(u: str, v: str) -> int:
    """Return ``max{|x| : x ∈ Facs(u) ∩ Facs(v)}``.

    The empty word is always common, so the result is ≥ 0.  Computed by
    dynamic programming over suffix matches rather than materialising the
    (quadratic-size) factor sets, so it stays cheap for long words.
    """
    if not u or not v:
        return 0
    best = 0
    # match[j] = length of the longest common suffix of u[:i] and v[:j].
    match = [0] * (len(v) + 1)
    for i in range(1, len(u) + 1):
        previous_diagonal = 0
        for j in range(1, len(v) + 1):
            current = match[j]
            if u[i - 1] == v[j - 1]:
                match[j] = previous_diagonal + 1
                if match[j] > best:
                    best = match[j]
            else:
                match[j] = 0
            previous_diagonal = current
    return best


def factor_complexity(word: str) -> list[int]:
    """The factor-complexity function: entry n = number of distinct
    factors of length n (n = 0 … len(word)).

    Sturmian words — the Fibonacci word among them — have complexity
    exactly n + 1 at every length, the minimum possible for aperiodic
    words; the test suite checks this on the finite Fibonacci prefixes.
    """
    counts = [0] * (len(word) + 1)
    for factor in iter_factors(word):
        counts[len(factor)] += 1
    return counts


def occurrence_count(factor: str, word: str) -> int:
    """Return the number of (possibly overlapping) occurrences of ``factor``.

    ``occurrence_count("", w)`` is ``len(w) + 1`` — one occurrence per
    position, matching the convention ``|w|_ε = |w| + 1`` for spans.
    For single letters this equals the paper's ``|w|_a``.
    """
    if not factor:
        return len(word) + 1
    count = 0
    start = word.find(factor)
    while start != -1:
        count += 1
        start = word.find(factor, start + 1)
    return count


def restrict_to_factors(candidates: Iterable[str], word: str) -> list[str]:
    """Filter ``candidates`` down to those that are factors of ``word``."""
    return [candidate for candidate in candidates if candidate in word]
