"""Finite Fibonacci words and the paper's language ``L_fib``.

Proposition 4.1 shows (somewhat surprisingly) that the language

    L_fib = { c·F0·c·F1·c···c·Fn·c | n ∈ ℕ }

is expressible in FC, where ``F0 = a``, ``F1 = ab``, ``F_i = F_{i-1}·F_{i-2}``.
The paper also notes (via Karhumäki) that the infinite Fibonacci word is
4th-power-free, which is why FC has no pumping lemma in the classical sense.
This module builds the words, the language membership test, and the
power-freeness check used by the E05 experiment.
"""

from __future__ import annotations

from functools import lru_cache

from repro import metrics

__all__ = [
    "fibonacci_word",
    "fibonacci_words",
    "l_fib_word",
    "is_l_fib",
    "l_fib_members",
    "contains_kth_power",
    "is_fourth_power_free",
]

SEPARATOR = "c"


@lru_cache(maxsize=64)
def fibonacci_word(n: int) -> str:
    """Return ``F_n``: ``F_0 = "a"``, ``F_1 = "ab"``, ``F_i = F_{i-1}F_{i-2}``."""
    if n < 0:
        raise ValueError(f"negative index: {n}")
    if n == 0:
        return "a"
    if n == 1:
        return "ab"
    return fibonacci_word(n - 1) + fibonacci_word(n - 2)


metrics.register("words.fibonacci.fibonacci_word", fibonacci_word)


def fibonacci_words(count: int) -> list[str]:
    """Return ``[F_0, …, F_{count-1}]``."""
    return [fibonacci_word(i) for i in range(count)]


def l_fib_word(n: int, separator: str = SEPARATOR) -> str:
    """Return the ``L_fib`` member ``c F_0 c F_1 c ... c F_n c``."""
    if len(separator) != 1:
        raise ValueError("separator must be a single symbol")
    parts = [separator]
    for i in range(n + 1):
        parts.append(fibonacci_word(i))
        parts.append(separator)
    return "".join(parts)


def is_l_fib(word: str, separator: str = SEPARATOR) -> bool:
    """Ground-truth membership test for ``L_fib``.

    A word belongs to ``L_fib`` iff it equals ``c F_0 c … c F_n c`` for some
    ``n ≥ 0``.  (Used as the oracle against which the FC sentence φ_fib is
    validated in experiment E05.)
    """
    if not word.startswith(separator) or not word.endswith(separator):
        return False
    blocks = word[1:-1].split(separator) if len(word) > 1 else []
    if not blocks:
        return False
    for index, block in enumerate(blocks):
        if block != fibonacci_word(index):
            return False
    return True


def l_fib_members(max_length: int, separator: str = SEPARATOR) -> list[str]:
    """Return all members of ``L_fib`` of length at most ``max_length``."""
    members = []
    n = 0
    while True:
        candidate = l_fib_word(n, separator)
        if len(candidate) > max_length:
            break
        members.append(candidate)
        n += 1
    return members


def contains_kth_power(word: str, k: int) -> bool:
    """Return ``True`` iff ``word`` contains ``u^k`` for some non-empty ``u``."""
    if k < 1:
        raise ValueError(f"k must be ≥ 1, got {k}")
    n = len(word)
    for base_len in range(1, n // k + 1):
        window = base_len * k
        for start in range(n - window + 1):
            base = word[start : start + base_len]
            if word[start : start + window] == base * k:
                return True
    return False


def is_fourth_power_free(word: str) -> bool:
    """Return ``True`` iff ``word`` contains no factor ``u^4`` with ``u ≠ ε``.

    Karhumäki: the infinite Fibonacci word contains no 4th powers, so all
    ``F_n`` pass this check — the fact the paper uses to conclude FC lacks a
    pumping lemma.
    """
    return not contains_kth_power(word, 4)
