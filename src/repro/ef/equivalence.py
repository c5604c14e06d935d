"""Public ≡_k API: decide k-round EF equivalence of words.

``equiv_k(w, v, k)`` is the paper's ``w ≡_k v`` — Duplicator has a winning
strategy for the k-round game on 𝔄_w and 𝔅_v.  Solvers are cached per
(word, word, alphabet) so repeated queries (different k, strategy
extraction) share the memo table.

Also provides the witness searches the experiments revolve around:

* :func:`distinguishing_rank` — the least k with ``w ≢_k v``;
* :func:`find_equivalent_unary_pair` — the minimal (p, q), p < q, with
  ``aᵖ ≡_k a^q`` (the executable face of Lemma 3.6);
* :func:`unary_equivalence_classes` — the ≡_k partition of ``{aⁿ}``.
"""

from __future__ import annotations

from functools import lru_cache

from repro import metrics
from repro.ef.solver import GameSolver
from repro.fc.structures import word_structure

__all__ = [
    "solver_for",
    "equiv_k",
    "distinguishing_rank",
    "find_equivalent_unary_pair",
    "unary_equivalence_classes",
    "UnaryWitness",
]


def _infer_alphabet(w: str, v: str, alphabet: str | None) -> str:
    if alphabet is not None:
        return alphabet
    return "".join(sorted(set(w) | set(v)))


@lru_cache(maxsize=4096)
def solver_for(w: str, v: str, alphabet: str) -> GameSolver:
    """Cached :class:`GameSolver` for the pair (𝔄_w, 𝔅_v).

    Sized from the workload, not from memory pressure: the full engine
    DAG requests ~2 000 distinct pairs, dominated by E02's single-use
    short pairs.  At maxsize 512 those evicted the handful of expensive
    solvers (the a¹²b¹²-class heavyweights, re-requested by E06/E07/E15/
    E20), which were then rebuilt with their whole memo tables —
    2 087 misses vs 29 hits per ``BENCH_engine.json``.  4 096 holds the
    entire workload's key set, making every re-request a hit; the
    bench-smoke gate asserts the no-eviction regime
    (``benchmarks/bench_smoke.py::check_lru``).
    """
    return GameSolver(
        word_structure(w, alphabet), word_structure(v, alphabet)
    )


metrics.register("ef.equivalence.solver_for", solver_for)


def equiv_k(w: str, v: str, k: int, alphabet: str | None = None) -> bool:
    """Decide ``w ≡_k v`` exactly (memoised game search).

    The alphabet defaults to the letters occurring in ``w`` or ``v``; pass
    it explicitly when the signature must contain additional constants
    (constants for absent letters are interpreted as ⊥ on both sides, which
    never separates two words, but being explicit keeps results
    reproducible).
    """
    if w == v:
        return True
    sigma = _infer_alphabet(w, v, alphabet)
    return solver_for(w, v, sigma).duplicator_wins(k)


def distinguishing_rank(
    w: str, v: str, max_k: int, alphabet: str | None = None
) -> int | None:
    """Return the least ``k ≤ max_k`` with ``w ≢_k v`` (``None`` if the
    words stay equivalent through ``max_k`` rounds).

    ``w ≡_0 v`` can already fail (the constant vectors alone may violate
    Definition 3.1, e.g. when exactly one word is empty), so the scan
    starts at 0.
    """
    if w == v:
        return None
    sigma = _infer_alphabet(w, v, alphabet)
    solver = solver_for(w, v, sigma)
    for k in range(max_k + 1):
        if not solver.duplicator_wins(k):
            return k
    return None


class UnaryWitness(tuple):
    """The minimal unary witness pair ``(p, q)`` with ``aᵖ ≡_k a^q``."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        return super().__new__(cls, (p, q))

    @property
    def p(self) -> int:
        return self[0]

    @property
    def q(self) -> int:
        return self[1]


def find_equivalent_unary_pair(
    k: int,
    letter: str = "a",
    max_exponent: int = 64,
) -> UnaryWitness | None:
    """Search for the lexicographically minimal ``(p, q)``, ``p < q``, with
    ``letterᵖ ≡_k letter^q``.

    Lemma 3.6 guarantees such a pair exists for every k (because
    ``{a^{2ⁿ}}`` is not semi-linear); this function finds the smallest one
    below ``max_exponent`` by exact game solving — experiment E03 tabulates
    the result per k.  Returns ``None`` if no pair exists in range (which,
    for feasible k, only happens when ``max_exponent`` is too small).
    """
    for p in range(max_exponent):
        for q in range(p + 1, max_exponent + 1):
            if equiv_k(letter * p, letter * q, k, alphabet=letter):
                return UnaryWitness(p, q)
    return None


def unary_equivalence_classes(k: int, max_exponent: int) -> list[list[int]]:
    """Partition ``{0, …, max_exponent}`` into ≡_k classes of ``aⁿ``.

    Exploits transitivity: each new exponent is compared against one
    representative per known class.  The result exposes the
    threshold-plus-congruence shape of unary ≡_k (e.g. for k = 2 the
    classes become eventually periodic with period 2 from threshold 12).
    """
    classes: list[list[int]] = []
    for n in range(max_exponent + 1):
        for cls in classes:
            if equiv_k("a" * cls[0], "a" * n, k, alphabet="a"):
                cls.append(n)
                break
        else:
            classes.append([n])
    return classes
