"""Existential EF games — the conclusion's core-spanner direction.

In the *existential* k-round game Spoiler may only pick elements of the
**left** structure 𝔄_w; Duplicator answers in 𝔅_v.  Duplicator surviving
characterises preservation of existential-positive sentences: every
∃⁺FC(k) sentence (built from atoms with ∧, ∨, ∃ only) true in 𝔄_w is true
in 𝔅_v.  The paper's conclusion suggests this restriction as a route to
further *core spanner* inexpressibility results; this module provides the
game, the solver, and the corresponding preorder.

Note the asymmetry: ``existential_preorder(w, v, k)`` is reflexive and
transitive but not symmetric — e.g. every ∃⁺-sentence true in ``a`` is
true in ``aa`` (a is a factor-substructure), but not conversely at rank 1.
The win condition keeps only the "forward" directions of Definition 3.1:
equalities and concatenations *holding in 𝔄* must hold in 𝔅 (plus
constants both ways, since constants are closed terms available to both
polarities in atoms... no — atoms are positive, so only the A→B direction
of every condition is required).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fc.structures import BOTTOM

__all__ = [
    "positive_homomorphism",
    "ExistentialGameSolver",
    "existential_preorder",
    "existential_equivalent",
]


def positive_homomorphism(
    structure_a, structure_b, tuple_a, tuple_b
) -> bool:
    """The existential win condition: a *positive-atom homomorphism*.

    Every atomic fact over the chosen elements and constants that holds in
    𝔄 must hold in 𝔅 — equalities, concatenations, and constant
    identifications are preserved A → B (not necessarily reflected).
    """
    if len(tuple_a) != len(tuple_b):
        raise ValueError("tuples must have equal length")
    full_a = tuple(tuple_a) + structure_a.constants_vector()
    full_b = tuple(tuple_b) + structure_b.constants_vector()
    n = len(full_a)
    for i in range(n):
        for j in range(n):
            if full_a[i] == full_a[j] and full_a[i] is not BOTTOM:
                if full_b[i] != full_b[j] or full_b[i] is BOTTOM:
                    return False
            for k in range(n):
                holds_a = (
                    full_a[i] is not BOTTOM
                    and full_a[j] is not BOTTOM
                    and full_a[k] is not BOTTOM
                    and full_a[i] == full_a[j] + full_a[k]
                    and structure_a.contains(full_a[i])
                )
                if holds_a:
                    holds_b = (
                        full_b[i] is not BOTTOM
                        and full_b[j] is not BOTTOM
                        and full_b[k] is not BOTTOM
                        and full_b[i] == full_b[j] + full_b[k]
                        and structure_b.contains(full_b[i])
                    )
                    if not holds_b:
                        return False
    return True


@dataclass
class ExistentialGameSolver:
    """Exact solver for the existential (one-sided) k-round game."""

    structure_a: object
    structure_b: object
    _memo: dict = field(default_factory=dict, repr=False)

    def consistent(self, pairs: frozenset) -> bool:
        ordered = sorted(
            pairs, key=lambda p: (str(p[0]), str(p[1]))
        )
        return positive_homomorphism(
            self.structure_a,
            self.structure_b,
            tuple(p[0] for p in ordered),
            tuple(p[1] for p in ordered),
        )

    def duplicator_wins(self, rounds: int, pairs: frozenset = frozenset()) -> bool:
        if not self.consistent(pairs):
            return False
        return self._wins(rounds, pairs)

    def _wins(self, rounds: int, pairs: frozenset) -> bool:
        if rounds == 0:
            return True
        key = (rounds, pairs)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        taken = {p[0] for p in pairs}
        result = True
        # (len, text) order, like the kernel: the first losing move ends
        # the loop, so frozenset order would make effort follow the hash seed.
        for element in sorted(
            self.structure_a.universe_factors, key=lambda f: (len(f), f)
        ):
            if element in taken:
                continue
            if self._response(rounds, pairs, element) is None:
                result = False
                break
        self._memo[key] = result
        return result

    def _response(self, rounds: int, pairs: frozenset, element):
        candidates = sorted(
            self.structure_b.universe_factors,
            key=lambda d: (d != element, abs(len(d) - len(element)), d),
        )
        for response in candidates:
            extended = pairs | {(element, response)}
            if self.consistent(extended) and self._wins(rounds - 1, extended):
                return response
        return None


def existential_preorder(
    w: str, v: str, k: int, alphabet: str | None = None
) -> bool:
    """``w ⪯_k^∃ v``: Duplicator survives the one-sided k-round game,
    i.e. every ∃⁺FC(k) sentence true in w holds in v."""
    from repro.fc.structures import word_structure

    if alphabet is None:
        alphabet = "".join(sorted(set(w) | set(v)))
    if w == v:
        return True
    solver = ExistentialGameSolver(
        word_structure(w, alphabet), word_structure(v, alphabet)
    )
    return solver.duplicator_wins(k)


def existential_equivalent(
    w: str, v: str, k: int, alphabet: str | None = None
) -> bool:
    """Both directions of the preorder (∃⁺FC(k)-indistinguishable)."""
    return existential_preorder(w, v, k, alphabet) and existential_preorder(
        v, w, k, alphabet
    )
