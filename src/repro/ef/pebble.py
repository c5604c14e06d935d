"""Pebble games — the conclusion's finite-variable direction.

The (m-round, p-pebble) game: the players share p pebble pairs; each round
Spoiler either places or *re-places* a pebble pair — picking a pebble
index and an element on one side — and Duplicator answers on the other.
Duplicator wins if after every round the currently-placed pebble pairs
(plus constants) form a partial isomorphism.  Survival for all m
characterises equivalence under FC-formulas using at most p distinct
variables and quantifier rank ≤ m (FCᵖ(m)).

The interesting phenomenon the experiment (E22) exhibits: with few pebbles
but many rounds, Spoiler can still separate words that plain ≡_k with
k = p rounds cannot — re-placing pebbles trades rank for variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ef.game import GameArena

__all__ = ["PebbleGameSolver", "pebble_equiv", "pebble_distinguishing_rounds"]


@dataclass
class PebbleGameSolver:
    """Exact solver for the p-pebble, m-round game on two word structures.

    A position is a tuple of ``p`` slots, each ``None`` (pebble off the
    board) or a pair of interned ids.  Legality is the kernel's Definition
    3.1 check: the pebbles left on the board are a subset of a partial
    isomorphism, hence one themselves, so re-placing a pebble only checks
    the new pair against them.
    """

    structure_a: object
    structure_b: object
    pebbles: int
    _memo: dict = field(default_factory=dict, repr=False)
    _orders: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._check = GameArena(
            self.structure_a, self.structure_b, 0
        ).partial_iso_check

    def duplicator_wins(self, rounds: int) -> bool:
        if not self._check.position_consistent(()):
            return False
        return self._wins(rounds, (None,) * self.pebbles)

    def _wins(self, rounds: int, position: tuple) -> bool:
        if rounds == 0:
            return True
        key = (rounds, position)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        tables = (("A", self._check.table_a), ("B", self._check.table_b))
        result = all(
            self._response(rounds, position, index, side, element) is not None
            for index in range(self.pebbles)
            for side, table in tables
            for element in range(1, table.n_factors + 1)
        )
        self._memo[key] = result
        return result

    def _responses(self, side: str, element: int) -> tuple:
        """Ids of the other side: same factor, then length distance, text."""
        order = self._orders.get((side, element))
        if order is None:
            check = self._check
            own = check.table_a if side == "A" else check.table_b
            other = check.table_b if side == "A" else check.table_a
            word, texts = own.elements[element], other.elements
            order = self._orders[(side, element)] = tuple(
                sorted(
                    range(1, len(texts)),
                    key=lambda d: (
                        texts[d] != word, abs(len(texts[d]) - len(word)), texts[d]
                    ),
                )
            )
        return order

    def _response(self, rounds, position, index, side, element):
        others = tuple(
            pair
            for slot, pair in enumerate(position)
            if slot != index and pair is not None
        )
        for response in self._responses(side, element):
            pair = (element, response) if side == "A" else (response, element)
            if self._check.extends(others, *pair):
                extended = position[:index] + (pair,) + position[index + 1 :]
                if self._wins(rounds - 1, extended):
                    return response
        return None


def pebble_equiv(
    w: str, v: str, pebbles: int, rounds: int, alphabet: str | None = None
) -> bool:
    """Duplicator survives the p-pebble, m-round game on 𝔄_w, 𝔅_v."""
    from repro.fc.structures import word_structure

    if alphabet is None:
        alphabet = "".join(sorted(set(w) | set(v)))
    if w == v:
        return True
    solver = PebbleGameSolver(
        word_structure(w, alphabet), word_structure(v, alphabet), pebbles
    )
    return solver.duplicator_wins(rounds)


def pebble_distinguishing_rounds(
    w: str, v: str, pebbles: int, max_rounds: int, alphabet: str | None = None
) -> int | None:
    """Least m ≤ max_rounds at which Spoiler wins with p pebbles."""
    if w == v:
        return None
    from repro.fc.structures import word_structure

    if alphabet is None:
        alphabet = "".join(sorted(set(w) | set(v)))
    solver = PebbleGameSolver(
        word_structure(w, alphabet), word_structure(v, alphabet), pebbles
    )
    for m in range(max_rounds + 1):
        if not solver.duplicator_wins(m):
            return m
    return None
