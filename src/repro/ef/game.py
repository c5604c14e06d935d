"""EF game positions and plays over τ_Σ word structures (Section 3).

A k-round game 𝒢 over 𝔄_w and 𝔅_v: each round Spoiler picks a structure
and an element of its universe; Duplicator answers with an element of the
other structure.  Duplicator wins iff the played pairs, *combined with the
constant vectors* ⟨𝔄_w⟩ and ⟨𝔅_v⟩, form a partial isomorphism.

This module provides the passive data model (moves, plays, win checking);
the decision procedure lives in ``repro.ef.solver`` and strategy objects in
``repro.ef.strategies``.  Plays are judged by the kernel's interned
Definition 3.1 check; :meth:`Play.violation` names the violated atom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Literal

from repro.ef.partial_iso import (
    PartialIsoViolation,
    extend_with_constants,
    find_violation,
)
from repro.fc.structures import BOTTOM, Bottom, WordStructure
from repro.kernel.efcore import PartialIsoCheck
from repro.kernel.interning import InternTable, intern_restricted_table, intern_table

__all__ = ["Side", "Move", "Round", "Play", "GameArena"]

Side = Literal["A", "B"]
Element = "str | Bottom"


def _table_for(structure) -> InternTable:
    """Interned view of a :class:`WordStructure` or a restriction thereof."""
    alphabet = tuple(structure.alphabet)
    if isinstance(structure, WordStructure):
        return intern_table(structure.word, alphabet)
    return intern_restricted_table(
        structure.word, alphabet, structure.universe_factors
    )


def _pair_ids(check: PartialIsoCheck, pairs: Iterable) -> "list | None":
    """Element pairs as ids of ``check``'s tables; ``None`` if an element
    is foreign (the game never produces one: the position is lost)."""
    table_a = check.table_a
    table_b = check.table_b
    try:
        return [
            (
                table_a.id_for(None if element_a is BOTTOM else element_a),
                table_b.id_for(None if element_b is BOTTOM else element_b),
            )
            for element_a, element_b in pairs
        ]
    except KeyError:
        return None


@dataclass(frozen=True)
class Move:
    """A Spoiler move: the chosen structure side and element."""

    side: Side
    element: Element

    def __repr__(self) -> str:
        return f"Spoiler[{self.side}]→{self.element!r}"


@dataclass(frozen=True)
class Round:
    """One completed round: Spoiler's move and Duplicator's response.

    ``element_a`` / ``element_b`` are the elements that ended up on the
    𝔄-side and 𝔅-side respectively, regardless of who chose which.
    """

    move: Move
    response: Element

    @property
    def element_a(self) -> Element:
        return self.move.element if self.move.side == "A" else self.response

    @property
    def element_b(self) -> Element:
        return self.move.element if self.move.side == "B" else self.response


@dataclass
class GameArena:
    """The two structures of a game plus its round budget.

    ``structure_a`` / ``structure_b`` may be :class:`WordStructure` or
    restrictions thereof — anything exposing ``universe_factors``,
    ``constants_vector``, ``constant`` and ``contains``.
    """

    structure_a: object
    structure_b: object
    rounds: int

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError(f"negative round count: {self.rounds}")
        if self.structure_a.alphabet != self.structure_b.alphabet:
            raise ValueError(
                "both structures must share one signature τ_Σ "
                f"({self.structure_a.alphabet!r} vs "
                f"{self.structure_b.alphabet!r})"
            )

    def universe(self, side: Side) -> list[Element]:
        """All legal Spoiler choices on ``side`` (including ⊥)."""
        structure = self.structure_a if side == "A" else self.structure_b
        return structure.universe()

    def opposite(self, side: Side) -> Side:
        return "B" if side == "A" else "A"

    @cached_property
    def partial_iso_check(self) -> PartialIsoCheck:
        """The kernel's Definition 3.1 check over both structures."""
        return PartialIsoCheck(
            _table_for(self.structure_a), _table_for(self.structure_b)
        )

    def moves(self) -> Iterator[Move]:
        """All Spoiler moves (both sides, whole universes)."""
        for side in ("A", "B"):
            for element in self.universe(side):
                yield Move(side, element)


@dataclass
class Play:
    """A (possibly partial) play of the game: the rounds so far."""

    arena: GameArena
    rounds_played: list[Round] = field(default_factory=list)

    def record(self, move: Move, response: Element) -> None:
        """Append a completed round.

        Validates that the move/response elements belong to the right
        universes — a Duplicator response outside the opposite structure is
        an immediate loss and is rejected loudly rather than silently.
        """
        side = move.side
        chooser = (
            self.arena.structure_a if side == "A" else self.arena.structure_b
        )
        responder = (
            self.arena.structure_b if side == "A" else self.arena.structure_a
        )
        if not chooser.contains(move.element):
            raise ValueError(f"illegal Spoiler move: {move!r}")
        if not responder.contains(response):
            raise ValueError(
                f"Duplicator response {response!r} is not an element of the "
                f"{self.arena.opposite(side)}-side structure"
            )
        self.rounds_played.append(Round(move, response))

    def tuples(self) -> tuple[tuple[Element, ...], tuple[Element, ...]]:
        """The played pairs as parallel tuples (ā, b̄), without constants."""
        tuple_a = tuple(r.element_a for r in self.rounds_played)
        tuple_b = tuple(r.element_b for r in self.rounds_played)
        return tuple_a, tuple_b

    def violation(self) -> PartialIsoViolation | None:
        """The violated condition *with constants appended* (Section 3):
        the string-level explainer behind a lost :meth:`duplicator_won`."""
        tuple_a, tuple_b = self.tuples()
        full_a, full_b = extend_with_constants(
            self.arena.structure_a, self.arena.structure_b, tuple_a, tuple_b
        )
        return find_violation(
            self.arena.structure_a, self.arena.structure_b, full_a, full_b
        )

    def duplicator_won(self) -> bool:
        """Duplicator wins a *completed* play iff no violation exists.

        For partial plays this reports whether Duplicator is still alive —
        partial isomorphisms are closed under prefixes, so a violated
        partial play is already lost.
        """
        check = self.arena.partial_iso_check
        ids = _pair_ids(check, zip(*self.tuples()))
        return ids is not None and check.position_consistent(ids)

    def __len__(self) -> int:
        return len(self.rounds_played)
