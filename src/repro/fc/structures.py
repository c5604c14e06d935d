"""τ_Σ-structures: the relational view of a word.

Section 2 of the paper represents ``w ∈ Σ*`` as the structure

    𝔄_w = (Facs(w) ∪ {⊥}, R∘, a₁^𝔄, …, a_m^𝔄, ε^𝔄)

where ``R∘ = {(a,b,c) ∈ Facs(w)³ | a = b·c}`` and the constant ``a`` is
interpreted as the letter ``a`` if it occurs in ``w`` and as ``⊥`` otherwise.
This module implements the structure, the null element ⊥, the constants
vector ``⟨𝔄⟩`` used in EF games, and restriction to a sub-universe
(``𝔄|_{A'}``, used by the Pseudo-Congruence proof).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from repro import metrics
from repro.words.factors import factors

__all__ = ["BOTTOM", "Bottom", "WordStructure", "word_structure"]


class Bottom:
    """The null element ⊥ (a singleton).

    ⊥ is a member of every universe; it interprets constants whose letter
    does not occur in the word, and it is never the value of a variable.
    """

    _instance: "Bottom | None" = None

    def __new__(cls) -> "Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"


#: The unique ⊥ element.
BOTTOM = Bottom()

#: An element of a structure universe: a factor (str) or ⊥.
Element = "str | Bottom"


@dataclass(frozen=True)
class WordStructure:
    """The τ_Σ-structure 𝔄_w representing ``word`` over ``alphabet``.

    The universe is ``Facs(word) ∪ {⊥}``; ``R∘`` is concatenation restricted
    to factors; each letter of ``alphabet`` is a constant symbol interpreted
    as itself when it occurs in ``word`` and as ⊥ otherwise; ε is always
    interpreted as the empty factor.

    The structure is *logically* determined by ``(word, alphabet)``; the
    relation ``R∘`` is never materialised (it has Θ(|Facs|²) tuples) —
    membership is answered by string operations.
    """

    word: str
    alphabet: str

    def __post_init__(self) -> None:
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError(f"alphabet has repeated letters: {self.alphabet!r}")
        missing = set(self.word) - set(self.alphabet)
        if missing:
            raise ValueError(
                f"word uses letters {sorted(missing)} outside alphabet "
                f"{self.alphabet!r}"
            )

    # -- universe ----------------------------------------------------------

    @property
    def universe_factors(self) -> frozenset[str]:
        """``Facs(word)`` — the universe minus ⊥."""
        return factors(self.word)

    def universe(self) -> list["str | Bottom"]:
        """The full universe ``Facs(word) ∪ {⊥}`` as a list.

        Factors are ordered by (length, lexicographic) for determinism.
        """
        ordered: list[str | Bottom] = sorted(
            self.universe_factors, key=lambda f: (len(f), f)
        )
        ordered.append(BOTTOM)
        return ordered

    def universe_size(self) -> int:
        """``|Facs(word)| + 1``."""
        return len(self.universe_factors) + 1

    def contains(self, element: "str | Bottom") -> bool:
        """Return ``True`` iff ``element`` belongs to the universe."""
        if element is BOTTOM:
            return True
        return isinstance(element, str) and element in self.word

    # -- interpretation of symbols ------------------------------------------

    def constant(self, symbol: str) -> "str | Bottom":
        """Interpret the constant ``symbol``.

        ``""`` is ε (always the empty factor).  A letter is itself if it
        occurs in ``word``, else ⊥.  Unknown symbols raise ``ValueError``.
        """
        if symbol == "":
            return ""
        if symbol not in self.alphabet:
            raise ValueError(
                f"{symbol!r} is not a constant of τ_{{{self.alphabet}}}"
            )
        return symbol if symbol in self.word else BOTTOM

    def constants_vector(self) -> tuple["str | Bottom", ...]:
        """Return ``⟨𝔄⟩ = (a₁^𝔄, …, a_m^𝔄, ε^𝔄)`` (Section 3).

        EF-game win checks append this vector to the played elements, so
        Duplicator must also respect the constants.
        """
        values = [self.constant(letter) for letter in self.alphabet]
        values.append("")
        return tuple(values)

    def concat_holds(
        self,
        x: "str | Bottom",
        y: "str | Bottom",
        z: "str | Bottom",
    ) -> bool:
        """Return ``True`` iff ``(x, y, z) ∈ R∘`` — all three are factors of
        ``word`` and ``x = y·z``.  Any ⊥ argument makes the atom false."""
        if x is BOTTOM or y is BOTTOM or z is BOTTOM:
            return False
        if x != y + z:
            return False
        # y and z are factors whenever x is (they are factors of x), so only
        # x's membership needs checking.
        return x in self.word

    # -- restriction (Appendix C definition) --------------------------------

    def restrict(self, sub_universe: Iterable[str]) -> "RestrictedStructure":
        """Return ``𝔄|_{A'}``: the structure restricted to the factor set
        ``sub_universe`` (plus ⊥), with R∘ and constants restricted too.

        Used by the Pseudo-Congruence proof, which plays look-up games on
        ``𝔄_{w1·w2}|_{Facs(w1)}`` etc.
        """
        allowed = frozenset(sub_universe)
        stray = {f for f in allowed if f not in self.word}
        if stray:
            raise ValueError(
                f"sub-universe contains non-factors: {sorted(stray)[:3]}"
            )
        return RestrictedStructure(self, allowed)

    def __repr__(self) -> str:
        return f"𝔄[{self.word!r}]"


@dataclass(frozen=True)
class RestrictedStructure:
    """``𝔄_w|_{A'}`` — the restriction of a word structure to a sub-universe.

    Implements the same element/constant/R∘ interface as
    :class:`WordStructure`, so EF games can be played on restrictions.
    """

    base: WordStructure
    allowed: frozenset[str]

    @property
    def word(self) -> str:
        return self.base.word

    @property
    def alphabet(self) -> str:
        return self.base.alphabet

    @property
    def universe_factors(self) -> frozenset[str]:
        return self.allowed

    def universe(self) -> list["str | Bottom"]:
        ordered: list[str | Bottom] = sorted(
            self.allowed, key=lambda f: (len(f), f)
        )
        ordered.append(BOTTOM)
        return ordered

    def universe_size(self) -> int:
        return len(self.allowed) + 1

    def contains(self, element: "str | Bottom") -> bool:
        if element is BOTTOM:
            return True
        return element in self.allowed

    def constant(self, symbol: str) -> "str | Bottom":
        value = self.base.constant(symbol)
        if value is BOTTOM or value in self.allowed:
            return value
        return BOTTOM

    def constants_vector(self) -> tuple["str | Bottom", ...]:
        values = [self.constant(letter) for letter in self.alphabet]
        values.append(self.constant(""))
        return tuple(values)

    def concat_holds(
        self,
        x: "str | Bottom",
        y: "str | Bottom",
        z: "str | Bottom",
    ) -> bool:
        if x is BOTTOM or y is BOTTOM or z is BOTTOM:
            return False
        if x not in self.allowed or y not in self.allowed or z not in self.allowed:
            return False
        return x == y + z

    def __repr__(self) -> str:
        return f"𝔄[{self.word!r}]|({len(self.allowed)} factors)"


@lru_cache(maxsize=2048)
def word_structure(word: str, alphabet: str) -> WordStructure:
    """Cached constructor for :class:`WordStructure`.

    The model checker and the game solver construct the same structures
    over and over; caching keeps the factor sets shared.
    """
    return WordStructure(word, alphabet)


metrics.register("fc.structures.word_structure", word_structure)
