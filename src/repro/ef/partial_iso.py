"""Partial isomorphisms between τ_Σ word structures (Definition 3.1).

A pair of equal-length element tuples ``(ā, b̄)`` defines a *partial
isomorphism* between 𝔄_w and 𝔅_v if

1. constants are mirrored: ``aᵢ = c^𝔄 ⟺ bᵢ = c^𝔅`` for every constant c,
2. equalities are mirrored: ``aᵢ = aⱼ ⟺ bᵢ = bⱼ``,
3. concatenation is mirrored: ``aᵢ = aⱼ·a_k ⟺ bᵢ = bⱼ·b_k``.

In the EF game the played elements are *combined with* the constant vectors
⟨𝔄⟩, ⟨𝔅⟩ before checking, so the game-facing helpers here do that
automatically.  This string-level check is the reference definition:
the oracle behind ``repro.ef.naive`` and the explainer that names the
violated atom of a lost position.  Legality during play and search is
decided by the kernel (``repro.kernel.efcore.PartialIsoCheck``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.fc.structures import BOTTOM, Bottom

__all__ = [
    "PartialIsoViolation",
    "is_partial_isomorphism",
    "find_violation",
    "extend_with_constants",
]

Element = "str | Bottom"


@dataclass(frozen=True)
class PartialIsoViolation:
    """A witness that ``(ā, b̄)`` is *not* a partial isomorphism.

    ``kind`` is one of ``"constant"``, ``"equality"``, ``"concat"``;
    ``indices`` are the positions involved; ``detail`` is human-readable.
    """

    kind: str
    indices: tuple[int, ...]
    detail: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.kind} violation at {self.indices}: {self.detail}"


def _concat(left: Element, right: Element) -> Element:
    """Concatenation lifted to ⊥: any ⊥ operand poisons the result."""
    if left is BOTTOM or right is BOTTOM:
        return BOTTOM
    return left + right  # type: ignore[operator]


def find_violation(
    structure_a,
    structure_b,
    tuple_a: Sequence[Element],
    tuple_b: Sequence[Element],
) -> PartialIsoViolation | None:
    """Return the first Definition 3.1 violation, or ``None`` if ``(ā, b̄)``
    is a partial isomorphism between the two structures.

    The tuples must already include whatever constants should be checked;
    use :func:`extend_with_constants` (or the game harness) for the
    game-ending check.
    """
    if len(tuple_a) != len(tuple_b):
        raise ValueError(
            f"tuple lengths differ: {len(tuple_a)} vs {len(tuple_b)}"
        )
    n = len(tuple_a)

    # Condition 1: constants are mirrored.
    constant_symbols = list(structure_a.alphabet) + [""]
    for i in range(n):
        for symbol in constant_symbols:
            hits_a = tuple_a[i] == structure_a.constant(symbol)
            hits_b = tuple_b[i] == structure_b.constant(symbol)
            if hits_a != hits_b:
                display = symbol if symbol else "ε"
                return PartialIsoViolation(
                    "constant",
                    (i,),
                    f"a[{i}]={tuple_a[i]!r} vs b[{i}]={tuple_b[i]!r} "
                    f"disagree on constant {display}",
                )

    # Condition 2: equality pattern.
    for i in range(n):
        for j in range(i + 1, n):
            if (tuple_a[i] == tuple_a[j]) != (tuple_b[i] == tuple_b[j]):
                return PartialIsoViolation(
                    "equality",
                    (i, j),
                    f"a-side equality {tuple_a[i]!r}=={tuple_a[j]!r} is "
                    f"{tuple_a[i] == tuple_a[j]}, b-side is "
                    f"{tuple_b[i] == tuple_b[j]}",
                )

    # Condition 3: concatenation pattern.  aᵢ = aⱼ·a_k must use R∘, i.e. all
    # three elements must be genuine factors (⊥ never participates).
    for i in range(n):
        for j in range(n):
            for k in range(n):
                holds_a = (
                    tuple_a[i] is not BOTTOM
                    and tuple_a[j] is not BOTTOM
                    and tuple_a[k] is not BOTTOM
                    and tuple_a[i] == _concat(tuple_a[j], tuple_a[k])
                )
                holds_b = (
                    tuple_b[i] is not BOTTOM
                    and tuple_b[j] is not BOTTOM
                    and tuple_b[k] is not BOTTOM
                    and tuple_b[i] == _concat(tuple_b[j], tuple_b[k])
                )
                if holds_a != holds_b:
                    return PartialIsoViolation(
                        "concat",
                        (i, j, k),
                        f"a[{i}] ≐ a[{j}]·a[{k}] is {holds_a} but "
                        f"b[{i}] ≐ b[{j}]·b[{k}] is {holds_b}",
                    )
    return None


def is_partial_isomorphism(
    structure_a,
    structure_b,
    tuple_a: Sequence[Element],
    tuple_b: Sequence[Element],
) -> bool:
    """Return ``True`` iff ``(ā, b̄)`` defines a partial isomorphism."""
    return find_violation(structure_a, structure_b, tuple_a, tuple_b) is None


def extend_with_constants(
    structure_a,
    structure_b,
    tuple_a: Sequence[Element],
    tuple_b: Sequence[Element],
) -> tuple[tuple[Element, ...], tuple[Element, ...]]:
    """Append the constant vectors ⟨𝔄⟩ and ⟨𝔅⟩ to the played tuples.

    This mirrors the game's win condition: the final ``k + |Σ| + 1`` tuples
    consist of the k played pairs followed by the interpreted constants.
    """
    extended_a = tuple(tuple_a) + structure_a.constants_vector()
    extended_b = tuple(tuple_b) + structure_b.constants_vector()
    return extended_a, extended_b
