"""Abstract syntax of FC formulas.

FC (Section 2 of the paper) is first-order logic over the signature
``τ_Σ = {R∘, a₁, …, a_m, ε}`` whose atomic formulas are written
``(x ≐ y·z)`` for ``x, y, z ∈ Ξ ∪ Σ ∪ {ε}``.  This module defines the AST:

* :class:`Term` — a variable or a constant (a letter of Σ, or ε);
* :class:`Concat` — the atom ``(x ≐ y·z)``;
* :class:`Not`, :class:`And`, :class:`Or`, :class:`Implies` (sugar);
* :class:`Exists`, :class:`Forall`;

plus the syntactic functions the paper uses: quantifier rank ``qr``, free
variables, and variable substitution.  Regular-constraint atoms
(FC[REG], Section 5) subclass :class:`Formula` in ``repro.fcreg.constraints``.

Constants are represented as ``Const(symbol)`` where ``symbol`` is a single
letter, or ``EPSILON = Const("")`` for the empty word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

__all__ = [
    "Term",
    "Var",
    "Const",
    "EPSILON",
    "Formula",
    "Concat",
    "ConcatChain",
    "Not",
    "And",
    "Or",
    "Implies",
    "Exists",
    "Forall",
    "term",
    "quantifier_rank",
    "free_variables",
    "all_variables",
    "constants_used",
    "substitute",
    "alpha_canonical",
    "conjunction",
    "disjunction",
    "exists_many",
    "forall_many",
    "subformulas",
]


@dataclass(frozen=True)
class Var:
    """A first-order variable from the countable set Ξ."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A constant symbol: a terminal letter, or ε (``symbol == ""``)."""

    symbol: str

    def __post_init__(self) -> None:
        if len(self.symbol) > 1:
            raise ValueError(
                f"constants are single letters or ε, got {self.symbol!r}"
            )

    def __repr__(self) -> str:
        return self.symbol if self.symbol else "ε"


#: The empty-word constant ε.
EPSILON = Const("")

Term = Union[Var, Const]


def term(value: "Term | str") -> Term:
    """Coerce a convenience value to a :class:`Term`.

    Strings of length ≤ 1 become constants (``""`` is ε); longer strings are
    rejected — multi-letter words must go through the ``sugar`` module.
    Existing terms pass through unchanged.
    """
    if isinstance(value, (Var, Const)):
        return value
    if isinstance(value, str):
        return Const(value)
    raise TypeError(f"cannot coerce {value!r} to an FC term")


class Formula:
    """Base class of all FC (and FC[REG]) formulas."""

    def __and__(self, other: "Formula") -> "And":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True, repr=False)
class Concat(Formula):
    """The atomic formula ``(x ≐ y·z)``, i.e. ``R∘(x, y, z)``.

    Interpreted as: the value of ``x`` is the concatenation of the values of
    ``y`` and ``z``, with all three values factors of the input word.
    """

    x: Term
    y: Term
    z: Term

    def __repr__(self) -> str:
        return f"({self.x!r} ≐ {self.y!r}·{self.z!r})"


@dataclass(frozen=True, repr=False)
class ConcatChain(Formula):
    """The n-ary shorthand atom ``x ≐ t₁·t₂·…·tₙ``.

    Semantically identical to the Freydenberger–Thompson binary splitting
    ``∃l₁…l_{n-2}: (x ≐ t₁·l₁) ∧ …`` (see ``repro.fc.sugar.eq_concat``),
    but evaluated natively: the model checker enumerates decompositions of
    the value of ``x`` instead of scanning the factor universe for each
    link variable.  Treated as a rank-0 atom, matching the paper's remark
    that long right-hand sides are shorthand; use the binary desugaring
    when the exact quantifier rank of the *binary* formula matters.
    """

    x: Term
    parts: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 1:
            raise ValueError("chain needs at least one right-hand-side term")

    def __repr__(self) -> str:
        rhs = "·".join(repr(p) for p in self.parts)
        return f"({self.x!r} ≐ {rhs})"

    def _atom_terms(self) -> Iterator[Term]:
        yield self.x
        yield from self.parts

    def _quantifier_rank(self) -> int:
        return 0

    def _substitute(self, mapping: dict) -> "ConcatChain":
        def sub(t: Term) -> Term:
            return mapping.get(t, t) if isinstance(t, Var) else t

        return ConcatChain(sub(self.x), tuple(sub(p) for p in self.parts))


@dataclass(frozen=True, repr=False)
class Not(Formula):
    """Negation ``¬φ``."""

    inner: Formula

    def __repr__(self) -> str:
        return f"¬{self.inner!r}"


@dataclass(frozen=True, repr=False)
class And(Formula):
    """Conjunction ``(φ ∧ ψ)``."""

    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"({self.left!r} ∧ {self.right!r})"


@dataclass(frozen=True, repr=False)
class Or(Formula):
    """Disjunction ``(φ ∨ ψ)``."""

    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"({self.left!r} ∨ {self.right!r})"


@dataclass(frozen=True, repr=False)
class Implies(Formula):
    """Implication ``(φ → ψ)`` — syntactic sugar for ``¬φ ∨ ψ`` with the
    same quantifier rank; kept as a node for readable formulas like φ_fib."""

    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"({self.left!r} → {self.right!r})"


@dataclass(frozen=True, repr=False)
class Exists(Formula):
    """Existential quantification ``∃x: φ``; ``x`` ranges over Facs(w)."""

    var: Var
    inner: Formula

    def __repr__(self) -> str:
        return f"∃{self.var!r}: {self.inner!r}"


@dataclass(frozen=True, repr=False)
class Forall(Formula):
    """Universal quantification ``∀x: φ``; ``x`` ranges over Facs(w)."""

    var: Var
    inner: Formula

    def __repr__(self) -> str:
        return f"∀{self.var!r}: {self.inner!r}"


def quantifier_rank(formula: Formula) -> int:
    """Return ``qr(φ)`` exactly as defined in Section 3.

    Atoms have rank 0; negation preserves rank; ∧/∨/→ take the max;
    each quantifier adds one.
    """
    if isinstance(formula, Concat):
        return 0
    if isinstance(formula, Not):
        return quantifier_rank(formula.inner)
    if isinstance(formula, (And, Or, Implies)):
        return max(quantifier_rank(formula.left), quantifier_rank(formula.right))
    if isinstance(formula, (Exists, Forall)):
        return quantifier_rank(formula.inner) + 1
    # FC[REG] regular constraints are rank-0 atoms; they implement
    # _quantifier_rank themselves.
    rank = getattr(formula, "_quantifier_rank", None)
    if rank is not None:
        return rank()
    raise TypeError(f"unknown formula node: {formula!r}")


# repro-lint: effects[pure] every extension atom's _atom_terms hook only yields its frozen term fields
def _atom_terms(formula: Formula) -> Iterator[Term]:
    if isinstance(formula, Concat):
        yield formula.x
        yield formula.y
        yield formula.z
    else:
        custom = getattr(formula, "_atom_terms", None)
        if custom is not None:
            yield from custom()


def free_variables(formula: Formula) -> frozenset[Var]:
    """Return the set of free variables of ``formula``."""
    if isinstance(formula, Not):
        return free_variables(formula.inner)
    if isinstance(formula, (And, Or, Implies)):
        return free_variables(formula.left) | free_variables(formula.right)
    if isinstance(formula, (Exists, Forall)):
        return free_variables(formula.inner) - {formula.var}
    return frozenset(t for t in _atom_terms(formula) if isinstance(t, Var))


def all_variables(formula: Formula) -> frozenset[Var]:
    """Return every variable occurring in ``formula`` (free or bound)."""
    if isinstance(formula, Not):
        return all_variables(formula.inner)
    if isinstance(formula, (And, Or, Implies)):
        return all_variables(formula.left) | all_variables(formula.right)
    if isinstance(formula, (Exists, Forall)):
        return all_variables(formula.inner) | {formula.var}
    return frozenset(t for t in _atom_terms(formula) if isinstance(t, Var))


def constants_used(formula: Formula) -> frozenset[Const]:
    """Return every constant symbol occurring in ``formula``."""
    if isinstance(formula, Not):
        return constants_used(formula.inner)
    if isinstance(formula, (And, Or, Implies)):
        return constants_used(formula.left) | constants_used(formula.right)
    if isinstance(formula, (Exists, Forall)):
        return constants_used(formula.inner)
    return frozenset(t for t in _atom_terms(formula) if isinstance(t, Const))


def substitute(formula: Formula, mapping: dict[Var, Term]) -> Formula:
    """Capture-avoiding-enough substitution of *free* variables by terms.

    Raises ``ValueError`` if a substituted term would be captured by a
    quantifier (the formula builders always use fresh bound variables, so in
    practice this never triggers).
    """
    if not mapping:
        return formula
    if isinstance(formula, Concat):
        def sub(t: Term) -> Term:
            return mapping.get(t, t) if isinstance(t, Var) else t

        return Concat(sub(formula.x), sub(formula.y), sub(formula.z))
    if isinstance(formula, Not):
        return Not(substitute(formula.inner, mapping))
    if isinstance(formula, And):
        return And(substitute(formula.left, mapping), substitute(formula.right, mapping))
    if isinstance(formula, Or):
        return Or(substitute(formula.left, mapping), substitute(formula.right, mapping))
    if isinstance(formula, Implies):
        return Implies(
            substitute(formula.left, mapping), substitute(formula.right, mapping)
        )
    if isinstance(formula, (Exists, Forall)):
        inner_mapping = {v: t for v, t in mapping.items() if v != formula.var}
        for replacement in inner_mapping.values():
            if replacement == formula.var:
                raise ValueError(
                    f"substitution would capture {formula.var!r}; rename bound "
                    "variables first"
                )
        rebuilt = substitute(formula.inner, inner_mapping)
        node = Exists if isinstance(formula, Exists) else Forall
        return node(formula.var, rebuilt)
    custom = getattr(formula, "_substitute", None)
    if custom is not None:
        return custom(mapping)
    raise TypeError(f"unknown formula node: {formula!r}")


def alpha_canonical(formula: Formula) -> Formula:
    """``formula`` with bound variables renamed to preorder positions.

    Two alpha-equivalent formulas map to the identical tree (and hence
    identical ``repr``), regardless of what gensym counters produced
    their bound-variable names.  Content-addressed artifact keys
    (``repro.store``) fingerprint this form, not the raw repr: fresh-name
    allocation is process-global state, so the same sentence built in two
    runs can differ in nothing but binder names.  Free variables keep
    their names — they are part of the sentence's identity.

    The canonical names use ``⟨⟩`` delimiters no builder or parser ever
    produces, so they cannot collide with (and thus capture) free
    variables.
    """
    counter = 0

    def rename(node: Formula, env: dict[Var, Var]) -> Formula:
        nonlocal counter
        if isinstance(node, Concat):
            def sub(t: Term) -> Term:
                return env.get(t, t) if isinstance(t, Var) else t

            return Concat(sub(node.x), sub(node.y), sub(node.z))
        if isinstance(node, ConcatChain):
            return node._substitute(env)
        if isinstance(node, Not):
            return Not(rename(node.inner, env))
        if isinstance(node, And):
            return And(rename(node.left, env), rename(node.right, env))
        if isinstance(node, Or):
            return Or(rename(node.left, env), rename(node.right, env))
        if isinstance(node, Implies):
            return Implies(rename(node.left, env), rename(node.right, env))
        if isinstance(node, (Exists, Forall)):
            fresh = Var(f"⟨q{counter}⟩")
            counter += 1
            inner = rename(node.inner, {**env, node.var: fresh})
            kind = Exists if isinstance(node, Exists) else Forall
            return kind(fresh, inner)
        custom = getattr(node, "_substitute", None)
        if custom is not None:
            return custom(env)
        raise TypeError(f"unknown formula node: {node!r}")

    return rename(formula, {})


def conjunction(formulas: list[Formula]) -> Formula:
    """Fold a list into a right-nested conjunction; empty list is invalid."""
    if not formulas:
        raise ValueError("conjunction of zero formulas")
    result = formulas[-1]
    for item in reversed(formulas[:-1]):
        result = And(item, result)
    return result


def disjunction(formulas: list[Formula]) -> Formula:
    """Fold a list into a right-nested disjunction; empty list is invalid."""
    if not formulas:
        raise ValueError("disjunction of zero formulas")
    result = formulas[-1]
    for item in reversed(formulas[:-1]):
        result = Or(item, result)
    return result


def exists_many(variables: list[Var], inner: Formula) -> Formula:
    """``∃x₁ … ∃xₙ: inner``."""
    result = inner
    for variable in reversed(variables):
        result = Exists(variable, result)
    return result


def forall_many(variables: list[Var], inner: Formula) -> Formula:
    """``∀x₁ … ∀xₙ: inner``."""
    result = inner
    for variable in reversed(variables):
        result = Forall(variable, result)
    return result


def subformulas(formula: Formula) -> Iterator[Formula]:
    """Yield ``formula`` and all its subformulas (preorder)."""
    yield formula
    if isinstance(formula, (Concat, ConcatChain)):
        return  # atoms (incl. extension atoms below) have no proper subformulas
    if isinstance(formula, Not):
        yield from subformulas(formula.inner)
    elif isinstance(formula, (And, Or, Implies)):
        yield from subformulas(formula.left)
        yield from subformulas(formula.right)
    elif isinstance(formula, (Exists, Forall)):
        yield from subformulas(formula.inner)
