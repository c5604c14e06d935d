"""Compiled FO[EQ] evaluation on the FC plan compiler's closures.

:func:`repro.foeq.semantics.p_models` runs here, and sweeps such as E20's
agreement loop evaluate one sentence (φ_square) on every word of a
family.  :func:`position_program` compiles a formula once per process —
an ``lru_cache`` registered in :mod:`repro.metrics`; FO[EQ] ASTs are
frozen dataclasses, so a ``phi_square()`` rebuilt in a loop hits — into
an immutable :class:`PositionProgram`, one closure per node.

Connectives and quantifiers are :mod:`repro.fc.sweep`'s factories:
flattened ∧/∨ chains run cheapest first (sound since evaluation is
total), and each quantifier caches its verdict per word on the positions
of its free variables.  FO[EQ] keeps only its own parts:

* its three atoms — ``x < y`` and ``P_a(x)`` read the environment and the
  word, ``EQ`` compares two entries of the word's interval-id table
  (:func:`_interval_ids`, which the position-game solver shares);
* its per-word state :class:`_Ctx` (environment, quantifier caches,
  interval table), built by each :meth:`PositionProgram.evaluate` call,
  so the shared program is never written.  Quantifiers range over every
  position: there are no candidate pools.

:func:`~repro.foeq.semantics.p_evaluate` stays the reference interpreter
that ``tests/foeq/test_games_differential.py`` checks this against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro import metrics
from repro.fc.sweep import _and, _cached_quantifier, _implies, _not, _or, _search
from repro.foeq.syntax import (
    FactorEq,
    Less,
    PAnd,
    PExists,
    PForall,
    PFormula,
    PImplies,
    PNot,
    POr,
    PVar,
    SymbolAt,
)

__all__ = ["PositionProgram", "position_program"]


# repro-lint: domain[returns=map[plain, map[plain, interval]], pool=map[plain, interval]] table[i][j] — position-indexed, interval-valued; pool maps factor text → interval id
def _interval_ids(word: str, pool: dict) -> tuple[tuple[int, ...], ...]:
    """``table[i][j]`` = dense id of ``word[i..j]`` (1-based, closed);
    ids are shared through ``pool`` so cross-word factor equality is
    integer equality."""
    n = len(word)
    table = []
    for i in range(n + 1):
        row = [-1] * (n + 1)  # repro-lint: domain[map[plain, interval]] -1 = "no interval" sentinel for j < i
        if i >= 1:
            for j in range(i, n + 1):
                text = word[i - 1 : j]
                fid = pool.get(text)
                if fid is None:
                    fid = len(pool)  # repro-lint: domain[interval] the interval-id mint — dense per pool, never compared across pools
                    pool[text] = fid
                row[j] = fid
        table.append(tuple(row))
    return tuple(table)


@dataclass(frozen=True, eq=False)
class PositionProgram:
    """One FO[EQ] formula compiled for repeated evaluation.

    Immutable, so :func:`position_program` shares it process-wide; each
    :meth:`evaluate` call builds its own per-word state.
    """

    #: the formula's truth as one closure ``ctx → bool``.
    root: Callable
    #: ``(variable, slot)`` for each free variable.
    free: tuple
    n_slots: int
    n_quants: int

    def evaluate(self, word: str, assignment: dict) -> bool:
        """Truth on ``word`` under ``assignment``, which must map every
        free variable to a position (it is read, never mutated)."""
        ctx = _Ctx(self, word)
        env = ctx.env
        for var, slot in self.free:
            env[slot] = assignment[var]
        return self.root(ctx)


class _Ctx:
    """Per-word evaluation state: what the shared factories read
    (``env``, ``caches``, :meth:`scan`) plus what the atoms read."""

    __slots__ = ("word", "fid", "env", "caches", "positions")

    def __init__(self, program: PositionProgram, word: str) -> None:
        self.word = word
        self.fid = _interval_ids(word, {})
        #: slot → position of the current (partial) assignment.
        self.env: list = [None] * program.n_slots
        #: per-quantifier projection caches (projection → bool).
        self.caches = [{} for _ in range(program.n_quants)]
        self.positions = range(1, len(word) + 1)

    def scan(self, pool) -> range:
        """The positions a quantifier ranges over: all of them (FO[EQ]
        quantifiers carry no candidate pool, so ``pool`` is ``None``)."""
        return self.positions


# -- atom closures ------------------------------------------------------------


def _less(x: int, y: int):
    def less(ctx):
        env = ctx.env
        return env[x] < env[y]

    return less


def _symbol_at(x: int, symbol: str):
    def symbol_at(ctx):
        return ctx.word[ctx.env[x] - 1] == symbol

    return symbol_at


def _factor_eq(x1: int, y1: int, x2: int, y2: int):
    def factor_eq(ctx):
        env = ctx.env
        start1, end1, start2, end2 = env[x1], env[y1], env[x2], env[y2]
        # A malformed interval is no factor; two of them would otherwise
        # compare equal through the table's -1 sentinel.
        if start1 > end1 or start2 > end2:
            return False
        fid = ctx.fid
        return fid[start1][end1] == fid[start2][end2]

    return factor_eq


class _Compiler:
    """Throwaway builder for one :class:`PositionProgram`: owns the slot
    map and quantifier count that compilation grows."""

    def __init__(self) -> None:
        #: PVar → environment-slot index.  Rebinding a variable reuses
        #: its slot; the quantifier's save/restore gives shadowing the
        #: same semantics the assignment dict has in ``p_evaluate``.
        self.slot_of: dict = {}
        self.n_quants = 0

    def program(self, formula: PFormula) -> PositionProgram:
        root, fv, _cost = self._compile(formula)
        free = tuple(
            (var, self._slot(var)) for var in sorted(fv, key=lambda v: v.name)
        )
        return PositionProgram(root, free, len(self.slot_of), self.n_quants)

    def _slot(self, var: PVar) -> int:
        return self.slot_of.setdefault(var, len(self.slot_of))

    def _compile(self, node: PFormula):
        """``(closure, free variables, cost)`` of one formula node."""
        if isinstance(node, Less):
            fv = frozenset((node.x, node.y))
            return _less(self._slot(node.x), self._slot(node.y)), fv, 1
        if isinstance(node, SymbolAt):
            fv = frozenset((node.x,))
            return _symbol_at(self._slot(node.x), node.symbol), fv, 1
        if isinstance(node, FactorEq):
            terms = (node.x1, node.y1, node.x2, node.y2)
            slots = tuple(self._slot(var) for var in terms)
            return _factor_eq(*slots), frozenset(terms), 2
        if isinstance(node, PNot):
            inner, fv, cost = self._compile(node.inner)
            return _not(inner), fv, cost
        if isinstance(node, (PAnd, POr)):
            flat: list = []
            self._flatten(node, type(node), flat)
            # Cheapest conjunct/disjunct first: evaluation is total, so
            # short-circuit order cannot change the boolean result, and
            # stable sort keeps the source order among equals.
            flat.sort(key=lambda entry: entry[2])
            children = tuple(entry[0] for entry in flat)
            fv = frozenset().union(*(entry[1] for entry in flat))
            cost = sum(entry[2] for entry in flat)
            if isinstance(node, PAnd):
                return _and(children), fv, cost
            return _or(children), fv, cost
        if isinstance(node, PImplies):
            left, left_fv, left_cost = self._compile(node.left)
            right, right_fv, right_cost = self._compile(node.right)
            return _implies(left, right), left_fv | right_fv, left_cost + right_cost
        if isinstance(node, (PExists, PForall)):
            index = self.n_quants
            self.n_quants += 1
            inner, inner_fv, inner_cost = self._compile(node.inner)
            fv = inner_fv - {node.var}
            free = tuple(self._slot(v) for v in sorted(fv, key=lambda v: v.name))
            want = isinstance(node, PExists)
            search = _search(want, self._slot(node.var), None, inner)
            return _cached_quantifier(index, free, search), fv, 5 + 10 * inner_cost
        raise TypeError(f"unknown FO[EQ] node: {node!r}")

    def _flatten(self, node: PFormula, op: type, out: list) -> None:
        if isinstance(node, op):
            self._flatten(node.left, op, out)
            self._flatten(node.right, op, out)
        else:
            out.append(self._compile(node))


@lru_cache(maxsize=256)
def position_program(formula: PFormula) -> PositionProgram:
    """The compiled program for ``formula`` (shared process-wide)."""
    return _Compiler().program(formula)


metrics.register("foeq.position_program", position_program)
