"""Compiled FO[EQ] evaluation: interval-id atoms + projection caches.

:func:`repro.foeq.semantics.p_models` re-interprets the AST per call and
slices O(n) characters per ``EQ`` atom; sweeps like ``p_language_slice``
and E20's agreement loop evaluate the *same* sentence (φ_square) on
every word of a family.  This module compiles a formula once into a
plan tree (quantifier-free subformula costs, flattened ∧/∨ chains
evaluated cheapest-first — sound since evaluation is total) and
evaluates it against per-word state:

* a dense interval-id table (``fid[i][j]`` = id of ``w[i..j]``), so the
  quaternary EQ atom is two lookups and an int compare;
* one projection cache per quantifier node, keyed on the positions of
  the node's free variables — the same sideways sharing as the FC
  quantifier caches of :class:`repro.fc.sweep.SweepProgram`,
  transplanted to the position side.

Compiled programs are shared process-wide per formula (FO[EQ] ASTs are
frozen dataclasses, so structural equality keys the cache) — callers
that rebuild ``phi_square()`` inside a loop still compile once.
"""

from __future__ import annotations

from functools import lru_cache

from repro import metrics
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
    p_free_variables,
)

__all__ = ["PositionProgram", "position_program"]

_LESS, _SYMAT, _EQ, _NOT, _AND, _OR, _IMPLIES, _QUANT = range(8)

#: Per-program bound on cached word states.  Each state holds an O(n²)
#: interval table plus projection caches, and programs live process-wide
#: (``position_program``'s lru_cache), so an unbounded dict would grow
#: with every word a sweep touches.  256 comfortably covers the repeated
#: words of the E20 agreement pairs and game loops while keeping big
#: ``p_language_slice`` grids at a constant footprint (grid words are
#: each evaluated once, so eviction costs them nothing).
_MAX_STATES = 256


class _Plan:
    __slots__ = ("kind", "vars", "symbol", "children", "cost", "want", "free", "cache_index")

    def __init__(self, kind: int) -> None:
        self.kind = kind
        self.vars: tuple = ()
        self.symbol = ""
        self.children: tuple = ()
        self.cost = 1
        self.want = True
        self.free: tuple = ()
        self.cache_index = -1


class _WordState:
    __slots__ = ("word", "n", "fid", "caches")

    def __init__(self, word: str, n_caches: int) -> None:
        self.word = word
        self.n = len(word)
        n = self.n
        fid = []
        pool: dict = {}  # repro-lint: domain[map[plain, interval]] factor text → dense interval id
        for i in range(n + 1):
            row = [-1] * (n + 1)  # repro-lint: domain[map[plain, interval]] -1 = "no interval" sentinel for j < i
            if i >= 1:
                for j in range(i, n + 1):
                    text = word[i - 1 : j]
                    value = pool.get(text)
                    if value is None:
                        value = len(pool)  # repro-lint: domain[interval] the interval-id mint — dense per word, never compared across words
                        pool[text] = value
                    row[j] = value
            fid.append(tuple(row))
        self.fid = tuple(fid)  # repro-lint: domain[map[plain, map[plain, interval]]] fid[i][j] — position-indexed, interval-valued
        self.caches = [dict() for _ in range(n_caches)]


class PositionProgram:
    """One FO[EQ] formula compiled for repeated evaluation."""

    def __init__(self, formula: PFormula) -> None:
        self._quant_count = 0
        self.root = self._compile(formula)
        self._states: dict[str, _WordState] = {}

    def _compile(self, node: PFormula) -> _Plan:
        if isinstance(node, Less):
            plan = _Plan(_LESS)
            plan.vars = (node.x, node.y)
            return plan
        if isinstance(node, SymbolAt):
            plan = _Plan(_SYMAT)
            plan.vars = (node.x,)
            plan.symbol = node.symbol
            return plan
        if isinstance(node, FactorEq):
            plan = _Plan(_EQ)
            plan.vars = (node.x1, node.y1, node.x2, node.y2)
            plan.cost = 2
            return plan
        if isinstance(node, PNot):
            plan = _Plan(_NOT)
            child = self._compile(node.inner)
            plan.children = (child,)
            plan.cost = child.cost
            return plan
        if isinstance(node, (PAnd, POr)):
            plan = _Plan(_AND if isinstance(node, PAnd) else _OR)
            flat: list[_Plan] = []
            self._flatten(node, type(node), flat)
            flat.sort(key=lambda p: p.cost)
            plan.children = tuple(flat)
            plan.cost = sum(p.cost for p in flat)
            return plan
        if isinstance(node, PImplies):
            plan = _Plan(_IMPLIES)
            plan.children = (self._compile(node.left), self._compile(node.right))
            plan.cost = plan.children[0].cost + plan.children[1].cost
            return plan
        if isinstance(node, (PExists, PForall)):
            plan = _Plan(_QUANT)
            inner = self._compile(node.inner)
            plan.children = (inner,)
            plan.vars = (node.var,)
            plan.want = isinstance(node, PExists)
            plan.free = tuple(
                sorted(p_free_variables(node), key=lambda v: v.name)
            )
            plan.cache_index = self._quant_count
            self._quant_count += 1
            plan.cost = 5 + 10 * inner.cost
            return plan
        raise TypeError(f"unknown FO[EQ] node: {node!r}")

    def _flatten(self, node: PFormula, op: type, out: list) -> None:
        if isinstance(node, op):
            self._flatten(node.left, op, out)
            self._flatten(node.right, op, out)
        else:
            out.append(self._compile(node))

    def evaluate(self, word: str, assignment: dict) -> bool:
        """Truth under ``assignment`` (which must cover the free vars;
        it is read, never mutated)."""
        # LRU over insertion-ordered dict: pop + reinsert moves the word
        # to the back; evict the front when full (deterministic — the
        # order depends only on the evaluation sequence).
        states = self._states
        state = states.pop(word, None)
        if state is None:
            state = _WordState(word, self._quant_count)
            if len(states) >= _MAX_STATES:
                del states[next(iter(states))]
        states[word] = state
        return self._eval(self.root, state, dict(assignment))

    def _eval(self, plan: _Plan, state: _WordState, sigma: dict) -> bool:
        kind = plan.kind
        if kind == _LESS:
            return sigma[plan.vars[0]] < sigma[plan.vars[1]]
        if kind == _SYMAT:
            return state.word[sigma[plan.vars[0]] - 1] == plan.symbol
        if kind == _EQ:
            x1, y1, x2, y2 = (sigma[v] for v in plan.vars)
            if x1 > y1 or x2 > y2:
                return False
            return state.fid[x1][y1] == state.fid[x2][y2]
        if kind == _AND:
            for child in plan.children:
                if not self._eval(child, state, sigma):
                    return False
            return True
        if kind == _OR:
            for child in plan.children:
                if self._eval(child, state, sigma):
                    return True
            return False
        if kind == _NOT:
            return not self._eval(plan.children[0], state, sigma)
        if kind == _IMPLIES:
            return (not self._eval(plan.children[0], state, sigma)) or (
                self._eval(plan.children[1], state, sigma)
            )
        # _QUANT
        variable = plan.vars[0]
        had = variable in sigma
        shadowed = sigma.pop(variable, None)
        cache = state.caches[plan.cache_index]
        projection = tuple(sigma[v] for v in plan.free)
        result = cache.get(projection)
        if result is None:
            want = plan.want
            inner = plan.children[0]
            result = not want
            for position in range(1, state.n + 1):
                sigma[variable] = position
                if self._eval(inner, state, sigma) == want:
                    result = want
                    break
            sigma.pop(variable, None)
            cache[projection] = result
        if had:
            sigma[variable] = shadowed
        return result


@lru_cache(maxsize=256)
def position_program(formula: PFormula) -> PositionProgram:
    """The compiled program for ``formula`` (shared process-wide)."""
    return PositionProgram(formula)


metrics.register("foeq.position_program", position_program)
