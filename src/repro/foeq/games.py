"""EF games for FO[EQ] — the comparison side of experiment E20.

Position structures are tiny (|w| elements vs Θ(|w|²) factors), so exact
game solving reaches further here than for FC.  The solver decides
``w ≡_k^{FO[EQ]} v`` — Duplicator survival in the k-round game over the
position structures — with the partial-isomorphism condition induced by
the signature {<, (P_a), EQ}.

Since the interned-factor kernel landed this solver follows its playbook
(:mod:`repro.kernel.efcore`) on the position side:

* **Interned intervals.**  Every factor ``w[i..j]`` / ``v[i..j]`` gets a
  dense id from one shared pool at construction, so the EQ condition
  compares ints instead of slicing strings (the old solver sliced
  O(n) characters per ``factor_at``, O(m⁴) times per consistency check).
* **Incremental consistency.**  Extending a consistent position by one
  pair validates letters and order against the new pair only; the EQ
  condition collapses from the O(m⁴) quadruple scan to an O(m²) partial-
  bijection check over interval ids (sound because order mirroring
  already forces interval *definedness* to coincide — see
  ``_extend``).
* **Canonical transposition keys.**  Position structures are rigid (any
  automorphism of a finite total order is the identity), so the sorted
  pair tuple *is* the canonical form; the memo is keyed on it directly
  and shared across all round counts queried on one solver.

Results and the deterministic move/response ordering are bit-for-bit
those of the original string-based solver, which survives as
:class:`repro.foeq.naive.NaivePositionGameSolver` — the oracle that
``tests/foeq/test_games_differential.py`` checks this one against.
Search-effort counters flow into :mod:`repro.metrics`
(``foeq_positions_explored`` …) so the engine's per-unit sampling covers
this solver like every other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import metrics
from repro.foeq.naive import position_partial_iso

__all__ = [
    "position_partial_iso",
    "PositionGameSolver",
    "foeq_equiv_k",
    "foeq_distinguishing_rank",
    "folt_equiv_k",
    "folt_distinguishing_rank",
]


def _interval_ids(
    word: str, pool: dict
) -> tuple[tuple[int, ...], ...]:
    """``table[i][j]`` = dense id of ``word[i..j]`` (1-based, closed);
    ids are shared through ``pool`` so cross-word factor equality is
    integer equality."""
    n = len(word)
    table = []
    for i in range(n + 1):
        row = [-1] * (n + 1)
        if i >= 1:
            for j in range(i, n + 1):
                text = word[i - 1 : j]
                fid = pool.get(text)
                if fid is None:
                    fid = len(pool)
                    pool[text] = fid
                row[j] = fid
        table.append(tuple(row))
    return tuple(table)


@dataclass
class PositionGameSolver:
    """Exact k-round EF solver over the position structures of two words.

    ``with_eq = False`` plays the plain FO[<] game (signature {<, P_a}) —
    used to show that the EQ relation is what lets FO[EQ] define squares.
    """

    w: str
    v: str
    with_eq: bool = True
    _memo: dict = field(default_factory=dict, repr=False)
    _fid_w: tuple = field(default=(), repr=False)
    _fid_v: tuple = field(default=(), repr=False)
    _counters: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        pool: dict = {}
        self._fid_w = _interval_ids(self.w, pool)
        self._fid_v = _interval_ids(self.v, pool)
        self._counters = {
            "positions_explored": 0,
            "table_hits": 0,
            "consistency_checks": 0,
        }

    def _bump(self, name: str) -> None:
        self._counters[name] += 1
        metrics.record(f"foeq_{name}")

    # -- consistency -----------------------------------------------------------

    def consistent(self, pairs: frozenset) -> bool:
        """Full Definition-3.1 check (the specification; extension moves
        use the incremental ``_extend`` instead)."""
        self._bump("consistency_checks")
        ordered = sorted(pairs)
        return position_partial_iso(
            self.w,
            self.v,
            tuple(p for p, _ in ordered),
            tuple(q for _, q in ordered),
            self.with_eq,
        )

    def _extend(self, state: tuple, pair: tuple):
        """The consistent position reached by playing ``pair`` on
        ``state`` (a sorted, already-consistent pair tuple), or ``None``.

        Letters and order/equality are checked against the new pair
        only.  The EQ condition reduces to: the map ``id_w(interval) →
        id_v(interval)`` over all defined interval pairs must be a
        partial bijection — order mirroring already forces definedness
        (p_i ≤ p_j iff q_i ≤ q_j) to coincide, and matching
        definedness + bijection is exactly "every EQ quadruple has the
        same truth value on both sides".
        """
        self._bump("consistency_checks")
        p, q = pair
        if self.w[p - 1] != self.v[q - 1]:
            return None
        for p2, q2 in state:
            if (p < p2) != (q < q2) or (p == p2) != (q == q2):
                return None
        merged = []
        placed = False
        for existing in state:
            if not placed and pair < existing:
                merged.append(pair)
                placed = True
            merged.append(existing)
        if not placed:
            merged.append(pair)
        if self.with_eq and not self._eq_mirrored(merged):
            return None
        return tuple(merged)

    def _eq_mirrored(self, pairs: list) -> bool:
        fid_w = self._fid_w
        fid_v = self._fid_v
        forward: dict = {}
        backward: dict = {}
        for p1, q1 in pairs:
            row_w = fid_w[p1]
            row_v = fid_v[q1]
            for p2, q2 in pairs:
                if p1 > p2:
                    continue
                a = row_w[p2]
                b = row_v[q2]
                seen = forward.get(a)
                if seen is None:
                    forward[a] = b
                elif seen != b:
                    return False
                seen = backward.get(b)
                if seen is None:
                    backward[b] = a
                elif seen != a:
                    return False
        return True

    # -- game search -----------------------------------------------------------

    def duplicator_wins(self, rounds: int, pairs: frozenset = frozenset()) -> bool:
        if not self.consistent(pairs):
            return False
        return self._wins(rounds, tuple(sorted(pairs)))

    def _wins(self, rounds: int, state: tuple) -> bool:
        if rounds == 0:
            return True
        key = (rounds, state)
        cached = self._memo.get(key)
        if cached is not None:
            self._bump("table_hits")
            return cached
        self._bump("positions_explored")
        result = all(
            self._response(rounds, state, side, position) is not None
            for side, position in self._moves(state)
        )
        self._memo[key] = result
        return result

    def _moves(self, state: tuple):
        taken_w = {p for p, _ in state}
        taken_v = {q for _, q in state}
        for position in range(1, len(self.w) + 1):
            if position not in taken_w:
                yield "A", position
        for position in range(1, len(self.v) + 1):
            if position not in taken_v:
                yield "B", position

    def _response(self, rounds: int, state: tuple, side: str, position: int):
        limit = len(self.v) if side == "A" else len(self.w)
        offset = (
            len(self.v) - len(self.w) if side == "A" else len(self.w) - len(self.v)
        )
        mirror = position + offset
        candidates = sorted(
            range(1, limit + 1),
            key=lambda q: min(abs(q - position), abs(q - mirror)),
        )
        for response in candidates:
            pair = (position, response) if side == "A" else (response, position)
            extended = self._extend(state, pair)
            if extended is not None and self._wins(rounds - 1, extended):
                return response
        return None

    # -- introspection (mirrors repro.ef.solver.GameSolver) --------------------

    def memo_size(self) -> int:
        """Number of memoised canonical positions (for benchmark reports)."""
        return len(self._memo)

    def solver_stats(self) -> dict[str, int]:
        """Search-effort counters for this solver instance.

        ``positions_explored`` (transposition-table misses computed),
        ``table_hits``, ``consistency_checks`` (incremental pair
        validations), plus ``memo_size`` and the two universe sizes.
        Process-wide totals flow into ``BENCH_engine.json`` via the
        ``foeq_*`` counters of :mod:`repro.metrics`.
        """
        out = dict(self._counters)
        out["memo_size"] = len(self._memo)
        out["universe_a"] = len(self.w)
        out["universe_b"] = len(self.v)
        return out


def foeq_equiv_k(w: str, v: str, k: int) -> bool:
    """Decide ``w ≡_k v`` in the FO[EQ] game."""
    if w == v:
        return True
    return PositionGameSolver(w, v).duplicator_wins(k)


def foeq_distinguishing_rank(w: str, v: str, max_k: int) -> int | None:
    """Least k ≤ max_k with ``w ≢_k^{FO[EQ]} v`` (None if equivalent)."""
    if w == v:
        return None
    solver = PositionGameSolver(w, v)
    for k in range(max_k + 1):
        if not solver.duplicator_wins(k):
            return k
    return None


def folt_equiv_k(w: str, v: str, k: int) -> bool:
    """``w ≡_k v`` in the plain FO[<] game (no EQ relation)."""
    if w == v:
        return True
    return PositionGameSolver(w, v, with_eq=False).duplicator_wins(k)


def folt_distinguishing_rank(w: str, v: str, max_k: int) -> int | None:
    """Least k ≤ max_k with ``w ≢_k^{FO[<]} v`` (None if equivalent)."""
    if w == v:
        return None
    solver = PositionGameSolver(w, v, with_eq=False)
    for k in range(max_k + 1):
        if not solver.duplicator_wins(k):
            return k
    return None
