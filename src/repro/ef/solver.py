"""Exact decision of ``𝔄_w ≡_k 𝔅_v`` by memoised, symmetry-reduced search.

The solver explores the EF game tree:  a *position* is the set of pairs
played so far plus the number of rounds left.  Duplicator wins a position
iff for **every** Spoiler move there is **some** response leading to a
winning sub-position; the recursion bottoms out at zero rounds with the
partial-isomorphism check (constants included).

Since the interned-factor kernel landed, :class:`GameSolver` is a thin
facade over :class:`repro.kernel.efcore.KernelSolver`: each structure's
universe is interned once into dense integer ids
(:func:`repro.kernel.interning.intern_table`, shared process-wide via a
registered lru cache), positions become sorted tuples of int pairs, the
transposition table is keyed on a canonical form quotienting automorphic
pairs, and consistency is checked incrementally — only the newly played
pair is validated against the position.  The facade translates between
the public string/⊥ element vocabulary and kernel ids at the boundary
and is bit-for-bit compatible with the original solver: same results,
same deterministic move and response ordering (the old implementation
survives as :class:`repro.ef.naive.NaiveGameSolver`, the oracle that
``tests/kernel/`` checks this one against).

Exactness comes at exponential cost in k; the kernel pushes the
practical envelope to ``|Facs| ≲ 120`` per structure at ``k ≤ 3``.
Larger instances are handled by the paper's *constructive* strategies in
``repro.ef.composition``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ef.game import GameArena, Move, _pair_ids, _table_for
from repro.fc.structures import BOTTOM
from repro.kernel.efcore import KernelSolver
from repro.kernel.interning import BOTTOM_ID
from repro.store import artifacts, runtime as store_runtime

__all__ = ["GameSolver", "solve_equivalence"]

#: Memo tables smaller than this are never persisted: tiny games (the
#: E01 loops build hundreds of solvers) would flood the store with
#: records cheaper to recompute than to load.
_PERSIST_MIN_ENTRIES = 32

Element = "str | object"
Pair = tuple  # (a-side element, b-side element)


@dataclass
class GameSolver:
    """Exact EF-game solver for one pair of structures.

    One solver instance amortises its transposition table across all
    queries about the same ``(structure_a, structure_b)`` pair —
    different round counts, strategy extraction, and mid-game positions
    all share it.  Elements in the public API are factors (``str``) or
    ``BOTTOM``; pairs/positions are frozensets of element pairs, exactly
    as before the kernel rewrite.
    """

    structure_a: object
    structure_b: object
    _core: KernelSolver = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        # The arena constructor is the historical signature validator
        # (same-alphabet check, error message included).
        GameArena(self.structure_a, self.structure_b, 0)
        self._core = KernelSolver(
            _table_for(self.structure_a), _table_for(self.structure_b)
        )
        self._store_args = None
        self._persisted_size = 0
        if store_runtime.active() is not None:
            table_a = self._core.table_a
            table_b = self._core.table_b
            # Universe fingerprints key restricted structures correctly:
            # the same word pair with different allowed sets must not
            # share memo entries.  Ids are stable across processes (the
            # deterministic (len, text) assignment), so replayed
            # positions mean the same elements.
            self._store_args = {
                "alphabet": "".join(table_a.alphabet),
                "word_a": table_a.word,
                "word_b": table_b.word,
                "universe_a": artifacts.fingerprint_strings(
                    table_a.elements[1:]
                ),
                "universe_b": artifacts.fingerprint_strings(
                    table_b.elements[1:]
                ),
            }
            payload = store_runtime.load(
                artifacts.EF_MEMO_KIND,
                artifacts.EF_MEMO_VERSION,
                self._store_args,
            )
            if payload is not None:
                self._core.preload_memo(artifacts.decode_memo(payload))
                self._persisted_size = self._core.memo_size()

    def _persist(self) -> None:
        """Publish the transposition table when a query has grown it.

        Runs after every public query; a no-op without an active store,
        below :data:`_PERSIST_MIN_ENTRIES`, or when nothing new was
        memoised since the last publish.
        """
        if self._store_args is None:
            return
        size = self._core.memo_size()
        if size < _PERSIST_MIN_ENTRIES or size <= self._persisted_size:
            return
        store_runtime.publish(
            artifacts.EF_MEMO_KIND,
            artifacts.EF_MEMO_VERSION,
            self._store_args,
            artifacts.encode_memo(self._core.export_memo()),
        )
        # Monotone publish watermark: a racing stale value only triggers
        # one redundant publish of an identical content-addressed record.
        # repro-lint: allow[concurrency.shared-state-race] monotone watermark
        self._persisted_size = size

    # -- element translation -------------------------------------------------

    def _element(self, side: str, element_id: int):
        if element_id == BOTTOM_ID:
            return BOTTOM
        table = self._core.table_a if side == "A" else self._core.table_b
        return table.elements[element_id]

    # -- consistency ---------------------------------------------------------

    def consistent(self, pairs: frozenset) -> bool:
        """Is the pair set (with constants) a partial isomorphism?"""
        ids = _pair_ids(self._core, pairs)
        return ids is not None and self._core.position_consistent(ids)

    # -- decision ------------------------------------------------------------

    def duplicator_wins(
        self, rounds: int, pairs: frozenset = frozenset()
    ) -> bool:
        """Decide whether Duplicator wins from the given position.

        ``pairs`` must already be consistent (the empty position always is
        when both words realise the same constants pattern; an inconsistent
        start is reported as a Spoiler win).
        """
        ids = _pair_ids(self._core, pairs)
        if ids is None:
            return False
        verdict = self._core.duplicator_wins(rounds, ids)
        self._persist()
        return verdict

    # -- strategy extraction ---------------------------------------------------

    def winning_response(
        self, rounds: int, pairs: frozenset, move: Move
    ) -> "Element | None":
        """Public strategy hook: Duplicator's winning response at a position
        with ``rounds`` rounds *remaining* (the current move included).

        Returns ``None`` when no response keeps Duplicator winning.
        """
        if rounds < 1:
            raise ValueError("no rounds remaining")
        ids = _pair_ids(self._core, pairs)
        if ids is None:
            return None
        move_table = (
            self._core.table_a if move.side == "A" else self._core.table_b
        )
        try:
            element_id = move_table.id_for(
                None if move.element is BOTTOM else move.element
            )
        except KeyError:
            return None
        response = self._core.winning_response(
            rounds, ids, move.side, element_id
        )
        self._persist()
        if response is None:
            return None
        return self._element("B" if move.side == "A" else "A", response)

    def spoiler_winning_move(
        self,
        rounds: int,
        pairs: frozenset = frozenset(),
        skip_bottom: bool = False,
    ) -> "Move | None":
        """Return a Spoiler move that defeats every Duplicator response, or
        ``None`` if Duplicator wins the position.

        ``skip_bottom`` restricts the search to factor moves — used by the
        formula synthesiser, whose quantifiers range over Facs only.  A ⊥
        move adds the inert pair (⊥, ⊥), so whenever only ⊥ "wins" at this
        round count the position is equally lost one round earlier; the
        synthesiser handles that by recursing at rounds − 1.
        """
        ids = _pair_ids(self._core, pairs)
        if ids is None:
            return None
        found = self._core.spoiler_winning_move(rounds, ids, skip_bottom)
        self._persist()
        if found is None:
            return None
        side, element_id = found
        return Move(side, self._element(side, element_id))

    # -- introspection ---------------------------------------------------------

    def memo_size(self) -> int:
        """Number of memoised canonical positions (for benchmark reports)."""
        return self._core.memo_size()

    def solver_stats(self) -> dict[str, int]:
        """Search-effort counters for this solver instance.

        ``positions_explored`` (transposition-table misses computed),
        ``table_hits``, ``symmetry_cuts`` (positions whose canonical form
        differed from their literal form), ``consistency_checks``
        (incremental pair validations), plus ``memo_size`` and the two
        universe sizes.  Process-wide totals flow into
        ``BENCH_engine.json`` via :mod:`repro.metrics`.
        """
        out = self._core.stats()
        out["memo_size"] = self._core.memo_size()
        out["universe_a"] = self._core.table_a.n_factors + 1
        out["universe_b"] = self._core.table_b.n_factors + 1
        return out


def solve_equivalence(structure_a, structure_b, rounds: int) -> bool:
    """One-shot ``𝔄 ≡_k 𝔅`` decision by the **naive reference solver**.

    This deliberately bypasses the kernel: it is the ground-truth oracle
    that the differential tests in ``tests/kernel/`` compare
    :class:`GameSolver` against, so it must stay independent of the
    machinery under test.  Production callers wanting speed should hold a
    :class:`GameSolver` (or use :func:`repro.ef.equivalence.equiv_k`).
    """
    from repro.ef.naive import NaiveGameSolver

    return NaiveGameSolver(structure_a, structure_b).duplicator_wins(rounds)
