"""Integer-id EF-game search: the kernel behind ``repro.ef.solver``.

:class:`PartialIsoCheck` is the repository's one Definition 3.1 decision
(the solver, game plays and pebble games all use it).
:class:`KernelSolver` is a drop-in replacement for the naive solver's
search, operating purely on :class:`~repro.kernel.interning.InternTable`
ids.  It reproduces the naive solver's observable behaviour exactly —
same spoiler-move enumeration order, same duplicator-response
preference order, same results — while replacing its hot costs:

* **Consistency** is incremental: a position is grown one pair at a
  time, and only the conditions involving the newly added pair are
  checked (equality mirroring against every earlier pair, plus the
  ≈3m² concatenation triples that mention the new pair).  Every triple
  over the final tuple is validated exactly when its last element is
  added, so the incremental check accepts the same positions as the
  naive ``sorted(...) + extend_with_constants + find_violation`` rebuild
  — condition 1 (constants mirrored) is subsumed by equality mirroring
  because the constant pairs are always in the base item list.  This
  pairwise check serves rounds ≥ 2, position validation, strategy
  extraction, plays and pebble games.
* **The last round** is decided by atomic types (the one-round case of
  the EF theorem for FC): with one round left, Duplicator wins iff both
  sides realise the same set of atomic types over the position.  A
  type (:meth:`PartialIsoCheck.atomic_types`) is exactly the tuple of
  facts the pairwise check compares, so two ids have equal types iff
  that check accepts the pair.  A type costs O(m) ``cat`` probes, one
  pairwise check O(m²), and a move may try many candidate responses.
  Verdicts, memo keys and ``positions_explored`` are exactly those of
  the move-by-move search.
* **Positions** are sorted tuples of ``(a_id, b_id)`` int pairs, and the
  transposition table is keyed on a *canonical form* that quotients out
  automorphic pairs: if σ_A, σ_B are automorphisms of the structures,
  the image of a position under ``(σ_A, σ_B)`` is winning for exactly
  the same player (automorphisms preserve constants, equality and R∘,
  so they commute with both the win condition and move translation), so
  the minimum over the group orbit indexes the whole orbit.
* **Ordering** uses id comparisons: ids are assigned in the naive
  ``⊥-first, then (len, text)`` order, so ascending id order *is* the
  naive enumeration order, and the response-preference sort key becomes
  integer arithmetic over precomputed mirror maps and length arrays.

Search-effort counters are kept per instance (see :meth:`stats`) and
mirrored into the process-wide :mod:`repro.metrics` registry, which the
engine samples into ``BENCH_engine.json``.
"""

from __future__ import annotations

from repro import metrics
from repro.kernel.automorphisms import automorphism_group
from repro.kernel.interning import InternTable

__all__ = ["KernelSolver", "PartialIsoCheck"]

#: Skip symmetry reduction when |G_A|·|G_B| exceeds this — mapping every
#: position through thousands of permutation pairs would cost more than
#: the duplicate positions it merges.  Falling back to the identity is
#: sound (quotient by the trivial subgroup).
_MAX_SYM_PRODUCT = 512

#: Universe size above which the solver switches from dense to sparse
#: internals: consistency and atomic-type probes use single ``cat``
#: entries instead of materialised rows, and response orders are
#: generated lazily instead of cached as tuples.  Deep searches only
#: ever happen on small universes (the game tree is exponential in k),
#: so the dense fast path keeps them; above the limit queries are
#: shallow (0–1 rounds on very long words, e.g. the Fooling-Lemma
#: checks) and O(n) per-element row/cache costs would dominate the
#: entire query.
_DENSE_LIMIT = 1024

Position = "tuple[tuple[int, int], ...]"  # sorted, deduplicated id pairs


class PartialIsoCheck:
    """Definition 3.1 on two interned tables, grown one pair at a time
    (no automorphism groups, memo or store probe)."""

    _COUNTERS: tuple[str, ...] = ("consistency_checks",)

    def __init__(self, table_a: InternTable, table_b: InternTable) -> None:
        self.table_a = table_a
        self.table_b = table_b
        self._n_a = table_a.n_factors
        self._n_b = table_b.n_factors
        self._cat_a = table_a.cat
        self._cat_b = table_b.cat
        self._const_pairs = tuple(zip(table_a.const_ids, table_b.const_ids))
        self._sparse = max(self._n_a, self._n_b) > _DENSE_LIMIT
        self.counters = {name: 0 for name in self._COUNTERS}
        self._base_ok = self._check_base()

    def _bump(self, name: str, amount: int = 1) -> None:
        # Advisory per-instance effort counters: engine workers run one
        # thread, so bench gates stay exact; a daemon-side lost increment
        # skews a diagnostic, never a verdict.
        # repro-lint: allow[concurrency.shared-state-race] advisory counters
        self.counters[name] += amount
        metrics.record(name, amount)

    def _check_base(self) -> bool:
        """Are the constant vectors alone a partial isomorphism?"""
        base: tuple = ()
        for pair in self._const_pairs:
            if not self._check_new(base, *pair):
                return False
            base = (*base, pair)
        return True

    def _check_new(self, items: tuple, a: int, b: int) -> bool:
        """Do Definition 3.1's conditions still hold after adding ``(a, b)``?

        ``items`` (constant pairs + played pairs) is assumed consistent;
        only conditions involving the new pair are checked.
        """
        self._bump("consistency_checks")
        for other_a, other_b in items:
            if (a == other_a) != (b == other_b):
                return False
        extended = (*items, (a, b))
        if self._sparse:
            point_a = self._cat_a.point
            point_b = self._cat_b.point
            for a1, b1 in extended:
                for a2, b2 in extended:
                    # new = a1·a2  /  a1 = new·a2  /  a1 = a2·new
                    if (point_a(a1, a2) == a) != (point_b(b1, b2) == b):
                        return False
                    if (point_a(a, a2) == a1) != (point_b(b, b2) == b1):
                        return False
                    if (point_a(a2, a) == a1) != (point_b(b2, b) == b1):
                        return False
            return True
        cat_a = self._cat_a
        cat_b = self._cat_b
        row_new_a = cat_a[a]
        row_new_b = cat_b[b]
        for a1, b1 in extended:
            row_a1 = cat_a[a1]
            row_b1 = cat_b[b1]
            for a2, b2 in extended:
                # new = a1·a2  /  a1 = new·a2  /  a1 = a2·new
                if (row_a1[a2] == a) != (row_b1[b2] == b):
                    return False
                if (row_new_a[a2] == a1) != (row_new_b[b2] == b1):
                    return False
                if (cat_a[a2][a] == a1) != (cat_b[b2][b] == b1):
                    return False
        return True

    def _try_extend(self, position: tuple, a: int, b: int) -> "Position | None":
        """Position after playing ``(a, b)``, or ``None`` if inconsistent.

        A repeated pair returns the position unchanged (set semantics).
        """
        pair = (a, b)
        if pair in position:
            return position
        if not self._check_new(self._const_pairs + position, a, b):
            return None
        return tuple(sorted((*position, pair)))

    def _validated(self, pairs) -> "Position | None":
        """Canonical consistent position for arbitrary start pairs.

        Returns ``None`` when the constants base or any added pair breaks
        consistency — equivalent to the naive full-rebuild check, since a
        violation in the full set involves some last-added pair.
        """
        if not self._base_ok:
            return None
        position: tuple = ()
        for pair in sorted(set(pairs)):
            extended = self._try_extend(position, *pair)
            if extended is None:
                return None
            position = extended
        return position

    def position_consistent(self, pairs) -> bool:
        """Is the pair set (with constants) a partial isomorphism?"""
        return self._validated(pairs) is not None

    def extends(self, pairs: tuple, a: int, b: int) -> bool:
        """Does the consistent pair set ``pairs`` stay one with ``(a, b)``?"""
        return self._check_new(self._const_pairs + pairs, a, b)

    def atomic_types(self, table: InternTable, items: list):
        """Yield the atomic type over ``items`` of every id of ``table``
        (one of the two sides), in id order, ⊥ included.

        ``items`` is that side's column of a consistent item list: the
        constant ids, then the side's ids from the position.  A type is
        exactly what :meth:`_check_new` compares: ``e``'s first item
        index, every ``(i, j)`` with ``xᵢ·xⱼ = e``, and for ``e·xⱼ``,
        ``xⱼ·e`` and ``e·e`` the first item index of the product or ``-2``
        where the product is ``e`` itself (``-1``: no item).  So an id on
        each side has equal types iff :meth:`_check_new` accepts the pair.
        Indices are first ones because items repeat (every absent
        constant of a restriction is ⊥).
        """
        cat = table.cat
        n = table.n_factors
        # code[id] is id's first item index, else -1; code[n + 1] stays -1
        # and answers the -1 of an undefined product.
        code = [-1] * (n + 2)
        for index in range(len(items) - 1, -1, -1):
            code[items[index]] = index
        product: dict = {}
        for i, left in enumerate(items):
            for j, right in enumerate(items):
                value = cat.point(left, right)
                product[value] = (*product.get(value, ()), (i, j))
        rows = None if self._sparse else [cat[item] for item in items]
        point = cat.point
        for e in range(n + 1):
            own = code[e]
            if own < 0:
                code[e] = -2
            if rows is None:
                realised = (
                    own,
                    product.get(e),
                    *[code[point(e, item)] for item in items],
                    *[code[point(item, e)] for item in items],
                    code[point(e, e)],
                )
            else:
                row = cat[e]
                realised = (
                    own,
                    product.get(e),
                    *[code[row[item]] for item in items],
                    *[code[item_row[e]] for item_row in rows],
                    code[row[e]],
                )
            code[e] = own
            yield realised


class KernelSolver(PartialIsoCheck):
    """Memoised EF-game search over a pair of interned structures."""

    _COUNTERS = (
        "positions_explored", "table_hits", "symmetry_cuts", "consistency_checks"
    )

    def __init__(self, table_a: InternTable, table_b: InternTable) -> None:
        super().__init__(table_a, table_b)
        self._mirror_ab = self._mirror(table_a, table_b)
        self._mirror_ba = self._mirror(table_b, table_a)
        self._memo: dict = {}
        self._response_order: dict = {}
        self._runs_a: "list | None" = None
        self._runs_b: "list | None" = None
        self._ids_a = self._response_ids(self._n_a)
        self._ids_b = self._response_ids(self._n_b)
        self._sym = self._symmetries()

    @staticmethod
    def _response_ids(n_factors: int):
        """One side's response ids ``0 … n_factors``.

        A dense side caches its response orders, so they are sliced out
        of one shared tuple: every cached order then holds the same int
        object per id instead of its own copy of each id above 256.  A
        sparse side generates its orders lazily from a ``range``.
        """
        if n_factors > _DENSE_LIMIT:
            return range(n_factors + 1)
        return tuple(range(n_factors + 1))

    @staticmethod
    def _mirror(source: InternTable, target: InternTable) -> tuple[int, ...]:
        """Per-id map to the same-string id in ``target`` (``-1`` if absent).

        Entry 0 maps ⊥ to ⊥: the naive response key compares the BOTTOM
        singleton equal to itself across structures.
        """
        return (
            0,
            *(
                target.id_of.get(element, -1)
                for element in source.elements[1:]
            ),
        )

    def _symmetries(self) -> tuple:
        """Non-identity ``(σ_A, σ_B)`` combos used for canonicalization."""
        group_a = automorphism_group(self.table_a)
        group_b = automorphism_group(self.table_b)
        if len(group_a) * len(group_b) > _MAX_SYM_PRODUCT:
            metrics.record("symmetry_product_skips")
            return ()
        identity_a = tuple(range(self._n_a + 1))
        identity_b = tuple(range(self._n_b + 1))
        return tuple(
            (sigma_a, sigma_b)
            for sigma_a in group_a
            for sigma_b in group_b
            if not (sigma_a == identity_a and sigma_b == identity_b)
        )

    # -- canonicalization ----------------------------------------------------

    def _canonical(self, position: tuple) -> tuple:
        if not self._sym or not position:
            return position
        best = position
        for sigma_a, sigma_b in self._sym:
            mapped = tuple(
                sorted((sigma_a[a], sigma_b[b]) for a, b in position)
            )
            if mapped < best:
                best = mapped
        if best is not position:
            self._bump("symmetry_cuts")
        return best

    # -- decision ------------------------------------------------------------

    def duplicator_wins(self, rounds: int, pairs=()) -> bool:
        position = self._validated(pairs)
        if position is None:
            return False
        return self._wins(rounds, position)

    def _wins(self, rounds: int, position: tuple) -> bool:
        if rounds == 0:
            return True
        key = (rounds, self._canonical(position))
        cached = self._memo.get(key)
        if cached is not None:
            self._bump("table_hits")
            return cached
        self._bump("positions_explored")
        if rounds == 1:
            result = self._same_types(position)
        else:
            result = True
            for side, element in self._spoiler_moves(position):
                if self._response(rounds, position, side, element) is None:
                    result = False
                    break
        # Grow-only transposition table: the verdict for a key is a pure
        # function of the two universes, so concurrent writers store the
        # same value and dict item assignment is atomic under the GIL.
        # repro-lint: allow[concurrency.shared-state-race] idempotent memo
        self._memo[key] = result
        return result

    def _same_types(self, position: tuple) -> bool:
        """One round left: do both sides realise the same atomic types?

        A Spoiler move has a consistent response iff the other side
        realises its type, and an element already taken has its partner
        realise its type, so Duplicator wins iff the two type sets agree.
        """
        items = self._const_pairs + position
        types_a = set(self.atomic_types(self.table_a, [a for a, _ in items]))
        types_b = set()
        for realised in self.atomic_types(self.table_b, [b for _, b in items]):
            if realised not in types_a:
                return False
            types_b.add(realised)
        return len(types_b) == len(types_a)

    def _spoiler_moves(self, position: tuple):
        taken_a = {pair[0] for pair in position}
        taken_b = {pair[1] for pair in position}
        for element in range(self._n_a + 1):
            if element not in taken_a:
                yield ("A", element)
        for element in range(self._n_b + 1):
            if element not in taken_b:
                yield ("B", element)

    @staticmethod
    def _length_runs(table: InternTable) -> list:
        """Maximal constant-length id runs ``(length, start, end)``.

        Ids 1..n are sorted by ``(len, text)``, so equal lengths form
        contiguous ranges; the runs let response ordering work per length
        class instead of per element.
        """
        lengths = table.lengths
        n = table.n_factors
        runs = []
        i = 1
        while i <= n:
            j = i
            while j <= n and lengths[j] == lengths[i]:
                j += 1
            runs.append((lengths[i], i, j))
            i = j
        return runs

    def _responses(self, side: str, element: int):
        """Candidate response ids, best-first.

        Replicates the naive preference order exactly: the same-string
        mirror first, then same-⊥-status, then by length distance, ties
        broken by the ⊥-first ``(len, text)`` enumeration order — which
        is ascending id order.  Because ids are length-sorted, the
        length-distance order is a two-run merge (lengths below the
        move's, descending, against lengths above it, ascending; the
        shorter class wins distance ties by its smaller ids), built in
        O(n) instead of an O(n log n) keyed sort.  Small universes cache
        the order per move; above :data:`_DENSE_LIMIT` it is generated
        lazily — the winning response is usually near the front, and
        caching 2n orders of n ids apiece would cost O(n²) memory.
        """
        key = (side, element)
        cached = self._response_order.get(key)
        if cached is not None:
            return cached
        if side == "A":
            mirror = self._mirror_ab[element]
            own_length = self.table_a.lengths[element]
            if self._runs_b is None:
                # Idempotent lazy init: every thread computes the same runs.
                # repro-lint: allow[concurrency.shared-state-race] lazy init
                self._runs_b = self._length_runs(self.table_b)
            runs = self._runs_b
            ids = self._ids_b
        else:
            mirror = self._mirror_ba[element]
            own_length = self.table_b.lengths[element]
            if self._runs_a is None:
                # Idempotent lazy init: every thread computes the same runs.
                # repro-lint: allow[concurrency.shared-state-race] lazy init
                self._runs_a = self._length_runs(self.table_a)
            runs = self._runs_a
            ids = self._ids_a
        ordered = self._merged_order(
            mirror, own_length, runs, ids, element == 0
        )
        if len(ids) - 1 > _DENSE_LIMIT:
            return ordered
        cached = tuple(ordered)
        # Grow-only order memo: deterministic per (side, element) key.
        # repro-lint: allow[concurrency.shared-state-race] idempotent memo
        self._response_order[key] = cached
        return cached

    @staticmethod
    def _merged_order(
        mirror: int, own_length: int, runs: list, ids, is_bottom: bool
    ):
        """Yield response ids in the naive preference order (see above),
        taken from ``ids`` (the side's :meth:`_response_ids`)."""
        if is_bottom:
            # The ⊥ move: its mirror is ⊥ itself, and every factor sorts
            # by plain length = ascending id order.
            yield from ids
            return
        if mirror > 0:
            yield ids[mirror]
        above = 0
        while above < len(runs) and runs[above][0] < own_length:
            above += 1
        below = above - 1
        total = len(runs)
        while below >= 0 or above < total:
            # Strictly closer wins; distance ties go to the shorter class
            # (its smaller ids precede under the stable naive sort).
            if above < total and (
                below < 0
                or runs[above][0] - own_length < own_length - runs[below][0]
            ):
                _, start, end = runs[above]
                above += 1
            else:
                _, start, end = runs[below]
                below -= 1
            if start <= mirror < end:
                yield from ids[start:mirror]
                yield from ids[mirror + 1 : end]
            else:
                yield from ids[start:end]
        yield ids[0]  # ⊥ responds last to a factor move

    def _response(
        self, rounds: int, position: tuple, side: str, element: int
    ) -> "int | None":
        """Winning duplicator response id to the given move (``None`` = lost)."""
        for response in self._responses(side, element):
            if side == "A":
                pair_a, pair_b = element, response
            else:
                pair_a, pair_b = response, element
            extended = self._try_extend(position, pair_a, pair_b)
            if extended is not None and self._wins(rounds - 1, extended):
                return response
        return None

    # -- strategy extraction -------------------------------------------------

    def winning_response(
        self, rounds: int, pairs, side: str, element: int
    ) -> "int | None":
        """Duplicator's winning response id, or ``None`` when none exists.

        An inconsistent ``pairs`` set yields ``None`` (every extension of
        an inconsistent position is inconsistent — same observable result
        as the naive solver, which filters candidates by full-set
        consistency).
        """
        position = self._validated(pairs)
        if position is None:
            return None
        return self._response(rounds, position, side, element)

    def spoiler_winning_move(
        self, rounds: int, pairs=(), skip_bottom: bool = False
    ) -> "tuple[str, int] | None":
        """A ``(side, id)`` move defeating every response, or ``None``."""
        position = self._validated(pairs)
        if position is None:
            return None  # already won by Spoiler; no further move needed
        if rounds == 0:
            return None
        for side, element in self._spoiler_moves(position):
            if skip_bottom and element == 0:
                continue
            if self._response(rounds, position, side, element) is None:
                return (side, element)
        return None

    def memo_size(self) -> int:
        """Number of memoised canonical positions."""
        return len(self._memo)

    # -- transposition-table persistence -------------------------------------

    def export_memo(self) -> dict:
        """A copy of the transposition table, for artifact persistence.

        Keys are ``(rounds, canonical position)`` over interned ids,
        which are stable across processes (ids follow the deterministic
        ⊥-first ``(len, text)`` order), so the export can be replayed
        into any solver over the same two universes.
        """
        return dict(self._memo)

    def preload_memo(self, entries: dict) -> None:
        """Seed the transposition table from a previous export.

        Entries must come from a solver over the same (table_a, table_b)
        universes — the store keys on universe fingerprints to guarantee
        it.  Existing entries win (they were computed this process).
        """
        fresh = 0
        memo = self._memo
        for key, value in entries.items():
            if key not in memo:
                # Hydrated entries are content-addressed and bit-identical
                # to what the solver would compute for the same key.
                # repro-lint: allow[concurrency.shared-state-race] idempotent memo
                memo[key] = value
                fresh += 1
        if fresh:
            metrics.record("ef_memo_entries_hydrated", fresh)

    def stats(self) -> dict[str, int]:
        """This instance's search-effort counters (a copy)."""
        return dict(self.counters)
