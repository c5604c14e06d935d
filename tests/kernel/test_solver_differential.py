"""Differential check: kernel GameSolver vs the naive reference solver.

The kernel facade must be *bit-for-bit* compatible with the pre-kernel
implementation (preserved verbatim as :class:`NaiveGameSolver`): same
win/lose verdicts, same strategy elements, same move objects.  Exact
agreement (not just verdict agreement) matters because the formula
synthesiser consumes the strategy hooks and must stay deterministic
across the swap.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ef.game import Move
from repro.ef.naive import NaiveGameSolver
from repro.ef.solver import GameSolver, solve_equivalence
from repro.fc.structures import BOTTOM, word_structure
from repro.kernel import efcore
from repro.kernel.interning import intern_restricted_table, intern_table
from repro.words.factors import factors
from repro.words.generators import words_up_to

ALPHABET = "ab"
WORDS4 = list(words_up_to(ALPHABET, 4))
SEED = 20260806

#: A dense limit every non-empty universe exceeds: the sparse branch.
SPARSE = 0


def _pair(word_a, word_b):
    return (
        word_structure(word_a, ALPHABET),
        word_structure(word_b, ALPHABET),
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_full_grid_up_to_length_4(k):
    # Every unordered pair of words of length ≤ 4 — the self-pairs pin the
    # reflexive case, the rest sweep all small win/lose frontiers.
    for i, word_a in enumerate(WORDS4):
        for word_b in WORDS4[i:]:
            structure_a, structure_b = _pair(word_a, word_b)
            fast = GameSolver(structure_a, structure_b).duplicator_wins(k)
            slow = solve_equivalence(structure_a, structure_b, k)
            assert fast == slow, (word_a, word_b, k)


def test_seeded_sample_at_lengths_5_and_6():
    # The full ≤6 grid takes ~1 minute with the naive oracle; a fixed
    # seeded sample keeps the long-word regime covered in CI time.
    rng = random.Random(SEED)
    long_words = [w for w in words_up_to(ALPHABET, 6) if len(w) >= 5]
    for _ in range(20):
        word_a = rng.choice(long_words)
        word_b = rng.choice(long_words)
        structure_a, structure_b = _pair(word_a, word_b)
        fast = GameSolver(structure_a, structure_b)
        for k in (1, 2, 3):
            slow = solve_equivalence(structure_a, structure_b, k)
            assert fast.duplicator_wins(k) == slow, (word_a, word_b, k)


def test_sparse_branch_agrees_on_a_grid_sample(monkeypatch):
    # No universe in the grid exceeds the real dense limit, so lowering
    # it is the only way the sparse probes meet the oracle.
    monkeypatch.setattr(efcore, "_DENSE_LIMIT", SPARSE)
    rng = random.Random(SEED)
    for _ in range(60):
        word_a = rng.choice(WORDS4)
        word_b = rng.choice(WORDS4)
        structure_a, structure_b = _pair(word_a, word_b)
        fast = GameSolver(structure_a, structure_b)
        for k in (1, 2, 3):
            slow = solve_equivalence(structure_a, structure_b, k)
            assert fast.duplicator_wins(k) == slow, (word_a, word_b, k)


def _table(word, dropped):
    """The full structure of ``word`` (``dropped`` is None), or its
    restriction to the factors not in ``dropped``."""
    if dropped is None:
        return intern_table(word, tuple(ALPHABET))
    return intern_restricted_table(
        word, tuple(ALPHABET), frozenset(factors(word) - dropped)
    )


_restriction = st.none() | st.frozensets(st.text(ALPHABET, max_size=3))


@pytest.mark.parametrize("dense_limit", [efcore._DENSE_LIMIT, SPARSE])
@settings(max_examples=150, deadline=None)
@given(
    word_a=st.text(ALPHABET, max_size=5),
    dropped_a=_restriction,
    word_b=st.text(ALPHABET, max_size=5),
    dropped_b=_restriction,
    picks=st.lists(st.integers(min_value=0, max_value=999), max_size=3),
)
# Items repeat: both restrictions send b and ε to ⊥.
@example("a", frozenset({""}), "a", frozenset({""}), [])
# Only the e·e fact separates some pairs.
@example("baba", None, "bbba", None, [320])
def test_atomic_types_match_the_pairwise_check(
    dense_limit, word_a, dropped_a, word_b, dropped_b, picks
):
    # Two ids realise the same atomic type over a consistent position
    # exactly when the pairwise Definition 3.1 check accepts them.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(efcore, "_DENSE_LIMIT", dense_limit)
        core = efcore.KernelSolver(
            _table(word_a, dropped_a), _table(word_b, dropped_b)
        )
    if not core._base_ok:
        return
    position = ()
    for pick in picks:
        candidates = [
            (a, b)
            for a in range(core._n_a + 1)
            for b in range(core._n_b + 1)
            if (a, b) not in position
            and core._try_extend(position, a, b) is not None
        ]
        if not candidates:
            break
        position = core._try_extend(position, *candidates[pick % len(candidates)])
    items = core._const_pairs + position
    types_a = list(core.atomic_types(core.table_a, [a for a, _ in items]))
    types_b = list(core.atomic_types(core.table_b, [b for _, b in items]))
    for a, type_a in enumerate(types_a):
        for b, type_b in enumerate(types_b):
            assert (type_a == type_b) == core._check_new(items, a, b), (
                position,
                a,
                b,
            )


def _sampled_positions(rng, structure_a, structure_b, count):
    universe_a = [BOTTOM, *sorted(structure_a.universe_factors)]
    universe_b = [BOTTOM, *sorted(structure_b.universe_factors)]
    for _ in range(count):
        size = rng.randrange(0, 3)
        yield frozenset(
            (rng.choice(universe_a), rng.choice(universe_b))
            for _ in range(size)
        )


def test_midgame_positions_agree_exactly():
    # consistent / duplicator_wins / winning_response / spoiler_winning_move
    # on random (possibly inconsistent) positions: the kernel must return
    # the *same elements*, not merely equally-winning ones.
    rng = random.Random(SEED)
    pairs = [("abab", "abba"), ("aab", "aabb"), ("ba", "baa"), ("", "a")]
    for word_a, word_b in pairs:
        structure_a, structure_b = _pair(word_a, word_b)
        fast = GameSolver(structure_a, structure_b)
        slow = NaiveGameSolver(structure_a, structure_b)
        for position in _sampled_positions(rng, structure_a, structure_b, 12):
            assert fast.consistent(position) == slow.consistent(position)
            for k in (1, 2):
                assert fast.duplicator_wins(k, position) == slow.duplicator_wins(
                    k, position
                ), (word_a, word_b, position, k)
                assert fast.spoiler_winning_move(
                    k, position
                ) == slow.spoiler_winning_move(k, position)
                assert fast.spoiler_winning_move(
                    k, position, skip_bottom=True
                ) == slow.spoiler_winning_move(k, position, skip_bottom=True)
            if not slow.consistent(position):
                continue
            move = Move("A", rng.choice([BOTTOM, *sorted(factors(word_a))]))
            for k in (1, 2):
                assert fast.winning_response(k, position, move) == (
                    slow.winning_response(k, position, move)
                ), (word_a, word_b, position, move, k)


def test_merged_response_order_matches_keyed_sort():
    # The O(n) two-run merge must reproduce the naive stable sort key
    # (mirror first, ⊥-status, length distance, ascending-id ties) for
    # every move element, mirror present or absent.
    for word_a, word_b in [("abab", "abba"), ("aab", "bbbaa"), ("", "ab")]:
        structure_a, structure_b = _pair(word_a, word_b)
        core = GameSolver(structure_a, structure_b)._core
        for side, count, mirror_map, own, lengths in (
            (
                "A",
                core._n_b + 1,
                core._mirror_ab,
                core.table_a.lengths,
                core.table_b.lengths,
            ),
            (
                "B",
                core._n_a + 1,
                core._mirror_ba,
                core.table_b.lengths,
                core.table_a.lengths,
            ),
        ):
            for element in range(len(own)):
                mirror = mirror_map[element]
                expected = sorted(
                    range(count),
                    key=lambda d: (
                        d != mirror,
                        (d == 0) != (element == 0),
                        abs(lengths[d] - own[element]),
                    ),
                )
                assert list(core._responses(side, element)) == expected, (
                    word_a,
                    word_b,
                    side,
                    element,
                )


def test_cached_response_orders_share_their_ids():
    # Dense orders are cached as slices of one shared id tuple per side:
    # the same sequence as the lazy generator over a range, and one int
    # object per id across every cached order (ids above 256 included).
    rng = random.Random(7)
    word_a = "".join(rng.choice("ab") for _ in range(30))
    word_b = "".join(rng.choice("ab") for _ in range(30))
    structure_a, structure_b = _pair(word_a, word_b)
    core = GameSolver(structure_a, structure_b)._core
    assert core._n_b > 256
    runs = core._length_runs(core.table_b)
    shared: dict = {}
    for element in range(core._n_a + 1):
        cached = core._responses("A", element)
        assert isinstance(cached, tuple)
        lazy = core._merged_order(
            core._mirror_ab[element],
            core.table_a.lengths[element],
            runs,
            range(core._n_b + 1),
            element == 0,
        )
        assert list(cached) == list(lazy)
        for response in cached:
            assert shared.setdefault(response, response) is response


def test_winning_response_requires_a_round():
    structure_a, structure_b = _pair("ab", "ba")
    solver = GameSolver(structure_a, structure_b)
    with pytest.raises(ValueError):
        solver.winning_response(0, frozenset(), Move("A", "a"))


def test_restricted_structures_agree():
    # The E08-style pseudo-congruence games play on restrictions; these are
    # also the only structures with nontrivial automorphism groups, so this
    # exercises the symmetry-reduced memo against the oracle.
    _assert_restricted_structures_agree()


def test_restricted_structures_agree_on_the_sparse_branch(monkeypatch):
    monkeypatch.setattr(efcore, "_DENSE_LIMIT", SPARSE)
    _assert_restricted_structures_agree()


def _assert_restricted_structures_agree():
    combos = [
        ("aabb", "ab", "aabbab"),
        ("abab", "bb", "ababbb"),
        ("aaa", "aa", "aaaaa"),
    ]
    for part_a, part_b, combined in combos:
        base = word_structure(combined, ALPHABET)
        structure_a = base.restrict(factors(part_a))
        structure_b = base.restrict(factors(part_b))
        fast = GameSolver(structure_a, structure_b)
        slow = NaiveGameSolver(structure_a, structure_b)
        for k in (1, 2, 3):
            assert fast.duplicator_wins(k) == slow.duplicator_wins(k), (
                part_a,
                part_b,
                k,
            )


def test_solver_stats_shape():
    structure_a, structure_b = _pair("aabba", "abbaa")
    solver = GameSolver(structure_a, structure_b)
    solver.duplicator_wins(2)
    stats = solver.solver_stats()
    assert stats["positions_explored"] > 0
    assert stats["consistency_checks"] > 0
    assert stats["memo_size"] == solver.memo_size()
    assert stats["universe_a"] == len(factors("aabba")) + 1  # + ⊥
