"""Unit tests for the sweep-family intern layer (repro.kernel.sweep).

The load-bearing invariant: a table built by prefix extension along the
enumeration tree must equal from-scratch interning of ``factors(word)``
— same member set, same deterministic (len, text) universe order — for
every word of enumerated grids, regardless of the order tables are
requested in.
"""

import random

from repro import metrics
from repro.kernel.sweep import SweepFamily
from repro.words.factors import factors
from repro.words.generators import words_up_to

SEED = 20260806


def _check_table(family, word):
    table = family.table(word)
    expected = sorted(factors(word), key=lambda f: (len(f), f))
    universe_texts = [family.strings[gid] for gid in table.universe]
    assert universe_texts == expected, word
    assert table.members == frozenset(table.universe)
    assert table.word == word
    assert family.strings[table.gid] == word


def test_prefix_extension_equals_from_scratch_ab_grid():
    family = SweepFamily(("a", "b"))
    for word in words_up_to("ab", 6):
        _check_table(family, word)


def test_prefix_extension_equals_from_scratch_abc_grid():
    family = SweepFamily(("a", "b", "c"))
    for word in words_up_to("abc", 4):
        _check_table(family, word)


def test_out_of_order_requests_share_prefix_tables():
    # Requesting a long word first must still leave every later prefix
    # request correct (tables for all intermediate prefixes are created
    # on the way up).
    family = SweepFamily(("a", "b"))
    _check_table(family, "abbab")
    before = metrics.snapshot()
    _check_table(family, "abb")  # already built as a prefix
    assert metrics.diff(before, metrics.snapshot())["solver"] == {}


def test_random_long_words_match_factors():
    rng = random.Random(SEED)
    family = SweepFamily(("a", "b"))
    for _ in range(25):
        word = "".join(rng.choice("ab") for _ in range(rng.randint(7, 12)))
        _check_table(family, word)


def test_ids_are_shared_across_words():
    family = SweepFamily(("a", "b"))
    table_a = family.table("abab")
    table_b = family.table("bab")
    gid = family.intern("ab")
    assert gid in table_a.members
    assert gid in table_b.members
    # One global id per string, ever.
    assert family.intern("ab") == gid


def test_cat_is_total_and_consistent_with_intern():
    family = SweepFamily(("a", "b"))
    left = family.intern("ab")
    right = family.intern("ba")
    assert family.cat(left, right) == family.intern("abba")
    assert family.cat(family.epsilon_id, left) == left
    assert family.cat(left, family.epsilon_id) == left
    # Results need not be factors of any enumerated word.
    assert family.cat(right, right) == family.intern("baba")


def test_sort_key_orders_like_intern_table():
    family = SweepFamily(("a", "b"))
    table = family.table("abba")
    keys = [family.sort_key(gid) for gid in table.universe]
    assert keys == sorted(keys)


def test_effort_counters_flow_through_kernel_stats():
    before = metrics.snapshot()
    family = SweepFamily(("a", "b"))
    family.table("ab")
    delta = metrics.diff(before, metrics.snapshot())["solver"]
    # ε root rebuilt once, then two letter extensions.
    assert delta["sweep_tables_rebuilt"] == 1
    assert delta["sweep_tables_extended"] == 2
    assert delta["sweep_words_interned"] == 3
