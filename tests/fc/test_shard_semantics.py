"""Shard-restricted sweep semantics: partition, merge, bit-identity.

Three layers under test: the shard-plan builders partition the word
grid exactly (every word of ``Σ^{≤n}`` in exactly one shard), the
ordered merge restores global ``(len, text)`` enumeration order, and
``defines_language_members_shard`` returns — shard by shard — exactly
the verdicts of the monolithic ``defines_language_members`` sweep.
"""

import pytest

from repro import metrics
from repro.engine.shards import length_band_plan, round_robin, subtree_plan
from repro.fc import builders as B
from repro.fc.semantics import (
    defines_language_members,
    defines_language_members_shard,
    merge_shard_rows,
    shard_words,
)
from repro.words.generators import words_up_to


# -- plan builders partition the grid exactly --------------------------------


@pytest.mark.parametrize("width", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("alphabet,max_length", [("ab", 5), ("abc", 4)])
def test_subtree_plan_partitions_the_grid(alphabet, max_length, width):
    plan = subtree_plan(alphabet, max_length, width)
    assert 1 <= len(plan) <= max(1, width)
    owned = [
        word
        for shard in plan
        for word in shard_words(alphabet, max_length, shard)
    ]
    assert sorted(owned, key=lambda w: (len(w), w)) == list(
        words_up_to(alphabet, max_length)
    )
    assert len(owned) == len(set(owned)), "a word is owned by two shards"
    # Stems (words below the cut depth, including ε) belong to shard 0.
    if len(plan) > 1:
        assert "" in plan[0]["stems"]
        assert all(not shard["stems"] for shard in plan[1:])


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_length_band_plan_partitions_unary_grid(width):
    max_length = 9
    plan = length_band_plan("a", max_length, width)
    owned = [
        word for shard in plan for word in shard_words("a", max_length, shard)
    ]
    assert sorted(owned, key=len) == list(words_up_to("a", max_length))
    assert len(owned) == len(set(owned))
    # Bands enumerate ascending within each shard.
    for shard in plan:
        assert shard["lengths"] == sorted(shard["lengths"])


def test_subtree_plan_falls_through_to_length_bands_on_unary():
    assert subtree_plan("a", 6, 3) == length_band_plan("a", 6, 3)


def test_degenerate_plans_stay_single_shard():
    assert subtree_plan("ab", 5, 1) == [{"stems": [], "prefixes": [""]}]
    assert subtree_plan("ab", 0, 4) == [{"stems": [], "prefixes": [""]}]
    assert length_band_plan("a", 4, 1) == [{"lengths": [0, 1, 2, 3, 4]}]


def test_round_robin_deals_deterministically():
    assert round_robin([1, 2, 3, 4, 5], 2) == [[1, 3, 5], [2, 4]]
    assert round_robin([1, 2], 5) == [[1], [2]]
    assert round_robin([], 3) == [[]]


# -- ordered merge ------------------------------------------------------------


def test_merge_shard_rows_restores_enumeration_order():
    plan = subtree_plan("ab", 4, 3)
    parts = [list(shard_words("ab", 4, shard)) for shard in plan]
    assert merge_shard_rows(parts) == list(words_up_to("ab", 4))


def test_merge_shard_rows_keys_on_leading_word():
    parts = [[("a", 1), ("aa", 2)], [("b", 3)], [("", 0)]]
    assert merge_shard_rows(parts) == [("", 0), ("a", 1), ("b", 3), ("aa", 2)]


# -- shard-restricted sweeps are bit-identical --------------------------------


@pytest.mark.parametrize("width", [2, 3, 4])
def test_members_shard_matches_monolithic_sweep(width):
    sentence, alphabet, max_length = B.phi_ww(), "ab", 5
    monolithic = list(
        defines_language_members(
            sentence, alphabet, words_up_to(alphabet, max_length)
        )
    )
    parts = [
        list(
            defines_language_members_shard(sentence, alphabet, max_length, shard)
        )
        for shard in subtree_plan(alphabet, max_length, width)
    ]
    assert merge_shard_rows(parts) == monolithic


def test_members_shard_matches_on_fallback_sentences():
    # phi_fib sits outside the sweep fragment for some alphabets; the
    # shard path must fall back per-word with identical verdicts.
    sentence, alphabet, max_length = B.phi_fib(), "abc", 4
    monolithic = list(
        defines_language_members(
            sentence, alphabet, words_up_to(alphabet, max_length)
        )
    )
    parts = [
        list(
            defines_language_members_shard(sentence, alphabet, max_length, shard)
        )
        for shard in subtree_plan(alphabet, max_length, 3)
    ]
    assert merge_shard_rows(parts) == monolithic


def test_unary_band_shard_matches_monolithic():
    from repro.fc.syntax import And, Exists, Var

    u = Var("u")
    sentence = Exists(u, And(B.phi_whole_word(u), B.phi_w_star(u, "aa")))
    monolithic = list(
        defines_language_members(sentence, "a", words_up_to("a", 8))
    )
    parts = [
        list(defines_language_members_shard(sentence, "a", 8, shard))
        for shard in length_band_plan("a", 8, 3)
    ]
    assert merge_shard_rows(parts) == monolithic


# -- overhead accounting -------------------------------------------------------


def test_duplicated_stem_work_lands_in_overhead_counter():
    """Re-deriving a subtree's stem path must not inflate real counters:
    it is rerouted to ``shard_overhead_ops`` by ``repro.metrics``."""
    sentence, alphabet, max_length = B.phi_ww(), "ab", 5
    plan = subtree_plan(alphabet, max_length, 4)
    non_stem = [shard for shard in plan if not shard["stems"]]
    assert non_stem, "plan has no stem-free shard to measure"
    before = metrics.snapshot()
    list(
        defines_language_members_shard(
            sentence, alphabet, max_length, non_stem[0]
        )
    )
    delta = metrics.diff(before, metrics.snapshot())["solver"]
    assert delta.get("shard_overhead_ops", 0) > 0


def test_overhead_context_reroutes_and_restores():
    before = metrics.snapshot()
    with metrics.shard_overhead():
        metrics.record("consistency_checks")
        metrics.record("shard_overhead_ops")
    metrics.record("consistency_checks")
    with metrics.shard_overhead():
        # The name check comes before the reroute: a typo still fails.
        with pytest.raises(KeyError):
            metrics.record("consistency_chekcs")
    delta = metrics.diff(before, metrics.snapshot())["solver"]
    assert delta.get("consistency_checks") == 1
    assert delta.get("shard_overhead_ops") == 2
