"""The FC plan cache: one immutable plan per (formula, alphabet).

A plan is compiled once per process (:func:`repro.fc.sweep.compiled_plan`)
and bound per word family (:class:`repro.fc.sweep.SweepProgram`).  These
tests pin the split: family-independence of the plan, structural cache
hits, uncached compile errors, thread sharing, and the one-pass tables
of the per-word front-ends.
"""

import dataclasses
import sys
import threading

import pytest

from repro.fc.builders import paper_formula, phi_vbv, phi_ww
from repro.fc.parser import parse_fc
from repro.fc.semantics import defines_language_member, evaluate_naive, models
from repro.fc.structures import word_structure
from repro.fc.sweep import LanguageSweep, SweepProgram, compiled_plan
from repro.fc.syntax import (
    EPSILON,
    And,
    Concat,
    Const,
    Exists,
    Not,
    Var,
)
from repro.kernel.sweep import SweepFamily
from repro.words.generators import words_up_to

x, y, z = Var("x"), Var("y"), Var("z")
WORDS = list(words_up_to("ab", 5))


def _texts(program, rows):
    strings = program.family.strings
    return [tuple(strings[gid] for gid in row) for row in rows]


def test_one_plan_on_two_numberings_agrees():
    # An open formula with a quantifier, a constant and a masked pool.
    phi = And(
        Concat(x, y, y),
        Exists(z, And(Concat(x, z, Const("a")), Not(Concat(z, EPSILON, EPSILON)))),
    )
    plan = compiled_plan(phi, "ab")
    grown = SweepFamily(("a", "b"))
    for word in WORDS:
        grown.table(word)
    hydrated = SweepFamily(("a", "b"))
    hydrated.intern("bbbbbbbb")  # shift every later gid
    for word in reversed(WORDS):
        hydrated.hydrate(word, grown.export(word))
    assert grown.id_of["ab"] != hydrated.id_of["ab"]
    on_grown = SweepProgram(plan, grown)
    on_hydrated = SweepProgram(plan, hydrated)
    sentence = compiled_plan(phi_vbv(), "ab")
    for word in WORDS:
        assert _texts(on_grown, on_grown.relation(grown.table(word))) == _texts(
            on_hydrated, on_hydrated.relation(hydrated.table(word))
        ), word
        assert SweepProgram(sentence, grown).evaluate(
            grown.table(word)
        ) == SweepProgram(sentence, hydrated).evaluate(hydrated.table(word))


def test_structurally_equal_formulas_hit_the_cache():
    first, alphabet = paper_formula("fib")
    plan = compiled_plan(first, alphabet)
    second, _ = paper_formula("fib")
    assert second is not first
    hits = compiled_plan.cache_info().hits
    assert compiled_plan(second, alphabet) is plan
    assert compiled_plan.cache_info().hits == hits + 1
    text = "E x: E y: (x = y.y)"
    parsed = compiled_plan(parse_fc(text, "ab"), "ab")
    hits = compiled_plan.cache_info().hits
    assert compiled_plan(parse_fc(text, "ab"), "ab") is parsed
    assert compiled_plan.cache_info().hits == hits + 1
    # A binding per family, one plan for all of them.
    assert LanguageSweep(alphabet).compile(second).plan is plan


def test_constant_outside_alphabet_raises_on_every_call():
    phi = Exists(x, Not(Concat(x, Const("b"), EPSILON)))
    size = compiled_plan.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="is not a constant of"):
            LanguageSweep("a").compile(phi)
        with pytest.raises(ValueError, match="is not a constant of"):
            models("aa", phi, "a")
    assert compiled_plan.cache_info().currsize == size


def test_threads_share_one_plan():
    phi = phi_ww()
    words = list(words_up_to("ab", 8))
    serial = {word: defines_language_member(word, phi, "ab") for word in words}
    plan = compiled_plan(phi, "ab")
    fields = {field.name: getattr(plan, field.name) for field in dataclasses.fields(plan)}
    results: dict = {}
    errors: list = []

    def worker(chunk):
        try:
            for word in chunk:
                results[word] = defines_language_member(word, phi, "ab")
        except BaseException as error:  # noqa: BLE001 — reported below
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(words[i::8],)) for i in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == serial
    assert compiled_plan(phi, "ab") is plan
    assert all(getattr(plan, name) is value for name, value in fields.items())
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.root = None


def test_one_pass_tables_match_prefix_tree_tables():
    grown = SweepFamily(("a", "b"))
    for word in WORDS:
        single = SweepFamily(("a", "b"))
        one_pass = single.word_table(word)
        extended = grown.table(word)
        assert [single.strings[g] for g in one_pass.universe] == [
            grown.strings[g] for g in extended.universe
        ], word
        assert one_pass.members == frozenset(one_pass.universe)
        assert one_pass.mask == sum(1 << g for g in one_pass.universe)
        assert single.strings[one_pass.gid] == word


def test_empty_word_one_pass_table_holds_epsilon():
    family = SweepFamily(("a", "b"))
    table = family.word_table("")
    assert table.universe == (family.epsilon_id,)
    assert table.mask == 1 << family.epsilon_id
    structure = word_structure("", "ab")
    for phi in (phi_ww(), phi_vbv(), Exists(x, Concat(x, x, x))):
        assert models("", phi, "ab") == evaluate_naive(structure, phi, {})
