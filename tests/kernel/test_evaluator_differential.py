"""Differential check: the sweep front-ends vs the naive FC evaluator.

``evaluate_naive`` is the executable transcription of the Section 2
satisfaction relation; ``models`` and ``satisfying_assignments`` (the
compiled sweep on a one-word family) must agree with it on every
formula/word/assignment triple.  Sentences come from the same
enumeration pools the experiments use, so the grid covers exactly the
formula shapes the engine evaluates in anger.
"""

import random

import pytest

from repro.fc.enumeration import sentence_pool
from repro.fc.semantics import evaluate_naive, models, satisfying_assignments
from repro.fc.structures import word_structure
from repro.fc.sweep import LanguageSweep
from repro.fc.syntax import (
    And,
    Concat,
    Const,
    Exists,
    Forall,
    Formula,
    Not,
    Var,
    free_variables,
)
from repro.fcreg.constraints import in_regex
from repro.words.factors import factors
from repro.words.generators import words_up_to

ALPHABET = "ab"
SEED = 20260806

X = Var("x")
Y = Var("y")
Z = Var("z")


def test_rank1_pool_agrees_on_all_words_up_to_6():
    sentences = list(sentence_pool(1, ALPHABET, max_atoms=1))
    for word in words_up_to(ALPHABET, 6):
        structure = word_structure(word, ALPHABET)
        for sentence in sentences:
            fast = models(word, sentence, ALPHABET)
            slow = evaluate_naive(structure, sentence, {})
            assert fast == slow, (word, sentence)


def test_rank2_pool_sample_agrees_on_words_up_to_4():
    rng = random.Random(SEED)
    sentences = rng.sample(list(sentence_pool(2, ALPHABET, max_atoms=2)), 150)
    for word in words_up_to(ALPHABET, 4):
        structure = word_structure(word, ALPHABET)
        for sentence in sentences:
            fast = models(word, sentence, ALPHABET)
            slow = evaluate_naive(structure, sentence, {})
            assert fast == slow, (word, sentence)


#: Open formulas whose satisfying-assignment sets are compared in full.
OPEN_FORMULAS = [
    Exists(Y, Concat(X, Y, Y)),  # x is a square
    And(Concat(X, Y, Const("a")), Not(Concat(X, Const("a"), Y))),
    Forall(Y, Not(Concat(Y, X, X))),  # x·x is not a factor
    Exists(Y, Exists(Z, And(Concat(X, Y, Z), Concat(X, Z, Y)))),
]


@pytest.mark.parametrize("formula", OPEN_FORMULAS)
@pytest.mark.parametrize("word", ["", "ab", "aabba", "ababab"])
def test_open_formulas_agree_pointwise_and_setwise(word, formula):
    structure = word_structure(word, ALPHABET)
    universe = sorted(factors(word), key=lambda f: (len(f), f))
    variables = sorted(free_variables(formula), key=lambda v: v.name)
    expected = set()

    def sweep(index, assignment):
        if index == len(variables):
            fast = models(word, formula, ALPHABET, dict(assignment))
            slow = evaluate_naive(structure, formula, dict(assignment))
            assert fast == slow, (word, formula, assignment)
            if slow:
                expected.add(frozenset(assignment.items()))
            return
        for factor in universe:
            assignment[variables[index]] = factor
            sweep(index + 1, assignment)
        del assignment[variables[index]]

    sweep(0, {})
    produced = {
        frozenset(a.items())
        for a in satisfying_assignments(word, formula, ALPHABET)
    }
    assert produced == expected


def test_assignment_dict_is_never_mutated():
    assignment = {X: "ab"}
    models("abab", Exists(Y, Concat(Y, X, X)), ALPHABET, assignment)
    assert assignment == {X: "ab"}


def test_quantifier_shadowing_restores_outer_binding():
    # ∃x.(x ≐ ε·ε) rebinds x; the outer x ↦ "ab" must be back in force for
    # the right conjunct.
    structure = word_structure("ab", ALPHABET)
    formula = And(
        Exists(X, Concat(X, Const(""), Const(""))),
        Concat(X, Const("a"), Const("b")),
    )
    assert models("ab", formula, ALPHABET, {X: "ab"}) is True
    assert evaluate_naive(structure, formula, {X: "ab"}) is True


def test_extension_atoms_evaluate_and_bypass_the_cache():
    # FC[REG] atoms go through the _evaluate hook and must match the
    # naive path.
    structure = word_structure("aabab", ALPHABET)
    constraint = Exists(X, And(in_regex(X, "a(a|b)*"), Concat(X, Y, Y)))
    for value in sorted(factors("aabab")):
        fast = models("aabab", constraint, ALPHABET, {Y: value})
        slow = evaluate_naive(structure, constraint, {Y: value})
        assert fast == slow, value
    # A Const-subject constraint reads the word (⊥ when 'b' is absent),
    # so one program evaluating a whole family must not serve it from a
    # family-wide memo: words with and without 'b' disagree on it.
    sentence = Exists(X, And(in_regex("b", "b"), in_regex(X, "a*")))
    sweep = LanguageSweep(ALPHABET)
    program = sweep.compile(sentence)
    verdicts = set()
    for word in words_up_to(ALPHABET, 3):
        fast = program.evaluate(sweep.family.table(word))
        slow = evaluate_naive(word_structure(word, ALPHABET), sentence, {})
        assert fast == slow, word
        verdicts.add(fast)
    assert verdicts == {True, False}


def test_projection_cache_is_shared_across_outer_bindings():
    # The inner sentence ∃y.probe(y) has no free variables, so under the
    # outer scan over x it must be computed once and then served from the
    # quantifier's projection cache: the probe (a non-pure atom, never
    # memoised itself) runs once per factor, not once per (x, y) pair.
    calls = []

    class Probe(Formula):
        def _evaluate(self, structure, assignment):
            calls.append(assignment[Y])
            return False

        def _quantifier_rank(self):
            return 0

        def _atom_terms(self):
            yield Y

    word = "abba"
    inner = Exists(Y, Probe())
    formula = Exists(X, And(Concat(X, X, Const("")), inner))
    assert models(word, formula, ALPHABET) is False
    assert sorted(calls) == sorted(factors(word))
    assert evaluate_naive(word_structure(word, ALPHABET), formula, {}) is False
