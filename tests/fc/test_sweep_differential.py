"""Differential check: batched sweep evaluation vs the naive oracle.

``defines_language_members`` (the repro.fc.sweep evaluator) must return
exactly what ``evaluate_naive`` decides word by word — over full small
grids for a pool of structurally diverse sentences (quantifier
alternation, negation, chains, regex constraints, oracle atoms, the
ψ-reductions) and over seeded longer samples.  Extension atoms that are
not assignment-pure compile to per-word leaves and agree too.
"""

import random

import pytest

from repro.core.relations import PSI_REDUCTIONS, oracle_for
from repro.fc import builders as B
from repro.fc.builders import chain, exists_many
from repro.fc.semantics import (
    FCLanguage,
    defines_language_members,
    evaluate_naive,
    language_signatures,
    language_slice,
    languages_agree,
)
from repro.fc.structures import word_structure
from repro.fc.sweep import LanguageSweep
from repro.fc.syntax import And, Concat, Const, Exists, Forall, Implies, Not, Or, Var
from repro.fcreg.constraints import in_regex
from repro.words.generators import PAPER_LANGUAGES, words_up_to

SEED = 20260806
X, Y, U = Var("x"), Var("y"), Var("u")


def _sentence_pool():
    return {
        "ww": B.phi_ww(),
        "no_cube": B.phi_no_cube(),
        "vbv": B.phi_vbv("b"),
        "whole_eq": Exists(U, And(B.phi_whole_word(U), B.phi_equals_word(U, "abba"))),
        "w_star": Exists(U, And(B.phi_whole_word(U), B.phi_w_star(U, "ab"))),
        "prefsuf": Exists(
            U,
            And(
                B.phi_whole_word(U),
                Forall(X, Or(B.phi_is_prefix(X, U), B.phi_is_suffix(X, U))),
            ),
        ),
        "k_copies": exists_many(
            [X, Y], And(B.phi_whole_word(X), B.phi_k_copies(X, Y, 3))
        ),
        "regex_pos": Exists(
            X, And(in_regex(X, "(ab)*"), Exists(Y, Concat(Y, X, X)))
        ),
        "regex_neg": Not(
            Exists(
                X,
                And(Not(Concat(X, Const(""), Const(""))), in_regex(X, "a*b")),
            )
        ),
        "chain": exists_many([X, Y], chain(X, [Y, Const("a"), Y])),
        "implies": Forall(
            X,
            Implies(in_regex(X, "aa*"), Exists(Y, Concat(Y, X, Const("a")))),
        ),
        # Absent-letter Const heads: on words without 'a' the span/chain
        # pool generators produce candidates outside the word's factor
        # universe, and the pure regex disjunct would accept them if the
        # quantifier scan failed to restrict to the domain (regression:
        # sweep=True vs per-word=False on "b").
        "absent_const_span_regex": Exists(
            Y, Or(Concat(Const("a"), Y, Const("")), in_regex(Y, "a"))
        ),
        "absent_const_chain_regex": Exists(
            Y, Or(chain(Const("a"), [Y]), in_regex(Y, "a"))
        ),
    }


def _naive_member(word, sentence, alphabet):
    return evaluate_naive(word_structure(word, alphabet), sentence, {})


def _assert_agree(sentence, alphabet, words):
    batched = dict(defines_language_members(sentence, alphabet, words))
    for word in words:
        assert batched[word] == _naive_member(word, sentence, alphabet), word


@pytest.mark.parametrize("name", sorted(_sentence_pool()))
def test_full_grid_up_to_length_6(name):
    sentence = _sentence_pool()[name]
    _assert_agree(sentence, "ab", list(words_up_to("ab", 6)))


@pytest.mark.parametrize("name", sorted(_sentence_pool()))
def test_seeded_length_7_and_8_samples(name):
    rng = random.Random(SEED)
    words = [
        "".join(rng.choice("ab") for _ in range(rng.choice((7, 8))))
        for _ in range(30)
    ]
    _assert_agree(_sentence_pool()[name], "ab", words)


def test_phi_fib_over_abc_grid():
    _assert_agree(B.phi_fib(), "abc", list(words_up_to("abc", 5)))


@pytest.mark.parametrize("relation", ["Add", "Mult", "Rev"])
def test_psi_reductions_agree(relation):
    # The naive oracle is exponential in ψ's quantifier depth (over 100 s
    # for the 32 words of length 5), so it checks the grid up to length
    # 3; the whole length-5 grid is checked against the target language
    # itself, which L(ψ) equals by Theorem 5.8.
    reduction = PSI_REDUCTIONS[relation]
    language = PAPER_LANGUAGES[reduction.target_language]
    psi = reduction.build(oracle_for(relation))
    _assert_agree(psi, language.alphabet, list(words_up_to(language.alphabet, 3)))
    grid = defines_language_members(
        psi, language.alphabet, words_up_to(language.alphabet, 5)
    )
    for word, member in grid:
        assert member == (word in language), word


def test_absent_letter_const_pool_restricted_to_domain():
    # Const terms resolve to *global* gids inside pool generators, so a
    # letter absent from the word yields pool candidates that are not
    # factors of the word.  These must be filtered out before the
    # quantifier scan: quantifiers range over the word's factors, and an
    # assignment-pure disjunct (here the regex) holds at the non-domain
    # value 'a'.
    for sentence in (
        Exists(Y, Or(Concat(Const("a"), Y, Const("")), in_regex(Y, "a"))),
        Exists(Y, Or(chain(Const("a"), [Y]), in_regex(Y, "a"))),
    ):
        sweep = LanguageSweep("ab")
        program = sweep.compile(sentence)
        assert program.evaluate(sweep.family.table("b")) is False
        assert _naive_member("b", sentence, "ab") is False


def test_word_view_constant_raises():
    # _WordView.constant is word-dependent (⊥ when the letter is
    # absent), but pure-atom results are memoised family-wide; an atom
    # consulting it must fail loudly instead of poisoning the memo.
    from repro.fc.sweep import _WordView

    view = _WordView("ab", "ab")
    with pytest.raises(TypeError):
        view.constant("a")


def test_const_subject_regex_compiles_and_agrees_with_oracle():
    # A Const-subject constraint reads the structure (⊥ when the letter
    # is absent), so it is not assignment-pure: it compiles to a per-word
    # leaf, and one family holds words with and without the letter.
    sentence = Exists(X, And(Concat(X, X, X), in_regex("a", "a")))
    _assert_agree(sentence, "ab", list(words_up_to("ab", 4)))


def test_impure_extension_atom_compiles_and_agrees_with_oracle():
    from repro.fc.syntax import Formula

    class StructurePeeking(Formula):
        """Extension atom without ``_assignment_pure``: reads the word."""

        def _evaluate(self, structure, assignment):
            return len(structure.word) % 2 == 0

        def _quantifier_rank(self):
            return 0

        def _atom_terms(self):
            yield X

    sentence = Exists(X, And(Concat(X, Const(""), Const("")), StructurePeeking()))
    _assert_agree(sentence, "ab", list(words_up_to("ab", 4)))


def test_front_ends_route_through_sweep():
    ww = B.phi_ww()
    per_word = frozenset(
        w for w in words_up_to("ab", 6) if _naive_member(w, ww, "ab")
    )
    assert language_slice(ww, "ab", 6) == per_word
    assert languages_agree(ww, ww, "ab", 5)
    assert not languages_agree(ww, B.phi_no_cube(), "ab", 5)
    language = FCLanguage(ww, "ab")
    assert language.slice(6) == per_word
    assert language.agrees_with(per_word, 6)
    assert language.first_disagreement(frozenset(), 6) == ""


def test_language_signatures_match_per_sentence_membership():
    pool = [B.phi_ww(), B.phi_no_cube(), B.phi_vbv("b")]
    words = list(words_up_to("ab", 5))
    for word, signature in language_signatures(pool, "ab", words):
        expected = tuple(
            _naive_member(word, sentence, "ab") for sentence in pool
        )
        assert signature == expected, word


def test_enumeration_order_is_preserved():
    words = list(words_up_to("ab", 3))
    out = [w for w, _ in defines_language_members(B.phi_ww(), "ab", words)]
    assert out == words


def test_open_formula_rejected_eagerly():
    with pytest.raises(ValueError):
        defines_language_members(Concat(X, X, X), "ab", ["a"])
    with pytest.raises(ValueError):
        language_signatures([Concat(X, X, X)], "ab", ["a"])
