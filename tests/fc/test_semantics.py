"""Tests for FC model checking (Section 2 semantics)."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.fc.semantics import (
    FCLanguage,
    defines_language_member,
    defines_language_members,
    evaluate_naive,
    language_slice,
    languages_agree,
    models,
    satisfying_assignments,
    satisfying_tuples,
)
from repro.fc.structures import word_structure
from repro.fc.syntax import (
    And,
    Concat,
    ConcatChain,
    Const,
    EPSILON,
    Exists,
    Forall,
    Not,
    Or,
    Var,
)

x, y, z = Var("x"), Var("y"), Var("z")
A, B = Const("a"), Const("b")


class TestAtomSemantics:
    def test_concat_atom(self):
        phi = Concat(x, y, z)
        assert models("ab", phi, "ab", {x: "ab", y: "a", z: "b"})
        assert not models("ab", phi, "ab", {x: "ab", y: "b", z: "a"})

    def test_constant_atoms(self):
        phi = Concat(x, A, B)
        assert models("ab", phi, "ab", {x: "ab"})
        assert not models("ba", phi, "ab", {x: "ba"})

    def test_absent_constant_makes_atom_false(self):
        phi = Concat(x, A, B)  # b does not occur in "aa"
        assert not models("aa", phi, "ab", {x: "aa"})

    def test_epsilon_shorthand(self):
        phi = Concat(x, EPSILON, EPSILON)
        assert models("ab", phi, "ab", {x: ""})
        assert not models("ab", phi, "ab", {x: "a"})

    def test_chain_atom(self):
        phi = ConcatChain(x, (y, B, y))
        assert models("aba", phi, "ab", {x: "aba", y: "a"})
        assert not models("aba", phi, "ab", {x: "aba", y: "b"})

    def test_unassigned_free_variable_rejected(self):
        with pytest.raises(ValueError):
            models("ab", Concat(x, y, z), "ab", {x: "ab"})

    def test_non_factor_assignment_rejected(self):
        with pytest.raises(ValueError):
            models("ab", Concat(x, x, x), "ab", {x: "bb"})


class TestQuantifiers:
    def test_exists(self):
        # some factor is a square of a non-empty word
        phi = Exists(x, Exists(y, And(Concat(x, y, y), Not(Concat(y, EPSILON, EPSILON)))))
        assert models("aa", phi, "ab")
        assert not models("ab", phi, "ab")

    def test_forall(self):
        # every factor is a prefix (true only for unary-ish words)
        phi = Forall(x, Exists(y, Exists(z, Concat(y, x, z))))
        assert models("aaa", phi, "ab")

    def test_quantifiers_range_over_factors_only(self):
        # ∃x: x ≐ b·b — no bb factor in "bab"
        phi = Exists(x, Concat(x, B, B))
        assert not models("bab", phi, "ab")
        assert models("abb", phi, "ab")

    def test_shadowing(self):
        inner = Exists(x, Concat(x, A, A))  # some factor aa
        phi = Exists(x, And(Concat(x, B, EPSILON), inner))
        assert models("baa", phi, "ab")


class TestSatisfyingAssignments:
    def test_domain_is_free_variables(self):
        phi = Concat(x, y, y)
        for sigma in satisfying_assignments("aa", phi, "ab"):
            assert set(sigma) == {x, y}

    def test_copy_relation(self):
        phi = Concat(x, y, y)
        results = {
            (sigma[x], sigma[y])
            for sigma in satisfying_assignments("aaaa", phi, "ab")
        }
        assert ("aa", "a") in results
        assert ("aaaa", "aa") in results
        assert ("", "") in results
        assert all(u == v + v for u, v in results)

    def test_sentence_has_empty_assignment(self):
        phi = Exists(x, Concat(x, EPSILON, EPSILON))
        assignments = list(satisfying_assignments("a", phi, "ab"))
        assert assignments == [{}]


class TestLanguages:
    def test_language_slice(self):
        # sentence: input contains the factor aa
        phi = Exists(x, Concat(x, A, A))
        slice_ = language_slice(phi, "ab", 3)
        assert "aa" in slice_
        assert "baa" in slice_
        assert "aba" not in slice_

    def test_open_formula_rejected(self):
        with pytest.raises(ValueError):
            defines_language_member("a", Concat(x, x, x), "ab")
        with pytest.raises(ValueError):
            FCLanguage(Concat(x, x, x), "ab")

    def test_languages_agree(self):
        phi = Exists(x, Concat(x, A, A))
        psi = Exists(y, Concat(y, A, A))
        assert languages_agree(phi, psi, "ab", 4)

    def test_languages_disagree(self):
        phi = Exists(x, Concat(x, A, A))
        psi = Exists(x, Concat(x, B, B))
        assert not languages_agree(phi, psi, "ab", 3)

    def test_fclanguage_interface(self):
        lang = FCLanguage(Exists(x, Concat(x, A, A)), "ab", name="has-aa")
        assert "aa" in lang
        assert "ab" not in lang
        oracle = {"aa", "aaa", "aab", "baa", "aaaa"}  # not complete; only shape

        class HasAA:
            def __contains__(self, w):
                return "aa" in w

        assert lang.agrees_with(HasAA(), 4)
        assert lang.first_disagreement(HasAA(), 4) is None


#: 'b' is not a constant of τ_{a}: every front-end must reject a formula
#: using it, as evaluate_naive does, whether or not the word (or a
#: quantifier's candidates) would ever reach the constant.
NOT_B = Exists(x, Not(Concat(x, B, EPSILON)))
X_IS_B = Concat(x, B, EPSILON)
OUT_OF_ALPHABET = {
    "models": lambda: models("aa", NOT_B, "a"),
    "models_assigned": lambda: models("aa", X_IS_B, "a", {x: "a"}),
    "satisfying_assignments": lambda: list(
        satisfying_assignments("aa", X_IS_B, "a")
    ),
    "defines_language_members": lambda: list(
        defines_language_members(NOT_B, "a", ["aa"])
    ),
    "satisfying_tuples": lambda: list(satisfying_tuples(X_IS_B, "a", ["aa"])),
}


@pytest.mark.parametrize("front_end", sorted(OUT_OF_ALPHABET))
def test_constant_outside_alphabet_raises(front_end):
    message = re.escape("'b' is not a constant of τ_{a}")
    with pytest.raises(ValueError, match=message):
        evaluate_naive(word_structure("aa", "a"), NOT_B, {})
    with pytest.raises(ValueError, match=message):
        OUT_OF_ALPHABET[front_end]()
