"""Tests for FC[REG] regular-constraint atoms."""

import pytest
from hypothesis import given, strategies as st

from repro.fc.semantics import models, satisfying_assignments
from repro.fc.syntax import And, Const, Exists, Var, quantifier_rank
from repro.fcreg.constraints import (
    RegularConstraint,
    in_regex,
    regular_constraints_of,
)

x, y = Var("x"), Var("y")


class TestSemantics:
    def test_basic_membership(self):
        phi = in_regex(x, "(ba)*")
        results = {s[x] for s in satisfying_assignments("ababa", phi, "ab")}
        assert results == {"", "ba", "baba"}

    def test_factor_requirement(self):
        # σ(x) must be a factor of w AND in L(γ): bb ∈ L(b*) but bb ⋢ ab.
        phi = in_regex(x, "b*")
        results = {s[x] for s in satisfying_assignments("ab", phi, "ab")}
        assert results == {"", "b"}

    def test_constant_subject(self):
        phi = in_regex("a", "a*")
        assert models("ab", phi, "ab")
        phi_neg = in_regex("b", "a*")
        assert not models("ab", phi_neg, "ab")

    def test_absent_constant_subject_is_false(self):
        phi = in_regex("b", "(a|b)*")
        assert not models("aa", phi, "ab")  # b^𝔄 = ⊥

    def test_rank_zero(self):
        assert quantifier_rank(in_regex(x, "a*")) == 0
        assert quantifier_rank(Exists(x, in_regex(x, "a*"))) == 1

    def test_combines_with_fc(self):
        from repro.fc.builders import phi_whole_word

        u = Var("u")
        phi = Exists(u, And(phi_whole_word(u), in_regex(u, "a*b*")))
        assert models("aabb", phi, "ab")
        assert not models("aba", phi, "ab")


class TestOptimizerHook:
    def test_candidates_filter_universe(self):
        # A variable-subject constraint filters the sweep's candidates.
        from tests.fc.test_optimizer import sweep_pool

        constraint = in_regex(x, "(ab)*")
        assert sweep_pool("abab", x, constraint) == {"", "ab", "abab"}

    def test_exists_with_constraint_is_fast_and_correct(self):
        phi = Exists(x, in_regex(x, "(ba)+"))
        assert models("aba", phi, "ab")
        assert not models("aab"[:2], phi, "ab")


class TestUtilities:
    def test_collector(self):
        phi = Exists(x, And(in_regex(x, "a*"), in_regex(x, "b*")))
        assert len(regular_constraints_of(phi)) == 2

    def test_substitution(self):
        constraint = in_regex(x, "a*")
        replaced = constraint._substitute({x: y})
        assert replaced.x == y

    def test_long_subject_rejected(self):
        with pytest.raises(ValueError):
            in_regex("ab", "a*")

    def test_repr(self):
        assert "∈̇" in repr(in_regex(x, "a*"))
