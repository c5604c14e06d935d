"""Unary ≡_k on the kernel: aᵖ ≡_k a^q through ``equiv_k``."""

from hypothesis import given, settings, strategies as st

from repro.ef.equivalence import (
    equiv_k,
    find_equivalent_unary_pair,
    unary_equivalence_classes,
)
from repro.ef.solver import solve_equivalence
from repro.fc.structures import word_structure

small = st.integers(min_value=0, max_value=7)


def unary_equiv(p: int, q: int, k: int) -> bool:
    return equiv_k("a" * p, "a" * q, k, alphabet="a")


class TestCrossValidation:
    """The kernel must agree with the naive oracle on unary words."""

    @settings(max_examples=60, deadline=None)
    @given(small, small, st.integers(0, 2))
    def test_agrees_with_generic_solver(self, p, q, k):
        oracle = solve_equivalence(
            word_structure("a" * p, "a"), word_structure("a" * q, "a"), k
        )
        assert unary_equiv(p, q, k) == oracle

    def test_known_equivalent_pair(self):
        assert unary_equiv(12, 14, 2)
        assert unary_equiv(3, 4, 1)
        assert unary_equiv(1, 2, 0)

    def test_known_inequivalent(self):
        assert not unary_equiv(12, 13, 2)
        assert not unary_equiv(3, 4, 2)
        assert not unary_equiv(11, 13, 2)


class TestBasicProperties:
    @given(small, st.integers(0, 3))
    def test_reflexive(self, p, k):
        assert unary_equiv(p, p, k)

    @given(small, small, st.integers(0, 2))
    def test_symmetric(self, p, q, k):
        assert unary_equiv(p, q, k) == unary_equiv(q, p, k)

    @given(small, small)
    def test_monotone_in_k(self, p, q):
        results = [unary_equiv(p, q, k) for k in (0, 1, 2)]
        for earlier, later in zip(results, results[1:]):
            if later:
                assert earlier

    def test_empty_vs_nonempty_rank_zero(self):
        # Constants separate a^0 from a^n (n ≥ 1): the letter a is ⊥ in
        # the empty word's structure.
        assert not unary_equiv(0, 1, 0)
        assert not unary_equiv(0, 5, 0)


class TestMinimalPairs:
    """Lemma 3.6's witness table (the E03 experiment rows)."""

    def test_rank_0(self):
        assert find_equivalent_unary_pair(0, max_exponent=8) == (1, 2)

    def test_rank_1(self):
        assert find_equivalent_unary_pair(1, max_exponent=8) == (3, 4)

    def test_rank_2(self):
        assert find_equivalent_unary_pair(2, max_exponent=16) == (12, 14)

    def test_none_when_bound_too_small(self):
        assert find_equivalent_unary_pair(2, max_exponent=8) is None


class TestEquivalenceClasses:
    def test_rank_1_classes(self):
        # ≡₁ over {0..6}: 0,1,2 singletons, then everything ≥ 3 merges.
        classes = unary_equivalence_classes(1, 6)
        assert [0] in classes
        assert [1] in classes
        assert [2] in classes
        assert [3, 4, 5, 6] in classes

    def test_rank_2_parity_from_threshold(self):
        # ≡₂ classes become parity-periodic from 12: 12 ~ 14 ~ 16.
        classes = unary_equivalence_classes(2, 16)
        merged = next(cls for cls in classes if 12 in cls)
        assert {12, 14, 16} <= set(merged)
        assert 13 not in merged

    def test_classes_partition(self):
        classes = unary_equivalence_classes(1, 8)
        flattened = sorted(n for cls in classes for n in cls)
        assert flattened == list(range(9))
