"""Tests for unary-language semi-linearity detection (Lemma 3.6's engine)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.semilinear.linear_sets import LinearSet, SemiLinearSet
from repro.semilinear.unary import (
    detect_eventual_periodicity,
    detect_robust_periodicity,
    is_sample_semilinear,
    lengths_of,
    powers_of_two,
    scaled_powers_of_two,
    semilinear_gap_witness,
    unary_language_of,
)


def _cubic_scan(sample, bound):
    """Reference: every (period, threshold) pair, checked by a full scan."""
    membership = [n in sample for n in range(bound + 1)]
    for period in range(1, bound // 2 + 1):
        for threshold in range(0, bound - 2 * period + 1):
            if all(
                membership[n] == membership[n + period]
                for n in range(threshold, bound - period + 1)
            ):
                return threshold, period
    return None


class TestTranslation:
    def test_lengths(self):
        assert lengths_of(["", "a", "aaa"]) == {0, 1, 3}

    def test_unary_language(self):
        assert unary_language_of({2, 0}) == ["", "aa"]


class TestPeriodicityDetection:
    def test_arithmetic_progression_detected(self):
        sample = frozenset(range(3, 60, 4))
        result = detect_eventual_periodicity(sample, 60)
        assert result is not None
        threshold, period = result
        assert period % 4 == 0 or period == 4

    def test_finite_set_detected(self):
        # A finite set is eventually periodic (eventually all-out).
        assert is_sample_semilinear(frozenset({1, 5, 9}), 60)

    def test_full_set_detected(self):
        assert is_sample_semilinear(frozenset(range(61)), 60)

    def test_powers_of_two_not_detected(self):
        """The heart of Lemma 3.6: {2ⁿ} has no periodic tail."""
        assert not is_sample_semilinear(powers_of_two(256), 256)

    def test_scaled_powers_not_detected(self):
        """Prop 4.9's variant {i·2ⁿ}."""
        assert not is_sample_semilinear(scaled_powers_of_two(3, 384), 384)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), bound=st.integers(min_value=0, max_value=40))
    def test_matches_the_cubic_scan(self, data, bound):
        # Random sets, eventually periodic sets behind a random prefix,
        # and {2ⁿ}, against the period-major threshold scan it replaced.
        kind = data.draw(st.sampled_from(["random", "periodic", "powers"]))
        if kind == "random":
            sample = data.draw(
                st.frozensets(st.integers(min_value=0, max_value=bound + 3))
            )
        elif kind == "periodic":
            prefix = data.draw(st.integers(min_value=0, max_value=bound))
            period = data.draw(st.integers(min_value=1, max_value=8))
            head = data.draw(st.frozensets(st.integers(0, max(prefix - 1, 0))))
            residues = data.draw(st.frozensets(st.integers(0, period - 1)))
            sample = frozenset(n for n in head if n < prefix) | frozenset(
                n for n in range(prefix, bound + 1) if n % period in residues
            )
        else:
            sample = powers_of_two(bound)
        assert detect_eventual_periodicity(sample, bound) == _cubic_scan(
            sample, bound
        )


class TestRobustDetection:
    def test_semilinear_set_survives_doubling(self):
        result = detect_robust_periodicity(lambda n: n % 3 == 1, 60)
        assert result is not None
        threshold, period = result
        assert period % 3 == 0

    def test_powers_fail_at_any_window(self):
        def is_power(n):
            return n >= 1 and (n & (n - 1)) == 0

        for bound in (100, 200, 384):
            assert detect_robust_periodicity(is_power, bound) is None

    def test_finite_set_survives(self):
        # A finite set IS semi-linear; its empty tail doubles fine.
        result = detect_robust_periodicity(lambda n: n in {1, 4, 6}, 40)
        assert result is not None


class TestPowersOfTwo:
    def test_members(self):
        assert powers_of_two(20) == {1, 2, 4, 8, 16}

    def test_scaled(self):
        assert scaled_powers_of_two(3, 30) == {6, 12, 24}

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            scaled_powers_of_two(0, 10)

    def test_gaps_grow(self):
        ordered = sorted(powers_of_two(512))
        gaps = [b - a for a, b in zip(ordered, ordered[1:])]
        assert gaps == sorted(gaps)
        assert len(set(gaps)) == len(gaps)


class TestGapWitness:
    def test_no_semilinear_set_matches_powers(self):
        """Concrete candidates all disagree with {2ⁿ} somewhere."""
        target = powers_of_two(128)
        candidates = [
            SemiLinearSet.from_parts(LinearSet(1, (1,))),     # all n ≥ 1
            SemiLinearSet.arithmetic_progression(0, 2),       # evens
            SemiLinearSet.from_parts(1, 2, 4, 8, 16),          # finite
            SemiLinearSet.from_parts(
                LinearSet(1, (2,)), LinearSet(2, (4,))
            ),
        ]
        for candidate in candidates:
            witness = semilinear_gap_witness(
                candidate, lambda n: n in target, 128
            )
            assert witness is not None

    def test_agreeing_set_has_no_witness(self):
        evens = SemiLinearSet.arithmetic_progression(0, 2)
        witness = semilinear_gap_witness(
            evens, lambda n: n % 2 == 0, 100
        )
        assert witness is None
