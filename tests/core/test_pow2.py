"""Tests for the Lemma 3.6 witness machinery."""

import pytest

from repro.core.pow2 import (
    KNOWN_MINIMAL_PAIRS,
    Pow2Witness,
    pow2_semilinearity_evidence,
    pow2_witness,
)
from repro.ef.equivalence import equiv_k


class TestWitnessTable:
    @pytest.mark.parametrize("k", sorted(KNOWN_MINIMAL_PAIRS))
    def test_table_entries_verified(self, k):
        witness = pow2_witness(k, verify=True)
        assert witness.p < witness.q
        assert equiv_k(*witness.words(), k, alphabet="a")

    @pytest.mark.parametrize("k", sorted(KNOWN_MINIMAL_PAIRS))
    def test_table_entries_are_minimal(self, k):
        p, q = KNOWN_MINIMAL_PAIRS[k]
        # No lexicographically smaller pair is equivalent.
        for pp in range(p + 1):
            for qq in range(pp + 1, (q if pp == p else q + 1)):
                assert not equiv_k("a" * pp, "a" * qq, k, "a"), (pp, qq, k)

    def test_words_helper(self):
        witness = Pow2Witness(1, 3, 4)
        assert witness.words() == ("aaa", "aaaa")

    def test_unknown_rank_searches(self):
        # Rank 3 has no table entry and no pair ≤ 8.
        with pytest.raises(LookupError):
            pow2_witness(3, max_exponent=8)


class TestSemilinearityEvidence:
    def test_evidence_shape(self):
        evidence = pow2_semilinearity_evidence(bound=256)
        assert evidence["eventually_periodic"] is None
        assert evidence["gaps_strictly_increasing"]
        assert evidence["members"][0] == 1
        assert all(
            later == 2 * earlier
            for earlier, later in zip(
                evidence["members"], evidence["members"][1:]
            )
        )
