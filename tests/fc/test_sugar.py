"""Tests for concatenation sugar: eq_concat splitting, chains, desugaring."""

import pytest
from hypothesis import given, strategies as st

from repro.fc.semantics import satisfying_assignments
from repro.fc.sugar import (
    FreshVariables,
    chain,
    desugar_chains,
    eq_concat,
    eq_terms,
    split_word,
)
from repro.fc.syntax import (
    Concat,
    ConcatChain,
    Const,
    EPSILON,
    Exists,
    Var,
    free_variables,
    quantifier_rank,
)

x, y, z = Var("x"), Var("y"), Var("z")


class TestFreshVariables:
    def test_distinct_within_instance(self):
        fresh = FreshVariables()
        assert fresh.fresh() != fresh.fresh()

    def test_distinct_across_instances(self):
        a, b = FreshVariables("t"), FreshVariables("t")
        assert a.fresh() != b.fresh()


class TestSplitWord:
    def test_empty(self):
        assert split_word("") == [EPSILON]

    def test_letters(self):
        assert split_word("ab") == [Const("a"), Const("b")]


class TestEqConcat:
    def test_binary_stays_binary(self):
        phi = eq_concat(x, [y, z])
        assert phi == Concat(x, y, z)

    def test_single_term(self):
        phi = eq_concat(x, [y])
        assert phi == Concat(x, y, EPSILON)

    def test_long_chain_introduces_links(self):
        phi = eq_concat(x, [y, z, y])
        assert isinstance(phi, Exists)
        assert free_variables(phi) == {x, y, z}
        assert quantifier_rank(phi) == 1

    def test_word_splitting(self):
        phi = eq_concat(x, ["ab", y])
        # a, b, y — three terms, one link.
        assert quantifier_rank(phi) == 1

    @given(st.text(alphabet="ab", min_size=1, max_size=5))
    def test_semantics_of_word_equality(self, w):
        phi = eq_concat(x, [w])
        host = "a" + w + "b"
        results = {s[x] for s in satisfying_assignments(host, phi, "ab")}
        assert results == {w}

    def test_empty_rhs_rejected(self):
        with pytest.raises(ValueError):
            eq_concat(x, [])

    def test_long_lhs_rejected(self):
        with pytest.raises(ValueError):
            eq_concat("ab", [x])

    def test_eq_terms(self):
        phi = eq_terms(x, y)
        assert phi == Concat(x, y, EPSILON)


class TestChain:
    def test_chain_node_for_three_plus(self):
        phi = chain(x, [y, "b", y])
        assert isinstance(phi, ConcatChain)

    def test_chain_binary_shortcut(self):
        assert chain(x, [y, z]) == Concat(x, y, z)

    @given(
        st.text(alphabet="ab", min_size=1, max_size=3),
        st.text(alphabet="ab", min_size=1, max_size=3),
        st.text(alphabet="ab", max_size=3),
    )
    def test_chain_matches_desugared(self, u, v, w):
        """Native chains and their binary splitting are semantically equal."""
        phi_chain = chain(x, [u, y, v])
        phi_binary = desugar_chains(phi_chain)
        host = u + "ab" + v + w
        # ⟦φ⟧(host) over every (x, y) pair of factors, in scan order.
        assert list(satisfying_assignments(host, phi_chain, "ab")) == list(
            satisfying_assignments(host, phi_binary, "ab")
        )

    def test_desugar_leaves_plain_nodes(self):
        phi = Exists(x, Concat(x, y, z))
        assert desugar_chains(phi) == phi

    def test_desugar_rank_increase(self):
        phi = chain(x, [y, "b", y, "b"])
        assert quantifier_rank(phi) == 0
        assert quantifier_rank(desugar_chains(phi)) >= 1
