"""Differential check: kernel-backed FO[EQ] solver vs the naive oracle.

The interval-id solver in :mod:`repro.foeq.games` must agree with the
preserved string-based implementation (:mod:`repro.foeq.naive`) on every
verdict — full small grids, both signatures (with and without EQ), and
the E20 witness pairs — and the compiled position evaluator must agree
with the reference interpreter ``p_evaluate``, on the builders' sentences
and on hypothesis-generated formulas over all nine node classes.
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.foeq.builders import phi_has_factor, phi_sorted, phi_square
from repro.foeq.compiled import position_program
from repro.foeq.games import (
    PositionGameSolver,
    foeq_distinguishing_rank,
    foeq_equiv_k,
    folt_distinguishing_rank,
    folt_equiv_k,
)
from repro.foeq.naive import NaivePositionGameSolver, position_partial_iso
from repro.foeq.semantics import p_evaluate
from repro.foeq.syntax import (
    FactorEq,
    Less,
    PAnd,
    PExists,
    PForall,
    PImplies,
    PNot,
    POr,
    PVar,
    SymbolAt,
    p_free_variables,
)
from repro.words.generators import words_up_to

SEED = 20260806
WORDS4 = list(words_up_to("ab", 4))


@pytest.mark.parametrize("with_eq", [True, False])
def test_full_grid_up_to_length_4(with_eq):
    for w, v in itertools.product(WORDS4, repeat=2):
        fast = PositionGameSolver(w, v, with_eq=with_eq)
        slow = NaivePositionGameSolver(w, v, with_eq=with_eq)
        for k in (1, 2, 3):
            assert fast.duplicator_wins(k) == slow.duplicator_wins(k), (
                w,
                v,
                with_eq,
                k,
            )


@pytest.mark.parametrize("with_eq", [True, False])
def test_seeded_longer_pairs(with_eq):
    rng = random.Random(SEED)
    for _ in range(15):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(5, 7)))
        v = "".join(rng.choice("ab") for _ in range(rng.randint(5, 7)))
        fast = PositionGameSolver(w, v, with_eq=with_eq)
        slow = NaivePositionGameSolver(w, v, with_eq=with_eq)
        for k in (1, 2):
            assert fast.duplicator_wins(k) == slow.duplicator_wins(k), (w, v, k)


def test_e20_witness_pairs():
    w, v = "a" * 12 + "b" * 12, "a" * 14 + "b" * 12
    assert foeq_equiv_k(w, v, 2)
    assert foeq_distinguishing_rank("aaaa", "aaa", 4) == 3
    assert foeq_distinguishing_rank("ab", "ba", 3) == 2
    sq, nonsq = "ab" * 4, "ab" * 5
    assert folt_equiv_k(sq, nonsq, 2)
    assert not foeq_equiv_k(sq, nonsq, 3)
    assert folt_distinguishing_rank("aa", "ab", 2) is not None


def test_consistent_matches_specification():
    # The public consistent() delegates to position_partial_iso; the
    # incremental _extend must induce exactly the same consistent sets.
    solver = PositionGameSolver("abab", "abba")
    for p1, q1, p2, q2 in itertools.product(range(1, 5), repeat=4):
        pairs = frozenset(((p1, q1), (p2, q2)))
        spec = solver.consistent(pairs)
        ordered = sorted(pairs)
        state = solver._extend((), ordered[0])
        incremental = state is not None
        if incremental and len(ordered) > 1:
            incremental = solver._extend(state, ordered[1]) is not None
        assert incremental == spec, pairs


def test_position_partial_iso_reexported():
    assert not position_partial_iso("ab", "ba", (1,), (1,))
    assert position_partial_iso("ab", "ba", (1,), (2,))


def test_solver_stats_shape_matches_naive():
    fast = PositionGameSolver("aabba", "abbaa")
    slow = NaivePositionGameSolver("aabba", "abbaa")
    fast.duplicator_wins(2)
    slow.duplicator_wins(2)
    fast_stats = fast.solver_stats()
    slow_stats = slow.solver_stats()
    assert set(fast_stats) == set(slow_stats)
    assert fast_stats["positions_explored"] > 0
    assert fast_stats["consistency_checks"] > 0
    assert fast_stats["memo_size"] == fast.memo_size()
    assert fast_stats["universe_a"] == 5
    # The incremental solver must not explore more positions than the
    # naive one (same search order, same memo partitioning).
    assert fast_stats["positions_explored"] <= slow_stats["positions_explored"]


def test_compiled_evaluator_matches_reference():
    for sentence in (phi_square(), phi_sorted(), phi_has_factor("ab")):
        program = position_program(sentence)
        for w in words_up_to("ab", 6):
            assert program.evaluate(w, {}) == p_evaluate(w, sentence, {}), (
                sentence,
                w,
            )


def test_compiled_evaluator_open_formulas():
    x1, y1, x2, y2 = PVar("x1"), PVar("y1"), PVar("x2"), PVar("y2")
    eq = FactorEq(x1, y1, x2, y2)
    program = position_program(eq)
    word = "abab"
    for values in itertools.product(range(1, 5), repeat=4):
        sigma = dict(zip((x1, y1, x2, y2), values))
        assert program.evaluate(word, sigma) == p_evaluate(word, eq, dict(sigma))


X, Y, Z = PVar("x"), PVar("y"), PVar("z")


def p_atoms():
    var = st.sampled_from((X, Y, Z))
    return st.one_of(
        st.tuples(var, var).map(lambda t: Less(*t)),
        st.tuples(st.sampled_from("ab"), var).map(lambda t: SymbolAt(*t)),
        st.tuples(var, var, var, var).map(lambda t: FactorEq(*t)),
    )


def p_formulas():
    def extend(children):
        var = st.sampled_from((X, Y, Z))
        pairs = st.tuples(children, children)
        return st.one_of(
            children.map(PNot),
            pairs.map(lambda t: PAnd(*t)),
            pairs.map(lambda t: POr(*t)),
            pairs.map(lambda t: PImplies(*t)),
            st.tuples(var, children).map(lambda t: PExists(*t)),
            st.tuples(var, children).map(lambda t: PForall(*t)),
        )

    return st.recursive(p_atoms(), extend, max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(p_formulas())
# x free outside and re-bound twice: under ∃x, and under ∀x inside it.
@example(
    SymbolAt("a", X)
    & PExists(X, Less(Y, X) & PForall(X, PImplies(Less(X, Y), SymbolAt("b", X))))
)
# Both intervals malformed under some assignment: never a factor.
@example(FactorEq(Y, X, Y, X) | PExists(Z, FactorEq(Z, X, Y, Z)))
def test_compiled_evaluator_matches_reference_on_random_formulas(phi):
    program = position_program(phi)
    free = sorted(p_free_variables(phi), key=lambda v: v.name)
    # Every {a,b} word of length <= 4 (ε included) under every
    # assignment of the free variables to its positions.
    for w in WORDS4:
        for values in itertools.product(range(1, len(w) + 1), repeat=len(free)):
            sigma = dict(zip(free, values))
            assert program.evaluate(w, sigma) == p_evaluate(w, phi, dict(sigma)), (
                phi,
                w,
                sigma,
            )


def test_position_program_is_one_frozen_object_per_formula():
    program = position_program(phi_square())
    # A rebuilt formula is structurally equal, so the cache hits.
    assert position_program(phi_square()) is program
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.n_slots = 0
