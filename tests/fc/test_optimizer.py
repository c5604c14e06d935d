"""Soundness of the sweep evaluator's candidate pools.

``models`` (the one-word sweep) must agree with the naive reference
evaluator on *every* formula — the candidate pools may only skip values
that cannot change the quantifier's outcome.  We check this on
randomized formulas (hypothesis-generated ASTs over a small variable
set, so quantifiers rebind free variables) under random free-variable
assignments and on all the paper's concrete formulas, plus direct unit
tests of the compiled pool rules.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fc.semantics import evaluate_naive, models
from repro.fc.structures import word_structure
from repro.fc.sweep import LanguageSweep, _Ctx
from repro.fc.syntax import (
    And,
    Concat,
    ConcatChain,
    Const,
    EPSILON,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Var,
    free_variables,
)
from repro.kernel.bitset import iter_ids

VARS = [Var("v0"), Var("v1"), Var("v2")]
TERMS = VARS + [Const("a"), Const("b"), EPSILON]


def atoms():
    triples = st.tuples(
        st.sampled_from(TERMS), st.sampled_from(TERMS), st.sampled_from(TERMS)
    )
    plain = triples.map(lambda t: Concat(*t))
    chains = st.tuples(
        st.sampled_from(TERMS),
        st.lists(st.sampled_from(TERMS), min_size=1, max_size=4),
    ).map(lambda t: ConcatChain(t[0], tuple(t[1])))
    return st.one_of(plain, chains)


def formulas(depth: int = 3):
    def extend(children):
        unary = children.map(Not)
        binary = st.tuples(children, children).map(
            lambda t: And(*t)
        ) | st.tuples(children, children).map(
            lambda t: Or(*t)
        ) | st.tuples(children, children).map(lambda t: Implies(*t))
        quantified = st.tuples(st.sampled_from(VARS), children).map(
            lambda t: Exists(*t)
        ) | st.tuples(st.sampled_from(VARS), children).map(
            lambda t: Forall(*t)
        )
        return unary | binary | quantified

    return st.recursive(atoms(), extend, max_leaves=6)


words = st.text(alphabet="ab", max_size=5)


def sweep_pool(word, var, formula, target=True, assignment=None):
    """The sweep's compiled candidate pool for the quantifier over
    ``var`` (∃ for ``target`` true, ∀ otherwise) on ``word`` over
    {a, b}, as a set of factors; ``None`` when the scan is unconstrained.
    ``assignment`` gives the other variables' slots their values.
    """
    sweep = LanguageSweep("ab")
    program = sweep.compile((Exists if target else Forall)(var, formula))
    if program.root.pool is None:
        return None
    family = sweep.family
    table = family.table(word)
    ctx = _Ctx(table, program._n_slots, program._quant_count, None)
    for variable, value in (assignment or {}).items():
        ctx.env[program._slot_of[variable]] = family.intern(value)
    mask = program._pool_eval(program.root.pool, ctx) & table.mask
    return {family.strings[gid] for gid in iter_ids(mask)}


class TestOptimizerAgreesWithNaive:
    @settings(max_examples=300, deadline=None)
    @given(formulas(), words, st.data())
    def test_random_formulas(self, phi, w, data):
        structure = word_structure(w, "ab")
        pool = sorted(structure.universe_factors)
        assignment = {}
        for variable in free_variables(phi):
            assignment[variable] = data.draw(st.sampled_from(pool))
        fast = models(w, phi, "ab", assignment)
        slow = evaluate_naive(structure, phi, dict(assignment))
        assert fast == slow, f"sweep diverges on {phi!r} over {w!r}"

    @pytest.mark.parametrize("w", ["", "a", "ab", "aab", "abab", "cacabcabac"])
    def test_paper_formulas(self, w):
        from repro.fc.builders import phi_fib, phi_no_cube, phi_vbv, phi_ww

        alphabet = "abc" if "c" in w else "ab"
        for phi in (phi_ww(), phi_no_cube(), phi_vbv()):
            structure = word_structure(w, alphabet)
            assert models(w, phi, alphabet) == evaluate_naive(
                structure, phi, {}
            )
        if len(w) <= 4:
            structure = word_structure(w, "abc")
            phi = phi_fib()
            assert models(w, phi, "abc") == evaluate_naive(structure, phi, {})


class TestPoolRules:
    def test_determined_head(self):
        x = Var("x")
        atom = Concat(x, Const("a"), Const("b"))
        assert sweep_pool("abab", x, atom) == {"ab"}

    def test_prefix_constraint(self):
        # y bound deeper is unknown: every prefix of k is a candidate.
        x, y, k = Var("x"), Var("y"), Var("k")
        phi = Exists(y, Concat(k, x, y))
        pool = sweep_pool("aab", x, phi, assignment={k: "aab"})
        assert pool == {"", "a", "aa", "aab"}

    def test_or_union(self):
        x = Var("x")
        phi = Or(Concat(x, Const("a"), EPSILON), Concat(x, Const("b"), EPSILON))
        assert sweep_pool("ab", x, phi) == {"a", "b"}

    def test_and_intersection(self):
        x = Var("x")
        phi = And(
            Concat(x, Const("a"), EPSILON), Concat(x, Const("b"), EPSILON)
        )
        assert sweep_pool("ab", x, phi) == set()

    def test_negative_atom_unconstrained(self):
        x = Var("x")
        phi = Concat(x, Const("a"), EPSILON)
        assert sweep_pool("ab", x, phi, target=False) is None

    def test_bound_variables_masked(self):
        # x ≐ b·y with y bound deeper: candidates treat y as unknown,
        # whatever value y's slot holds outside.
        x, y = Var("x"), Var("y")
        phi = Exists(y, Concat(x, Const("b"), y))
        pool = sweep_pool("aba", x, phi, assignment={y: "a"})
        # factors starting with b: b, ba
        assert pool == {"b", "ba"}

    def test_chain_decomposition_pool(self):
        x, y1, y2 = Var("x"), Var("y1"), Var("y2")
        phi = Exists(y2, ConcatChain(x, (y1, Const("b"), Const("b"), y2)))
        pool = sweep_pool("abba", y1, phi, assignment={x: "abba"})
        assert pool == {"a"}

    def test_chain_repeated_variable(self):
        x, y = Var("x"), Var("y")
        atom = ConcatChain(x, (y, y))
        assert sweep_pool("abab", y, atom, assignment={x: "abab"}) == {"ab"}
