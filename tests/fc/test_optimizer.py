"""Soundness of the sweep evaluator's candidate pools.

``models`` (the one-word sweep) must agree with the naive reference
evaluator on *every* formula — the candidate pools may only skip values
that cannot change the quantifier's outcome.  We check this on
randomized formulas (hypothesis-generated ASTs over a small variable
set, so quantifiers rebind free variables) under random free-variable
assignments and on all the paper's concrete formulas, plus direct unit
tests of the compiled pool rules.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.fc.semantics import evaluate_naive, models
from repro.fc.structures import word_structure
from repro.fc.sweep import LanguageSweep, SweepProgram, _Compiler, _Ctx
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
from repro.fcreg.constraints import RegularConstraint, in_regex
from repro.kernel.bitset import from_ids, iter_ids
from repro.kernel.sweep import SweepFamily
from repro.words.factors import factors
from repro.words.generators import words_up_to

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
    compiler = _Compiler("ab")
    plan = compiler.plan((Exists if target else Forall)(var, formula))
    # The quantifier's pool, compiled again on the plan's slots.
    pool = compiler._pool(formula, var, target, frozenset())
    if pool is None:
        return None
    family = SweepFamily(("a", "b"))
    table = family.table(word)
    ctx = _Ctx(SweepProgram(plan, family), table)
    for variable, value in (assignment or {}).items():
        ctx.env[compiler.slot_of[variable]] = family.intern(value)
    mask = pool(ctx) & table.mask
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

    def test_chain_head_between_known_runs(self):
        # x ≐ a·b·y·a with y bound deeper: x begins with ab and ends with a.
        x, y = Var("x"), Var("y")
        phi = Exists(y, ConcatChain(x, (Const("a"), Const("b"), y, Const("a"))))
        word = "abaaba"
        expected = {
            f for f in factors(word) if f.startswith("ab") and f.endswith("a")
        }
        assert expected == {"aba", "abaa", "abaaba"}
        assert sweep_pool(word, x, phi) == expected

    def test_chain_head_leading_run_only(self):
        x, y = Var("x"), Var("y")
        phi = Exists(y, ConcatChain(x, (Const("a"), Const("b"), y)))
        assert sweep_pool("abaaba", x, phi) == {
            "ab", "aba", "abaa", "abaab", "abaaba",
        }

    def test_chain_head_trailing_run_only(self):
        x, y = Var("x"), Var("y")
        phi = Exists(y, ConcatChain(x, (y, Const("b"), Const("a"))))
        assert sweep_pool("abaaba", x, phi) == {
            "ba", "aba", "aaba", "baaba", "abaaba",
        }

    def test_chain_head_outer_bound_run(self):
        # The outer-bound k is a known part: with k = a the leading run is
        # "a", intersected with the trailing run "ba".
        x, y, k = Var("x"), Var("y"), Var("k")
        phi = Exists(y, ConcatChain(x, (k, y, Const("b"), Const("a"))))
        pool = sweep_pool("abaaba", x, phi, assignment={k: "a"})
        assert pool == {"aba", "aaba", "abaaba"}

    def test_chain_head_every_part_masked(self):
        x, y, z = Var("x"), Var("y"), Var("z")
        phi = Exists(y, Exists(z, ConcatChain(x, (y, z, y))))
        assert sweep_pool("abab", x, phi) is None

    def test_chain_head_run_absent_from_the_word(self):
        # b is ⊥ in "aaa": the run "ab" occurs nowhere, and the atom is
        # false for every x.
        x, y = Var("x"), Var("y")
        phi = Exists(y, ConcatChain(x, (Const("a"), Const("b"), y)))
        assert sweep_pool("aaa", x, phi) == set()

    def test_concat_head_known_suffix(self):
        x, y = Var("x"), Var("y")
        phi = Exists(y, Concat(x, y, Const("b")))
        assert sweep_pool("abab", x, phi) == {"b", "ab", "bab", "abab"}


X, K, Y = Var("x"), Var("k"), Var("y")
#: Parts of a head atom ``x ≐ p₁⋯p_n``: constants, ε, the outer-bound
#: k, the deeper-bound y and x itself.
HEAD_PARTS = [Const("a"), Const("b"), EPSILON, K, Y, X]


def head_atoms():
    def build(parts):
        if len(parts) == 2:
            return Concat(X, *parts)
        return ConcatChain(X, tuple(parts))

    return st.lists(st.sampled_from(HEAD_PARTS), min_size=2, max_size=5).map(
        build
    )


class TestChainHeadPools:
    @settings(max_examples=300, deadline=None)
    @given(
        head_atoms(),
        st.sampled_from([Exists, Forall]),
        st.sampled_from([Exists, Forall]),
        st.booleans(),
        st.text(alphabet="ab", max_size=6),
        st.data(),
    )
    def test_quantified_heads_agree_with_naive(
        self, atom, outer, inner, negate, w, data
    ):
        body = inner(Y, atom)
        phi = outer(X, Not(body) if negate else body)
        assignment = {}
        if K in free_variables(phi):
            assignment[K] = data.draw(st.sampled_from(sorted(factors(w))))
        structure = word_structure(w, "ab")
        assert models(w, phi, "ab", assignment) == evaluate_naive(
            structure, phi, dict(assignment)
        ), f"sweep diverges on {phi!r} over {w!r}"

    @settings(max_examples=300, deadline=None)
    @given(head_atoms(), st.text(alphabet="ab", max_size=6), st.data())
    def test_pool_holds_every_true_value(self, atom, w, data):
        phi = Exists(Y, atom)
        structure = word_structure(w, "ab")
        facs = sorted(factors(w))
        assignment = {}
        if K in free_variables(phi):
            assignment[K] = data.draw(st.sampled_from(facs))
        pool = sweep_pool(w, X, phi, assignment=assignment)
        if pool is None:
            return
        for value in facs:
            if evaluate_naive(structure, phi, {**assignment, X: value}):
                assert value in pool, (atom, w, assignment, value)


class TestFilterMasks:
    def test_each_id_is_decided_once_per_family(self, monkeypatch):
        x = Var("x")
        atom = in_regex(x, "(a|b)*b")
        # The oracle's verdicts, taken before the atom is instrumented.
        accepts = {
            w
            for w in words_up_to("ab", 6)
            if evaluate_naive(word_structure(w, "ab"), atom, {x: w})
        }
        calls = Counter()
        evaluate = RegularConstraint._evaluate

        def counting(self, structure, assignment):
            calls[assignment[x]] += 1
            return evaluate(self, structure, assignment)

        monkeypatch.setattr(RegularConstraint, "_evaluate", counting)
        compiler = _Compiler("ab")
        plan = compiler.plan(Exists(x, atom))
        spec = compiler._pool_expr(atom, x, True, frozenset())
        family = SweepFamily(("a", "b"))
        program = SweepProgram(plan, family)

        def accepted(mask):
            return {g for g in iter_ids(mask) if family.strings[g] in accepts}

        for word in words_up_to("ab", 5):
            table = family.table(word)
            ctx = _Ctx(program, table)
            got = program._filtered(spec, None, ctx)
            assert set(iter_ids(got)) == accepted(table.mask), word
            # A pool mixing decided ids with strings no factor of the word.
            pool = from_ids(
                family.intern(word + tail) for tail in ("", "a", "b")
            )
            got = program._filtered(spec, pool, ctx)
            assert set(iter_ids(got)) == accepted(pool), word
        assert set(calls) == set(words_up_to("ab", 6))
        assert set(calls.values()) == {1}

    def test_filtered_sentences_agree_with_naive(self):
        x, y = Var("x"), Var("y")
        phi = Exists(
            x, And(in_regex(x, "(a|b)*b"), Exists(y, Concat(x, Const("a"), y)))
        )
        program = LanguageSweep("ab").compile(phi)
        for word in words_up_to("ab", 5):
            table = program.family.table(word)
            assert program.evaluate(table) == evaluate_naive(
                word_structure(word, "ab"), phi, {}
            ), word
