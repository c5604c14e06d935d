"""Differential tests: batched relational sweeps vs the naive oracle.

``satisfying_tuples`` (the ``SweepProgram.relation`` bitset scan) must
yield, word for word AND row for row, exactly the rows a naive scan
finds — ``evaluate_naive`` on every tuple of factors, free variables in
sorted-name columns, in nested ``(len, text)`` order — over a pool of
open formulas covering quantifier alternation, negation, regex
constraints, absent-letter constants and per-word (non-pure) atoms.  A
second group checks the ``sweep-relation`` store artifact round-trip:
the hydrated grid is bit-identical to the cold scan.
"""

import itertools
import random

import pytest

from repro import metrics
from repro.fc import builders as B
from repro.fc.builders import chain
from repro.fc.semantics import evaluate_naive, satisfying_tuples
from repro.fc.relations import FCRelation, defines_relation
from repro.fc.structures import word_structure
from repro.fc.sweep import LanguageSweep
from repro.fc.syntax import (
    And,
    Concat,
    Const,
    Exists,
    Forall,
    Not,
    Or,
    Var,
    free_variables,
)
from repro.fcreg.constraints import in_regex
from repro.store import runtime as store_runtime
from repro.store.backends import MemoryBackend
from repro.store.core import ArtifactStore
from repro.words.generators import words_up_to

SEED = 20260809
X, Y, Z, U = Var("x"), Var("y"), Var("z"), Var("u")


def _formula_pool():
    return {
        # x is a square factor.
        "square": Exists(Y, Concat(X, Y, Y)),
        # (x, y) with x·y a factor and y nonempty.
        "concat_pair": And(
            Exists(Z, Concat(Z, X, Y)), Not(Concat(Y, Const(""), Const("")))
        ),
        # x a factor avoiding 'b' via regex (extension atom).
        "regex_only_a": in_regex(X, "a*"),
        # Regex plus structure: x in (ab)* and xx a factor.
        "regex_square": And(in_regex(X, "(ab)*"), Exists(Y, Concat(Y, X, X))),
        # Absent-letter Const head with an assignment-pure disjunct —
        # the regression shape from the sweep differential suite, now
        # with y free: non-domain pool candidates must never surface as
        # relation rows.
        "absent_const_span": Or(
            Concat(Const("a"), Y, Const("")), in_regex(Y, "a")
        ),
        "absent_const_chain": Or(chain(Const("a"), [Y]), in_regex(Y, "a")),
        # Universal inner quantifier: x whose every prefix is also a
        # suffix of x (unary words, ε).
        "all_prefix": Forall(
            U, Or(Not(B.phi_is_prefix(U, X)), B.phi_is_suffix(U, X))
        ),
        # Three free variables, chain sugar.
        "triple_chain": chain(X, [Y, Const("a"), Z]),
    }


def _oracle_rows(formula, alphabet, word, order=None):
    """⟦φ⟧(w) by ``evaluate_naive`` over every tuple of factors: the
    first free variable (by name) outermost, each scanning the factors
    in ``(len, text)`` order; columns in ``order`` (default: by name)."""
    names = tuple(sorted(free_variables(formula), key=lambda v: v.name))
    structure = word_structure(word, alphabet)
    universe = sorted(structure.universe_factors, key=lambda f: (len(f), f))
    rows = []
    for values in itertools.product(universe, repeat=len(names)):
        sigma = dict(zip(names, values))
        if evaluate_naive(structure, formula, dict(sigma)):
            rows.append(tuple(sigma[v] for v in order or names))
    return rows


def _assert_rows_agree(formula, alphabet, words):
    batched = dict(satisfying_tuples(formula, alphabet, words))
    for word in words:
        # Row-for-row: same tuples in the oracle's enumeration order.
        assert batched[word] == _oracle_rows(formula, alphabet, word), word


@pytest.mark.parametrize("name", sorted(_formula_pool()))
def test_full_grid_up_to_length_4(name):
    _assert_rows_agree(_formula_pool()[name], "ab", list(words_up_to("ab", 4)))


@pytest.mark.parametrize("name", ["square", "concat_pair", "regex_square"])
def test_seeded_longer_samples(name):
    rng = random.Random(SEED)
    words = [
        "".join(rng.choice("ab") for _ in range(rng.choice((5, 6))))
        for _ in range(12)
    ]
    _assert_rows_agree(_formula_pool()[name], "ab", words)


def test_sentence_rows_are_unit_or_empty():
    ww = B.phi_ww()
    grid = dict(satisfying_tuples(ww, "ab", list(words_up_to("ab", 4))))
    for word, rows in grid.items():
        member = bool(_oracle_rows(ww, "ab", word) == [()])
        assert rows == ([()] if member else []), word


def test_variables_permutation_projects_columns():
    formula = _formula_pool()["concat_pair"]
    words = list(words_up_to("ab", 3))
    default = dict(satisfying_tuples(formula, "ab", words))
    swapped = dict(
        satisfying_tuples(formula, "ab", words, variables=(Y, X))
    )
    for word in words:
        assert swapped[word] == [(y, x) for x, y in default[word]], word


def test_variables_must_be_a_permutation():
    formula = _formula_pool()["square"]
    with pytest.raises(ValueError):
        list(satisfying_tuples(formula, "ab", ["a"], variables=(X, Y)))


def test_const_subject_regex_compiles_and_agrees_with_oracle():
    # Const-subject constraint: not assignment-pure, so a per-word leaf.
    formula = And(Concat(X, X, X), in_regex("a", "a"))
    _assert_rows_agree(formula, "ab", list(words_up_to("ab", 4)))


def test_open_program_evaluate_raises():
    sweep = LanguageSweep("ab")
    program = sweep.compile(Exists(Y, Concat(X, Y, Y)))
    with pytest.raises(ValueError):
        program.evaluate(sweep.family.table("ab"))


def test_relation_rows_counter_advances():
    before = metrics.snapshot()
    grid = dict(
        satisfying_tuples(
            _formula_pool()["square"], "ab", list(words_up_to("ab", 3))
        )
    )
    delta = metrics.diff(before, metrics.snapshot())["solver"]
    total = sum(len(rows) for rows in grid.values())
    assert total > 0
    assert delta.get("sweep_relation_rows", 0) == total


def test_fc_relation_evaluate_many_matches_oracle():
    formula = Exists(Z, Concat(Z, X, Y))
    relation = FCRelation(formula, (Y, X), "ab")
    words = list(words_up_to("ab", 4))
    batched = dict(relation.evaluate_many(words))
    for word in words:
        expected = frozenset(_oracle_rows(formula, "ab", word, (Y, X)))
        assert batched[word] == expected, word
        assert relation.evaluate(word) == expected, word


def test_defines_relation_routes_through_batch():
    # x = y defines the diagonal relation (word-independent), so the
    # "φ_R defines R" check passes on every sample; the complement
    # predicate fails immediately.
    formula = Concat(X, Y, Const(""))
    relation = FCRelation(formula, (X, Y), "ab")
    words = list(words_up_to("ab", 3))
    assert defines_relation(relation, lambda x, y: x == y, words)
    assert not defines_relation(relation, lambda x, y: x != y, words)


class TestStoreRoundTrip:
    """Cold scan → publish → hydrate must be bit-identical."""

    FORMULA = staticmethod(lambda: Exists(Z, Concat(Z, X, Y)))
    SCOPE = 4

    def _grid(self):
        formula = self.FORMULA()
        return list(
            satisfying_tuples(
                formula, "ab", words_up_to("ab", self.SCOPE), scope=self.SCOPE
            )
        )

    def test_hydrated_grid_is_bit_identical(self):
        store = ArtifactStore(MemoryBackend())
        previous = store_runtime.activate(store)
        try:
            cold = self._grid()  # publishes the sweep-relation artifact
            before = metrics.snapshot()
            hydrated = self._grid()
            delta = metrics.diff(before, metrics.snapshot())["solver"]
            assert delta.get("sweep_relations_hydrated", 0) == len(cold)
            # The hydrated path must not re-run the scan.
            assert delta.get("sweep_relation_rows", 0) == 0
        finally:
            store_runtime.deactivate(previous)
        assert hydrated == cold
        no_store = self._grid()
        assert no_store == cold

    def test_partial_scan_does_not_publish(self):
        store = ArtifactStore(MemoryBackend())
        previous = store_runtime.activate(store)
        try:
            batch = satisfying_tuples(
                self.FORMULA(),
                "ab",
                words_up_to("ab", self.SCOPE),
                scope=self.SCOPE,
            )
            next(batch)  # abandon after one word
            del batch
            before = metrics.snapshot()
            full = self._grid()
            delta = metrics.diff(before, metrics.snapshot())["solver"]
            # Nothing was published by the abandoned scan, so the full
            # scan cannot have hydrated.
            assert delta.get("sweep_relations_hydrated", 0) == 0
            assert full == self._grid() == list(
                satisfying_tuples(
                    self.FORMULA(), "ab", words_up_to("ab", self.SCOPE)
                )
            )
        finally:
            store_runtime.deactivate(previous)
