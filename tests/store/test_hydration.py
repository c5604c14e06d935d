"""Differential tests: store-hydrated artifacts ≡ cold-built artifacts.

The store is an accelerator, never an oracle: everything a hydration
path returns must be bit-identical to what the cold build computes.
Each test builds cold, publishes, drops the in-process caches, rebuilds
through the store, and compares structures field by field.
"""

import os
import subprocess
import sys

import pytest

from repro import metrics
from repro.ef.equivalence import solver_for
from repro.fc.builders import phi_copy, phi_ww
from repro.fc.semantics import satisfying_assignments
from repro.fc.syntax import Concat, Exists, Var, alpha_canonical
from repro.kernel.automorphisms import automorphism_group
from repro.kernel.interning import intern_table
from repro.store import runtime as store_runtime
from repro.store.backends import MemoryBackend
from repro.store.core import ArtifactStore

#: ≥ the interning hydration threshold (``_STORE_MIN_WORD = 12``), a
#: factor universe over the automorphism store threshold (16) but under
#: the enumeration cap (80) so the true group gets persisted.
WORD = "aabbab" * 2
ALPHABET = ("a", "b")


def _clear_kernel_caches() -> None:
    intern_table.cache_clear()
    automorphism_group.cache_clear()
    solver_for.cache_clear()


@pytest.fixture
def active_store():
    store = ArtifactStore(MemoryBackend())
    previous = store_runtime.activate(store)
    _clear_kernel_caches()
    try:
        yield store
    finally:
        store_runtime.deactivate(previous)
        _clear_kernel_caches()


@pytest.fixture
def cold_table():
    # Built with no store in sight.
    previous = store_runtime.activate(None)
    _clear_kernel_caches()
    try:
        yield intern_table(WORD, ALPHABET)
    finally:
        store_runtime.deactivate(previous)
        _clear_kernel_caches()


def _assert_tables_identical(left, right) -> None:
    assert left.word == right.word
    assert left.alphabet == right.alphabet
    assert left.elements == right.elements
    assert left.id_of == right.id_of
    assert left.lengths == right.lengths
    assert left.const_ids == right.const_ids
    assert left.n_factors == right.n_factors


class TestInternTable:
    def test_hydrated_table_is_bit_identical(self, cold_table, active_store):
        populate = intern_table(WORD, ALPHABET)  # cold build + publish
        _assert_tables_identical(populate, cold_table)
        intern_table.cache_clear()
        before = metrics.snapshot()
        hydrated = intern_table(WORD, ALPHABET)
        delta = metrics.diff(before, metrics.snapshot())["store"]
        assert delta.get("store_hits", 0) >= 1, "second build did not hydrate"
        _assert_tables_identical(hydrated, cold_table)

    def test_short_words_never_touch_the_store(self, active_store):
        before = metrics.snapshot()
        intern_table("abab", ALPHABET)
        assert metrics.diff(before, metrics.snapshot())["store"] == {}


class TestAutomorphismGroup:
    def test_hydrated_group_is_identical(self, active_store):
        table = intern_table(WORD, ALPHABET)
        cold = automorphism_group(table)
        automorphism_group.cache_clear()
        before = metrics.snapshot()
        warm = automorphism_group(table)
        delta = metrics.diff(before, metrics.snapshot())["store"]
        assert delta.get("store_hits", 0) >= 1
        assert warm == cold


class TestEfMemo:
    # ≥ _PERSIST_MIN_ENTRIES memo positions at rank 2, still milliseconds.
    PAIR = ("aaaabbbb", "aaaaabbbb")

    def test_memo_round_trips_with_identical_verdicts(self, active_store):
        w, v = self.PAIR
        cold_solver = solver_for(w, v, "ab")
        cold = [cold_solver.duplicator_wins(k) for k in (0, 1, 2)]
        assert cold_solver._core.memo_size() >= 32  # threshold sanity
        solver_for.cache_clear()
        before = metrics.snapshot()
        warm_solver = solver_for(w, v, "ab")
        assert warm_solver._core.memo_size() == cold_solver._core.memo_size()
        delta = metrics.diff(before, metrics.snapshot())["store"]
        assert delta.get("store_hits", 0) >= 1
        assert [warm_solver.duplicator_wins(k) for k in (0, 1, 2)] == cold

    def test_tiny_games_are_not_persisted(self, active_store):
        solver = solver_for("aabb", "aaabb", "ab")
        solver.duplicator_wins(2)
        assert solver._core.memo_size() < 32
        before = metrics.snapshot()
        solver.duplicator_wins(1)
        delta = metrics.diff(before, metrics.snapshot())["store"]
        assert "store_stores" not in delta


class TestFcAssignments:
    WORD = "abab"

    def _rows(self):
        formula = phi_copy(Var("x"), Var("y"))
        return [
            sorted((var.name, value) for var, value in row.items())
            for row in satisfying_assignments(self.WORD, formula, "ab")
        ]

    def test_hydrated_assignments_match_cold_enumeration(self, active_store):
        previous = store_runtime.activate(None)
        try:
            cold = self._rows()
        finally:
            store_runtime.deactivate(previous)
        populated = self._rows()  # enumerates + publishes
        before = metrics.snapshot()
        hydrated = self._rows()
        delta = metrics.diff(before, metrics.snapshot())["store"]
        assert delta.get("store_hits", 0) >= 1
        assert populated == cold
        assert hydrated == cold

    def test_partial_scans_are_never_published(self, active_store):
        formula = phi_copy(Var("x"), Var("y"))
        before = metrics.snapshot()
        next(iter(satisfying_assignments(self.WORD, formula, "ab")))
        delta = metrics.diff(before, metrics.snapshot())["store"]
        assert "store_stores" not in delta


class TestAlphaCanonical:
    def test_binder_names_do_not_change_the_canonical_form(self):
        # The same formula under two gensym epochs (different bound
        # names, identical structure) must fingerprint identically —
        # this is what keeps fc-assignments keys process-independent.
        x, y, free = Var("x"), Var("y"), Var("free")
        base = Exists(x, Exists(y, Concat(free, x, y)))
        renamed = Exists(
            Var("_b9_0"),
            Exists(
                Var("_b9_1"), Concat(free, Var("_b9_0"), Var("_b9_1"))
            ),
        )
        assert repr(alpha_canonical(base)) == repr(alpha_canonical(renamed))

    def test_distinct_structures_stay_distinct(self):
        x, y, free = Var("x"), Var("y"), Var("free")
        left = Exists(x, Exists(y, Concat(free, x, y)))
        right = Exists(x, Exists(y, Concat(free, y, x)))
        assert repr(alpha_canonical(left)) != repr(alpha_canonical(right))

    def test_free_variables_are_preserved(self):
        x, free = Var("x"), Var("free")
        phi = Exists(x, Concat(free, x, x))
        assert "free" in repr(alpha_canonical(phi))
        assert "⟨q0⟩" in repr(alpha_canonical(phi))


def test_dfa_construction_is_hash_seed_independent():
    """The E16 keying regression: the subset construction must not leak
    string-hash iteration order into transition insertion order (which
    bounded decompositions, and therefore store fingerprints, reflect).
    """
    probe = (
        "import repro.fc\n"
        "from repro.fcreg.regex import parse_regex\n"
        "from repro.fcreg.automata import compile_regex\n"
        "from repro.fcreg.bounded import bounded_decomposition\n"
        "for pat in ['(ab)*', 'a|b', '(a|b)(a|b)', 'a*b*', '(ba)*b?']:\n"
        "    dfa = compile_regex(parse_regex(pat))\n"
        "    print(pat, sorted(dfa.transitions.items()))\n"
        "    print(pat, bounded_decomposition(dfa))\n"
    )
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
    )
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
