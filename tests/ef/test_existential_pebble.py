"""Tests for existential EF games and pebble games (conclusion directions)."""

import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.ef.equivalence import equiv_k
from repro.ef.existential import (
    existential_equivalent,
    existential_preorder,
    positive_homomorphism,
)
from repro.ef.pebble import pebble_distinguishing_rounds, pebble_equiv
from repro.fc.structures import word_structure

short = st.text(alphabet="ab", max_size=4)


class TestPositiveHomomorphism:
    def test_forward_only(self):
        A = word_structure("aa", "a")
        B = word_structure("aaa", "a")
        # aa = a·a holds in A and (mapped identically) in B.
        assert positive_homomorphism(A, B, ("aa", "a"), ("aa", "a"))
        # but mapping aa ↦ aaa breaks the concatenation fact.
        assert not positive_homomorphism(A, B, ("aa", "a"), ("aaa", "a"))

    def test_negative_facts_not_required(self):
        # In A: 'a' ≠ 'aa'; mapping both to 'a' in B merges them — that
        # would break a *negative* fact, which ∃⁺ does not preserve...
        # but it breaks a positive one too (a = a·ε vs aa = a·ε), so the
        # homomorphism check distinguishes carefully:
        A = word_structure("aa", "a")
        B = word_structure("a", "a")
        assert not positive_homomorphism(A, B, ("aa",), ("a",))
        # ('aa' equals the constant-closed term a·a in A; in B the image
        # 'a' is not a·a, a positive concatenation fact lost.)


class TestExistentialPreorder:
    @given(short, st.integers(0, 2))
    def test_reflexive(self, w, k):
        assert existential_preorder(w, w, k, "ab")

    def test_substructure_direction(self):
        # Everything ∃⁺-true in a^3 stays true in a^5 at small rank.
        assert existential_preorder("aaa", "aaaaa", 2)
        assert not existential_preorder("aaaaa", "aaa", 2)

    def test_asymmetry_example(self):
        assert existential_preorder("a", "aa", 1)
        assert not existential_preorder("aa", "a", 1)

    @given(short, short, st.integers(0, 1))
    def test_full_equivalence_implies_existential(self, w, v, k):
        if equiv_k(w, v, k, alphabet="ab"):
            assert existential_preorder(w, v, k, "ab")
            assert existential_preorder(v, w, k, "ab")

    @given(short, short)
    def test_equivalence_is_two_directions(self, w, v):
        both = existential_preorder(w, v, 1, "ab") and existential_preorder(
            v, w, 1, "ab"
        )
        assert existential_equivalent(w, v, 1, "ab") == both


class TestPebbleGames:
    @given(short, st.integers(1, 2), st.integers(0, 2))
    def test_reflexive(self, w, p, m):
        assert pebble_equiv(w, w, p, m, "ab")

    @settings(max_examples=80, deadline=None)
    @given(short, short, st.integers(1, 2), st.integers(0, 2))
    def test_matches_plain_game_when_rounds_equal_pebbles(self, w, v, p, m):
        # With p pebbles and m ≤ p rounds, no pebble must be reused, so
        # the game coincides with the plain m-round game.
        m = min(m, p)
        assert pebble_equiv(w, v, p, m, "ab") == equiv_k(w, v, m, "ab")

    def test_pebble_reuse_beats_rank(self):
        """a^12 ≡₂ a^14 (plain rank-2), but 2 pebbles with 3 rounds
        separate them: re-placing a pebble trades rank for variables —
        the FCᵖ phenomenon the conclusion points at."""
        assert equiv_k("a" * 12, "a" * 14, 2, alphabet="a")
        assert pebble_equiv("a" * 12, "a" * 14, 2, 2, "a")
        assert not pebble_equiv("a" * 12, "a" * 14, 2, 3, "a")

    def test_distinguishing_rounds(self):
        assert pebble_distinguishing_rounds("aaaa", "aaa", 2, 3, "a") == 2
        assert pebble_distinguishing_rounds("ab", "ab", 2, 3) is None

    def test_one_pebble_is_weak(self):
        # A single pebble can never relate two elements, so it only sees
        # constants and unary facts; a^5 vs a^6 survive several rounds.
        assert pebble_equiv("a" * 5, "a" * 6, 1, 3, "a")


def test_e22_effort_is_hash_seed_independent(tmp_path):
    # The existential solver stops at Spoiler's first winning move, so
    # its move order decides how much work E22 does; that order must not
    # follow string-hash iteration order.
    probe = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from repro.engine import ResultCache, run_tasks\n"
        "from repro.engine.experiments import build_default_registry\n"
        "report = run_tasks(build_default_registry(), jobs=1, shards=1,\n"
        "    cache=ResultCache(root=Path(sys.argv[1]), enabled=False),\n"
        "    only=['E22'])\n"
        "record = report.record_for('E22')\n"
        "print(json.dumps([record['lru_delta'], record['solver_delta']],\n"
        "    sort_keys=True))\n"
    )
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
    )
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
