"""Tests for game arenas and plays."""

import random

import pytest

from repro.ef.game import GameArena, Move, Play
from repro.fc.structures import BOTTOM, word_structure
from repro.words.generators import words_up_to

WORDS = list(words_up_to("ab", 4))


def arena(w: str, v: str, k: int, alphabet: str = "ab") -> GameArena:
    return GameArena(
        word_structure(w, alphabet), word_structure(v, alphabet), k
    )


class TestArena:
    def test_universe_includes_bottom(self):
        game = arena("ab", "ba", 1)
        assert BOTTOM in game.universe("A")
        assert BOTTOM in game.universe("B")

    def test_moves_cover_both_sides(self):
        game = arena("a", "b", 1)
        moves = list(game.moves())
        sides = {m.side for m in moves}
        assert sides == {"A", "B"}

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            arena("a", "b", -1)

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GameArena(
                word_structure("a", "a"), word_structure("b", "ab"), 1
            )

    def test_opposite(self):
        game = arena("a", "b", 1)
        assert game.opposite("A") == "B"
        assert game.opposite("B") == "A"


class TestPlay:
    def test_record_and_tuples(self):
        game = arena("aa", "aa", 2)
        play = Play(game)
        play.record(Move("A", "a"), "a")
        play.record(Move("B", "aa"), "aa")
        tuple_a, tuple_b = play.tuples()
        assert tuple_a == ("a", "aa")
        assert tuple_b == ("a", "aa")
        assert len(play) == 2

    def test_sides_are_normalised(self):
        game = arena("aa", "aa", 1)
        play = Play(game)
        play.record(Move("B", "aa"), "a")
        tuple_a, tuple_b = play.tuples()
        assert tuple_a == ("a",)   # Duplicator's element landed on side A
        assert tuple_b == ("aa",)  # Spoiler's element on side B

    def test_illegal_spoiler_move(self):
        game = arena("aa", "aa", 1)
        play = Play(game)
        with pytest.raises(ValueError):
            play.record(Move("A", "b"), "a")

    def test_illegal_duplicator_response(self):
        game = arena("aa", "ab", 1)
        play = Play(game)
        with pytest.raises(ValueError):
            play.record(Move("A", "a"), "bb")

    def test_win_check_includes_constants(self):
        # On a^2 vs a^1, pairing (aa, a) violates the constant condition
        # (a is the constant 'a' on the B side, aa is not on the A side).
        game = arena("aa", "a", 1, alphabet="a")
        play = Play(game)
        play.record(Move("A", "aa"), "a")
        assert not play.duplicator_won()
        assert play.violation() is not None

    def test_winning_identity_play(self):
        game = arena("aba", "aba", 2)
        play = Play(game)
        play.record(Move("A", "ab"), "ab")
        play.record(Move("B", "ba"), "ba")
        assert play.duplicator_won()

    def test_duplicator_won_matches_violation_oracle(self):
        # The kernel's verdict must match the find_violation explainer on
        # every prefix of seeded random plays: full and restricted
        # structures, ⊥ moves and ⊥ responses.
        rng = random.Random(20261017)
        outcomes = set()
        for _ in range(400):
            sides = [word_structure(rng.choice(WORDS), "ab") for _ in "AB"]
            if rng.random() < 0.4:
                i = rng.randrange(2)
                universe = sorted(sides[i].universe_factors)
                sides[i] = sides[i].restrict(
                    rng.sample(universe, rng.randint(1, len(universe)))
                )
            play = Play(GameArena(*sides, 3))
            for _ in range(3):
                side = rng.choice("AB")
                element = rng.choice(play.arena.universe(side))
                replies = play.arena.universe(play.arena.opposite(side))
                mirror = element in replies and rng.random() < 0.6
                play.record(
                    Move(side, element), element if mirror else rng.choice(replies)
                )
                won = play.duplicator_won()
                assert won == (play.violation() is None), play.tuples()
                outcomes.add(won)
        assert outcomes == {True, False}
