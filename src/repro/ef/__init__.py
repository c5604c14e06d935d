"""Ehrenfeucht–Fraïssé games for FC (Section 3 of the paper).

Partial isomorphisms, game plays, an exact ≡_k solver, strategy objects,
and the paper's constructive strategy compositions (Pseudo-Congruence,
Primitive Power).
"""

from repro.ef.composition import (
    FringePreservingUnaryDuplicator,
    PrimitivePowerDuplicator,
    PseudoCongruenceDuplicator,
    boundary_split,
)
from repro.ef.characteristic import characteristic_sentence
from repro.ef.existential import (
    ExistentialGameSolver,
    existential_equivalent,
    existential_preorder,
    positive_homomorphism,
)
from repro.ef.pebble import (
    PebbleGameSolver,
    pebble_distinguishing_rounds,
    pebble_equiv,
)
from repro.ef.synthesis import (
    SynthesisFailure,
    synthesize_distinguishing_sentence,
)
from repro.ef.equivalence import (
    UnaryWitness,
    distinguishing_rank,
    equiv_k,
    find_equivalent_unary_pair,
    solver_for,
)
from repro.ef.game import GameArena, Move, Play, Round, Side
from repro.ef.partial_iso import (
    PartialIsoViolation,
    extend_with_constants,
    find_violation,
    is_partial_isomorphism,
)
from repro.ef.solver import GameSolver, solve_equivalence
from repro.ef.strategies import (
    Duplicator,
    GreedySolverSpoiler,
    IdentityDuplicator,
    RandomSpoiler,
    ScriptedSpoiler,
    SolverDuplicator,
    Spoiler,
    VerificationResult,
    exhaustively_verify_duplicator,
    play_game,
)

__all__ = [
    "FringePreservingUnaryDuplicator",
    "characteristic_sentence",
    "ExistentialGameSolver",
    "existential_equivalent",
    "existential_preorder",
    "positive_homomorphism",
    "PebbleGameSolver",
    "pebble_distinguishing_rounds",
    "pebble_equiv",
    "SynthesisFailure",
    "synthesize_distinguishing_sentence",
    "PrimitivePowerDuplicator",
    "PseudoCongruenceDuplicator",
    "boundary_split",
    "UnaryWitness",
    "distinguishing_rank",
    "equiv_k",
    "find_equivalent_unary_pair",
    "solver_for",
    "GameArena",
    "Move",
    "Play",
    "Round",
    "Side",
    "PartialIsoViolation",
    "extend_with_constants",
    "find_violation",
    "is_partial_isomorphism",
    "GameSolver",
    "solve_equivalence",
    "Duplicator",
    "GreedySolverSpoiler",
    "IdentityDuplicator",
    "RandomSpoiler",
    "ScriptedSpoiler",
    "SolverDuplicator",
    "Spoiler",
    "VerificationResult",
    "exhaustively_verify_duplicator",
    "play_game",
]
