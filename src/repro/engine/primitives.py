"""Pure, picklable entry points around the solver stack.

Every function here takes JSON-representable arguments, returns a
JSON-representable value, and touches no global state — the contract
that lets the engine hash their inputs into cache keys and run them in
worker processes.  They wrap the four solver-adjacent module families
named in DESIGN.md: ``ef.solver``, ``ef.equivalence``, ``ef.synthesis``
and ``core.witnesses`` (plus the ``core.pow2`` unary search the witness
chain builds on).
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "equivalence",
    "distinguishing_rank",
    "plan_relation",
    "solver_openings",
    "synthesize",
    "unary_minimal_pairs",
    "witness_report",
    "relation_agreement",
    "relation_agreement_shard",
    "relation_agreement_merge",
    "serialize_language_report",
]


def unary_minimal_pairs(
    max_rank: int = 2, max_exponent: int = 20
) -> dict[str, Any]:
    """Lemma 3.6 minimal pairs: rank → least (p, q) with aᵖ ≡_k a^q.

    JSON object keys are strings, so ranks are stringified.
    """
    from repro.ef.equivalence import find_equivalent_unary_pair

    pairs = {
        str(k): list(find_equivalent_unary_pair(k, max_exponent=max_exponent))
        for k in range(max_rank + 1)
    }
    return {"max_exponent": max_exponent, "pairs": pairs}


def equivalence(
    w: str, v: str, k: int, alphabet: str | None = None
) -> dict[str, Any]:
    """Exact ``w ≡_k v`` decision (``ef.equivalence`` as a task)."""
    from repro.ef.equivalence import equiv_k

    return {
        "w": w,
        "v": v,
        "k": k,
        "equivalent": equiv_k(w, v, k, alphabet),
    }


def distinguishing_rank(
    w: str, v: str, max_k: int = 3, alphabet: str | None = None
) -> dict[str, Any]:
    """Least separating rank up to ``max_k`` (None if equivalent)."""
    from repro.ef.equivalence import distinguishing_rank as _rank

    return {
        "w": w,
        "v": v,
        "max_k": max_k,
        "rank": _rank(w, v, max_k, alphabet),
    }


def solver_openings(
    w: str, v: str, alphabet: str, k: int, side: str = "A"
) -> dict[str, Any]:
    """``ef.solver`` as a task: Duplicator's winning responses to every
    opening Spoiler move on the given side (None = the move wins for
    Spoiler)."""
    from repro.ef.equivalence import solver_for
    from repro.ef.game import Move

    solver = solver_for(w, v, alphabet)
    structure = solver.structure_a if side == "A" else solver.structure_b
    responses = {}
    for factor in sorted(structure.universe_factors):
        response = solver.winning_response(k, frozenset(), Move(side, factor))
        responses[factor] = response
    return {"w": w, "v": v, "k": k, "side": side, "responses": responses}


def synthesize(w: str, v: str, k: int, alphabet: str) -> dict[str, Any]:
    """``ef.synthesis`` as a task: a verified separating FC(k) sentence."""
    from repro.ef.synthesis import (
        SynthesisFailure,
        synthesize_distinguishing_sentence,
    )
    from repro.fc.display import to_text
    from repro.fc.semantics import defines_language_member
    from repro.fc.syntax import quantifier_rank

    try:
        phi = synthesize_distinguishing_sentence(w, v, k, alphabet)
    except SynthesisFailure as failure:
        return {"w": w, "v": v, "k": k, "synthesized": False,
                "reason": str(failure)}
    return {
        "w": w,
        "v": v,
        "k": k,
        "synthesized": True,
        "formula": to_text(phi),
        "quantifier_rank": quantifier_rank(phi),
        "verified": (
            defines_language_member(w, phi, alphabet)
            and not defines_language_member(v, phi, alphabet)
        ),
    }


def serialize_language_report(report: Any) -> dict[str, Any]:
    """JSON image of a :class:`repro.core.inexpressibility.LanguageReport`."""
    return {
        "language": report.language,
        "paper_ref": report.paper_ref,
        "memberships_ok": report.memberships_ok,
        "bounded": report.bounded,
        "verdict": report.verdict,
        "equivalences": {str(k): v for k, v in report.equivalences.items()},
        "pairs": [
            {
                "k": pair.k,
                "member": pair.member,
                "foil": pair.foil,
                "p": pair.p,
                "q": pair.q,
                "required_unary_rank": pair.required_unary_rank,
                "certified_unary_rank": pair.certified_unary_rank,
            }
            for pair in report.pairs
        ],
    }


def witness_report(
    name: str,
    ranks: list[int] | None = None,
    verify_equivalence_up_to: int = 1,
) -> dict[str, Any]:
    """``core.witnesses`` as a task: the full Lemma 4.14 evidence chain
    for one language family."""
    from repro.core.inexpressibility import language_report

    report = language_report(
        name,
        ranks=tuple(ranks) if ranks is not None else (0, 1),
        verify_equivalence_up_to=verify_equivalence_up_to,
    )
    return serialize_language_report(report)


def relation_agreement(name: str, max_length: int = 7) -> dict[str, Any]:
    """Theorem 5.8 reduction check for one relation."""
    from repro.core.inexpressibility import relation_report

    report = relation_report(name, max_length=max_length)
    return {
        "relation": report.relation,
        "target_language": report.target_language,
        "reduction_agrees": report.reduction_agrees,
        "first_disagreement": report.first_disagreement,
        "note": report.note,
        "max_length": max_length,
    }


def plan_relation(
    name: str, max_length: int = 7, *, width: int
) -> list[dict[str, Any]]:
    """Shard plan for a ψ-reduction check: subtrees of the target grid."""
    from repro.core.relations import PSI_REDUCTIONS
    from repro.engine.shards import subtree_plan
    from repro.words.generators import PAPER_LANGUAGES

    language = PAPER_LANGUAGES[PSI_REDUCTIONS[name].target_language]
    return subtree_plan(language.alphabet, max_length, width)


def relation_agreement_shard(
    name: str, max_length: int = 7, *, shard: dict[str, Any]
) -> dict[str, Any]:
    """One shard of the ψ-reduction grid: the (len, text)-least
    disagreement among the shard's words, or None.

    Two deliberate departures from the monolithic
    :func:`repro.core.inexpressibility.relation_report` path, neither
    observable on the committed data (every reduction agrees):

    * the shard scans its full slice instead of breaking at the first
      disagreement — the least disagreement over a subtree chunk is not
      the first in shard-local order, and the merged minimum must equal
      the monolithic first hit;
    * no ``scope`` is declared, so shards never hydrate or publish the
      grid's ``sweep-universe`` artifact (a per-subtree slice is not the
      grid the artifact describes).

    When every shard agrees — the committed case — work and counters
    match the monolithic full scan exactly.
    """
    from repro.core.relations import PSI_REDUCTIONS, oracle_for
    from repro.fc.semantics import defines_language_members_shard
    from repro.words.generators import PAPER_LANGUAGES

    reduction = PSI_REDUCTIONS[name]
    oracle_language = PAPER_LANGUAGES[reduction.target_language]
    psi = reduction.build(oracle_for(name))
    first_bad: str | None = None
    memberships = defines_language_members_shard(
        psi, oracle_language.alphabet, max_length, shard
    )
    for word, in_psi in memberships:
        if in_psi != (word in oracle_language):
            if first_bad is None or (len(word), word) < (
                len(first_bad),
                first_bad,
            ):
                first_bad = word
    return {"first_disagreement": first_bad}


def relation_agreement_merge(
    name: str, max_length: int = 7, *, shards: list[dict[str, Any]]
) -> dict[str, Any]:
    from repro.core.relations import PSI_REDUCTIONS

    disagreements = [
        part["first_disagreement"]
        for part in shards
        if part["first_disagreement"] is not None
    ]
    first_bad = (
        min(disagreements, key=lambda word: (len(word), word))
        if disagreements
        else None
    )
    reduction = PSI_REDUCTIONS[name]
    return {
        "relation": name,
        "target_language": reduction.target_language,
        "reduction_agrees": first_bad is None,
        "first_disagreement": first_bad,
        "note": reduction.note,
        "max_length": max_length,
    }
