"""The 23 experiments E01–E23 as pure engine tasks, plus the default DAG.

Each ``run_eXX`` function reproduces the row-set of the corresponding
benchmark module (see EXPERIMENTS.md) and returns a JSON-serialisable
record with the measured facts *and* a ``"passed"`` verdict mirroring
the benchmark's assertions.  The benchmark modules call these functions
directly; the CLI (``python -m repro run``) executes them through the
scheduler with caching and parallelism.

Functions whose experiment consumes another task's result take that
result as a parameter (e.g. ``run_e03(pow2_pairs)``); the registry built
by :func:`build_default_registry` wires those parameters to the
primitive tasks of :mod:`repro.engine.primitives`.
"""

from __future__ import annotations

from typing import Any

from repro.engine.spec import ShardPlan, TaskRegistry

__all__ = ["build_default_registry", "EXPERIMENT_NAMES"]

_HEAVY_P, _HEAVY_Q = 12, 14

#: Version salt shared by every task in the default registry.  Bumped to
#: "2" when the interned-factor kernel replaced the naive solver and
#: evaluator underneath the task functions: results are bit-identical,
#: but records gained solver_delta/lru_registered fields and several
#: grids grew (E01 max_i 5→6, E02 max_length 4→5), so pre-kernel cache
#: entries must not satisfy post-kernel runs.
_ENGINE_VERSION = "2"

#: Per-task overrides for tasks whose semantics path changed after the
#: shared salt last moved.  "3" marked the batched-sweep generation:
#: E02/E05 membership loops route through repro.fc.sweep, E20 runs on
#: the kernel-backed FO[EQ] solver + compiled position programs (and
#: now consumes prim/equiv/anbn-k2 instead of recomputing it), and
#: prim/relation/* evaluates ψ via the sweep.  The following bump
#: marked the sweep soundness fix (quantifier scans restricted to the
#: word's factor universe).  The latest bump marks the relational-sweep
#: generation: sweep pools/scans run on dense bitsets
#: (repro.kernel.bitset), E16 routes ⟦φ⟧(d) through
#: satisfying_tuples/SweepProgram.relation, E18/E23 evaluate extractors
#: through the cross-call match_spans memo, and records gain the
#: sweep_relation_* counter deltas — results are bit-identical, but
#: entries from the frozenset-era paths must not satisfy bitset runs.
#: The latest E01/E02/E05 (and relation-task) bumps mark the sharding
#: generation: those tasks declare shard plans, so their records can
#: now carry per-shard attribution and live under plan-salted keys —
#: results stay bit-identical, but pre-shard entries must not satisfy
#: post-shard monolithic runs whose task functions were refactored
#: around the shared shard helpers.  E19 and prim/pow2-pairs moved to
#: "3" when the arithmetic unary solver was retired: their ≡_k checks
#: now run on the kernel through ``repro.ef.equivalence``.  E02 moved
#: to "7" when its shard lane started scoping duplicated sweeps through
#: ``repro.metrics`` (same counters, same results).
_TASK_VERSIONS = {
    "E01": "3",
    "E02": "7",
    "E05": "7",
    "E16": "3",
    "E18": "3",
    "E19": "3",
    "E20": "5",
    "E23": "3",
}
_RELATION_TASK_VERSION = "6"


# ---------------------------------------------------------------------------
# E01 — Example 3.3: Spoiler wins the 2-round game on a^{2i} vs a^{2i-1}.


def _e01_row(i: int) -> dict[str, Any]:
    """One grid row of E01; pairs for distinct ``i`` share no solver
    state, so any ``i``-partition reproduces the monolithic counters."""
    from repro.ef.equivalence import distinguishing_rank, equiv_k
    from repro.ef.game import Move
    from repro.ef.solver import GameSolver
    from repro.fc.structures import word_structure

    w, v = "a" * (2 * i), "a" * (2 * i - 1)
    not_equiv_2 = not equiv_k(w, v, 2, alphabet="a")
    rank = distinguishing_rank(w, v, 2, alphabet="a")
    solver = GameSolver(word_structure(w, "a"), word_structure(v, "a"))
    opening_kills = (
        solver.winning_response(2, frozenset(), Move("A", w)) is None
    )
    return {
        "pair": f"a^{2 * i} vs a^{2 * i - 1}",
        "not_equiv_2": not_equiv_2,
        "rank": rank,
        "opening_wins": opening_kills,
    }


def run_e01(max_i: int = 6) -> dict[str, Any]:
    rows = [_e01_row(i) for i in range(1, max_i + 1)]
    return {
        "rows": rows,
        "passed": all(r["not_equiv_2"] and r["opening_wins"] for r in rows),
    }


def plan_e01(max_i: int = 6, *, width: int) -> list[dict[str, Any]]:
    """Shard plan for E01: round-robin the exponent grid.

    Solver cost grows with ``i``, so dealing (rather than chunking)
    balances the lanes; see :func:`repro.engine.shards.round_robin`.
    """
    from repro.engine.shards import round_robin

    return [
        {"i_values": lane}
        for lane in round_robin(list(range(1, max_i + 1)), width)
    ]


def run_e01_shard(max_i: int = 6, *, shard: dict[str, Any]) -> dict[str, Any]:
    return {"rows": [[i, _e01_row(i)] for i in shard["i_values"]]}


def run_e01_merge(
    max_i: int = 6, *, shards: list[dict[str, Any]]
) -> dict[str, Any]:
    indexed = sorted(
        (pair for part in shards for pair in part["rows"]),
        key=lambda pair: pair[0],
    )
    rows = [row for _i, row in indexed]
    return {
        "rows": rows,
        "passed": all(r["not_equiv_2"] and r["opening_wins"] for r in rows),
    }


# ---------------------------------------------------------------------------
# E02 — Theorem 3.4: ≡_k ⟺ agreement on an FC(k) sentence pool.


def _e02_pool_words(max_length: int, pool_rank: int):
    from repro.fc.enumeration import sentence_pool
    from repro.words.generators import words_up_to

    pool = list(sentence_pool(pool_rank, "ab", max_atoms=1))
    words = list(words_up_to("ab", max_length))
    return pool, words


def _e02_scan(words, signatures, pool_rank, outer_indices):
    """The ≡_k-vs-signature pair loop over the given outer rows.

    Pairs for distinct outer words share no solver state (``solver_for``
    memoises per pair), so any partition of the outer indices reproduces
    the monolithic counters exactly.
    """
    from repro.ef.equivalence import equiv_k

    pairs = consistent = separated_confirmed = 0
    violations = []
    for i in outer_indices:
        w = words[i]
        for v in words[i + 1 :]:
            pairs += 1
            same_sig = signatures[w] == signatures[v]
            if equiv_k(w, v, pool_rank, alphabet="ab"):
                if same_sig:
                    consistent += 1
                else:
                    violations.append([w, v])
            elif not same_sig:
                separated_confirmed += 1
    return pairs, consistent, separated_confirmed, violations


def run_e02(max_length: int = 5, pool_rank: int = 1) -> dict[str, Any]:
    from repro.fc.semantics import language_signatures

    pool, words = _e02_pool_words(max_length, pool_rank)
    # One sweep family for the whole pool: every sentence shares the
    # word tables and the global candidate/atom memos (repro.fc.sweep).
    signatures = dict(language_signatures(pool, "ab", words))
    pairs, consistent, separated_confirmed, violations = _e02_scan(
        words, signatures, pool_rank, range(len(words))
    )
    return {
        "pool_size": len(pool),
        "words": len(words),
        "pairs": pairs,
        "consistent": consistent,
        "separated_confirmed": separated_confirmed,
        "violations": violations,
        "passed": not violations,
    }


def plan_e02(
    max_length: int = 5, pool_rank: int = 1, *, width: int
) -> list[dict[str, Any]]:
    """Shard plan for E02: deal the pair loop's outer rows into lanes.

    The ≡_k pair loop dominates E02's wall (the signature sweep is an
    order of magnitude cheaper), so the lanes partition the pairs and
    every lane repeats the sweep — lane 0 as real work, the others
    attributed to ``shard_overhead_ops``.  Capped at 8 lanes: each
    extra lane duplicates one full sweep.
    """
    words = 2 ** (max_length + 1) - 1  # |{a,b}^{≤max_length}|
    lanes = max(1, min(width, 8, words))
    return [{"lane": lane, "lanes": lanes} for lane in range(lanes)]


def run_e02_shard(
    max_length: int = 5, pool_rank: int = 1, *, shard: dict[str, Any]
) -> dict[str, Any]:
    from repro import metrics
    from repro.fc.semantics import language_signatures

    pool, words = _e02_pool_words(max_length, pool_rank)
    if shard["lane"] == 0:
        signatures = dict(language_signatures(pool, "ab", words))
    else:
        # Every lane needs the full signature table; only lane 0 owns
        # it, so the other lanes' sweeps are attributed as duplication.
        with metrics.shard_overhead():
            signatures = dict(language_signatures(pool, "ab", words))
    pairs, consistent, separated_confirmed, violations = _e02_scan(
        words,
        signatures,
        pool_rank,
        range(shard["lane"], len(words), shard["lanes"]),
    )
    return {
        "pool_size": len(pool),
        "words": len(words),
        "pairs": pairs,
        "consistent": consistent,
        "separated_confirmed": separated_confirmed,
        "violations": violations,
    }


def run_e02_merge(
    max_length: int = 5, pool_rank: int = 1, *, shards: list[dict[str, Any]]
) -> dict[str, Any]:
    from repro.fc.semantics import merge_shard_rows

    # Each outer word lives in exactly one lane, so merging violation
    # rows on the outer word restores the monolithic (i, j) order.
    violations = merge_shard_rows([part["violations"] for part in shards])
    return {
        "pool_size": shards[0]["pool_size"],
        "words": shards[0]["words"],
        "pairs": sum(part["pairs"] for part in shards),
        "consistent": sum(part["consistent"] for part in shards),
        "separated_confirmed": sum(
            part["separated_confirmed"] for part in shards
        ),
        "violations": violations,
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# E03 — Lemma 3.6: minimal unary pairs + {2ⁿ} non-semi-linearity.


def run_e03(pow2_pairs: dict[str, Any], probe_bound: int = 512) -> dict[str, Any]:
    from repro.core.pow2 import pow2_semilinearity_evidence

    evidence = pow2_semilinearity_evidence(probe_bound)
    pairs = {k: tuple(v) for k, v in pow2_pairs["pairs"].items()}
    return {
        "minimal_pairs": pow2_pairs["pairs"],
        "semilinearity": {
            "bound": evidence["bound"],
            "members": evidence["members"],
            "eventually_periodic": evidence["eventually_periodic"],
            "gaps_strictly_increasing": evidence["gaps_strictly_increasing"],
        },
        "passed": (
            pairs == {"0": (1, 2), "1": (3, 4), "2": (12, 14)}
            and evidence["eventually_periodic"] is None
        ),
    }


# ---------------------------------------------------------------------------
# E04 — Proposition 3.7: ≡_k is not a congruence.


def run_e04(pow2_pairs: dict[str, Any]) -> dict[str, Any]:
    from repro.ef.equivalence import equiv_k
    from repro.fc.builders import phi_vbv
    from repro.fc.semantics import defines_language_member
    from repro.fc.syntax import quantifier_rank

    p, q = pow2_pairs["pairs"]["2"]
    u, v = "a" * p, "a" * q
    tail = "b" + u
    phi = phi_vbv()
    facts = {
        "u_equiv_v": equiv_k(u, v, 2, "ab"),
        "tail_equiv_tail": equiv_k(tail, tail, 2, "ab"),
        "u_tail_models_phi": defines_language_member(u + tail, phi, "ab"),
        "v_tail_models_phi": defines_language_member(v + tail, phi, "ab"),
        "quantifier_rank": quantifier_rank(phi),
    }
    facts["passed"] = (
        facts["u_equiv_v"]
        and facts["tail_equiv_tail"]
        and facts["u_tail_models_phi"]
        and not facts["v_tail_models_phi"]
        and facts["quantifier_rank"] == 5
    )
    facts["p"], facts["q"] = p, q
    return facts


# ---------------------------------------------------------------------------
# E05 — Proposition 4.1: L_fib ∈ L(FC).


def run_e05(
    max_length: int = 8, long_members_up_to: int = 8, power_free_up_to: int = 14
) -> dict[str, Any]:
    from repro.fc.builders import phi_fib
    from repro.fc.semantics import defines_language_members
    from repro.words.fibonacci import (
        fibonacci_word,
        is_fourth_power_free,
        is_l_fib,
        l_fib_word,
    )
    from repro.words.generators import words_up_to

    phi = phi_fib()
    mismatches = []
    total = members = 0
    # Batched sweep over the grid: φ_fib is compiled once and the
    # prefix-tree tables/candidate memos are shared across all 9 841
    # words (repro.fc.sweep) — this loop was the bench's critical path.
    memberships = defines_language_members(
        phi, "abc", words_up_to("abc", max_length)
    )
    for word, predicted in memberships:
        total += 1
        actual = is_l_fib(word)
        members += actual
        if predicted != actual:
            mismatches.append(word)
    # Each L_fib word is a prefix of the next, so one batched sweep
    # shares every factor table along the chain.
    long_words = [l_fib_word(n) for n in range(long_members_up_to)]
    long_members = [
        {"n": n, "length": len(word), "accepted": accepted}
        for n, (word, accepted) in enumerate(
            defines_language_members(phi, "abc", long_words)
        )
    ]
    power_free = [
        {"n": n, "fourth_power_free": is_fourth_power_free(fibonacci_word(n))}
        for n in range(power_free_up_to)
    ]
    return {
        "words_checked": total,
        "members": members,
        "mismatches": mismatches,
        "long_members": long_members,
        "fourth_power_free": power_free,
        "passed": (
            not mismatches
            and members >= 2
            and all(row["accepted"] for row in long_members)
            and all(row["fourth_power_free"] for row in power_free)
        ),
    }


def plan_e05(
    max_length: int = 8,
    long_members_up_to: int = 8,
    power_free_up_to: int = 14,
    *,
    width: int,
) -> list[dict[str, Any]]:
    """Shard plan for E05: prefix-tree subtrees of the {a,b,c} grid.

    The 9 841-word membership sweep is the task's critical path; the
    long-member chain and the power-free probes ride on the merge.
    """
    from repro.engine.shards import subtree_plan

    return subtree_plan("abc", max_length, width)


def run_e05_shard(
    max_length: int = 8,
    long_members_up_to: int = 8,
    power_free_up_to: int = 14,
    *,
    shard: dict[str, Any],
) -> dict[str, Any]:
    from repro.fc.builders import phi_fib
    from repro.fc.semantics import defines_language_members_shard
    from repro.words.fibonacci import is_l_fib

    mismatches = []
    total = members = 0
    memberships = defines_language_members_shard(
        phi_fib(), "abc", max_length, shard
    )
    for word, predicted in memberships:
        total += 1
        actual = is_l_fib(word)
        members += actual
        if predicted != actual:
            mismatches.append(word)
    return {
        "words_checked": total,
        "members": members,
        "mismatches": mismatches,
    }


def run_e05_merge(
    max_length: int = 8,
    long_members_up_to: int = 8,
    power_free_up_to: int = 14,
    *,
    shards: list[dict[str, Any]],
) -> dict[str, Any]:
    from repro.fc.builders import phi_fib
    from repro.fc.semantics import defines_language_members, merge_shard_rows
    from repro.words.fibonacci import (
        fibonacci_word,
        is_fourth_power_free,
        l_fib_word,
    )

    total = sum(part["words_checked"] for part in shards)
    members = sum(part["members"] for part in shards)
    mismatches = merge_shard_rows([part["mismatches"] for part in shards])
    # The long-member chain and power-free probes run here exactly as in
    # the monolithic task (a separate sweep family in both cases), so
    # the merge's real counters match the monolithic tail's.
    phi = phi_fib()
    long_words = [l_fib_word(n) for n in range(long_members_up_to)]
    long_members = [
        {"n": n, "length": len(word), "accepted": accepted}
        for n, (word, accepted) in enumerate(
            defines_language_members(phi, "abc", long_words)
        )
    ]
    power_free = [
        {"n": n, "fourth_power_free": is_fourth_power_free(fibonacci_word(n))}
        for n in range(power_free_up_to)
    ]
    return {
        "words_checked": total,
        "members": members,
        "mismatches": mismatches,
        "long_members": long_members,
        "fourth_power_free": power_free,
        "passed": (
            not mismatches
            and members >= 2
            and all(row["accepted"] for row in long_members)
            and all(row["fourth_power_free"] for row in power_free)
        ),
    }


# ---------------------------------------------------------------------------
# E06 / E07 — Lemmas 4.2 / 4.3: structural constraints on Duplicator.

_STRATEGY_PAIRS = [
    ["a" * 12, "a" * 14, "a", 2],
    ["a" * 12 + "b", "a" * 14 + "b", "ab", 1],
    ["abab", "abab", "ab", 3],
    ["aabba", "aabba", "ab", 3],
]


def run_e06() -> dict[str, Any]:
    from repro.ef.equivalence import solver_for
    from repro.ef.game import Move

    rows = []
    for w, v, alphabet, k in _STRATEGY_PAIRS:
        solver = solver_for(w, v, alphabet)
        checked = forced = 0
        for factor in sorted(solver.structure_a.universe_factors):
            # round r = 1: condition 1 + |a_1| - 1 < k  ⟺  |a_1| < k.
            if len(factor) >= k:
                continue
            response = solver.winning_response(k, frozenset(), Move("A", factor))
            if response is None:
                continue
            checked += 1
            forced += response == factor
        rows.append(
            {
                "pair": f"{w[:6]}…({len(w)}) vs …({len(v)})",
                "k": k,
                "checked": checked,
                "forced": forced,
            }
        )
    return {
        "rows": rows,
        "passed": all(r["checked"] == r["forced"] for r in rows),
    }


def run_e07() -> dict[str, Any]:
    from repro.ef.equivalence import solver_for
    from repro.ef.game import Move

    rows = []
    for w, v, alphabet, k in _STRATEGY_PAIRS:
        if k < 3:
            continue  # the lemma constrains rounds r ≤ k − 2 only
        solver = solver_for(w, v, alphabet)
        checked = mirrored = 0
        for factor in sorted(solver.structure_a.universe_factors):
            is_prefix = w.startswith(factor)
            is_suffix = w.endswith(factor)
            if not (is_prefix or is_suffix):
                continue
            response = solver.winning_response(k, frozenset(), Move("A", factor))
            if response is None:
                continue
            checked += 1
            ok = not (is_prefix and not v.startswith(response)) and not (
                is_suffix and not v.endswith(response)
            )
            mirrored += ok
        rows.append(
            {
                "pair": f"{w[:6]}…({len(w)}) vs …({len(v)})",
                "k": k,
                "checked": checked,
                "mirrored": mirrored,
            }
        )
    return {
        "rows": rows,
        "passed": all(r["checked"] == r["mirrored"] for r in rows),
    }


# ---------------------------------------------------------------------------
# E08 — Lemma 4.4 (Pseudo-Congruence).

_E08_INSTANCES = [
    ["full slack, k=0, r=0", "a" * 12, "bb", "a" * 14, "bb", 0, None],
    ["identity, k=2", "ab", "ba", "ab", "ba", 2, None],
    ["Example 4.5 shape, k=1", "a" * 12, "bbb", "a" * 14, "bbb", 1, 2],
    ["Prop 4.6 shape, k=1", "a" * 14, "ba" * 14, "a" * 12, "ba" * 14, 1, 2],
]


def run_e08() -> dict[str, Any]:
    from repro.core.pseudo_congruence import PseudoCongruenceInstance

    rows = []
    for label, w1, w2, v1, v2, k, lookup in _E08_INSTANCES:
        instance = PseudoCongruenceInstance(w1, w2, v1, v2, k, "ab")
        premises = (
            instance.premises_hold()
            if lookup is None
            else instance.premises_hold(lookup)
        )
        verification = instance.verify_strategy(lookup)
        rows.append(
            {
                "instance": label,
                "r": instance.r,
                "premises": premises,
                "strategy_survives": verification.survived,
                "spoiler_lines": verification.lines_checked,
                "conclusion_exact": instance.verify_conclusion(),
            }
        )
    return {
        "rows": rows,
        "passed": all(
            r["premises"] and r["strategy_survives"] and r["conclusion_exact"]
            for r in rows
        ),
    }


# ---------------------------------------------------------------------------
# E09 / E10 — single-language witness families (Example 4.5, Prop 4.6).


def _witness_summary(report: dict[str, Any]) -> dict[str, Any]:
    return {
        "report": report,
        "passed": report["verdict"] == "confirmed",
    }


def run_e09(anbn: dict[str, Any]) -> dict[str, Any]:
    return _witness_summary(anbn)


def run_e10(l1: dict[str, Any]) -> dict[str, Any]:
    return _witness_summary(l1)


# ---------------------------------------------------------------------------
# E11 — primitive-word lemmas 4.7 / A.1 / D.4.


def run_e11(max_base_length: int = 5, power: int = 3) -> dict[str, Any]:
    from repro.words.factors import iter_factors
    from repro.words.generators import words_up_to
    from repro.words.primitivity import (
        exponent,
        exponent_additivity_defect,
        is_primitive,
        power_factorization,
        primitive_occurrences_in_power,
    )

    bases = [
        w for w in words_up_to("ab", max_base_length) if is_primitive(w)
    ]
    occurrence_checks = factorization_checks = additivity_checks = 0
    failures = []
    for base in bases:
        host = base * power
        offsets = primitive_occurrences_in_power(base, power)
        occurrence_checks += 1
        if offsets != [i * len(base) for i in range(power)]:
            failures.append(["A.1", base])
        for factor in iter_factors(host):
            if factor and exponent(base, factor) >= 1:
                factorization_checks += 1
                decomposition = power_factorization(base, factor)
                if decomposition.rebuild() != factor:
                    failures.append(["4.7", base, factor])
        for cut in range(0, len(host) + 1, 2):
            for end in range(cut, min(cut + 6, len(host)) + 1):
                u, v = host[:cut], host[cut:end]
                additivity_checks += 1
                if exponent_additivity_defect(base, u, v) not in (0, 1):
                    failures.append(["D.4", base, u, v])
    return {
        "bases": len(bases),
        "occurrence_checks": occurrence_checks,
        "factorization_checks": factorization_checks,
        "additivity_checks": additivity_checks,
        "failures": failures,
        "passed": not failures,
    }


# ---------------------------------------------------------------------------
# E12 — Lemma 4.8 (Primitive Power).

_E12_BASES = ["ab", "aab", "aba"]


def run_e12(pow2_pairs: dict[str, Any]) -> dict[str, Any]:
    from repro.core.primitive_power import PrimitivePowerInstance
    from repro.ef.composition import (
        FringePreservingUnaryDuplicator,
        PrimitivePowerDuplicator,
    )
    from repro.ef.equivalence import equiv_k, solver_for
    from repro.ef.game import GameArena
    from repro.ef.strategies import (
        SolverDuplicator,
        exhaustively_verify_duplicator,
    )
    from repro.fc.structures import word_structure

    p, q = pow2_pairs["pairs"]["2"]

    identity_rows = []
    for base in _E12_BASES:
        instance = PrimitivePowerInstance(base, 3, 3, 2, "ab")
        result = instance.verify_strategy(lookup_rounds=0)
        identity_rows.append(
            {
                "base": base,
                "survives": result.survived,
                "lines": result.lines_checked,
            }
        )

    fringe_rows = []
    for base in _E12_BASES:
        def factory(base=base):
            return PrimitivePowerDuplicator(
                base, p, q, FringePreservingUnaryDuplicator(p, q)
            )

        arena = GameArena(
            word_structure(base * p, "ab"), word_structure(base * q, "ab"), 1
        )
        result = exhaustively_verify_duplicator(arena, factory)
        fringe_rows.append(
            {
                "base": base,
                "survives": result.survived,
                "lines": result.lines_checked,
                "conclusion_exact": equiv_k(base * p, base * q, 1, "ab"),
            }
        )

    def negative_factory():
        lookup = SolverDuplicator(solver_for("a" * p, "a" * q, "a"), 2)
        return PrimitivePowerDuplicator("ab", p, q, lookup)

    arena = GameArena(
        word_structure("ab" * p, "ab"), word_structure("ab" * q, "ab"), 1
    )
    try:
        negative = exhaustively_verify_duplicator(arena, negative_factory).survived
    except ValueError:
        negative = "broke (illegal response)"

    return {
        "p": p,
        "q": q,
        "identity": identity_rows,
        "fringe": fringe_rows,
        "negative_control": negative,
        "passed": (
            all(r["survives"] for r in identity_rows)
            and all(r["survives"] and r["conclusion_exact"] for r in fringe_rows)
            and negative == "broke (illegal response)"
        ),
    }


# ---------------------------------------------------------------------------
# E13 — Lemma 4.10 + the periodicity lemma.


def run_e13(max_length: int = 4) -> dict[str, Any]:
    from repro.words.conjugacy import (
        are_coprimitive,
        factor_intersection_profile,
        stable_intersection_bound,
    )
    from repro.words.generators import words_up_to
    from repro.words.periodicity import periodicity_lemma_predicts_conjugacy
    from repro.words.primitivity import is_primitive

    primitives = [w for w in words_up_to("ab", max_length) if is_primitive(w)]
    coprimitive_pairs = conjugate_pairs = 0
    equivalence_failures = []
    periodicity_failures = []
    bound_slacks = []
    for i, u in enumerate(primitives):
        for v in primitives[i:]:
            profile = factor_intersection_profile(u, v)
            coprim = are_coprimitive(u, v)
            if coprim:
                coprimitive_pairs += 1
                bound = stable_intersection_bound(u, v)
                bound_slacks.append(bound - (len(u) + len(v) - 2))
            else:
                conjugate_pairs += 1
            if coprim != profile.stabilised:
                equivalence_failures.append([u, v])
            if not periodicity_lemma_predicts_conjugacy(u, v):
                periodicity_failures.append([u, v])
    max_slack = max(bound_slacks)
    return {
        "primitive_words": len(primitives),
        "coprimitive_pairs": coprimitive_pairs,
        "conjugate_pairs": conjugate_pairs,
        "equivalence_failures": equivalence_failures,
        "periodicity_failures": periodicity_failures,
        "max_bound_slack": max_slack,
        "passed": (
            not equivalence_failures
            and not periodicity_failures
            and max_slack <= 0
        ),
    }


# ---------------------------------------------------------------------------
# E14 — Lemma 4.12 (Fooling) + Prop 4.13.


def _fooling_configs():
    return [
        ("L5 blocks, f=id", "", "abaabb", "", "bbaaba", "", lambda p: p),
        ("aba/bba, f=id", "", "aba", "", "bba", "", lambda p: p),
        ("aba/bba, f=2p+1", "", "aba", "", "bba", "", lambda p: 2 * p + 1),
        ("with contexts", "bb", "aba", "b", "bba", "aa", lambda p: p),
    ]


def run_e14() -> dict[str, Any]:
    from repro.core.fooling import fooling_pair

    rows = []
    for label, w1, u, w2, v, w3, f in _fooling_configs():
        pair = fooling_pair(0, w1, u, w2, v, w3, f=f)
        language = {
            w1 + u * p + w2 + v * f(p) + w3 for p in range(pair.q + 2)
        }
        rows.append(
            {
                "configuration": label,
                "p": pair.p,
                "q": pair.q,
                "required_unary_rank": pair.budget.unary_rank,
                "certified_rank": pair.budget.certified_rank,
                "member_in": pair.member in language,
                "foil_out": pair.foil not in language,
                "equiv0_exact": pair.verify_equivalence(0, "ab"),
            }
        )
    return {
        "rows": rows,
        "passed": all(
            r["member_in"] and r["foil_out"] and r["equiv0_exact"] for r in rows
        ),
    }


# ---------------------------------------------------------------------------
# E15 — Lemma 4.14: all witness families + the heavyweight exact
# conclusions (decided premise-free at rank 2 by the game solver).


def run_e15(
    anbn: dict[str, Any],
    l1: dict[str, Any],
    l2: dict[str, Any],
    l3: dict[str, Any],
    l4: dict[str, Any],
    l5: dict[str, Any],
    l6: dict[str, Any],
    heavy_anbn: dict[str, Any],
    heavy_ab: dict[str, Any],
) -> dict[str, Any]:
    reports = {
        report["language"]: report
        for report in (anbn, l1, l2, l3, l4, l5, l6)
    }
    heavy = [
        {
            "pair": "a¹²b¹² vs a¹⁴b¹² (Example 4.5)",
            "equivalent": heavy_anbn["equivalent"],
        },
        {
            "pair": "(ab)¹² vs (ab)¹⁴ (Lemma 4.8)",
            "equivalent": heavy_ab["equivalent"],
        },
    ]
    return {
        "families": reports,
        "heavy_conclusions": heavy,
        "passed": (
            all(r["verdict"] == "confirmed" for r in reports.values())
            and all(row["equivalent"] for row in heavy)
        ),
    }


# ---------------------------------------------------------------------------
# E16 — Lemma 5.4: bounded regular constraints compile into pure FC.

_E16_PATTERNS = [
    "a*", "(ba)*", "a*b*", "(abaabb)*", "(bbaaba)*", "a+", "(ab)*", "b+",
]
_E16_UNBOUNDED = ["(a|b)*", "(ab|ba)*"]


def run_e16(max_doc_length: int = 6) -> dict[str, Any]:
    from repro.fc.semantics import satisfying_tuples
    from repro.fc.syntax import Var
    from repro.fcreg.automata import compile_regex
    from repro.fcreg.bounded import is_bounded_regular
    from repro.fcreg.constraints import in_regex
    from repro.fcreg.regex import parse_regex
    from repro.fcreg.rewriting import constraint_to_fc
    from repro.words.generators import words_up_to

    x = Var("x")
    documents = list(words_up_to("ab", max_doc_length))
    rows = []
    for pattern in _E16_PATTERNS:
        bounded = is_bounded_regular(compile_regex(parse_regex(pattern)))
        constraint = in_regex(x, pattern)
        rewritten = constraint_to_fc(constraint)
        mismatches = 0
        # Relational sweep on both sides: each formula compiles once and
        # emits ⟦φ⟧(d) per document as pool-pruned bitset scans, instead
        # of a per-document satisfying_assignments enumeration.  Both
        # generators are drained fully (zip would leave the second one
        # short of its end-of-scan publish, so its sweep-relation
        # artifact would never persist).
        left_grid = list(
            satisfying_tuples(
                constraint, "ab", iter(documents), scope=max_doc_length
            )
        )
        right_grid = list(
            satisfying_tuples(
                rewritten, "ab", iter(documents), scope=max_doc_length
            )
        )
        for (document, left), (_, right) in zip(left_grid, right_grid):
            mismatches += set(left) != set(right)
        rows.append(
            {
                "pattern": pattern,
                "bounded": bounded,
                "documents": len(documents),
                "mismatches": mismatches,
            }
        )
    unbounded = [
        {
            "pattern": pattern,
            "bounded": is_bounded_regular(compile_regex(parse_regex(pattern))),
        }
        for pattern in _E16_UNBOUNDED
    ]
    return {
        "rows": rows,
        "unbounded": unbounded,
        "passed": (
            all(r["bounded"] and r["mismatches"] == 0 for r in rows)
            and all(not r["bounded"] for r in unbounded)
        ),
    }


# ---------------------------------------------------------------------------
# E17 — Theorem 5.8: the ψ-reductions for all eight relations.

RELATION_NAMES = [
    "Add", "Morph_h", "Mult", "Num_a", "Perm", "Rev", "Scatt", "Shuff",
]


def run_e17(
    add: dict[str, Any],
    morph_h: dict[str, Any],
    mult: dict[str, Any],
    num_a: dict[str, Any],
    perm: dict[str, Any],
    rev: dict[str, Any],
    scatt: dict[str, Any],
    shuff: dict[str, Any],
) -> dict[str, Any]:
    rows = [add, morph_h, mult, num_a, perm, rev, scatt, shuff]
    rows.sort(key=lambda row: row["relation"])
    return {
        "rows": rows,
        "passed": all(row["reduction_agrees"] for row in rows),
    }


# ---------------------------------------------------------------------------
# E18 — the spanner side.


def run_e18(
    gap_max_length: int = 7, trick_max_length: int = 8
) -> dict[str, Any]:
    from repro.core.relations import num_a
    from repro.spanners.selectable import (
        regular_intersection_trick,
        selection_gap_language,
    )
    from repro.spanners.spanner import extract
    from repro.words.generators import PAPER_LANGUAGES, words_up_to

    pipeline_rows = []
    for n in (4, 8, 12, 16):
        document = ("aab" * n)[: n + 6]
        blocks = extract(".*x{a+}.*")
        pairs = blocks.join(extract(".*y{a+}.*"))
        equal = pairs.eq("x", "y")
        unequal = pairs - equal
        pipeline_rows.append(
            {
                "doc_length": len(document),
                "blocks": len(blocks.evaluate(document)),
                "joined": len(pairs.evaluate(document)),
                "kept": len(equal.evaluate(document)),
                "difference": len(unequal.evaluate(document)),
            }
        )

    base = extract("x{a*}y{(ba)*}")
    gap = selection_gap_language(
        base, ("x", "y"), num_a, "ab", gap_max_length
    )
    l1_oracle = PAPER_LANGUAGES["L1"]
    gap_expected = frozenset(
        w for w in words_up_to("ab", gap_max_length) if w in l1_oracle
    )

    balanced = frozenset(
        w
        for w in words_up_to("ab", trick_max_length)
        if w.count("a") == w.count("b")
    )
    intersection = regular_intersection_trick(
        balanced, lambda w: "ba" not in w
    )
    anbn_oracle = PAPER_LANGUAGES["anbn"]
    trick_expected = frozenset(
        w for w in words_up_to("ab", trick_max_length) if w in anbn_oracle
    )

    return {
        "pipeline": pipeline_rows,
        "gap": {
            "recognised": len(gap),
            "expected": len(gap_expected),
            "equal": gap == gap_expected,
        },
        "intersection_trick": {
            "intersection": len(intersection),
            "expected": len(trick_expected),
            "equal": intersection == trick_expected,
        },
        "passed": (
            all(
                r["kept"] + r["difference"] == r["joined"]
                for r in pipeline_rows
            )
            and gap == gap_expected
            and intersection == trick_expected
        ),
    }


# ---------------------------------------------------------------------------
# E19 — unary FC = semi-linear.


def run_e19(pow_bound: int = 384) -> dict[str, Any]:
    from repro.ef.equivalence import unary_equivalence_classes
    from repro.semilinear.unary import detect_robust_periodicity

    rows = []
    for k, bound in ((0, 8), (1, 10), (2, 18)):
        classes = unary_equivalence_classes(k, bound)
        infinite_class = max(classes, key=len)
        threshold = min(infinite_class)
        gaps = {b - a for a, b in zip(infinite_class, infinite_class[1:])}
        period = min(gaps) if gaps else 0
        rows.append(
            {
                "k": k,
                "classes": len(classes),
                "threshold": threshold,
                "period": period,
            }
        )
    by_rank = {row["k"]: row for row in rows}

    def is_power(n: int) -> bool:
        return n >= 1 and (n & (n - 1)) == 0

    detected = detect_robust_periodicity(is_power, pow_bound)
    return {
        "rows": rows,
        "pow2_periodicity": detected,
        "passed": (
            by_rank[1]["threshold"] == 3
            and by_rank[1]["period"] == 1
            and by_rank[2]["threshold"] == 12
            and by_rank[2]["period"] == 2
            and detected is None
        ),
    }


# ---------------------------------------------------------------------------
# E20 — FC vs FO[EQ].


def run_e20(
    heavy_fc: dict[str, Any], agreement_max_length: int = 6
) -> dict[str, Any]:
    from repro.ef.equivalence import distinguishing_rank
    from repro.fc.builders import phi_ww
    from repro.fc.semantics import defines_language_members
    from repro.foeq.builders import phi_square
    from repro.foeq.games import (
        foeq_distinguishing_rank,
        foeq_equiv_k,
        folt_equiv_k,
    )
    from repro.foeq.semantics import p_models
    from repro.words.generators import words_up_to

    # Both sentences are built once: the FC side runs as a batched sweep
    # and the FO[EQ] side hits one compiled position program.
    square = phi_square()
    fc_members = defines_language_members(
        phi_ww(), "ab", words_up_to("ab", agreement_max_length)
    )
    checked = mismatches = 0
    for w, fc_square in fc_members:
        if not w:
            continue  # FC counts ε as a square; FO[EQ]'s ε has no positions
        checked += 1
        mismatches += p_models(w, square) != fc_square

    w, v = "a" * _HEAVY_P + "b" * _HEAVY_P, "a" * _HEAVY_Q + "b" * _HEAVY_P
    shared = {
        "foeq": foeq_equiv_k(w, v, 2),
        # The FC half of the shared witness is the heavyweight exact
        # ≡₂ decision already computed by prim/equiv/anbn-k2.
        "fc": heavy_fc["equivalent"],
    }

    ranks = []
    for left, right in (("aaaa", "aaa"), ("ab", "ba"), ("abab", "abba")):
        ranks.append(
            {
                "pair": f"{left} vs {right}",
                "fc_rank": distinguishing_rank(left, right, 4, "ab"),
                "foeq_rank": foeq_distinguishing_rank(left, right, 4),
            }
        )

    sq, nonsq = "ab" * 4, "ab" * 5
    eq_essential = {
        "folt_rank2_equivalent": folt_equiv_k(sq, nonsq, 2),
        "foeq_rank3_equivalent": foeq_equiv_k(sq, nonsq, 3),
    }

    return {
        "agreement": {"checked": checked, "mismatches": mismatches},
        "shared_witness": shared,
        "rank_comparison": ranks,
        "eq_essential": eq_essential,
        "passed": (
            mismatches == 0
            and shared["foeq"]
            and shared["fc"]
            and all(r["fc_rank"] <= r["foeq_rank"] for r in ranks)
            and eq_essential["folt_rank2_equivalent"] is True
            and eq_essential["foeq_rank3_equivalent"] is False
        ),
    }


# ---------------------------------------------------------------------------
# E21 — distinguishing-formula synthesis (constructive Theorem 3.4).


def run_e21(spot: dict[str, Any], max_length: int = 3, k: int = 2) -> dict[str, Any]:
    from repro.ef.equivalence import equiv_k
    from repro.ef.synthesis import (
        SynthesisFailure,
        synthesize_distinguishing_sentence,
    )
    from repro.fc.semantics import defines_language_member
    from repro.fc.syntax import quantifier_rank, subformulas
    from repro.words.generators import words_up_to

    words = list(words_up_to("ab", max_length))
    separable = synthesized = verified = 0
    max_size = 0
    for i, w in enumerate(words):
        for v in words[i + 1 :]:
            if equiv_k(w, v, k, alphabet="ab"):
                continue
            separable += 1
            try:
                phi = synthesize_distinguishing_sentence(w, v, k, "ab")
            except SynthesisFailure:
                continue
            synthesized += 1
            max_size = max(max_size, sum(1 for _ in subformulas(phi)))
            verified += (
                quantifier_rank(phi) <= k
                and defines_language_member(w, phi, "ab")
                and not defines_language_member(v, phi, "ab")
            )
    return {
        "k": k,
        "separable": separable,
        "synthesized": synthesized,
        "verified": verified,
        "max_certificate_nodes": max_size,
        "spot_certificate": spot,
        "passed": (
            separable == synthesized == verified
            and separable > 0
            and spot["synthesized"]
            and spot["verified"]
        ),
    }


# ---------------------------------------------------------------------------
# E22 — the conclusion's game variants.


def run_e22() -> dict[str, Any]:
    from repro.ef.equivalence import equiv_k
    from repro.ef.existential import existential_preorder
    from repro.ef.pebble import pebble_distinguishing_rounds

    exponents = (1, 2, 3, 5)
    matrix = []
    for p in exponents:
        row = {"power": p, "absorbs": {}}
        for q in exponents:
            row["absorbs"][str(q)] = existential_preorder(
                "a" * p, "a" * q, 2
            )
        matrix.append(row)

    pebble_rows = []
    for w, v, pebbles in (
        ("a" * 12, "a" * 14, 2),
        ("a" * 12, "a" * 14, 3),
        ("aaaa", "aaa", 2),
    ):
        separated_at = pebble_distinguishing_rounds(w, v, pebbles, 4, "a")
        pebble_rows.append(
            {
                "pair": f"a^{len(w)} vs a^{len(v)}",
                "pebbles": pebbles,
                "plain_equiv_2": equiv_k(w, v, 2, alphabet="a"),
                "separated_at": separated_at,
            }
        )
    by_key = {(r["pair"], r["pebbles"]): r for r in pebble_rows}
    headline = by_key[("a^12 vs a^14", 2)]
    return {
        "existential": matrix,
        "pebble": pebble_rows,
        "passed": (
            all(matrix[0]["absorbs"][str(q)] for q in exponents)
            and all(not row["absorbs"]["1"] for row in matrix[1:])
            and headline["plain_equiv_2"] is True
            and headline["separated_at"] == 3
        ),
    }


# ---------------------------------------------------------------------------
# E23 — core simplification.


def run_e23() -> dict[str, Any]:
    from repro.spanners.normal_form import compile_spanner, core_simplify
    from repro.spanners.spanner import (
        EqualitySelect,
        Join,
        Project,
        SpannerUnion,
        extract,
    )

    regular_tree = Project(
        Join(
            SpannerUnion(extract(".*x{aa}.*"), extract(".*x{ab}.*")),
            extract(".*y{b+}.*"),
        ),
        ("x",),
    )
    core_tree = EqualitySelect(
        Join(extract(".*x{a+}.*"), extract(".*y{a+}.*")), "x", "y"
    )
    automaton = compile_spanner(regular_tree)
    simplified = core_simplify(core_tree)
    rows = []
    for n in (8, 16, 24):
        document = ("aab" * n)[:n]
        tree_out = {
            frozenset(r.items()) for r in regular_tree.evaluate(document)
        }
        automaton_out = {
            frozenset(r.items()) for r in automaton.evaluate(document)
        }
        core_out = {
            frozenset(r.items()) for r in core_tree.evaluate(document)
        }
        simplified_out = {
            frozenset(r.items()) for r in simplified.evaluate(document)
        }
        rows.append(
            {
                "doc_length": n,
                "regular_rows": len(tree_out),
                "tree_equals_automaton": tree_out == automaton_out,
                "core_rows": len(core_out),
                "core_equals_simplified": core_out == simplified_out,
            }
        )
    return {
        "rows": rows,
        "automaton_states": automaton.state_count(),
        "hoisted_selections": len(simplified.selections),
        "passed": all(
            r["tree_equals_automaton"] and r["core_equals_simplified"]
            for r in rows
        ),
    }


# ---------------------------------------------------------------------------
# The default registry: 23 experiments + the primitive tasks they share.

EXPERIMENT_NAMES = [f"E{i:02d}" for i in range(1, 24)]

_EXPERIMENT_DESCRIPTIONS = {
    "E01": "Example 3.3 — Spoiler wins the 2-round game on a^{2i} vs a^{2i-1}",
    "E02": "Theorem 3.4 — ≡_k ⟺ agreement on an FC(k) sentence pool",
    "E03": "Lemma 3.6 — minimal unary pairs; {2^n} not semi-linear",
    "E04": "Proposition 3.7 — ≡_k is not a congruence",
    "E05": "Proposition 4.1 — L_fib ∈ L(FC)",
    "E06": "Lemma 4.2 — short factors force identical responses",
    "E07": "Lemma 4.3 — prefixes answer prefixes, suffixes answer suffixes",
    "E08": "Lemma 4.4 — Pseudo-Congruence, strategy verified on every line",
    "E09": "Example 4.5 — a^n b^n is not FC-definable",
    "E10": "Proposition 4.6 — L1 = a^n (ba)^n is not FC-definable",
    "E11": "Lemmas 4.7 / A.1 / D.4 — primitive-word structure",
    "E12": "Lemma 4.8 — Primitive Power, with the negative control",
    "E13": "Lemma 4.10 — co-primitivity ⟺ factor-intersection stabilises",
    "E14": "Lemma 4.12 + Prop 4.13 — fooling pairs",
    "E15": "Lemma 4.14 — all witness families + heavyweight exact conclusions",
    "E16": "Lemma 5.4 — bounded regular constraints compile into FC",
    "E17": "Theorem 5.8 — the ψ-reductions for all eight relations",
    "E18": "Section 5 — spanner algebra, selection gap, closure trick",
    "E19": "Section 3 — unary ≡_k classes are semi-linear; {2^n} is not",
    "E20": "Related work — FC games vs the FO[EQ] route",
    "E21": "Theorem 3.4 constructive — synthesis of separating sentences",
    "E22": "Conclusions — existential and pebble game variants",
    "E23": "Related work — algebra closure and core simplification",
}

_WITNESS_DEP_PARAMS = {
    "anbn": "anbn",
    "L1": "l1",
    "L2": "l2",
    "L3": "l3",
    "L4": "l4",
    "L5": "l5",
    "L6": "l6",
}


def build_default_registry() -> TaskRegistry:
    """The full task DAG: primitives feeding the 23 experiments."""
    registry = TaskRegistry()
    here = "repro.engine.experiments"
    prim = "repro.engine.primitives"

    registry.add(
        "prim/pow2-pairs",
        f"{prim}:unary_minimal_pairs",
        args={"max_rank": 2, "max_exponent": 20},
        version="3",
        description="ef.equivalence — minimal aᵖ ≡_k a^q pairs for k ≤ 2",
    )
    for family, param in _WITNESS_DEP_PARAMS.items():
        registry.add(
            f"prim/witness/{family}",
            f"{prim}:witness_report",
            args={"name": family},
            version=_ENGINE_VERSION,
            description=f"core.witnesses — Lemma 4.14 chain for {family}",
        )
    registry.add(
        "prim/equiv/anbn-k2",
        f"{prim}:equivalence",
        args={
            "w": "a" * _HEAVY_P + "b" * _HEAVY_P,
            "v": "a" * _HEAVY_Q + "b" * _HEAVY_P,
            "k": 2,
            "alphabet": "ab",
        },
        version=_ENGINE_VERSION,
        description="ef.equivalence — a¹²b¹² ≡₂ a¹⁴b¹² (heavyweight exact)",
    )
    registry.add(
        "prim/equiv/abpow-k2",
        f"{prim}:equivalence",
        args={
            "w": "ab" * _HEAVY_P,
            "v": "ab" * _HEAVY_Q,
            "k": 2,
            "alphabet": "ab",
        },
        version=_ENGINE_VERSION,
        description="ef.equivalence — (ab)¹² ≡₂ (ab)¹⁴ (heavyweight exact)",
    )
    registry.add(
        "prim/synth/aaaa-aaa-k2",
        f"{prim}:synthesize",
        args={"w": "aaaa", "v": "aaa", "k": 2, "alphabet": "ab"},
        version=_ENGINE_VERSION,
        description="ef.synthesis — verified separating FC(2) certificate",
    )
    for relation in RELATION_NAMES:
        registry.add(
            f"prim/relation/{relation}",
            f"{prim}:relation_agreement",
            args={"name": relation, "max_length": 7},
            version=_RELATION_TASK_VERSION,
            description=f"core.relations — ψ-reduction agreement for {relation}",
            shards=ShardPlan(
                f"{prim}:plan_relation",
                f"{prim}:relation_agreement_shard",
                f"{prim}:relation_agreement_merge",
            ),
        )

    experiment_deps: dict[str, dict[str, str]] = {
        "E03": {"pow2_pairs": "prim/pow2-pairs"},
        "E04": {"pow2_pairs": "prim/pow2-pairs"},
        "E09": {"anbn": "prim/witness/anbn"},
        "E10": {"l1": "prim/witness/L1"},
        "E12": {"pow2_pairs": "prim/pow2-pairs"},
        "E15": {
            **{
                param: f"prim/witness/{family}"
                for family, param in _WITNESS_DEP_PARAMS.items()
            },
            "heavy_anbn": "prim/equiv/anbn-k2",
            "heavy_ab": "prim/equiv/abpow-k2",
        },
        "E17": {
            relation.lower(): f"prim/relation/{relation}"
            for relation in RELATION_NAMES
        },
        "E20": {"heavy_fc": "prim/equiv/anbn-k2"},
        "E21": {"spot": "prim/synth/aaaa-aaa-k2"},
    }
    # Grid experiments whose word/exponent universes shard cleanly;
    # every other task stays monolithic (their critical paths are
    # single solver calls, not enumerations).
    experiment_shards = {
        name: ShardPlan(
            f"{here}:plan_{name.lower()}",
            f"{here}:run_{name.lower()}_shard",
            f"{here}:run_{name.lower()}_merge",
        )
        for name in ("E01", "E02", "E05")
    }
    for name in EXPERIMENT_NAMES:
        registry.add(
            name,
            f"{here}:run_{name.lower()}",
            deps=experiment_deps.get(name, {}),
            version=_TASK_VERSIONS.get(name, _ENGINE_VERSION),
            description=_EXPERIMENT_DESCRIPTIONS[name],
            shards=experiment_shards.get(name),
        )
    return registry
