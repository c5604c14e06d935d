"""Automorphism groups of interned structures, for symmetry reduction.

An automorphism of the τ_Σ structure behind an :class:`InternTable` is a
permutation of ids that fixes ⊥ and every constant and preserves the
concatenation relation in both directions.  The EF solver quotients its
transposition table by these: if σ_A, σ_B are automorphisms of the two
structures, a position ``p`` and its image ``{(σ_A(a), σ_B(b))}`` are
winning for exactly the same player, so one canonical representative per
orbit suffices.

Full word structures are rigid — ε and the letter constants pin every
factor by induction on length — so for them this returns ``(identity,)``
and the solver skips canonicalization entirely.  Nontrivial groups arise
for *restricted* structures (the Pseudo-Congruence lookup games of E08
restrict unary universes to sparse length sets, where e.g. two long
``a``-blocks neither of which is a constant or a concatenation result
can be swapped).

Enumeration is exact backtracking with signature-based pruning, guarded
by caps (universe size, group size, search nodes).  When any cap trips
we fall back to ``(identity,)`` — always sound, since quotienting by a
*subgroup* of the true automorphism group still merges only genuinely
equivalent positions.
"""

from __future__ import annotations

from functools import lru_cache

from repro import metrics
from repro.kernel.interning import InternTable
from repro.store import artifacts, runtime as store_runtime

__all__ = ["automorphism_group"]

#: Universes larger than this skip enumeration outright.
_MAX_UNIVERSE = 80
#: Stop (and fall back to identity) once this many automorphisms exist.
_MAX_GROUP = 64
#: Backtracking-node budget before falling back to identity.
_MAX_NODES = 50_000
#: Universes smaller than this never touch the artifact store: the
#: backtracking search on a handful of ids is cheaper than a probe.
_STORE_MIN_UNIVERSE = 16


def _signatures(table: InternTable) -> list[tuple]:
    """Invariant fingerprint per id; automorphisms preserve signatures.

    Components: which constants the id realises, its factor length's
    multiplicity class is NOT used (automorphisms need not preserve
    length), and in/out concatenation profiles of the ``cat`` table.
    """
    n = table.n_factors
    cat = table.cat
    const_positions: dict[int, tuple[int, ...]] = {}
    for position, const_id in enumerate(table.const_ids):
        const_positions.setdefault(const_id, ())
        const_positions[const_id] = (*const_positions[const_id], position)
    signatures: list[tuple] = [()] * (n + 1)
    for i in range(n + 1):
        row = cat[i]
        out_defined = sum(1 for value in row if value != -1)
        in_defined = sum(1 for j in range(n + 1) if cat[j][i] != -1)
        as_result = sum(1 for j in range(n + 1) for value in cat[j] if value == i)
        square = row[i]
        signatures[i] = (
            const_positions.get(i, ()),
            out_defined,
            in_defined,
            as_result,
            square != -1,
        )
    return signatures


def _enumerate(table: InternTable) -> tuple[tuple[int, ...], ...] | None:
    """All automorphisms, or ``None`` if a cap tripped."""
    n = table.n_factors
    cat = table.cat
    signatures = _signatures(table)

    fixed = {0} | {const_id for const_id in table.const_ids}
    candidates: list[tuple[int, ...]] = [(0,)] * (n + 1)
    for i in range(1, n + 1):
        if i in fixed:
            candidates[i] = (i,)
        else:
            candidates[i] = tuple(
                x
                for x in range(1, n + 1)
                if x not in fixed and signatures[x] == signatures[i]
            )
    # Assign the most constrained ids first: smaller candidate sets fail
    # fast, and constants (singletons) get pinned immediately.
    order = sorted(range(1, n + 1), key=lambda i: (len(candidates[i]), i))

    found: list[tuple[int, ...]] = []
    image = [-1] * (n + 1)
    image[0] = 0
    used = [False] * (n + 1)
    nodes = 0

    def consistent(i: int, x: int) -> bool:
        """Definedness pattern and known images must match after σ(i)=x."""
        for j in range(n + 1):
            y = image[j]
            if y == -1:
                continue
            for left, right, s_left, s_right in (
                (i, j, x, y),
                (j, i, y, x),
            ):
                value = cat[left][right]
                mapped = cat[s_left][s_right]
                if (value == -1) != (mapped == -1):
                    return False
                if value != -1 and image[value] != -1 and image[value] != mapped:
                    return False
        return True

    def verify(perm: tuple[int, ...]) -> bool:
        for i in range(n + 1):
            row = cat[i]
            mapped_row = cat[perm[i]]
            for j in range(n + 1):
                value = row[j]
                expected = -1 if value == -1 else perm[value]
                if mapped_row[perm[j]] != expected:
                    return False
        return True

    def backtrack(depth: int) -> bool:
        """Depth-first over ``order``; returns False when a cap trips."""
        nonlocal nodes
        if depth == len(order):
            perm = tuple(image)
            if verify(perm):
                found.append(perm)
                if len(found) > _MAX_GROUP:
                    return False
            return True
        i = order[depth]
        for x in candidates[i]:
            if used[x]:
                continue
            nodes += 1
            if nodes > _MAX_NODES:
                return False
            if not consistent(i, x):
                continue
            image[i] = x
            used[x] = True
            ok = backtrack(depth + 1)
            image[i] = -1
            used[x] = False
            if not ok:
                return False
        return True

    if not backtrack(0):
        return None
    # The identity always verifies, so ``found`` is never empty; sorting
    # puts it first (it is lexicographically minimal) and makes the
    # group order deterministic.
    found.sort()
    return tuple(found)


@lru_cache(maxsize=256)
def automorphism_group(table: InternTable) -> tuple[tuple[int, ...], ...]:
    """Automorphisms of ``table`` as id-permutation tuples.

    Always contains the identity.  Falls back to ``(identity,)`` when the
    universe exceeds :data:`_MAX_UNIVERSE` or enumeration trips a cap —
    a sound under-approximation (see module docstring).
    """
    n = table.n_factors
    identity = tuple(range(n + 1))
    if n > _MAX_UNIVERSE:
        metrics.record("automorphism_cap_hits")
        return (identity,)
    args = None
    if store_runtime.active() is not None and n >= _STORE_MIN_UNIVERSE:
        args = {
            "word": table.word,
            "alphabet": "".join(table.alphabet),
            "universe": artifacts.fingerprint_strings(table.elements[1:]),
        }
        payload = store_runtime.load(
            artifacts.AUTOMORPHISM_KIND, artifacts.AUTOMORPHISM_VERSION, args
        )
        if payload is not None:
            metrics.record("automorphism_groups_hydrated")
            return artifacts.decode_permutations(payload)
    group = _enumerate(table)
    if group is None:
        # The identity fallback is never persisted: it reflects this
        # build's cap settings, not a property of the structure.
        metrics.record("automorphism_cap_hits")
        return (identity,)
    if args is not None:
        store_runtime.publish(
            artifacts.AUTOMORPHISM_KIND,
            artifacts.AUTOMORPHISM_VERSION,
            args,
            artifacts.encode_permutations(group),
        )
    return group


metrics.register("kernel.automorphism_group", automorphism_group)
