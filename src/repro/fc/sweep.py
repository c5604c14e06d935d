"""The FC evaluator: one formula compiled once against a word family.

Every fast FC path runs here.  Membership sweeps — ``L(φ) ∩ Σ^{≤n}`` in
E05, the E02 signature pools, the Theorem 5.8 agreement checks —
evaluate one *fixed* sentence on thousands of words; the per-word
front-ends (:func:`repro.fc.semantics.models`,
:func:`~repro.fc.semantics.satisfying_assignments`) run the same plan
on a family of one word.  :func:`repro.fc.semantics.evaluate_naive` is
the only other evaluator, kept as the Section 2 oracle.

:class:`SweepProgram` compiles the formula **once per family** into a
plan tree and shares everything that is word-independent:

* **Pool plans** — which atoms constrain each quantified variable, with
  which terms known/masked, is static; only the known *values* vary.
  The sideways-information-passing recursion over the formula is done
  at compile time, leaving a small intersection/union tree over
  per-atom candidate generators.  Soundness invariant: every value of
  the variable outside the pool makes the guarded subformula evaluate
  to the non-decisive truth value (``∃`` → false, ``∀`` → true).
* **Global candidate memos** — candidates derived from a known head
  value are substrings of that value, hence factors of *any* word the
  value occurs in: chain decompositions, prefix/suffix cuts and halves
  are memoised per value across the whole family (gid-keyed via
  :class:`repro.kernel.sweep.SweepFamily`).  Only whole-word scans
  (``factors with prefix p``) stay per-word.
* **Assignment-pure extension atoms** — atoms declaring
  ``_assignment_pure`` (their truth depends only on the values of their
  free variables: regex constraints on variables, the Theorem 5.8
  oracle atoms) are memoised per value tuple across the family, so a
  DFA runs once per distinct factor instead of once per enumerated
  tuple.  Any other extension atom (a Const-subject regex constraint,
  whose ⊥-ness reads the word) is a per-word leaf: evaluated against
  the word's :class:`~repro.fc.structures.WordStructure`, never memoised
  across words.
* **Conjunct ordering** — flattened ∧/∨ chains are evaluated cheapest
  subformula first (evaluation is total, so the boolean result is
  order-independent); φ_fib's ``φ_w(u) ∧ chain ∧ …`` blocks stop
  paying the quantified whole-word check on every candidate that a
  one-probe chain atom already refutes.

Every FC[REG] formula compiles.  A constant outside Σ raises
``ValueError`` at compile time (the message of
:meth:`WordStructure.constant`), an unknown node ``TypeError`` — the
errors :func:`~repro.fc.semantics.evaluate_naive` raises.

Truth of a quantifier-free pure subformula depends only on the gid
assignment, not the word: values are factors, so ``x = y·z`` over
factors holds in the structure iff it holds as a string equation.
Quantified subformulas *do* depend on the word (scans range over its
factors), so each quantifier caches its verdict per projection of the
assignment onto its free variables, per word.

Candidate pools, span/chain/scan memo entries and quantifier
restrictions are all **dense bitsets over the family's id space**
(big-int masks, :mod:`repro.kernel.bitset`): pool ∧/∨ chains are
single C-level ``&``/``|`` operations, and the PR-4 soundness
restriction "quantifiers range over the word's factors" is one
``pool & table.mask``.  The ``sweep_bitset_ops`` counter measures the
mask algebra per word.

Beyond truth values, a compiled program with free variables emits the
full satisfying-assignment **relation** per word
(:meth:`SweepProgram.relation`): free variables are scanned outermost,
in sorted-name order, each restricted by a statically compiled pool
(later free variables masked, exactly like a quantifier prefix), and
rows are slot-indexed gid tuples in the family's deterministic
``(len, text)`` enumeration order — the nested full-universe order,
pool-pruned.

Differential tests (``tests/fc/test_sweep_differential.py``,
``tests/fc/test_relation_sweep.py``, ``tests/fc/test_optimizer.py``,
``tests/kernel/test_evaluator_differential.py``) compare every front-end
with ``evaluate_naive`` over full small grids, seeded longer samples and
hypothesis-generated formulas, including regex- and oracle-bearing ones.
"""

from __future__ import annotations

from repro import metrics
from repro.fc.syntax import (
    And,
    Concat,
    ConcatChain,
    Const,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Var,
    constants_used,
    free_variables,
)
from repro.fc.structures import word_structure
from repro.kernel.bitset import iter_ids
from repro.kernel.sweep import SweepFamily, SweepTable

__all__ = ["LanguageSweep", "SweepProgram"]


class _WordView:
    """Minimal structure stand-in passed to assignment-pure extension
    atoms.

    A pure atom's truth is a function of its assigned values alone —
    that is exactly what makes the family-wide ``_filter_memo`` /
    ``_ext_memo`` sound.  ``constant`` is word-dependent (⊥ when the
    letter is absent), so an atom consulting it violates the purity
    contract and would silently poison cross-word memo entries; it
    raises instead, turning the contract violation into a loud failure.
    """

    __slots__ = ("word", "alphabet")

    def __init__(self, word: str, alphabet: str) -> None:
        self.word = word
        self.alphabet = alphabet

    def constant(self, symbol: str):
        raise TypeError(
            f"assignment-pure extension atoms must not read structure "
            f"constants (constant({symbol!r}) is word-dependent, but the "
            f"atom's result is memoised family-wide)"
        )


# Plan-node kinds: _EXT is an assignment-pure extension atom (memoised
# family-wide), _LEAF any other extension atom (evaluated per word).
_CONCAT, _CHAIN, _NOT, _AND, _OR, _IMPLIES, _QUANT, _EXT, _LEAF = range(9)


class _Plan:
    """One compiled formula node (a parallel tree over the sentence)."""

    __slots__ = (
        "kind",
        "node",
        "children",
        "cost",
        "codes",
        "var_slot",
        "want",
        "fv",
        "free",
        "pool",
        "cache_index",
        "ext_index",
        "ext_free",
    )

    def __init__(self, kind: int, node: Formula) -> None:
        self.kind = kind
        self.node = node
        self.children: tuple = ()
        self.cost = 1
        #: term codes: gid for a Const (≥ 0), ``-(slot + 1)`` for a Var.
        self.codes: tuple = ()
        self.var_slot = -1  # repro-lint: domain[slot] the quantified variable's environment slot
        self.want = True
        #: the node's free variables, collected bottom-up at compile time.
        self.fv: frozenset = frozenset()
        #: environment slots of the node's free variables (projection).
        self.free: tuple = ()  # repro-lint: domain[iter[slot]]
        self.pool = None
        self.cache_index = -1
        self.ext_index = -1
        self.ext_free: tuple = ()


# Pool-expression nodes.  A pool expression evaluates to a bitset of
# gids (a big-int mask, :mod:`repro.kernel.bitset`) that is guaranteed
# to contain every value of the pooled variable under which the guarded
# subformula can reach the decisive truth value (the pool soundness
# invariant); ``None`` pool plans mean "unconstrained — scan the word's
# universe".


class _PoolAtom:
    """Candidate generator from one Concat/ConcatChain atom.

    ``case`` selects the specialised generator (which terms are known is
    static); ``refs`` holds per-term value sources: an int gid ≥ 0 for
    constants (resolved globally, *without* the per-word ⊥ check — the
    quantifier scan intersects the pool with the word's factor universe,
    which subsumes it), ``-(slot + 1)`` for outer-bound variables,
    ``None`` for the pooled/masked unknowns.
    """

    __slots__ = ("case", "refs", "atom", "var", "index")

    def __init__(self, case: str, refs: tuple, atom, var, index: int) -> None:
        self.case = case
        self.refs = refs
        self.atom = atom
        self.var = var
        self.index = index


class _PoolFilter:
    """An assignment-pure unary extension atom used as a membership
    filter (memoised per gid family-wide)."""

    __slots__ = ("atom", "var", "index")

    def __init__(self, atom, var, index: int) -> None:
        self.atom = atom
        self.var = var
        self.index = index


class _PoolInter:
    __slots__ = ("sets", "filters")

    def __init__(self, sets: tuple, filters: tuple) -> None:
        self.sets = sets
        self.filters = filters


class _PoolUnion:
    __slots__ = ("children",)

    def __init__(self, children: tuple) -> None:
        self.children = children


class _Ctx:
    """Per-word evaluation state."""

    __slots__ = ("table", "env", "caches", "scan_memo", "view", "bitops")

    def __init__(
        self, table: SweepTable, n_slots: int, n_caches: int, view
    ) -> None:
        self.table = table
        #: slot → gid of the current (partial) assignment.
        self.env: list = [None] * n_slots  # repro-lint: domain[map[slot, intern:sweep]]
        #: per-quantifier projection caches (projection tuple → bool).
        self.caches = [dict() for _ in range(n_caches)]
        #: per-word memo for word-dependent candidate scans.
        self.scan_memo: dict = {}
        self.view = view
        #: mask operations spent on this word (flushed to
        #: ``sweep_bitset_ops`` once per evaluate/relation call — one
        #: locked counter update per word, not per op).
        self.bitops = 0


class SweepProgram:
    """One formula compiled against one :class:`SweepFamily`.

    Sentences answer membership via :meth:`evaluate`; open formulas
    emit their satisfying-assignment relation via :meth:`relation`.
    """

    def __init__(
        self, sentence: Formula, family: SweepFamily, alphabet: str
    ) -> None:
        self.family = family
        self.alphabet = alphabet
        self._quant_count = 0
        self._pool_index = 0
        self._ext_count = 0
        #: Var → environment-slot index.  Rebinding a variable reuses
        #: its slot; the quantifier's save/restore gives shadowing the
        #: same semantics the assignment dict had.
        self._slot_of: dict = {}  # repro-lint: domain[map[plain, slot]]
        #: family-global memos (all gid-keyed, hence word-independent).
        self._span_memo: dict = {}
        self._chain_memo: dict = {}
        self._filter_memo: dict = {}
        self._ext_memo: dict = {}
        for const in constants_used(sentence):
            if const.symbol != "" and const.symbol not in alphabet:
                # The error WordStructure.constant raises for any word.
                raise ValueError(
                    f"{const.symbol!r} is not a constant of τ_{{{alphabet}}}"
                )
        self.root = self._compile(sentence)
        #: free variables in sorted-name order — the relation's column
        #: order, matching ``satisfying_assignments``' enumeration.
        self.free_vars = tuple(sorted(self.root.fv, key=lambda v: v.name))
        self._free_slots = tuple(self._slot(v) for v in self.free_vars)  # repro-lint: domain[iter[slot]]
        #: per-free-var candidate pools for the relation scan: variable
        #: i is scanned with variables i+1.. still unknown, so they are
        #: masked — the same known/masked discipline as a quantifier
        #: prefix, reusing the pool soundness invariant with
        #: target=True (the pool contains every value under which the
        #: formula can still be satisfied).
        self._free_pools = tuple(
            self._compile_pool(
                sentence, var, True, frozenset(self.free_vars[i + 1 :])
            )
            for i, var in enumerate(self.free_vars)
        )
        self._n_slots = len(self._slot_of)
        self._eps = family.epsilon_id  # repro-lint: domain[intern:sweep]

    # -- compilation ---------------------------------------------------------

    # repro-lint: domain[returns=slot] the slot mint: every environment index originates here
    def _slot(self, var: Var) -> int:
        return self._slot_of.setdefault(var, len(self._slot_of))

    def _code(self, term) -> int:
        """Term code: Const → its gid (≥ 0), Var → ``-(slot + 1)``."""
        if isinstance(term, Const):
            return self.family.intern(term.symbol)
        return -1 - self._slot(term)

    def _compile(self, node: Formula) -> _Plan:
        if isinstance(node, Concat):
            plan = _Plan(_CONCAT, node)
            terms = (node.x, node.y, node.z)
            plan.codes = tuple(self._code(t) for t in terms)
            plan.fv = frozenset(t for t in terms if isinstance(t, Var))
            plan.cost = 1
            return plan
        if isinstance(node, ConcatChain):
            plan = _Plan(_CHAIN, node)
            terms = (node.x, *node.parts)
            plan.codes = tuple(self._code(t) for t in terms)
            plan.fv = frozenset(t for t in terms if isinstance(t, Var))
            plan.cost = len(node.parts)
            return plan
        if isinstance(node, Not):
            plan = _Plan(_NOT, node)
            child = self._compile(node.inner)
            plan.children = (child,)
            plan.fv = child.fv
            plan.cost = child.cost
            return plan
        if isinstance(node, (And, Or)):
            plan = _Plan(_AND if isinstance(node, And) else _OR, node)
            flat: list[_Plan] = []
            self._flatten(node, type(node), flat)
            # Cheapest conjunct/disjunct first: evaluation is total, so
            # short-circuit order cannot change the boolean result, and
            # stable sort keeps the source order among equals.
            flat.sort(key=lambda p: p.cost)
            plan.children = tuple(flat)
            plan.fv = frozenset().union(*(p.fv for p in flat))
            plan.cost = sum(p.cost for p in flat)
            return plan
        if isinstance(node, Implies):
            plan = _Plan(_IMPLIES, node)
            plan.children = (
                self._compile(node.left),
                self._compile(node.right),
            )
            plan.fv = plan.children[0].fv | plan.children[1].fv
            plan.cost = plan.children[0].cost + plan.children[1].cost
            return plan
        if isinstance(node, (Exists, Forall)):
            plan = _Plan(_QUANT, node)
            inner = self._compile(node.inner)
            plan.children = (inner,)
            plan.var_slot = self._slot(node.var)
            plan.want = isinstance(node, Exists)
            plan.fv = inner.fv - {node.var}
            plan.free = tuple(
                self._slot(v) for v in sorted(plan.fv, key=lambda v: v.name)
            )
            plan.cache_index = self._quant_count
            self._quant_count += 1
            plan.pool = self._compile_pool(
                node.inner, node.var, plan.want, frozenset()
            )
            plan.cost = 10 + 20 * inner.cost
            return plan
        # Extension atom.  When assignment-pure (truth a function of its
        # free-variable values alone) the family-wide value-tuple memo is
        # sound; any other atom is a per-word leaf.
        if getattr(node, "_evaluate", None) is not None:
            pure = getattr(node, "_assignment_pure", False)
            plan = _Plan(_EXT if pure else _LEAF, node)
            plan.fv = free_variables(node)
            plan.ext_free = tuple(sorted(plan.fv, key=lambda v: v.name))
            plan.free = tuple(self._slot(v) for v in plan.ext_free)
            if pure:
                plan.ext_index = self._ext_count
                self._ext_count += 1
            plan.cost = 5
            return plan
        raise TypeError(f"unknown formula node: {node!r}")

    def _flatten(self, node: Formula, op: type, out: list) -> None:
        if isinstance(node, op):
            self._flatten(node.left, op, out)
            self._flatten(node.right, op, out)
        else:
            out.append(self._compile(node))

    # -- pool compilation ----------------------------------------------------

    def _compile_pool(
        self, node: Formula, var: Var, target: bool, masked: frozenset
    ):
        """The candidate pool of ``var`` for which ``node`` can evaluate
        to ``target``, as a pool expression (``None``: unconstrained).

        Polarity-aware: ∧-true and ∨-false intersect their sides' pools,
        ∧-false and ∨-true unite them (``P → Q`` is ``¬P ∨ Q``).  A
        variable bound inside ``node`` is ``masked`` — an unknown, not
        its shadowed outer value — so an atom mentioning it contributes
        "can hold for *some* inner binding".  The recursion happens here,
        once; what remains for runtime is per-atom candidate generation.
        """
        if isinstance(node, (Concat, ConcatChain)):
            if not target:
                return None
            return self._compile_pool_atom(node, var, masked)
        if isinstance(node, Not):
            return self._compile_pool(node.inner, var, not target, masked)
        if isinstance(node, (And, Or, Implies)):
            if isinstance(node, And):
                pairs = ((node.left, target), (node.right, target))
                want_inter = target
            elif isinstance(node, Or):
                pairs = ((node.left, target), (node.right, target))
                want_inter = not target
            else:  # (P → Q) ≡ ¬P ∨ Q
                pairs = ((node.left, not target), (node.right, target))
                want_inter = not target
            children = [
                self._compile_pool(sub, var, sub_target, masked)
                for sub, sub_target in pairs
            ]
            if want_inter:
                kept = [c for c in children if c is not None]
                return self._make_inter(kept)
            if any(c is None for c in children):
                return None
            return _PoolUnion(tuple(children))
        if isinstance(node, (Exists, Forall)):
            if node.var == var:
                # Rebinding: every atom below sees var as masked, so the
                # whole subtree is unconstraining.
                return None
            return self._compile_pool(
                node.inner, var, target, masked | {node.var}
            )
        # Extension atom: an assignment-pure one whose only free variable
        # is the pooled one filters the candidates (positive polarity).
        if (
            target
            and getattr(node, "_assignment_pure", False)
            and free_variables(node) == frozenset((var,))
        ):
            index = self._pool_index
            self._pool_index += 1
            return _PoolFilter(node, var, index)
        return None

    def _make_inter(self, children: list):
        if not children:
            return None
        if len(children) == 1:
            return children[0]
        sets = tuple(c for c in children if not isinstance(c, _PoolFilter))
        filters = tuple(c for c in children if isinstance(c, _PoolFilter))
        return _PoolInter(sets, filters)

    def _compile_pool_atom(self, atom, var: Var, masked: frozenset):
        """Pick the specialised candidate case for one atom; ``None``
        when the atom cannot constrain ``var`` (the pooled variable on
        both sides, or no known value to derive candidates from)."""

        def ref(term):
            """Value source for a term: gid ≥ 0 (Const), ``-(slot+1)``
            (outer-bound Var), or None (the pooled variable / a masked
            inner variable)."""
            if isinstance(term, Const):
                return self.family.intern(term.symbol)
            if term == var or term in masked:
                return None
            return -1 - self._slot(term)

        index = self._pool_index
        self._pool_index += 1
        if isinstance(atom, Concat):
            terms = (atom.x, atom.y, atom.z)
            if var not in terms:
                return None
            in_x, in_y, in_z = (t == var for t in terms)
            x_ref, y_ref, z_ref = (ref(t) for t in terms)
            if in_x and not in_y and not in_z:
                if y_ref is not None and z_ref is not None:
                    return _PoolAtom("xc", (y_ref, z_ref), atom, var, index)
                if y_ref is not None:
                    return _PoolAtom("xp", (y_ref,), atom, var, index)
                if z_ref is not None:
                    return _PoolAtom("xs", (z_ref,), atom, var, index)
                return None
            if in_y or in_z:
                if x_ref is None:
                    return None  # includes the in_x-and-in_y/z mixes
                if in_y and in_z:
                    return _PoolAtom("half", (x_ref,), atom, var, index)
                if in_y:
                    if z_ref is not None:
                        return _PoolAtom(
                            "ycut", (x_ref, z_ref), atom, var, index
                        )
                    return _PoolAtom("yall", (x_ref,), atom, var, index)
                if y_ref is not None:
                    return _PoolAtom("zcut", (x_ref, y_ref), atom, var, index)
                return _PoolAtom("zall", (x_ref,), atom, var, index)
            return None
        # ConcatChain.
        if var == atom.x:
            refs = tuple(ref(part) for part in atom.parts)
            if any(r is None for r in refs):
                return None
            return _PoolAtom("fold", refs, atom, var, index)
        if var not in atom.parts:
            return None
        head_ref = ref(atom.x)
        if head_ref is None:
            return None
        part_refs = tuple(
            None if part == var else ref(part) for part in atom.parts
        )
        return _PoolAtom("bt", (head_ref, *part_refs), atom, var, index)

    # -- pool evaluation -----------------------------------------------------

    # repro-lint: domain[returns=intern:sweep] the declared term-code → gid translator
    def _resolve(self, ref: int, ctx: _Ctx) -> int:
        """Runtime value of a compiled ref (gid or outer-bound slot)."""
        if ref >= 0:
            return ref
        # repro-lint: allow[domains.slot-discipline] term codes encode Var slots as -(slot+1); this is the declared decoding
        return ctx.env[-1 - ref]

    # repro-lint: domain[returns=bitset-pool:sweep] pools may contain gids that are not factors of the current word — intersect with ctx.table.mask before witnessing
    def _pool_eval(self, expr, ctx: _Ctx) -> int:
        """Evaluate a pool expression to a gid bitset (big-int mask)."""
        if isinstance(expr, _PoolAtom):
            return self._pool_atom_eval(expr, ctx)
        if isinstance(expr, _PoolInter):
            pool = None
            for child in expr.sets:
                candidates = self._pool_eval(child, ctx)
                if pool is None:
                    pool = candidates
                else:
                    pool &= candidates
                    ctx.bitops += 1
                if pool is not None and not pool:
                    return 0
            for flt in expr.filters:
                if pool is None:
                    source = ctx.table.universe
                else:
                    # repro-lint: allow[domains.universe-escape] filter refinement inside the pool evaluator: the result stays a pool, and every caller intersects with the member mask before witnessing
                    source = iter_ids(pool)
                acc = 0
                for gid in source:
                    if self._filter_ok(flt, gid, ctx):
                        acc |= 1 << gid
                ctx.bitops += 1
                pool = acc
                if not pool:
                    return 0
            return pool
        if isinstance(expr, _PoolUnion):
            merged = 0
            for child in expr.children:
                merged |= self._pool_eval(child, ctx)
                ctx.bitops += 1
            return merged
        # _PoolFilter standing alone: filter the word's universe.
        acc = 0
        for gid in ctx.table.universe:
            if self._filter_ok(expr, gid, ctx):
                acc |= 1 << gid
        ctx.bitops += 1
        return acc

    # repro-lint: domain[gid=intern:sweep] filters test one candidate gid at a time
    def _filter_ok(self, flt: _PoolFilter, gid: int, ctx: _Ctx) -> bool:
        key = (flt.index, gid)
        cached = self._filter_memo.get(key)
        if cached is None:
            cached = flt.atom._evaluate(
                # repro-lint: allow[effects.memo-key-completeness] ctx.view only reaches _assignment_pure atoms, whose results do not depend on it (enforced by effects.assignment-purity)
                ctx.view, {flt.var: self.family.strings[gid]}
            )
            self._filter_memo[key] = cached
        return cached

    # repro-lint: domain[returns=bitset-pool:sweep] atom pools are minted over the family's id space, unrestricted by the current word
    def _pool_atom_eval(self, pa: _PoolAtom, ctx: _Ctx) -> int:
        family = self.family
        texts = family.strings
        case = pa.case
        if case == "xc":
            combined = family.cat(
                self._resolve(pa.refs[0], ctx), self._resolve(pa.refs[1], ctx)
            )
            if combined in ctx.table.members:
                return 1 << combined
            return 0
        if case == "fold":
            joined = family.epsilon_id
            for ref in pa.refs:
                joined = family.cat(joined, self._resolve(ref, ctx))
            if joined in ctx.table.members:
                return 1 << joined
            return 0
        if case in ("xp", "xs"):
            # Whole-word scans are the only word-dependent candidates:
            # memoised per word (ctx), keyed by the known value.
            value = self._resolve(pa.refs[0], ctx)
            key = (case, value)
            cached = ctx.scan_memo.get(key)
            if cached is None:
                cached = self._word_scan(case, texts[value], ctx)
                ctx.scan_memo[key] = cached
            return cached
        if case == "bt":
            env = ctx.env
            head = self._resolve(pa.refs[0], ctx)
            knowns = tuple(
                # repro-lint: allow[domains.slot-discipline] inlined term-code decoding (see _resolve), kept local to preserve the memo-key fast path
                ref if ref is None or ref >= 0 else env[-1 - ref]
                for ref in pa.refs[1:]
            )
            key = (pa.index, head, knowns)
            cached = self._chain_memo.get(key)
            if cached is None:
                cached = self._chain_backtrack(pa, head, knowns)
                self._chain_memo[key] = cached
            return cached
        # Span cases: substrings of one known value — word-independent.
        values = tuple(self._resolve(ref, ctx) for ref in pa.refs)
        key = (case, *values)
        cached = self._span_memo.get(key)
        if cached is None:
            cached = self._span_candidates(case, values)
            self._span_memo[key] = cached
        return cached

    # repro-lint: domain[returns=bitset-pool:sweep] every candidate here IS a factor of the word, but the pool contract stays uniform: callers intersect before witnessing
    def _word_scan(self, case: str, value: str, ctx: _Ctx) -> int:
        """Factors of the current word with a given prefix/suffix."""
        word = ctx.table.word
        intern = self.family.intern
        found = 0
        start = word.find(value)
        if case == "xp":
            while start != -1:
                for end in range(start + len(value), len(word) + 1):
                    found |= 1 << intern(word[start:end])
                start = word.find(value, start + 1)
        else:
            while start != -1:
                end = start + len(value)
                for begin in range(0, start + 1):
                    found |= 1 << intern(word[begin:end])
                start = word.find(value, start + 1)
        return found

    # repro-lint: domain[returns=bitset-pool:sweep, values=iter[intern:sweep]] substring candidates of a known value may be absent from the current word's factor set
    def _span_candidates(self, case: str, values: tuple) -> int:
        """Candidates that are substrings of the known head value —
        factors of every word the value occurs in, hence family-global."""
        texts = self.family.strings
        intern = self.family.intern
        x_val = texts[values[0]]
        if case == "half":
            half, rem = divmod(len(x_val), 2)
            if rem == 0 and x_val[:half] == x_val[half:]:
                return 1 << intern(x_val[:half])
            return 0
        if case == "ycut":
            z_val = texts[values[1]]
            if x_val.endswith(z_val):
                return 1 << intern(x_val[: len(x_val) - len(z_val)])
            return 0
        if case == "zcut":
            y_val = texts[values[1]]
            if x_val.startswith(y_val):
                return 1 << intern(x_val[len(y_val) :])
            return 0
        mask = 0
        if case == "yall":
            for i in range(len(x_val) + 1):
                mask |= 1 << intern(x_val[:i])
            return mask
        # "zall"
        for i in range(len(x_val) + 1):
            mask |= 1 << intern(x_val[i:])
        return mask

    # repro-lint: domain[returns=bitset-pool:sweep, head_gid=intern:sweep, knowns=iter[intern:sweep]] chain projections intern fresh decomposition parts on demand
    def _chain_backtrack(
        self, pa: _PoolAtom, head_gid: int, knowns: tuple
    ) -> int:
        """Project the head's chain decompositions onto the pooled
        variable: backtracking over split points, with constants and
        known values pruning (on the global id space)."""
        family = self.family
        head = family.strings[head_gid]
        parts = pa.atom.parts
        var = pa.var
        texts = family.strings
        values = [None if g is None else texts[g] for g in knowns]
        total = len(head)
        results: set[str] = set()

        def backtrack(index: int, pos: int, local: dict) -> None:
            if index == len(parts):
                if pos == total:
                    results.add(local[var])
                return
            value = values[index]
            t = parts[index]
            if value is None:
                value = local.get(t)
            if value is not None:
                if head.startswith(value, pos):
                    backtrack(index + 1, pos + len(value), local)
                return
            owned = t not in local
            for end in range(pos, total + 1):
                local[t] = head[pos:end]
                backtrack(index + 1, end, local)
            if owned:
                del local[t]

        backtrack(0, 0, {})
        mask = 0
        for s in results:
            mask |= 1 << family.intern(s)
        return mask

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, table: SweepTable, assignment=None) -> bool:
        """Truth of the formula on ``table``'s word.

        ``assignment`` maps every free variable to a factor of the word
        (a sentence needs none); other entries are ignored.  Open
        formulas also emit their whole relation via :meth:`relation`.
        """
        ctx = _Ctx(
            table,
            self._n_slots,
            self._quant_count,
            _WordView(table.word, self.alphabet),
        )
        for var in self.free_vars:
            if assignment is None or var not in assignment:
                raise ValueError(
                    f"evaluate() needs a value for free variable {var!r}; "
                    f"open formulas emit their relation via relation()"
                )
            ctx.env[self._slot_of[var]] = self.family.intern(assignment[var])
        result = self._eval(self.root, ctx)
        if ctx.bitops:
            metrics.record("sweep_bitset_ops", ctx.bitops)
        return result

    # repro-lint: domain[returns=iter[map[slot, intern:sweep]]] rows are slot-indexed gid tuples; reindex them only through declared slot maps
    def relation(self, table: SweepTable) -> list:
        """The satisfying-assignment relation of the formula on
        ``table``'s word: slot-indexed gid tuples, one column per free
        variable in sorted-name order (``self.free_vars``).

        Rows come out in the deterministic nested ``(len, text)``
        enumeration order — variable 1 outermost — so a sound pool makes
        the row sequence a subsequence of the full nested factor scan,
        word for word the same whichever family the table belongs to;
        stored relations are therefore bit-identical across runs.
        """
        ctx = _Ctx(
            table,
            self._n_slots,
            self._quant_count,
            _WordView(table.word, self.alphabet),
        )
        rows: list = []
        if not self.free_vars:
            if self._eval(self.root, ctx):
                rows.append(())
        else:
            self._relation_scan(0, ctx, rows)
        if ctx.bitops:
            metrics.record("sweep_bitset_ops", ctx.bitops)
        if rows:
            metrics.record("sweep_relation_rows", len(rows))
        return rows

    def _relation_scan(self, level: int, ctx: _Ctx, rows: list) -> None:
        """Scan free variable ``level`` over its pool ∩ factor universe,
        recursing to deeper columns; leaves evaluate the matrix."""
        slots = self._free_slots
        env = ctx.env
        if level == len(slots):
            if self._eval(self.root, ctx):
                rows.append(tuple(env[s] for s in slots))
            return
        table = ctx.table
        pool = self._free_pools[level]
        if pool is None:
            scan = table.universe
        else:
            # Same domain restriction as _quantifier: pools may contain
            # globally-resolved non-factors (absent-letter Consts).
            mask = self._pool_eval(pool, ctx) & table.mask
            ctx.bitops += 1
            if mask == table.mask:
                scan = table.universe
            else:
                scan = sorted(iter_ids(mask), key=self.family.sort_key)
        slot = slots[level]
        next_level = level + 1
        for gid in scan:
            env[slot] = gid
            self._relation_scan(next_level, ctx, rows)
        env[slot] = None

    # repro-lint: domain[returns=intern:sweep] term-code → gid translator for truth evaluation (None for ⊥)
    def _term_gid(self, code: int, ctx: _Ctx):
        """Truth-evaluation term value: gid, or ``None`` for a ⊥
        constant (a letter absent from the word).  Out-of-alphabet
        constants never compile, so every gid code here is ε or a
        letter of Σ."""
        if code < 0:
            # repro-lint: allow[domains.slot-discipline] term codes encode Var slots as -(slot+1); this is the declared decoding
            return ctx.env[-1 - code]
        if code == self._eps:
            return code
        return code if code in ctx.table.members else None

    def _eval(self, plan: _Plan, ctx: _Ctx) -> bool:
        kind = plan.kind
        if kind == _CONCAT:
            codes = plan.codes
            x = self._term_gid(codes[0], ctx)
            y = self._term_gid(codes[1], ctx)
            z = self._term_gid(codes[2], ctx)
            if x is None or y is None or z is None:
                return False
            # Values are factors of the word, so the string equation
            # x = y·z is exactly R∘ membership.
            return self.family.cat(y, z) == x
        if kind == _CHAIN:
            head = self._term_gid(plan.codes[0], ctx)
            if head is None:
                return False
            members = ctx.table.members
            cat = self.family.cat
            joined = self._eps
            for code in plan.codes[1:]:
                value = self._term_gid(code, ctx)
                if value is None:
                    return False
                joined = cat(joined, value)
                if joined not in members:
                    # A true chain's partial concatenations are prefixes
                    # of the (factor) head, hence factors: fail early.
                    return False
            return joined == head
        if kind == _AND:
            for child in plan.children:
                if not self._eval(child, ctx):
                    return False
            return True
        if kind == _OR:
            for child in plan.children:
                if self._eval(child, ctx):
                    return True
            return False
        if kind == _NOT:
            return not self._eval(plan.children[0], ctx)
        if kind == _IMPLIES:
            return (not self._eval(plan.children[0], ctx)) or self._eval(
                plan.children[1], ctx
            )
        if kind == _QUANT:
            return self._quantifier(plan, ctx)
        env = ctx.env
        projection = tuple(env[s] for s in plan.free)
        if kind == _LEAF:
            # Not assignment-pure: reads the word's structure, so it is
            # evaluated afresh and never memoised across words.
            texts = self.family.strings
            return plan.node._evaluate(
                word_structure(ctx.table.word, self.alphabet),
                {v: texts[g] for v, g in zip(plan.ext_free, projection)},
            )
        # _EXT: assignment-pure — memoised on the value projection.
        key = (plan.ext_index, projection)
        cached = self._ext_memo.get(key)
        if cached is None:
            texts = self.family.strings
            assignment = {
                v: texts[g] for v, g in zip(plan.ext_free, projection)
            }
            cached = plan.node._evaluate(ctx.view, assignment)
            self._ext_memo[key] = cached
        return cached

    def _quantifier(self, plan: _Plan, ctx: _Ctx) -> bool:
        env = ctx.env
        slot = plan.var_slot
        shadow = env[slot]

        cache = ctx.caches[plan.cache_index]
        projection = tuple(env[s] for s in plan.free)
        result = cache.get(projection)
        if result is None:
            env[slot] = None
            if plan.pool is None:
                scan = ctx.table.universe
            else:
                # Pool candidates are derived from *globally* resolved
                # values (Const gids, substrings of outer bindings) and
                # may fall outside this word's factor universe — e.g. a
                # Const head whose letter the word lacks (⊥ in the
                # per-word structure).  Quantifiers range over the
                # word's factors, so restrict to the domain here;
                # without this, assignment-pure extension atoms
                # (regex/oracle) can hold at non-domain values and flip
                # the verdict.
                mask = self._pool_eval(plan.pool, ctx) & ctx.table.mask
                ctx.bitops += 1
                if mask == ctx.table.mask:
                    # Unconstraining pool: the universe is already in
                    # (len, text) order — skip extraction and sort.
                    scan = ctx.table.universe
                else:
                    scan = sorted(iter_ids(mask), key=self.family.sort_key)
            want = plan.want
            inner = plan.children[0]
            result = not want
            for gid in scan:
                env[slot] = gid
                if self._eval(inner, ctx) == want:
                    result = want
                    break
            cache[projection] = result

        env[slot] = shadow
        return result


class LanguageSweep:
    """A shared id space for evaluating sentences over one alphabet's
    word family (one instance per sweep; multiple sentences may share
    it, as the E02 signature pool does)."""

    def __init__(self, alphabet: str) -> None:
        self.alphabet = alphabet
        self.family = SweepFamily(tuple(alphabet))

    def compile(self, formula: Formula) -> SweepProgram:
        """Compile an FC[REG] formula against this family: sentences and
        assigned open formulas answer :meth:`SweepProgram.evaluate`,
        open formulas emit :meth:`SweepProgram.relation`."""
        return SweepProgram(formula, self.family, self.alphabet)

    def subtree(self, prefix: str):
        """A shard view over one prefix subtree of the enumeration tree.

        Compiled programs evaluate subtree tables exactly as whole-grid
        tables — the candidate pools, chain decompositions and filter
        memos all key on family-global ids, so shards of the same
        family share them (see :class:`repro.kernel.sweep.SweepSubtree`).
        """
        return self.family.subtree(prefix)
