"""The FC evaluator: one formula compiled once, bound once per word family.

Every fast FC path runs here.  Membership sweeps — ``L(φ) ∩ Σ^{≤n}`` in
E05, the E02 signature pools, the Theorem 5.8 agreement checks —
evaluate one *fixed* sentence on thousands of words; the per-word
front-ends (:func:`repro.fc.semantics.models`,
:func:`~repro.fc.semantics.satisfying_assignments`) run the same plan
on a family of one word.  :func:`repro.fc.semantics.evaluate_naive` is
the only other evaluator, kept as the Section 2 oracle.

Compilation is split in two:

* a **plan** (:class:`_SweepPlan`, from :func:`compiled_plan`) depends
  only on ``(formula, alphabet)``.  It is compiled once per process —
  an ``lru_cache`` registered in :mod:`repro.metrics`; formula nodes are
  frozen dataclasses, so a formula rebuilt per request (``parse_fc``,
  ``paper_formula``) hits by structural equality — and it is immutable,
  so the daemon's handler threads share it.  Every plan node and every
  candidate-pool node is one closure over its children, slots and
  constant indices: evaluation makes direct calls, with no dispatch on
  node kinds;
* a **binding** (:class:`SweepProgram`, from
  :meth:`LanguageSweep.compile`) attaches a plan to one
  :class:`~repro.kernel.sweep.SweepFamily`: it interns the plan's
  constants into the family and owns the family-wide memos.  Per-word
  state (environment, quantifier caches, word scans) lives on
  :class:`_Ctx`, fresh per :meth:`SweepProgram.evaluate` /
  :meth:`SweepProgram.relation` call.

Everything word-independent is shared:

* **Pool plans** — which atoms constrain each quantified variable, with
  which terms known/masked, is static; only the known *values* vary.
  The sideways-information-passing recursion over the formula is done
  at compile time, leaving a small intersection/union tree over
  per-atom candidate generators.  Soundness invariant: every value of
  the variable outside the pool makes the guarded subformula evaluate
  to the non-decisive truth value (``∃`` → false, ``∀`` → true).
* **Chain heads** — every variable ranges over the word's factors, so
  when the pooled variable is the head of ``x ≐ p₁⋯p_k`` (``x ≐ y·z``
  is the two-part chain) a true atom makes ``x`` begin with the
  concatenation of the leading run of known parts (constants and
  outer-bound variables) and end with that of the trailing run.  The
  pool is the word's factors with that prefix, intersected with those
  with that suffix; with every part known it is the one concatenation,
  and only a chain with no known part at either end is unconstrained.
* **Global candidate memos** — candidates derived from a known head
  value are substrings of that value, hence factors of *any* word the
  value occurs in: chain decompositions, prefix/suffix cuts and halves
  are memoised per value across the whole family (gid-keyed via
  :class:`repro.kernel.sweep.SweepFamily`).  Only whole-word scans
  (``factors with prefix p``, or suffix) stay per-word.
* **Assignment-pure extension atoms** — atoms declaring
  ``_assignment_pure`` (their truth depends only on the values of their
  free variables: regex constraints on variables, the Theorem 5.8
  oracle atoms) are memoised per value tuple across the family, so a
  DFA runs once per distinct factor instead of once per enumerated
  tuple.  A unary one on a pooled variable filters its candidates
  through two family-wide masks, the ids decided so far and the ids
  accepted: a pool is filtered by evaluating only its undecided ids
  and one ``&``.  Any other extension atom (a Const-subject regex
  constraint, whose ⊥-ness reads the word) is a per-word leaf:
  evaluated against the word's
  :class:`~repro.fc.structures.WordStructure`, never memoised across
  words.
* **Conjunct ordering** — flattened ∧/∨ chains are evaluated cheapest
  subformula first (evaluation is total, so the boolean result is
  order-independent); φ_fib's ``φ_w(u) ∧ chain ∧ …`` blocks stop
  paying the quantified whole-word check on every candidate that a
  one-probe chain atom already refutes.

Every FC[REG] formula compiles.  A constant outside Σ raises
``ValueError`` at compile time (the message of
:meth:`WordStructure.constant`; an ``lru_cache`` does not cache
exceptions, so every call raises), an unknown node ``TypeError`` — the
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
``pool & table.mask`` in :meth:`_Ctx.scan`.  The ``sweep_bitset_ops``
counter measures the mask algebra per word.

The lint suite sees the closures as follows: a nested ``def`` runs when
it is called, not when it is defined (:mod:`repro.analysis.callgraph`),
so the effects of a returned closure do not count against the cached
compiler; the id-domain flow does not descend into nested ``def``s, so
every domain-checked step — the universe restriction, the memo reads
and writes, the slot maps — lives in methods of :class:`_Ctx` and
:class:`SweepProgram`, which the closures call.

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

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

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


@dataclass(frozen=True, eq=False)
class _AtomSpec:
    """An extension atom as the plan sees it: the node, its free
    variables in sorted-name order and their environment slots.
    ``index`` keys the family-wide memo of an assignment-pure atom."""

    atom: Formula
    names: tuple
    index: int
    slots: tuple  # repro-lint: domain[iter[slot]] the atom's free-variable slots, minted by _Compiler._slot


@dataclass(frozen=True, eq=False)
class _ChainSpec:
    """A chain atom projected onto one pooled part variable.  ``head``
    and ``knowns`` are pool refs (see :meth:`_Ctx.ref`; ``None`` marks
    the pooled variable and masked unknowns); ``index`` keys the
    family-wide chain memo."""

    parts: tuple
    var: Var
    head: int
    knowns: tuple
    index: int


@dataclass(frozen=True, eq=False)
class _SweepPlan:
    """One formula compiled for one alphabet.

    Immutable and independent of any word family, so the daemon's
    threads share it through :func:`compiled_plan`.  ``consts`` lists
    the constant symbols the closures refer to by index; a
    :class:`SweepProgram` interns them.
    """

    alphabet: str
    consts: tuple
    #: the formula's truth as one closure ``ctx → bool``.
    root: Callable
    #: free variables in sorted-name order — the relation's column
    #: order, matching ``satisfying_assignments``' enumeration.
    free_vars: tuple
    #: per-free-var candidate pools for the relation scan: variable i is
    #: scanned with variables i+1.. still unknown, so they are masked —
    #: the same known/masked discipline as a quantifier prefix, reusing
    #: the pool soundness invariant with target=True (the pool contains
    #: every value under which the formula can still be satisfied).
    free_pools: tuple
    n_slots: int
    n_quants: int
    free_slots: tuple  # repro-lint: domain[iter[slot]] the free variables' slots, minted by _Compiler._slot


class _Ctx:
    """Per-word evaluation state, plus the binding's lookups the plan's
    closures read on every call."""

    __slots__ = (
        "program",
        "table",
        "members",
        "env",
        "caches",
        "scan_memo",
        "view",
        "bitops",
        "gids",
        "cat",
        "eps",
    )

    def __init__(self, program: "SweepProgram", table: SweepTable) -> None:
        plan = program.plan
        self.program = program
        self.table = table
        self.members = table.members
        #: slot → gid of the current (partial) assignment.
        self.env: list = [None] * plan.n_slots  # repro-lint: domain[map[slot, intern:sweep]]
        #: per-quantifier projection caches (projection → bool).
        self.caches = [{} for _ in range(plan.n_quants)]
        #: per-word memo for word-dependent candidate scans.
        self.scan_memo: dict = {}
        self.view = _WordView(table.word, plan.alphabet)
        #: mask operations spent on this word (flushed to
        #: ``sweep_bitset_ops`` once per evaluate/relation call — one
        #: counter update per word, not per op).
        self.bitops = 0
        self.cat = program.family.cat
        self.gids = program.gids  # repro-lint: domain[iter[intern:sweep]] the plan's constants, interned by the binding
        self.eps = program.family.epsilon_id  # repro-lint: domain[intern:sweep]

    # repro-lint: domain[returns=intern:sweep] the declared pool-ref → gid translator
    def ref(self, code: int) -> int:
        """Runtime value of a pool ref: a constant's family gid (≥ 0,
        *without* the per-word ⊥ check — :meth:`scan` intersects every
        pool with the word's factor universe, which subsumes it) or an
        outer-bound variable's value (``-(slot + 1)``)."""
        if code >= 0:
            return self.gids[code]
        # repro-lint: allow[domains.slot-discipline] term codes encode Var slots as -(slot+1); this is the declared decoding
        return self.env[-1 - code]

    # repro-lint: domain[returns=intern:sweep] the declared term-code → gid translator for truth evaluation (None for ⊥)
    def term(self, code: int):
        """Truth-evaluation value of a term code: gid, or ``None`` for a
        ⊥ constant (a letter absent from the word).  Out-of-alphabet
        constants never compile, and ε is a factor of every word."""
        if code < 0:
            # repro-lint: allow[domains.slot-discipline] term codes encode Var slots as -(slot+1); this is the declared decoding
            return self.env[-1 - code]
        gid = self.gids[code]
        return gid if gid in self.members else None

    def scan(self, pool):
        """The word's factors a quantifier (or relation column) ranges
        over, in ``(len, text)`` order: the whole universe, or the pool
        closure's candidates restricted to it.

        Pool candidates are derived from *globally* resolved values
        (constant gids, substrings of outer bindings) and may fall
        outside this word's factor universe — e.g. a constant head whose
        letter the word lacks (⊥ in the per-word structure).
        Quantifiers range over the word's factors, so restrict to the
        domain here; without this, assignment-pure extension atoms
        (regex/oracle) can hold at non-domain values and flip the
        verdict.
        """
        table = self.table
        if pool is None:
            return table.universe
        # repro-lint: domain[bitset-pool:sweep] pool closures mint over the family's id space, unrestricted by this word
        candidates = pool(self)
        mask = candidates & table.mask
        self.bitops += 1
        if mask == table.mask:
            # Unconstraining pool: the universe is already in
            # (len, text) order — skip extraction and sort.
            return table.universe
        if not mask & (mask - 1):
            # At most one candidate (the cut and half pools): no sort.
            return (mask.bit_length() - 1,) if mask else ()
        return sorted(iter_ids(mask), key=self.program.family.sort_key)

    # repro-lint: domain[returns=bitset-pool:sweep, value=intern:sweep] every candidate here IS a factor of the word, but the pool contract stays uniform: callers intersect before witnessing
    def word_scan(self, prefix: bool, value: int) -> int:
        """Factors of the current word with a given prefix (``prefix``)
        or suffix — the only word-dependent candidates, memoised per
        word and keyed by the known value."""
        key = (prefix, value)
        cached = self.scan_memo.get(key)
        if cached is None:
            cached = self._scan_word(prefix, self.program.family.strings[value])
            self.scan_memo[key] = cached
        return cached

    # repro-lint: domain[returns=bitset-pool:sweep] whole-word scan candidates are factors of the word, minted as a pool
    def _scan_word(self, prefix: bool, value: str) -> int:
        word = self.table.word
        # Every factor of a table's word already has an id.
        id_of = self.program.family.id_of
        found = 0
        starts = []
        start = word.find(value)
        while start != -1:
            starts.append(start)
            start = word.find(value, start + 1)
        # An occurrence contributes the prefixes of word[start:] (or the
        # suffixes of word[:end]); when that string is a prefix (suffix)
        # of the last one scanned, its factors are all in ``found``
        # already — on a periodic word, every occurrence after the first.
        scanned = -1
        if prefix:
            for start in starts:
                if scanned < 0 or not word.startswith(word[start:], scanned):
                    for end in range(start + len(value), len(word) + 1):
                        found |= 1 << id_of[word[start:end]]
                    scanned = start
        else:
            for start in reversed(starts):
                end = start + len(value)
                if scanned < 0 or not word.endswith(word[:end], 0, scanned):
                    for begin in range(0, start + 1):
                        found |= 1 << id_of[word[begin:end]]
                    scanned = end
        return found


# -- truth closures -----------------------------------------------------------
#
# A term code is ``-(slot + 1)`` for a variable and a constant index
# (≥ 0, into the plan's ``consts``) otherwise.  Every factory returns one
# closure ``ctx → bool``.


def _concat(x: int, y: int, z: int):
    if x < 0 and y < 0 and z < 0:
        xs, ys, zs = -1 - x, -1 - y, -1 - z

        def concat_vars(ctx):
            env = ctx.env
            # Values are factors of the word, so the string equation
            # x = y·z is exactly R∘ membership.
            return ctx.cat(env[ys], env[zs]) == env[xs]

        return concat_vars

    def concat(ctx):
        term = ctx.term
        x_val, y_val, z_val = term(x), term(y), term(z)
        if x_val is None or y_val is None or z_val is None:
            return False
        return ctx.cat(y_val, z_val) == x_val

    return concat


def _chain(head: int, parts: tuple):
    def chain(ctx):
        term = ctx.term
        head_val = term(head)
        if head_val is None:
            return False
        members = ctx.members
        cat = ctx.cat
        joined = ctx.eps
        for code in parts:
            value = term(code)
            if value is None:
                return False
            joined = cat(joined, value)
            if joined not in members:
                # A true chain's partial concatenations are prefixes of
                # the (factor) head, hence factors: fail early.
                return False
        return joined == head_val

    return chain


def _not(inner):
    def negation(ctx):
        return not inner(ctx)

    return negation


def _and(children: tuple):
    def conjunction(ctx):
        for child in children:
            if not child(ctx):
                return False
        return True

    return conjunction


def _or(children: tuple):
    def disjunction(ctx):
        for child in children:
            if child(ctx):
                return True
        return False

    return disjunction


def _implies(left, right):
    def implication(ctx):
        return (not left(ctx)) or right(ctx)

    return implication


def _search(want: bool, slot: int, pool, inner):
    """The uncached scan of one quantifier, ``ctx → bool``; the shadowed
    value of ``slot`` is restored after the scan."""
    if want:

        def exists(ctx):
            env = ctx.env
            shadow = env[slot]
            env[slot] = None
            result = False
            for gid in ctx.scan(pool):
                env[slot] = gid
                if inner(ctx):
                    result = True
                    break
            env[slot] = shadow
            return result

        return exists

    def forall(ctx):
        env = ctx.env
        shadow = env[slot]
        env[slot] = None
        result = True
        for gid in ctx.scan(pool):
            env[slot] = gid
            if not inner(ctx):
                result = False
                break
        env[slot] = shadow
        return result

    return forall


def _cached_quantifier(index: int, free: tuple, search):
    """A quantifier cached per word on the projection of the assignment
    onto its free variables."""
    if not free:

        def closed(ctx):
            cache = ctx.caches[index]
            result = cache.get(())
            if result is None:
                result = cache[()] = search(ctx)
            return result

        return closed
    if len(free) == 1:
        (first,) = free

        def unary(ctx):
            key = ctx.env[first]
            cache = ctx.caches[index]
            result = cache.get(key)
            if result is None:
                result = cache[key] = search(ctx)
            return result

        return unary
    if len(free) == 2:
        first, second = free

        def binary(ctx):
            env = ctx.env
            key = (env[first], env[second])
            cache = ctx.caches[index]
            result = cache.get(key)
            if result is None:
                result = cache[key] = search(ctx)
            return result

        return binary

    def general(ctx):
        env = ctx.env
        key = tuple([env[s] for s in free])
        cache = ctx.caches[index]
        result = cache.get(key)
        if result is None:
            result = cache[key] = search(ctx)
        return result

    return general


def _pure_atom(spec: _AtomSpec):
    def pure_atom(ctx):
        return ctx.program._ext_truth(spec, ctx)

    return pure_atom


def _leaf_atom(spec: _AtomSpec, alphabet: str):
    """An extension atom that is not assignment-pure: it reads the
    word's structure, so it is evaluated afresh and never memoised
    across words."""

    def leaf_atom(ctx):
        env = ctx.env
        texts = ctx.program.family.strings
        return spec.atom._evaluate(
            word_structure(ctx.table.word, alphabet),
            {v: texts[env[s]] for v, s in zip(spec.names, spec.slots)},
        )

    return leaf_atom


# -- pool closures ------------------------------------------------------------
#
# A pool closure evaluates to a bitset of gids (a big-int mask,
# :mod:`repro.kernel.bitset`) that is guaranteed to contain every value
# of the pooled variable under which the guarded subformula can reach
# the decisive truth value (the pool soundness invariant); a ``None``
# pool means "unconstrained — scan the word's universe".  Pools may hold
# gids that are not factors of the current word: :meth:`_Ctx.scan`
# intersects before any id is witnessed.


def _pool_fold(refs: tuple):
    """A chain's head unknown, every part known: their concatenation."""
    first, rest = refs[0], refs[1:]

    def fold(ctx):
        ref = ctx.ref
        joined = ref(first)
        for code in rest:
            joined = ctx.cat(joined, ref(code))
        return 1 << joined if joined in ctx.members else 0

    return fold


def _pool_affix(prefix: bool, refs: tuple):
    """A chain's head unknown, some part unknown: the word's factors
    that begin (``prefix``) or end with the concatenation of a run of
    known parts at that end."""
    first, rest = refs[0], refs[1:]

    def affix(ctx):
        ref = ctx.ref
        joined = ref(first)
        for code in rest:
            joined = ctx.cat(joined, ref(code))
        return ctx.word_scan(prefix, joined)

    return affix


def _pool_span(case: str, refs: tuple):
    """Candidates that are substrings of a known head value."""
    if len(refs) == 1:
        (head,) = refs

        def span1(ctx):
            return ctx.program._span(case, (ctx.ref(head),))

        return span1
    head, other = refs

    def span2(ctx):
        ref = ctx.ref
        return ctx.program._span(case, (ref(head), ref(other)))

    return span2


def _pool_chain(spec: _ChainSpec):
    head = spec.head
    knowns = spec.knowns

    def chain_pool(ctx):
        ref = ctx.ref
        values = tuple([None if code is None else ref(code) for code in knowns])
        return ctx.program._chain_pool(spec, ref(head), values)

    return chain_pool


def _pool_filter(spec: _AtomSpec):
    """An assignment-pure unary atom filtering the word's universe."""

    def filtered(ctx):
        return ctx.program._filtered(spec, None, ctx)

    return filtered


def _pool_inter(sets: tuple, filters: tuple):
    def intersection(ctx):
        pool = None
        for child in sets:
            candidates = child(ctx)
            if pool is None:
                pool = candidates
            else:
                pool &= candidates
                ctx.bitops += 1
            if not pool:
                return 0
        for spec in filters:
            pool = ctx.program._filtered(spec, pool, ctx)
            if not pool:
                return 0
        return pool

    return intersection


def _pool_union(children: tuple):
    def union(ctx):
        merged = 0
        for child in children:
            merged |= child(ctx)
            ctx.bitops += 1
        return merged

    return union


def _pool_head(refs: tuple):
    """The pool of a chain's head ``x ≐ p₁⋯p_k`` from the parts' pool
    refs (``None``: an unknown part — the pooled variable or a masked
    one).  Every variable ranges over the word's factors, so a true atom
    makes ``x`` begin with the concatenation of the leading run of known
    parts and end with that of the trailing run; ``x ≐ y·z`` is the
    two-part chain.  A run holding a constant whose letter the word
    lacks is found nowhere, so its scan is empty, as the atom is false.
    """
    if None not in refs:
        return _pool_fold(refs)
    lead = refs[: refs.index(None)]
    trail = refs[len(refs) - refs[::-1].index(None) :]
    runs = []
    if lead:
        runs.append(_pool_affix(True, lead))
    if trail:
        runs.append(_pool_affix(False, trail))
    if not runs:
        return None
    if len(runs) == 1:
        return runs[0]
    return _pool_inter(tuple(runs), ())


class _Compiler:
    """Throwaway builder for one :class:`_SweepPlan`: owns the counters
    and maps compilation grows, so the plan itself is written once."""

    def __init__(self, alphabet: str) -> None:
        self.alphabet = alphabet
        #: Var → environment-slot index.  Rebinding a variable reuses
        #: its slot; the quantifier's save/restore gives shadowing the
        #: same semantics the assignment dict had.
        self.slot_of: dict = {}  # repro-lint: domain[map[plain, slot]]
        #: constant symbol → index into the plan's ``consts``.
        self.const_of: dict = {}
        self.n_atoms = 0
        self.n_quants = 0

    def plan(self, formula: Formula) -> _SweepPlan:
        alphabet = self.alphabet
        for const in constants_used(formula):
            if const.symbol != "" and const.symbol not in alphabet:
                # The error WordStructure.constant raises for any word.
                raise ValueError(
                    f"{const.symbol!r} is not a constant of τ_{{{alphabet}}}"
                )
        root, fv, _cost = self._compile(formula)
        free_vars = tuple(sorted(fv, key=lambda v: v.name))
        # repro-lint: domain[iter[slot]]
        free_slots = tuple(self._slot(v) for v in free_vars)
        free_pools = tuple(
            self._pool(formula, var, True, frozenset(free_vars[i + 1 :]))
            for i, var in enumerate(free_vars)
        )
        return _SweepPlan(
            alphabet=alphabet,
            consts=tuple(self.const_of),
            root=root,
            free_vars=free_vars,
            free_pools=free_pools,
            n_slots=len(self.slot_of),
            n_quants=self.n_quants,
            free_slots=free_slots,
        )

    # repro-lint: domain[returns=slot] the slot mint: every environment index originates here
    def _slot(self, var: Var) -> int:
        return self.slot_of.setdefault(var, len(self.slot_of))

    def _code(self, term) -> int:
        """Term code: Const → its constant index (≥ 0), Var → ``-(slot + 1)``."""
        if isinstance(term, Const):
            return self.const_of.setdefault(term.symbol, len(self.const_of))
        return -1 - self._slot(term)

    def _compile(self, node: Formula):
        """``(closure, free variables, cost)`` of one formula node."""
        if isinstance(node, Concat):
            terms = (node.x, node.y, node.z)
            codes = tuple(self._code(t) for t in terms)
            fv = frozenset(t for t in terms if isinstance(t, Var))
            return _concat(*codes), fv, 1
        if isinstance(node, ConcatChain):
            terms = (node.x, *node.parts)
            codes = tuple(self._code(t) for t in terms)
            fv = frozenset(t for t in terms if isinstance(t, Var))
            return _chain(codes[0], codes[1:]), fv, len(node.parts)
        if isinstance(node, Not):
            inner, fv, cost = self._compile(node.inner)
            return _not(inner), fv, cost
        if isinstance(node, (And, Or)):
            flat: list = []
            self._flatten(node, type(node), flat)
            # Cheapest conjunct/disjunct first: evaluation is total, so
            # short-circuit order cannot change the boolean result, and
            # stable sort keeps the source order among equals.
            flat.sort(key=lambda entry: entry[2])
            children = tuple(entry[0] for entry in flat)
            fv = frozenset().union(*(entry[1] for entry in flat))
            cost = sum(entry[2] for entry in flat)
            if isinstance(node, And):
                return _and(children), fv, cost
            return _or(children), fv, cost
        if isinstance(node, Implies):
            left, left_fv, left_cost = self._compile(node.left)
            right, right_fv, right_cost = self._compile(node.right)
            return _implies(left, right), left_fv | right_fv, left_cost + right_cost
        if isinstance(node, (Exists, Forall)):
            index = self.n_quants
            self.n_quants += 1
            inner, inner_fv, inner_cost = self._compile(node.inner)
            slot = self._slot(node.var)
            want = isinstance(node, Exists)
            fv = inner_fv - {node.var}
            free = tuple(self._slot(v) for v in sorted(fv, key=lambda v: v.name))
            pool = self._pool(node.inner, node.var, want, frozenset())
            search = _search(want, slot, pool, inner)
            return _cached_quantifier(index, free, search), fv, 10 + 20 * inner_cost
        # Extension atom.  When assignment-pure (truth a function of its
        # free-variable values alone) the family-wide value-tuple memo is
        # sound; any other atom is a per-word leaf.
        if getattr(node, "_evaluate", None) is not None:
            fv = free_variables(node)
            names = tuple(sorted(fv, key=lambda v: v.name))
            spec = _AtomSpec(
                node, names, self._atom_index(), tuple(self._slot(v) for v in names)
            )
            if getattr(node, "_assignment_pure", False):
                return _pure_atom(spec), fv, 5
            return _leaf_atom(spec, self.alphabet), fv, 5
        raise TypeError(f"unknown formula node: {node!r}")

    def _flatten(self, node: Formula, op: type, out: list) -> None:
        if isinstance(node, op):
            self._flatten(node.left, op, out)
            self._flatten(node.right, op, out)
        else:
            out.append(self._compile(node))

    def _atom_index(self) -> int:
        """A fresh memo-key index for one atom of the plan."""
        index = self.n_atoms
        self.n_atoms += 1
        return index

    # -- pool compilation ----------------------------------------------------

    def _pool(self, node: Formula, var: Var, target: bool, masked: frozenset):
        """The candidate pool closure of ``var`` for which ``node`` can
        evaluate to ``target`` (``None``: unconstrained)."""
        pool = self._pool_expr(node, var, target, masked)
        if isinstance(pool, _AtomSpec):
            return _pool_filter(pool)
        return pool

    def _pool_expr(self, node: Formula, var: Var, target: bool, masked: frozenset):
        """As :meth:`_pool`, but a lone filter stays an :class:`_AtomSpec`
        so an enclosing intersection can apply it to its candidates.

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
            return self._pool_atom(node, var, masked)
        if isinstance(node, Not):
            return self._pool_expr(node.inner, var, not target, masked)
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
                self._pool_expr(sub, var, sub_target, masked)
                for sub, sub_target in pairs
            ]
            if want_inter:
                kept = [c for c in children if c is not None]
                if not kept:
                    return None
                if len(kept) == 1:
                    return kept[0]
                sets = tuple(
                    c for c in kept if not isinstance(c, _AtomSpec)
                )
                filters = tuple(c for c in kept if isinstance(c, _AtomSpec))
                return _pool_inter(sets, filters)
            if any(c is None for c in children):
                return None
            return _pool_union(
                tuple(
                    _pool_filter(c) if isinstance(c, _AtomSpec) else c
                    for c in children
                )
            )
        if isinstance(node, (Exists, Forall)):
            if node.var == var:
                # Rebinding: every atom below sees var as masked, so the
                # whole subtree is unconstraining.
                return None
            return self._pool_expr(
                node.inner, var, target, masked | {node.var}
            )
        # Extension atom: an assignment-pure one whose only free variable
        # is the pooled one filters the candidates (positive polarity).
        if (
            target
            and getattr(node, "_assignment_pure", False)
            and free_variables(node) == frozenset((var,))
        ):
            return _AtomSpec(node, (var,), self._atom_index(), ())
        return None

    def _pool_atom(self, atom, var: Var, masked: frozenset):
        """The specialised candidate closure for one atom; ``None`` when
        the atom cannot constrain ``var`` (the pooled variable on both
        sides, or no known value to derive candidates from)."""

        def ref(term):
            """Pool ref for a term: constant index ≥ 0, ``-(slot+1)``
            (outer-bound Var), or None (the pooled variable / a masked
            inner variable)."""
            if isinstance(term, Const):
                return self._code(term)
            if term == var or term in masked:
                return None
            return -1 - self._slot(term)

        if isinstance(atom, Concat):
            terms = (atom.x, atom.y, atom.z)
            if var not in terms:
                return None
            in_x, in_y, in_z = (t == var for t in terms)
            x_ref, y_ref, z_ref = (ref(t) for t in terms)
            if in_x and not in_y and not in_z:
                return _pool_head((y_ref, z_ref))
            if in_y or in_z:
                if x_ref is None:
                    return None  # includes the in_x-and-in_y/z mixes
                if in_y and in_z:
                    return _pool_span("half", (x_ref,))
                if in_y:
                    if z_ref is not None:
                        return _pool_span("ycut", (x_ref, z_ref))
                    return _pool_span("yall", (x_ref,))
                if y_ref is not None:
                    return _pool_span("zcut", (x_ref, y_ref))
                return _pool_span("zall", (x_ref,))
            return None
        # ConcatChain.
        if var == atom.x:
            return _pool_head(tuple(ref(part) for part in atom.parts))
        if var not in atom.parts:
            return None
        head_ref = ref(atom.x)
        if head_ref is None:
            return None
        part_refs = tuple(
            None if part == var else ref(part) for part in atom.parts
        )
        return _pool_chain(
            _ChainSpec(atom.parts, var, head_ref, part_refs, self._atom_index())
        )


@lru_cache(maxsize=256)
def compiled_plan(formula: Formula, alphabet: str) -> _SweepPlan:
    """The plan of ``formula`` over ``alphabet`` (shared process-wide)."""
    return _Compiler(alphabet).plan(formula)


metrics.register("fc.sweep.compiled_plan", compiled_plan)


class SweepProgram:
    """One compiled plan bound to one :class:`SweepFamily`.

    Sentences answer membership via :meth:`evaluate`; open formulas
    emit their satisfying-assignment relation via :meth:`relation`.
    The binding holds the family-wide memos (all gid-keyed, hence
    word-independent); the plan it runs is shared and never written.
    """

    def __init__(self, plan: _SweepPlan, family: SweepFamily) -> None:
        self.plan = plan
        self.family = family
        self.free_vars = plan.free_vars
        self._span_memo: dict = {}
        self._chain_memo: dict = {}
        self._filter_memo: dict = {}
        self._ext_memo: dict = {}
        intern = family.intern
        self.gids = tuple(intern(symbol) for symbol in plan.consts)  # repro-lint: domain[iter[intern:sweep]] the plan's constants in this family's id space

    # -- family-wide memos ---------------------------------------------------

    # repro-lint: domain[returns=bitset-pool:sweep, values=iter[intern:sweep]] substring candidates of a known value may be absent from the current word's factor set
    def _span(self, case: str, values: tuple) -> int:
        key = (case, *values)
        cached = self._span_memo.get(key)
        if cached is None:
            cached = self._span_candidates(case, values)
            self._span_memo[key] = cached
        return cached

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
    def _chain_pool(self, spec: _ChainSpec, head_gid: int, knowns: tuple) -> int:
        key = (spec.index, head_gid, knowns)
        cached = self._chain_memo.get(key)
        if cached is None:
            cached = self._chain_backtrack(spec, head_gid, knowns)
            self._chain_memo[key] = cached
        return cached

    # repro-lint: domain[returns=bitset-pool:sweep, head_gid=intern:sweep, knowns=iter[intern:sweep]] chain projections intern fresh decomposition parts on demand
    def _chain_backtrack(
        self, spec: _ChainSpec, head_gid: int, knowns: tuple
    ) -> int:
        """Project the head's chain decompositions onto the pooled
        variable: backtracking over split points, with constants and
        known values pruning (on the global id space)."""
        family = self.family
        head = family.strings[head_gid]
        parts = spec.parts
        var = spec.var
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

    # repro-lint: domain[returns=bitset-pool:sweep, pool=bitset-pool:sweep] filter refinement keeps a pool a pool
    def _filtered(self, spec: _AtomSpec, pool, ctx: _Ctx) -> int:
        """The candidates (``None``: the word's universe) that satisfy
        an assignment-pure unary filter atom.

        The family-wide memo keeps two masks per atom, the ids decided
        so far and the ids accepted, so the atom runs once per id and
        family: only the candidates not yet decided are evaluated.
        """
        # repro-lint: domain[bitset-pool:sweep] the word's universe or the caller's pool, which may hold non-factors
        candidates = ctx.table.mask if pool is None else pool
        decided, accepted = self._filter_memo.get(spec.index, (0, 0))
        fresh = candidates & ~decided  # repro-lint: allow[effects.memo-key-completeness] the mask memo accumulates: decided grows with the candidates seen, and each bit of accepted depends only on (atom, id)
        if fresh:
            name = spec.names[0]
            texts = self.family.strings
            # repro-lint: allow[domains.universe-escape] filter refinement inside the pool evaluator: the result stays a pool, and every caller intersects with the member mask before witnessing
            for gid in iter_ids(fresh):
                # repro-lint: allow[effects.memo-key-completeness] ctx.view only reaches _assignment_pure atoms, whose results do not depend on it (enforced by effects.assignment-purity)
                if spec.atom._evaluate(ctx.view, {name: texts[gid]}):
                    accepted |= 1 << gid
            self._filter_memo[spec.index] = (decided | fresh, accepted)
        ctx.bitops += 1
        return candidates & accepted

    def _ext_truth(self, spec: _AtomSpec, ctx: _Ctx):
        """An assignment-pure atom's truth, memoised on the value
        projection of its free variables."""
        env = ctx.env
        projection = tuple([env[s] for s in spec.slots])
        key = (spec.index, projection)
        cached = self._ext_memo.get(key)
        if cached is None:
            texts = self.family.strings
            assignment = {
                v: texts[g] for v, g in zip(spec.names, projection)
            }
            cached = spec.atom._evaluate(ctx.view, assignment)
            self._ext_memo[key] = cached
        return cached

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, table: SweepTable, assignment=None) -> bool:
        """Truth of the formula on ``table``'s word.

        ``assignment`` maps every free variable to a factor of the word
        (a sentence needs none); other entries are ignored.  Open
        formulas also emit their whole relation via :meth:`relation`.
        """
        ctx = _Ctx(self, table)
        plan = self.plan
        if plan.free_vars:
            env = ctx.env
            intern = self.family.intern
            for index, var in enumerate(plan.free_vars):
                slot = plan.free_slots[index]
                if assignment is None or var not in assignment:
                    raise ValueError(
                        f"evaluate() needs a value for free variable "
                        f"{var!r}; open formulas emit their relation via "
                        f"relation()"
                    )
                env[slot] = intern(assignment[var])
        result = plan.root(ctx)
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
        ctx = _Ctx(self, table)
        rows: list = []
        if not self.plan.free_vars:
            if self.plan.root(ctx):
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
        plan = self.plan
        slots = plan.free_slots
        env = ctx.env
        if level == len(slots):
            if plan.root(ctx):
                rows.append(tuple(env[s] for s in slots))
            return
        slot = slots[level]
        next_level = level + 1
        for gid in ctx.scan(plan.free_pools[level]):
            env[slot] = gid
            self._relation_scan(next_level, ctx, rows)
        env[slot] = None


class LanguageSweep:
    """A shared id space for evaluating sentences over one alphabet's
    word family (one instance per sweep; multiple sentences may share
    it, as the E02 signature pool does)."""

    def __init__(self, alphabet: str) -> None:
        self.alphabet = alphabet
        self.family = SweepFamily(tuple(alphabet))

    def compile(self, formula: Formula) -> SweepProgram:
        """Bind the cached plan of an FC[REG] formula to this family:
        sentences and assigned open formulas answer
        :meth:`SweepProgram.evaluate`, open formulas emit
        :meth:`SweepProgram.relation`."""
        return SweepProgram(compiled_plan(formula, self.alphabet), self.family)

    def subtree(self, prefix: str):
        """A shard view over one prefix subtree of the enumeration tree.

        Compiled programs evaluate subtree tables exactly as whole-grid
        tables — the candidate pools, chain decompositions and filter
        memos all key on family-global ids, so shards of the same
        family share them (see :class:`repro.kernel.sweep.SweepSubtree`).
        """
        return self.family.subtree(prefix)
