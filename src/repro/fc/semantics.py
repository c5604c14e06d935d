"""Model checking for FC (and, via a dispatch hook, FC[REG]).

Implements the satisfaction relation of Section 2:

* an *interpretation* is ``(𝔄_w, σ)`` with ``σ`` mapping variables to
  factors of ``w`` (never ⊥) and constants to their fixed interpretation;
* quantifiers range over ``Facs(w)``;
* ``⟦φ⟧(w)`` is the set of assignments (restricted to the free variables)
  that satisfy φ in 𝔄_w.

Every front-end here runs one evaluator, :class:`repro.fc.sweep.SweepProgram`:
the batched ones compile a formula once per word family, and the per-word
ones (:func:`models`, :func:`satisfying_assignments`) treat a single word
as a family of one, with a fresh family per call.
:func:`evaluate_naive` is the plain recursive transcription of the
satisfaction relation, kept as the differential oracle.  Extension atoms
(e.g. FC[REG] regular constraints) participate by providing an
``_evaluate(structure, assignment)`` method.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator

from repro import metrics
from repro.fc.structures import BOTTOM, WordStructure, word_structure
from repro.fc.sweep import LanguageSweep
from repro.store import artifacts as store_artifacts, runtime as store_runtime
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
    Term,
    Var,
    alpha_canonical,
    free_variables,
)
from repro.words.generators import words_up_to

__all__ = [
    "Assignment",
    "evaluate_naive",
    "models",
    "satisfying_assignments",
    "satisfying_tuples",
    "defines_language_member",
    "defines_language_members",
    "defines_language_members_shard",
    "language_signatures",
    "language_slice",
    "languages_agree",
    "merge_shard_rows",
    "shard_words",
    "FCLanguage",
]

#: A variable assignment σ restricted to variables (constants are implicit).
Assignment = Dict[Var, str]



def _term_value(
    structure: WordStructure, assignment: Assignment, t: Term
) -> "str | object":
    """Interpret a term: constants via the structure, variables via σ."""
    if isinstance(t, Const):
        return structure.constant(t.symbol)
    try:
        return assignment[t]
    except KeyError:
        raise ValueError(
            f"free variable {t!r} has no value in the assignment"
        ) from None


def evaluate_naive(
    structure: WordStructure, formula: Formula, assignment: Assignment
) -> bool:
    """Decide ``(𝔄, σ) ⊨ φ`` by the Section 2 definition, verbatim.

    Reference evaluator: no candidate pools, no caches — every quantifier
    scans the full factor universe.  Kept as the differential oracle for
    the sweep evaluator behind every other front-end, and as executable
    documentation of the plain semantics.  ``assignment`` must cover the
    free variables of ``formula``; it is mutated during quantifier scans
    and restored afterwards.
    """
    if isinstance(formula, Concat):
        x = _term_value(structure, assignment, formula.x)
        y = _term_value(structure, assignment, formula.y)
        z = _term_value(structure, assignment, formula.z)
        return structure.concat_holds(x, y, z)
    if isinstance(formula, ConcatChain):
        head = _term_value(structure, assignment, formula.x)
        if head is BOTTOM:
            return False
        pieces = []
        for part in formula.parts:
            value = _term_value(structure, assignment, part)
            if value is BOTTOM:
                return False
            pieces.append(value)
        return head == "".join(pieces) and structure.contains(head)
    if isinstance(formula, Not):
        return not evaluate_naive(structure, formula.inner, assignment)
    if isinstance(formula, And):
        return evaluate_naive(structure, formula.left, assignment) and (
            evaluate_naive(structure, formula.right, assignment)
        )
    if isinstance(formula, Or):
        return evaluate_naive(structure, formula.left, assignment) or (
            evaluate_naive(structure, formula.right, assignment)
        )
    if isinstance(formula, Implies):
        return (not evaluate_naive(structure, formula.left, assignment)) or (
            evaluate_naive(structure, formula.right, assignment)
        )
    if isinstance(formula, (Exists, Forall)):
        variable = formula.var
        shadowed = assignment.get(variable)
        had_value = variable in assignment
        want = isinstance(formula, Exists)
        result = not want
        for factor in structure.universe_factors:
            assignment[variable] = factor
            if evaluate_naive(structure, formula.inner, assignment) == want:
                result = want
                break
        if had_value:
            assignment[variable] = shadowed  # type: ignore[assignment]
        else:
            assignment.pop(variable, None)
        return result
    custom = getattr(formula, "_evaluate", None)
    if custom is not None:
        return custom(structure, assignment)
    raise TypeError(f"unknown formula node: {formula!r}")


def models(
    word: str,
    formula: Formula,
    alphabet: str,
    assignment: Assignment | None = None,
) -> bool:
    """Decide ``𝔄_w ⊨ φ`` (with optional free-variable assignment).

    Raises ``ValueError`` if free variables are left unassigned, a value
    is not a factor of ``word`` (assignments must never be ⊥), or the
    word or a constant is not over ``alphabet``.  The formula runs on a
    one-word :class:`~repro.fc.sweep.LanguageSweep`, fresh per call; the
    caller's ``assignment`` is never mutated.
    """
    word_structure(word, alphabet)  # rejects letters outside Σ
    assignment = assignment or {}
    for variable in free_variables(formula):
        if variable not in assignment:
            raise ValueError(f"free variable {variable!r} unassigned")
    for variable, value in assignment.items():
        if value is BOTTOM or value not in word:
            raise ValueError(
                f"assignment {variable!r} ↦ {value!r} is not a factor of "
                f"{word!r}"
            )
    sweep = LanguageSweep(alphabet)
    program = sweep.compile(formula)
    return program.evaluate(sweep.family.table(word), assignment)


def satisfying_assignments(
    word: str, formula: Formula, alphabet: str
) -> Iterator[Assignment]:
    """Yield ``⟦φ⟧(w)``: every assignment of the free variables of φ to
    factors of ``word`` under which φ holds.

    Assignments are yielded as fresh dicts with domain exactly the free
    variables (matching the paper's convention for ⟦φ⟧).

    With an active artifact store (``repro.store``), the full result set
    is hydrated from the ``fc-assignments`` artifact — same assignments,
    same enumeration order — and published after a cold enumeration is
    exhausted (partial scans are never stored as ⟦φ⟧(w)).
    """
    if store_runtime.active() is None:
        yield from _enumerate_assignments(word, formula, alphabet)
        return
    args = {
        "word": word,
        "alphabet": alphabet,
        # Formula nodes are frozen dataclasses, so repr is structural —
        # but bound-variable names come from process-global gensym
        # counters, so the fingerprint is taken over the alpha-canonical
        # form (binder names replaced by preorder positions).
        "formula": store_artifacts.fingerprint_text(
            repr(alpha_canonical(formula))
        ),
    }
    payload = store_runtime.load(
        store_artifacts.FC_ASSIGNMENTS_KIND,
        store_artifacts.FC_ASSIGNMENTS_VERSION,
        args,
    )
    if payload is not None:
        for row in store_artifacts.decode_assignments(payload):
            yield {Var(name): value for name, value in row}
        return
    rows = []
    for assignment in _enumerate_assignments(word, formula, alphabet):
        rows.append(
            [
                (variable.name, assignment[variable])
                for variable in sorted(assignment, key=lambda v: v.name)
            ]
        )
        yield assignment
    store_runtime.publish(
        store_artifacts.FC_ASSIGNMENTS_KIND,
        store_artifacts.FC_ASSIGNMENTS_VERSION,
        args,
        store_artifacts.encode_assignments(rows),
    )


def _enumerate_assignments(
    word: str, formula: Formula, alphabet: str
) -> Iterator[Assignment]:
    """The cold ⟦φ⟧(w) scan behind :func:`satisfying_assignments`: the
    relation of a one-word sweep.  Rows come in the nested ``(len,
    text)`` order over the free variables sorted by name."""
    word_structure(word, alphabet)  # rejects letters outside Σ
    sweep = LanguageSweep(alphabet)
    program = sweep.compile(formula)
    texts = sweep.family.strings
    for row in program.relation(sweep.family.table(word)):
        yield {var: texts[gid] for var, gid in zip(program.free_vars, row)}


def satisfying_tuples(
    formula: Formula,
    alphabet: str,
    words: Iterable[str],
    scope: int | None = None,
    variables: "tuple[Var, ...] | None" = None,
) -> Iterator[tuple[str, list[tuple[str, ...]]]]:
    """Batched ``⟦φ⟧`` over a word family: yield ``(word, rows)``.

    ``rows`` lists the satisfying value tuples of ``formula`` on
    ``word`` — one column per free variable, in sorted-name order by
    default or in the order given by ``variables`` (a permutation of
    the free variables) — in the same enumeration order
    :func:`satisfying_assignments` yields.  For a sentence, ``rows`` is
    ``[()]`` when the word models φ and ``[]`` otherwise.

    The formula compiles once per family
    (:meth:`repro.fc.sweep.SweepProgram.relation`): interning, pools
    and pure-atom truth are shared across words and the per-word scan
    is pool-pruned bitset algebra.

    ``scope`` declares that ``words`` is exactly ``Σ^{≤scope}`` in
    enumeration order; with an active artifact store the whole grid's
    relation then hydrates from (or publishes to) one
    ``sweep-relation`` artifact, and the family's factor tables go
    through the ``sweep-universe`` artifact as in
    :func:`defines_language_members`.
    """
    canonical = tuple(sorted(free_variables(formula), key=lambda v: v.name))
    if variables is None:
        order = None
    else:
        if sorted(variables, key=lambda v: v.name) != list(canonical):
            raise ValueError(
                "variables must be a permutation of the free variables"
            )
        # repro-lint: domain[iter[slot]] the declared slot map — relation rows are reindexed only through it
        picks = tuple(canonical.index(v) for v in variables)
        order = None if picks == tuple(range(len(canonical))) else picks  # repro-lint: domain[iter[slot]] same slot map, or None for the identity projection

    def project(rows: list) -> list:
        if order is None:
            return rows
        return [tuple(row[i] for i in order) for row in rows]

    sweep = LanguageSweep(alphabet)
    program = sweep.compile(formula)

    def run() -> Iterator[tuple[str, list[tuple[str, ...]]]]:
        store_on = store_runtime.active() is not None and scope is not None
        args = None
        if store_on:
            args = {
                "alphabet": alphabet,
                "max_length": scope,
                # Alpha-canonical fingerprint, for the same reason as
                # satisfying_assignments: binder names are gensym'd.
                "formula": store_artifacts.fingerprint_text(
                    repr(alpha_canonical(formula))
                ),
            }
            payload = store_runtime.load(
                store_artifacts.SWEEP_RELATION_KIND,
                store_artifacts.SWEEP_RELATION_VERSION,
                args,
            )
            if payload is not None:
                grid = store_artifacts.decode_relation_rows(payload)
                metrics.record("sweep_relations_hydrated", len(grid))
                for word, rows in grid:
                    yield word, project(rows)
                return
        family = sweep.family
        publish_universe = _sweep_store_scope(family, alphabet, scope)
        texts = family.strings
        grid = [] if store_on else None
        for word in words:
            table = family.table(word)
            rows = [
                tuple(texts[gid] for gid in row)
                for row in program.relation(table)
            ]
            if grid is not None:
                grid.append((word, rows))
            yield word, project(rows)
        if grid is not None:
            # Published only after the full grid was enumerated, same
            # partial-scan discipline as satisfying_assignments.
            store_runtime.publish(
                store_artifacts.SWEEP_RELATION_KIND,
                store_artifacts.SWEEP_RELATION_VERSION,
                args,
                store_artifacts.encode_relation_rows(grid),
            )
        if publish_universe is not None:
            publish_universe()

    return run()


def _require_sentence(sentence: Formula) -> None:
    if free_variables(sentence):
        raise ValueError(
            f"L(φ) is only defined for sentences; free vars: "
            f"{sorted(v.name for v in free_variables(sentence))}"
        )


def defines_language_member(word: str, sentence: Formula, alphabet: str) -> bool:
    """Return ``w ∈ L(φ)`` for a sentence φ.  Raises on open formulas."""
    _require_sentence(sentence)
    return models(word, sentence, alphabet)


def _sweep_store_scope(family, alphabet: str, scope: int | None):
    """Hydrate a sweep family's tables for ``Σ^{≤scope}`` from the store.

    Returns a publish callback to invoke once the grid has been fully
    enumerated (``None`` on a store hit, without a store, or without a
    declared scope).  The artifact is the whole grid in enumeration
    order — per-word records would cost a probe per word, which is more
    than the incremental extension they replace.
    """
    if store_runtime.active() is None or scope is None:
        return None
    args = {"alphabet": alphabet, "max_length": scope}
    payload = store_runtime.load(
        store_artifacts.SWEEP_UNIVERSE_KIND,
        store_artifacts.SWEEP_UNIVERSE_VERSION,
        args,
    )
    if payload is not None:
        for word, factor_texts in payload:
            family.hydrate(word, factor_texts)
        return None

    def publish() -> None:
        rows = [
            [word, family.export(word)]
            for word in words_up_to(alphabet, scope)
        ]
        store_runtime.publish(
            store_artifacts.SWEEP_UNIVERSE_KIND,
            store_artifacts.SWEEP_UNIVERSE_VERSION,
            args,
            rows,
        )

    return publish


def defines_language_members(
    sentence: Formula, alphabet: str, words: Iterable[str],
    scope: int | None = None,
) -> Iterator[tuple[str, bool]]:
    """Batched ``w ∈ L(φ)`` over a word family: yield ``(word, member)``.

    Compiles the sentence once against a :class:`repro.fc.sweep`
    program so interning, candidate pools and pure-atom truth are shared
    across the whole family; enumeration order of ``words`` is preserved
    (enumerate prefixes-first, e.g. via ``words_up_to``, for the
    incremental table extension to pay off).

    ``scope`` declares that ``words`` is (a prefix of) ``Σ^{≤scope}`` in
    enumeration order; with an active artifact store the family's
    tables then hydrate from (or publish to) the grid's
    ``sweep-universe`` artifact.
    """
    _require_sentence(sentence)
    sweep = LanguageSweep(alphabet)
    program = sweep.compile(sentence)

    def run() -> Iterator[tuple[str, bool]]:
        family = sweep.family
        publish = _sweep_store_scope(family, alphabet, scope)
        for word in words:
            yield word, program.evaluate(family.table(word))
        if publish is not None:
            publish()

    return run()


def shard_words(alphabet: str, max_length: int, shard: dict) -> Iterator[str]:
    """The words one shard descriptor owns, in per-group ``(len, text)``
    order.

    ``shard`` follows the engine's shard-plan grammar
    (:mod:`repro.engine.shards`):

    * ``{"stems": [...], "prefixes": [...]}`` — the listed stem words
      (the below-the-cut layers, owned by shard 0) followed by every
      word of each listed prefix subtree up to ``max_length``;
    * ``{"lengths": [...]}`` — unary length bands: ``alphabet[0] ** l``
      for each listed length.

    A full shard partition yields every word of ``Σ^{≤max_length}``
    exactly once; :func:`merge_shard_rows` restores the global
    enumeration order.
    """
    yield from shard.get("stems", ())
    for prefix in shard.get("prefixes", ()):
        tail = max_length - len(prefix)
        if tail < 0:
            continue
        for suffix in words_up_to(alphabet, tail):
            yield prefix + suffix
    for length in shard.get("lengths", ()):
        yield alphabet[0] * length


def defines_language_members_shard(
    sentence: Formula, alphabet: str, max_length: int, shard: dict
) -> Iterator[tuple[str, bool]]:
    """One shard of the :func:`defines_language_members` grid over
    ``Σ^{≤max_length}``: yield ``(word, member)`` for exactly the words
    of ``shard`` (see :func:`shard_words` for the descriptor grammar).

    Verdicts are bit-identical to the monolithic sweep — the compiled
    program and the per-word factor tables do not depend on which other
    words the family has seen.  Factor tables the shard needs but does
    not own (the stem path below a subtree root, the chain below a
    unary band) are built under
    :func:`repro.metrics.shard_overhead`, so summed across a full
    partition the real sweep counters equal the monolithic run's and
    the duplicated stem work is measured in ``shard_overhead_ops``.
    """
    _require_sentence(sentence)
    sweep = LanguageSweep(alphabet)
    program = sweep.compile(sentence)

    def run() -> Iterator[tuple[str, bool]]:
        family = sweep.family
        for word in shard.get("stems", ()):
            yield word, program.evaluate(family.table(word))
        for prefix in shard.get("prefixes", ()):
            view = sweep.subtree(prefix)
            for word in view.words(max_length):
                yield word, program.evaluate(view.table(word))
        previous = None
        for length in shard.get("lengths", ()):
            word = alphabet[0] * length
            if length and previous != length - 1:
                # The band's below-the-floor chain belongs to another
                # shard; build it as attributed overhead, then extend.
                with metrics.shard_overhead():
                    family.table(word[:-1])
            yield word, program.evaluate(family.table(word))
            previous = length

    return run()


def merge_shard_rows(parts: "Iterable[Iterable]") -> list:
    """Merge per-shard result rows back into the global ``(len, text)``
    enumeration order (the ``words_up_to`` order).

    Rows are either plain words or ``(word, payload)`` sequences with
    the word first.  A shard part is a concatenation of sorted *runs*
    (the stems, then one run per prefix subtree), not a globally sorted
    sequence, so this is a full sort on ``(len, word)`` — a total order
    over any exact partition, hence deterministic: the committed result
    of a sharded task is bit-identical to the monolithic enumeration.
    """

    def key(row):
        word = row if isinstance(row, str) else row[0]
        return (len(word), word)

    return sorted((row for part in parts for row in part), key=key)


def language_signatures(
    sentences: Iterable[Formula], alphabet: str, words: Iterable[str],
    scope: int | None = None,
) -> Iterator[tuple[str, tuple[bool, ...]]]:
    """Membership signatures over a sentence pool: yield
    ``(word, (w ∈ L(φ_1), …, w ∈ L(φ_k)))``.

    All sentences share one sweep family (one id space, one table per
    word), so the E02-style signature computation interns each word's
    factors once instead of once per sentence.  ``scope`` is as in
    :func:`defines_language_members`.
    """
    pool = tuple(sentences)
    for sentence in pool:
        _require_sentence(sentence)
    sweep = LanguageSweep(alphabet)
    programs = tuple(sweep.compile(sentence) for sentence in pool)

    def run() -> Iterator[tuple[str, tuple[bool, ...]]]:
        family = sweep.family
        publish = _sweep_store_scope(family, alphabet, scope)
        for word in words:
            table = family.table(word)
            yield word, tuple(program.evaluate(table) for program in programs)
        if publish is not None:
            publish()

    return run()


def language_slice(
    sentence: Formula, alphabet: str, max_length: int
) -> frozenset[str]:
    """Return ``L(φ) ∩ Σ^{≤max_length}`` by brute-force enumeration."""
    return frozenset(
        word
        for word, member in defines_language_members(
            sentence, alphabet, words_up_to(alphabet, max_length),
            scope=max_length,
        )
        if member
    )


def languages_agree(
    sentence_a: Formula,
    sentence_b: Formula,
    alphabet: str,
    max_length: int,
) -> bool:
    """Check ``L(φ_a) ∩ Σ^{≤n} == L(φ_b) ∩ Σ^{≤n}``.

    The finite agreement check used by the Lemma 5.4 rewriting experiments.
    """
    pair = language_signatures(
        (sentence_a, sentence_b), alphabet, words_up_to(alphabet, max_length),
        scope=max_length,
    )
    for _word, (in_a, in_b) in pair:
        if in_a != in_b:
            return False
    return True


class FCLanguage:
    """The language of an FC sentence, with convenience comparisons.

    Wraps a sentence and its alphabet; supports membership, finite slices,
    and agreement checks against oracles (ground-truth predicates).
    """

    def __init__(self, sentence: Formula, alphabet: str, name: str = "L(φ)"):
        if free_variables(sentence):
            raise ValueError("FCLanguage requires a sentence (no free vars)")
        self.sentence = sentence
        self.alphabet = alphabet
        self.name = name

    def __contains__(self, word: str) -> bool:
        return defines_language_member(word, self.sentence, self.alphabet)

    def slice(self, max_length: int) -> frozenset[str]:
        """``L(φ) ∩ Σ^{≤max_length}``."""
        return language_slice(self.sentence, self.alphabet, max_length)

    def agrees_with(
        self, oracle: Iterable[str] | object, max_length: int
    ) -> bool:
        """Check agreement with an oracle supporting ``in`` up to length n."""
        members = defines_language_members(
            self.sentence, self.alphabet,
            words_up_to(self.alphabet, max_length), scope=max_length,
        )
        for word, member in members:
            if member != (word in oracle):  # type: ignore[operator]
                return False
        return True

    def first_disagreement(
        self, oracle: object, max_length: int
    ) -> str | None:
        """Return the shortest word on which the language and oracle differ,
        or ``None`` if they agree up to ``max_length``."""
        members = defines_language_members(
            self.sentence, self.alphabet,
            words_up_to(self.alphabet, max_length), scope=max_length,
        )
        for word, member in members:
            if member != (word in oracle):  # type: ignore[operator]
                return word
        return None

    def __repr__(self) -> str:
        return f"FCLanguage({self.name}, Σ={self.alphabet!r})"
