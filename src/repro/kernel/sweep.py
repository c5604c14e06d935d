"""Shared interning for language sweeps: one id space per word *family*.

Membership sweeps (``L(φ) ∩ Σ^{≤n}``) evaluate the same sentence on every
word of an enumerated family.  The per-word kernel
(:mod:`repro.kernel.interning`) rebuilds a fresh universe per word —
~9 850 one-shot tables for the E05 grid — and, worse, every cross-word
cache is keyed on strings.  This module fixes both:

* a :class:`SweepFamily` interns **strings, not factors**: every string
  that any word of the family (or any candidate computation) touches gets
  one dense id, so equality across words is integer equality and
  family-global memo keys are tuples of ints;
* per-word views (:class:`SweepTable`) are built **incrementally along
  the prefix tree** of the enumeration: ``Facs(w·a) = Facs(w) ∪
  {suffixes of w·a}``, so extending a parent table costs O(|w|) intern
  probes plus one sorted merge instead of the O(|w|²) from-scratch
  interning — and the factor sets share their parent's ids.

The family's ``cat`` is *global* concatenation (total — every string has
an id, interned on demand), unlike ``InternTable.cat`` which is partial
on one universe; "is the result a factor of this word" is a separate
per-word set probe.  ``tests/kernel/test_sweep.py`` checks that a
prefix-extended universe equals from-scratch interning of
``factors(word)`` for every word of enumerated grids.

Effort counters (``sweep_words_interned``, ``sweep_tables_extended``,
``sweep_tables_rebuilt``) flow through :mod:`repro.metrics` into the
engine report, same as the EF solver's.
"""

from __future__ import annotations

from repro import metrics
from repro.kernel import bitset

__all__ = ["SweepFamily", "SweepSubtree", "SweepTable"]


class SweepTable:
    """One word's factor view inside a :class:`SweepFamily`.

    ``universe`` lists the word's factor ids sorted by ``(len, text)`` —
    the same deterministic enumeration order as
    :class:`~repro.kernel.interning.InternTable` — ``members`` is the
    same set for O(1) membership probes, and ``mask`` is the same set as
    a dense bitset over the family's id space
    (:mod:`repro.kernel.bitset`), so candidate pools restrict to the
    word's factor universe with one big-int ``&``.
    """

    __slots__ = ("word", "gid", "universe", "members", "mask")

    # repro-lint: domain[gid=intern:sweep, universe=iter[intern:sweep], members=iter[intern:sweep], mask=bitset-universe:sweep] a table's mask is the word's complete member set by construction — the only legal witness source
    def __init__(
        self, word: str, gid: int, universe: tuple, members: frozenset, mask: int
    ) -> None:
        self.word = word
        self.gid = gid  # repro-lint: domain[intern:sweep] the word's own global id
        self.universe = universe  # repro-lint: domain[iter[intern:sweep]] Facs(word) in (len, text) order
        self.members = members  # repro-lint: domain[iter[intern:sweep]] Facs(word) as a set
        self.mask = mask  # repro-lint: domain[bitset-universe:sweep] Facs(word) as a declared member universe

    def __repr__(self) -> str:
        return f"SweepTable({self.word!r}, {len(self.universe)} factors)"


class SweepFamily:
    """Global intern pool + per-word tables for one alphabet's sweep.

    One instance per sweep call; every sentence evaluated against the
    family shares the id space, the concatenation cache and the tables.
    """

    __slots__ = (
        "alphabet",
        "id_of",
        "strings",
        "lengths",
        "epsilon_id",
        "_cat",
        "_tables",
    )

    def __init__(self, alphabet: tuple[str, ...]) -> None:
        self.alphabet = alphabet
        #: string → global id (total over all strings ever seen).
        self.id_of: dict[str, int] = {}  # repro-lint: domain[map[plain, intern:sweep]]
        #: global id → string.
        self.strings: list[str] = []  # repro-lint: domain[map[intern:sweep, plain]]
        #: global id → length.
        self.lengths: list[int] = []  # repro-lint: domain[map[intern:sweep, plain]]
        #: global concatenation cache: (id, id) → id.
        self._cat: dict[tuple[int, int], int] = {}  # repro-lint: domain[map[iter[intern:sweep], intern:sweep]]
        #: word → SweepTable, one entry per enumerated word.
        self._tables: dict[str, SweepTable] = {}
        self.epsilon_id = self.intern("")  # repro-lint: domain[intern:sweep]

    # repro-lint: domain[returns=intern:sweep] the family's id mint — every sweep gid originates here
    def intern(self, text: str) -> int:
        """The global id of ``text`` (assigned on first sight)."""
        gid = self.id_of.get(text)
        if gid is None:
            gid = len(self.strings)
            self.id_of[text] = gid
            self.strings.append(text)
            self.lengths.append(len(text))
        return gid

    # repro-lint: domain[returns=intern:sweep, left=intern:sweep, right=intern:sweep] global concatenation stays inside the family's id space
    def cat(self, left: int, right: int) -> int:
        """Id of ``strings[left] + strings[right]`` (total, cached)."""
        key = (left, right)
        gid = self._cat.get(key)
        if gid is None:
            gid = self.intern(self.strings[left] + self.strings[right])
            self._cat[key] = gid
        return gid

    # repro-lint: domain[gid=intern:sweep] ordering is defined via strings/lengths, never the raw numbering
    def sort_key(self, gid: int):
        """The deterministic ``(len, text)`` enumeration key for an id."""
        return (self.lengths[gid], self.strings[gid])

    def table(self, word: str) -> SweepTable:
        """The word's factor view, built by extending its longest cached
        prefix (ultimately the ε root) one letter at a time."""
        table = self._tables.get(word)
        if table is not None:
            return table
        # Find the longest prefix that already has a table, then extend
        # letter by letter (iterative — words can exceed recursion depth).
        start = len(word)
        parent = None
        while start > 0:
            parent = self._tables.get(word[:start])
            if parent is not None:
                break
            start -= 1
        if parent is None:
            parent = self._root()
            start = 0
        for end in range(start + 1, len(word) + 1):
            parent = self._extend(parent, word[:end])
        return parent

    def hydrate(self, word: str, factor_texts: list) -> SweepTable:
        """Install a word's table directly from its stored factor list.

        ``factor_texts`` must be ``Facs(word)`` in ``(len, text)`` order —
        exactly what :meth:`export` produced when the artifact was
        published.  Gids are assigned by this family's intern pool, so
        they may differ from an organically grown family's numbering;
        that is sound because every consumer compares ids only within
        one family and orders them via ``sort_key`` (strings/lengths),
        never via the raw numbering.
        """
        table = self._tables.get(word)
        if table is not None:
            return table
        intern = self.intern
        # repro-lint: allow[effects.memo-key-completeness] factor_texts is the store-validated Facs(word) list, itself a pure function of the key word
        universe = tuple(intern(text) for text in factor_texts)
        table = SweepTable(
            word,
            intern(word),
            universe,
            frozenset(universe),
            bitset.declare_universe(bitset.from_ids(universe), "sweep"),
        )
        self._tables[word] = table
        metrics.record("sweep_tables_hydrated")
        metrics.record("sweep_words_interned")
        return table

    def export(self, word: str) -> list:
        """The word's factor strings in ``(len, text)`` order (plain data
        for artifact persistence; inverse of :meth:`hydrate`)."""
        strings = self.strings
        return [strings[gid] for gid in self.table(word).universe]

    def subtree(self, prefix: str) -> "SweepSubtree":
        """A view of this family restricted to the subtree at ``prefix``.

        The view shares the global intern pool, the concatenation cache
        and every table already built; it only changes *attribution*:
        the prefix-path tables below the subtree root (which another
        shard owns) are built under :func:`repro.metrics.shard_overhead`,
        so a shard partition's real sweep counters stay exactly
        conserved against the monolithic run.
        """
        return SweepSubtree(self, prefix)

    def _root(self) -> SweepTable:
        table = self._tables.get("")
        if table is None:
            eps = self.epsilon_id
            table = SweepTable(
                "",
                eps,
                (eps,),
                frozenset((eps,)),
                bitset.declare_universe(1 << eps, "sweep"),
            )
            self._tables[""] = table
            metrics.record("sweep_tables_rebuilt")
            metrics.record("sweep_words_interned")
        return table

    def _extend(self, parent: SweepTable, word: str) -> SweepTable:
        table = self._tables.get(word)
        if table is not None:
            return table
        # Facs(w·a) = Facs(w) ∪ {suffixes of w·a}.  The new suffixes have
        # pairwise distinct lengths, so sorting them by length alone
        # already yields (len, text) order for the merge.
        intern = self.intern
        # repro-lint: allow[effects.memo-key-completeness] parent is the interned table of word[:-1], itself a pure function of the key word
        members = parent.members
        mask = parent.mask
        fresh = []
        for begin in range(len(word) + 1):
            gid = intern(word[begin:])
            if gid not in members:
                fresh.append(gid)
                mask |= 1 << gid
        fresh.sort(key=lambda g: self.lengths[g])
        universe = self._merge(parent.universe, fresh)
        table = SweepTable(
            word,
            intern(word),
            universe,
            members | frozenset(fresh),
            # Facs(w·a) is complete by construction: parent mask plus
            # every suffix of w·a.
            bitset.declare_universe(mask, "sweep"),
        )
        self._tables[word] = table
        metrics.record("sweep_tables_extended")
        metrics.record("sweep_words_interned")
        return table

    # repro-lint: domain[returns=iter[intern:sweep], old=iter[intern:sweep]] both inputs carry this family's gids
    def _merge(self, old: tuple, fresh: list) -> tuple:
        """Merge two (len, text)-sorted id sequences into one tuple."""
        if not fresh:
            return old
        key = self.sort_key
        merged = []
        i = j = 0
        while i < len(old) and j < len(fresh):
            if key(old[i]) <= key(fresh[j]):
                merged.append(old[i])
                i += 1
            else:
                merged.append(fresh[j])
                j += 1
        merged.extend(old[i:])
        merged.extend(fresh[j:])
        return tuple(merged)


class SweepSubtree:
    """A :class:`SweepFamily` view over one prefix-tree subtree.

    Intra-task shards walk disjoint subtrees of the same enumeration
    prefix tree (subtree = shard, ordered concatenation = merge).  Each
    shard still needs the factor tables of the subtree root's strict
    ancestors — ``table(prefix)`` extends from ε — but those words
    belong to another shard, so :meth:`prepare` builds them inside a
    :func:`repro.metrics.shard_overhead` scope: the duplicated stem
    work lands in ``shard_overhead_ops`` and the per-word counters
    (``sweep_words_interned``, ``sweep_tables_extended``, …) count every
    word of the grid exactly once across a full shard partition.

    Everything else is shared with the backing family: the global
    intern table, the concatenation cache, and (through the compiled
    :class:`repro.fc.sweep.SweepProgram`) the span/chain/filter memos.
    """

    __slots__ = ("family", "prefix", "_prepared")

    def __init__(self, family: SweepFamily, prefix: str) -> None:
        self.family = family
        self.prefix = prefix
        self._prepared = not prefix

    def prepare(self) -> None:
        """Build the stem path (ε … prefix[:-1]) as shard overhead."""
        if self._prepared:
            return
        self._prepared = True
        with metrics.shard_overhead():
            self.family.table(self.prefix[:-1])

    def table(self, word: str) -> SweepTable:
        """The word's factor view; ``word`` must lie in the subtree."""
        if not word.startswith(self.prefix):
            raise ValueError(
                f"{word!r} is outside the {self.prefix!r} subtree"
            )
        self.prepare()
        return self.family.table(word)

    def words(self, max_length: int):
        """The subtree's words up to ``max_length`` in ``(len, text)``
        order — prefix first, so each table extends its parent with one
        incremental step (same enumeration contract as ``words_up_to``).
        """
        if len(self.prefix) > max_length:
            return
        alphabet = self.family.alphabet
        level = [self.prefix]
        yield self.prefix
        for _ in range(max_length - len(self.prefix)):
            level = [word + letter for word in level for letter in alphabet]
            yield from level
