"""Interned universes: dense integer ids for ``Facs(w) ∪ {⊥}``.

An :class:`InternTable` freezes one structure's universe into arrays
indexed by id:

* id 0 is always ⊥ (:data:`BOTTOM_ID`); ids ``1..n`` are the factors in
  the universe, sorted by ``(len, text)`` — the same order the naive
  solver and evaluator enumerate elements in, so id order *is*
  enumeration order and the kernel reproduces their deterministic
  tie-breaking exactly.
* ``cat[i][j]`` is the id of ``elements[i] + elements[j]`` if that
  concatenation is again in the universe, else ``-1``.  Row and column 0
  are all ``-1``: concatenation involving ⊥ is undefined (the relation
  ``R∘`` never holds on ⊥), and no concatenation of factors yields ⊥.
  Rows are materialised lazily on first access: a full table is
  Θ(|Facs|²) and |Facs| grows quadratically in word length, so eager
  construction would make *any* query on a long word — even a 0-round
  game that only inspects constants — pay an O(len⁴) setup cost.  Deep
  game searches touch most rows and amortise the laziness to nothing;
  shallow queries on long words (the Fooling-Lemma experiments) touch a
  handful.
* ``const_ids[t]`` is the id of the ``t``-th constant in the structure's
  constant vector (each alphabet letter in sorted order, then ε).  A
  constant absent from the universe — possible only for restricted
  structures — is interpreted as ⊥, mirroring
  ``RestrictedStructure.constant``.

Tables are built once per ``(word, alphabet[, allowed])`` and shared via
``repro.metrics``-registered lru caches, so every solver/evaluator
instance and every engine task in a worker process reuses the same
table object.  The dataclass uses identity hashing (``eq=False``) so
downstream per-table caches key on that shared identity, not on a deep
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro import metrics
from repro.store import artifacts, runtime as store_runtime
from repro.words.factors import factors

__all__ = ["BOTTOM_ID", "InternTable", "intern_restricted_table", "intern_table"]

#: Reserved id of the undefined element ⊥ in every table.
BOTTOM_ID = 0

#: Words shorter than this never touch the artifact store: computing
#: ``factors(word)`` outright is cheaper than a backend probe.
_STORE_MIN_WORD = 12


class LazyCat:
    """Row-lazy concatenation table with dense-list rows.

    ``cat[i]`` returns the full row for id ``i`` (building it on first
    access); inner loops hoist the row and then pay only a list index per
    probe, exactly as with an eager table.  Rows must never be mutated by
    callers.
    """

    __slots__ = ("_elements", "_id_of", "_rows", "_size")

    def __init__(self, elements: tuple, id_of: dict) -> None:
        self._elements = elements
        self._id_of = id_of
        self._size = len(elements)
        self._rows: list = [None] * self._size

    def __getitem__(self, i: int) -> list:
        row = self._rows[i]
        if row is None:
            left = self._elements[i]
            if left is None:
                row = [-1] * self._size
            else:
                get = self._id_of.get
                row = [-1]
                row.extend(
                    get(left + right, -1) for right in self._elements[1:]
                )
            self._rows[i] = row
        return row

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return (self[i] for i in range(self._size))

    def point(self, i: int, j: int) -> int:
        """Single entry without materialising the row.

        Serves huge-universe shallow queries (a 0/1-round game on a long
        word touches a handful of entries out of millions); falls through
        to the dense row when one already exists.
        """
        row = self._rows[i]
        if row is not None:
            return row[j]
        left = self._elements[i]
        right = self._elements[j]
        if left is None or right is None:
            return -1
        return self._id_of.get(left + right, -1)


@dataclass(frozen=True, eq=False)
class InternTable:
    """Precomputed integer view of one structure's universe.

    ``eq=False`` keeps identity hashing: tables come out of the
    module-level caches below, so identical arguments already yield the
    identical object.
    """

    word: str
    alphabet: tuple[str, ...]
    #: Elements by id; index 0 is ``None`` (⊥ has no string form).
    elements: tuple[str | None, ...]
    #: String → id for every factor in the universe (no ⊥ entry).
    id_of: dict[str, int]
    #: Factor length by id; ``lengths[0] == 0`` as a harmless filler.
    lengths: tuple[int, ...]
    #: ``cat[i][j]`` = id of ``elements[i]+elements[j]`` or ``-1``.
    cat: LazyCat
    #: Constant ids: one per sorted alphabet letter, then ε.
    const_ids: tuple[int, ...]
    #: Number of factors; valid ids are ``0..n_factors``.
    n_factors: int

    def id_for(self, element: str | None) -> int:
        """Id of ``element`` (``None`` meaning ⊥); ``KeyError`` if foreign."""
        if element is None:
            return BOTTOM_ID
        return self.id_of[element]


def _build(word: str, alphabet: tuple[str, ...], allowed: frozenset[str]) -> InternTable:
    ordered = sorted(allowed, key=lambda f: (len(f), f))
    elements: tuple[str | None, ...] = (None, *ordered)
    id_of = {factor: index for index, factor in enumerate(ordered, start=1)}
    lengths = tuple(0 if element is None else len(element) for element in elements)
    n = len(ordered)

    cat = LazyCat(elements, id_of)

    const_ids = tuple(
        id_of.get(symbol, BOTTOM_ID) for symbol in (*alphabet, "")
    )
    metrics.record("tables_built")
    return InternTable(
        word=word,
        alphabet=alphabet,
        elements=elements,
        id_of=id_of,
        lengths=lengths,
        cat=cat,
        const_ids=const_ids,
        n_factors=n,
    )


@lru_cache(maxsize=512)
def intern_table(word: str, alphabet: tuple[str, ...]) -> InternTable:
    """Interned view of the full word structure ``𝔄_word``.

    With an active artifact store (``repro.store``), long words hydrate
    their factor universe from the ``intern-universe`` artifact instead
    of recomputing ``factors(word)``, and publish it on first build.
    The hydrated table is bit-identical to the cold one: ``_build``
    re-sorts the universe into the same ⊥-first ``(len, text)`` order
    either way.
    """
    if store_runtime.active() is not None and len(word) >= _STORE_MIN_WORD:
        args = {"word": word, "alphabet": "".join(alphabet)}
        payload = store_runtime.load(
            artifacts.INTERN_UNIVERSE_KIND,
            artifacts.INTERN_UNIVERSE_VERSION,
            args,
        )
        if payload is not None:
            metrics.record("tables_hydrated")
            return _build(word, alphabet, frozenset(payload))
        universe = factors(word)
        store_runtime.publish(
            artifacts.INTERN_UNIVERSE_KIND,
            artifacts.INTERN_UNIVERSE_VERSION,
            args,
            sorted(universe, key=lambda f: (len(f), f)),
        )
        return _build(word, alphabet, universe)
    return _build(word, alphabet, factors(word))


@lru_cache(maxsize=512)
def intern_restricted_table(
    word: str, alphabet: tuple[str, ...], allowed: frozenset[str]
) -> InternTable:
    """Interned view of a restricted structure with universe ``allowed``.

    ``allowed`` must be a subset of ``Facs(word)``; the caller
    (``repro.ef.solver``) passes ``RestrictedStructure.universe_factors``
    which already enforces this.
    """
    return _build(word, alphabet, allowed)


metrics.register("kernel.intern_table", intern_table)
metrics.register("kernel.intern_restricted_table", intern_restricted_table)
