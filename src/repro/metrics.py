"""One registry for every process-wide effort counter and lru-cache site.

Every layer bumps its counters (:func:`record`) and registers its
``functools.lru_cache`` sites (:func:`register`) here.  The engine
executor takes one :func:`snapshot` before and one after each unit
(task, shard or merge) and reports the :func:`diff` by section:
``solver`` (search effort), ``store`` (artifact-store probes) and
``lru`` (cache hits, misses and residency).  Counters are cumulative
per process; every consumer works with deltas.

A bump is a plain ``+=`` on the calling thread's own *cell*, a dict held
in a ``threading.local``.  Only the owner writes a cell, so no increment
is lost and no bump takes a lock or makes a system call (a thread's
first bump registers its cell under the lock).  :func:`snapshot` sums
the cells under the lock.  Cells of finished threads are folded into
one retired total whenever a cell is created or a snapshot is taken, so
a daemon that starts a thread per connection holds O(live threads)
cells.  :func:`_lock` re-arms the lock after a ``fork``
(``concurrency.fork-safety``).

This module imports nothing from :mod:`repro`: the instrumented modules
live in every layer and import *it*, so it sits below the whole
import-layering DAG (``LintConfig.leaf_modules``).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "COUNTER_NAMES",
    "OVERHEAD_COUNTER",
    "SOLVER_COUNTERS",
    "STORE_COUNTERS",
    "diff",
    "record",
    "register",
    "registered_names",
    "shard_overhead",
    "snapshot",
]

#: The search-effort counters: the EF kernel (``repro.kernel.efcore``),
#: the language and relational sweeps (``sweep_*``), the FO[EQ] games
#: (``foeq_*``), the identity fallbacks of the symmetry caps
#: (``automorphism_cap_hits``, ``symmetry_product_skips``), and warm
#: starts from the artifact store (``*_hydrated``: work loaded instead
#: of rebuilt).
SOLVER_COUNTERS = (
    "positions_explored",
    "table_hits",
    "symmetry_cuts",
    "consistency_checks",
    "tables_built",
    "tables_hydrated",
    "sweep_words_interned",
    "sweep_tables_extended",
    "sweep_tables_rebuilt",
    "sweep_tables_hydrated",
    "foeq_positions_explored",
    "foeq_table_hits",
    "foeq_consistency_checks",
    "automorphism_cap_hits",
    "automorphism_groups_hydrated",
    "symmetry_product_skips",
    "ef_memo_entries_hydrated",
    "sweep_relation_rows",
    "sweep_bitset_ops",
    "sweep_relations_hydrated",
    "shard_overhead_ops",
)

#: The artifact-store counters.  ``store_hits``/``store_misses`` count
#: :meth:`ArtifactStore.load` probes (a stale or corrupted record is a
#: miss *and* an error), ``store_stores`` counts persisted records, and
#: the byte counters measure encoded record sizes through the backend.
STORE_COUNTERS = (
    "store_hits",
    "store_misses",
    "store_stores",
    "store_errors",
    "store_bytes_read",
    "store_bytes_written",
)

COUNTER_NAMES = SOLVER_COUNTERS + STORE_COUNTERS

#: Where bumps land inside a :func:`shard_overhead` scope.  Work a shard
#: repeats only because the task was split (stem-path factor tables, a
#: per-lane signature sweep) is counted here, so the *real* counters
#: stay exactly conserved: Σ(per-shard deltas) equals the monolithic
#: task's deltas, and the duplication itself stays measured and gated.
OVERHEAD_COUNTER = "shard_overhead_ops"

_LRU_FIELDS = ("hits", "misses", "currsize")

#: Registered ``lru_cache`` sites by name.
_SITES: dict[str, Callable[..., Any]] = {}

#: Per thread: ``cell`` (its counters) and ``overhead`` (the
#: :func:`shard_overhead` depth).
_LOCAL = threading.local()

#: Live threads' cells, and the sum of every finished thread's cell.
_CELLS: dict[threading.Thread, dict[str, int]] = {}
_RETIRED: dict[str, int] = dict.fromkeys(COUNTER_NAMES, 0)

_LOCK = threading.Lock()
_LOCK_PID = os.getpid()


def _lock() -> threading.Lock:
    """The registry lock, rebuilt in the child after a ``fork``.

    A forked engine worker inherits the lock in whatever state it had
    at fork time; if a parent thread held it, the child would deadlock
    on its first snapshot.  Same per-pid discipline as
    ``SqliteBackend._connection``.
    """
    global _LOCK, _LOCK_PID
    pid = os.getpid()
    if pid != _LOCK_PID:
        _LOCK = threading.Lock()
        _LOCK_PID = pid
    return _LOCK


def _retire_finished() -> None:
    """Fold finished threads' cells into :data:`_RETIRED` (lock held).

    A dead thread writes nothing more, so its cell is final; after a
    ``fork`` every thread but the forking one is dead.
    """
    for thread in [thread for thread in _CELLS if not thread.is_alive()]:
        for name, value in _CELLS.pop(thread).items():
            _RETIRED[name] += value


def _new_cell() -> dict[str, int]:
    """Register the calling thread's cell (its first bump or scope)."""
    cell = dict.fromkeys(COUNTER_NAMES, 0)
    with _lock():
        _retire_finished()
        _CELLS[threading.current_thread()] = cell
    _LOCAL.cell = cell
    _LOCAL.overhead = 0
    return cell


def record(name: str, amount: int = 1) -> None:
    """Add ``amount`` to one counter (unknown names raise ``KeyError``).

    Inside a :func:`shard_overhead` scope on this thread the bump is
    rerouted to :data:`OVERHEAD_COUNTER` (after the name check, so typos
    still fail loudly in shard code paths).
    """
    try:
        cell = _LOCAL.cell
    except AttributeError:
        cell = _new_cell()
    if name not in cell:
        raise KeyError(name)
    if _LOCAL.overhead:
        name = OVERHEAD_COUNTER
    cell[name] += amount


@contextmanager
def shard_overhead() -> Iterator[None]:
    """Count this thread's bumps inside the scope as
    :data:`OVERHEAD_COUNTER`; other threads are unaffected.

    Used by intra-task shards around work a monolithic run would do once
    but a shard partition repeats.  Re-entrant, and exception-safe.
    """
    if not hasattr(_LOCAL, "cell"):
        _new_cell()
    depth = _LOCAL.overhead
    _LOCAL.overhead = depth + 1
    try:
        yield
    finally:
        _LOCAL.overhead = depth


def register(name: str, func: Callable[..., Any]) -> Callable[..., Any]:
    """Register an ``lru_cache``-wrapped function under ``name``.

    Returns the function unchanged so the call can wrap a definition.
    Re-registering the same name with the same function is a no-op
    (modules may be reloaded); a different function is an error.
    """
    if not hasattr(func, "cache_info"):
        raise TypeError(f"{name!r}: object has no cache_info(); not an lru_cache")
    existing = _SITES.get(name)
    if existing is not None and existing is not func:
        raise ValueError(f"cache name already registered: {name!r}")
    _SITES[name] = func
    return func


def registered_names() -> list[str]:
    return sorted(_SITES)


def snapshot() -> dict[str, dict[str, Any]]:
    """Every counter and every lru site now, by section."""
    with _lock():
        _retire_finished()
        totals = dict(_RETIRED)
        for cell in _CELLS.values():
            for name, value in cell.items():
                totals[name] += value
    return {
        "solver": {name: totals[name] for name in SOLVER_COUNTERS},
        "store": {name: totals[name] for name in STORE_COUNTERS},
        # Per site: hits, misses, maxsize, currsize.
        "lru": {
            name: _SITES[name].cache_info()._asdict() for name in sorted(_SITES)
        },
    }


def diff(
    before: Mapping[str, Mapping[str, Any]],
    after: Mapping[str, Mapping[str, Any]],
) -> dict[str, dict[str, Any]]:
    """Per-section deltas between two snapshots.

    Counters with a zero delta and caches with no hits or misses are
    omitted, so per-unit records stay small; caches absent from
    ``before`` count from zero.
    """
    delta: dict[str, dict[str, Any]] = {}
    for section in ("solver", "store"):
        was = before[section]
        delta[section] = {
            name: value - was.get(name, 0)
            for name, value in after[section].items()
            if value != was.get(name, 0)
        }
    delta["lru"] = {}
    for name, now in after["lru"].items():
        was = before["lru"].get(name, {})
        entry = {field: now[field] - was.get(field, 0) for field in _LRU_FIELDS}
        if entry["hits"] or entry["misses"]:
            delta["lru"][name] = entry
    return delta
