"""The engine scheduler: topological fan-out over a worker pool.

``run_tasks`` takes a registry (or a plain spec mapping), resolves the
dependency closure of the requested tasks, and admits each task, once
its dependencies are done, in topological order.  One loop runs the
units a task expands to:

* in-process, each completed at once, when ``jobs == 1``
  (deterministic and debugger-friendly: a sharded task's shards run in
  index order, then its merge, all before the next task);
* on a ``concurrent.futures`` process pool otherwise — every ready
  unit is in flight simultaneously, up to ``jobs`` workers, and each
  batch of finished units is completed in unit-name order.

Intra-task sharding: a spec that declares a :class:`~repro.engine.spec.
ShardPlan` is expanded at schedule time into N *shard units* plus one
*merge unit* (when the plan's planner, run in the parent, yields at
least two shard descriptors for the effective ``shards`` width).  Shard
units execute like ordinary tasks — same payload shape, same worker
pool, same per-unit delta sampling — and cache independently under
descriptor-salted keys; the merge unit combines the partials in
descriptor order into a result that is bit-identical to the monolithic
one, which is why *dependents* keep hashing the plain (unsalted) task
key: changing the shard width re-runs only the shards and the merge,
never the downstream tasks.

Single-task failure isolation: a task that raises produces an ``error``
record (type, message, traceback) instead of aborting the run, and its
transitive dependents complete as ``skipped`` records.  A failed shard
fails its task the same way.  Results are JSON-roundtripped before
caching so cold and warm runs return bit-identical payloads, and the
final record list is sorted by task name regardless of completion
order.  A worker process that dies (``os._exit``, a signal) breaks the
pool: ``run_tasks`` then raises ``BrokenProcessPool`` naming the units
in flight, where it used to wait forever.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro import metrics
from repro.engine.cache import ResultCache
from repro.store import ArtifactStore
from repro.store import runtime as store_runtime
from repro.engine.dag import topological_order, validate_dag
from repro.engine.spec import (
    TaskRegistry,
    TaskSpec,
    canonical_json,
    resolve_function,
)

__all__ = ["EngineReport", "run_tasks"]

_DELTA_FIELDS = ("lru_delta", "solver_delta", "store_delta")


def _no_deltas() -> dict[str, Any]:
    """The metrics fields of a record that did no work in this run."""
    return {
        "lru_delta": {},
        "lru_registered": [],
        "solver_delta": {},
        "store_delta": {},
    }


@dataclass
class EngineReport:
    """The outcome of one engine run."""

    jobs: int
    elapsed_s: float
    records: list[dict[str, Any]]
    cache: dict[str, Any]
    lru_caches: dict[str, Any] = field(default_factory=dict)
    solver: dict[str, Any] = field(default_factory=dict)
    store: dict[str, Any] = field(default_factory=dict)
    #: The pre-cap ``--jobs`` request; equals ``jobs`` unless the run
    #: was capped at the host's CPU count.
    jobs_requested: int = 0
    #: Shard execution summary: ``{"width": N, "tasks": {name: {...}}}``
    #: with per-task shard count, per-shard walls and the merge wall.
    shards: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.jobs_requested:
            self.jobs_requested = self.jobs

    @property
    def ok(self) -> bool:
        return all(record["status"] == "ok" for record in self.records)

    def record_for(self, name: str) -> dict[str, Any]:
        for record in self.records:
            if record["task"] == name:
                return record
        raise KeyError(f"no record for task {name!r}")

    def counts(self) -> dict[str, int]:
        counts = {"ok": 0, "error": 0, "skipped": 0}
        for record in self.records:
            counts[record["status"]] = counts.get(record["status"], 0) + 1
        return counts

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "engine": {
                "jobs": self.jobs,
                "jobs_requested": self.jobs_requested,
                "elapsed_s": round(self.elapsed_s, 6),
                "tasks_total": len(self.records),
                "tasks": self.counts(),
            },
            "cache": self.cache,
            "lru_caches": self.lru_caches,
            "solver": self.solver,
            "store": self.store,
            "shards": self.shards,
            "tasks": self.records,
        }


def _json_roundtrip(value: Any) -> Any:
    """Normalise a task result to its JSON image.

    Guarantees warm-cache payloads (read back from disk) are identical
    to cold-run payloads, and rejects non-serialisable results early.
    """
    import json

    return json.loads(canonical_json(value))


def _execute_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Run one unit (task, shard or merge); always returns a record,
    never raises.

    Top-level so it is picklable for the worker pool.  ``payload``
    carries only plain data: the function is re-resolved from its dotted
    path inside the worker.
    """
    name = payload["task"]
    before = metrics.snapshot()
    start = time.perf_counter()
    try:
        fn = resolve_function(payload["fn"])
        result = fn(**payload["args"], **payload["dep_results"])
        result = _json_roundtrip(result)
        status, error = "ok", None
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        status, result = "error", None
        error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }
    wall = time.perf_counter() - start
    delta = metrics.diff(before, metrics.snapshot())
    record = {
        "task": name,
        "status": status,
        "result": result,
        "error": error,
        "wall_time_s": round(wall, 6),
        "args_bytes": len(canonical_json(payload["args"])),
        "result_bytes": len(canonical_json(result)) if result is not None else 0,
        "lru_delta": delta["lru"],
        # Names registered *in the executing process* — with lazy task
        # imports and a worker pool, the parent process may never see
        # these sites, so the record is the only place they surface.
        "lru_registered": metrics.registered_names(),
        "solver_delta": delta["solver"],
        "store_delta": delta["store"],
    }
    return record


def _error_record(
    name: str, status: str, error_type: str, message: str, trace: str | None = None
) -> dict[str, Any]:
    """The record of a task skipped for a failed dependency, or failed in
    its shard planner or its shards: it carries no result or deltas."""
    return {
        "task": name,
        "status": status,
        "result": None,
        "error": {"type": error_type, "message": message, "traceback": trace},
        "wall_time_s": 0.0,
        "args_bytes": 0,
        "result_bytes": 0,
        "cache": "none",
        **_no_deltas(),
    }


def _zeroed_hit(cached: dict[str, Any]) -> dict[str, Any]:
    """A cache-hit view of a stored record.

    Stale execution-process details must not leak into this run's
    report: a hit did no cache or solver work.
    """
    record = dict(cached)
    record["cache"] = "hit"
    record.update(_no_deltas())
    return record


def _merge_delta(total: dict[str, Any], delta: Mapping[str, Any]) -> None:
    """Fold one flat or one-level-nested counter delta into ``total``."""
    for name, value in delta.items():
        if isinstance(value, Mapping):
            bucket = total.setdefault(name, {})
            for inner, amount in value.items():
                bucket[inner] = bucket.get(inner, 0) + amount
        else:
            total[name] = total.get(name, 0) + value


class _ShardState:
    """Bookkeeping for one sharded task between expansion and merge."""

    __slots__ = (
        "descriptors",
        "dep_results",
        "storage_key",
        "shard_keys",
        "partials",
        "shard_records",
        "pending",
    )

    def __init__(
        self,
        descriptors: list[Any],
        dep_results: dict[str, Any],
        storage_key: str,
        shard_keys: list[str],
    ) -> None:
        self.descriptors = descriptors
        self.dep_results = dep_results
        self.storage_key = storage_key
        self.shard_keys = shard_keys
        self.partials: list[Any] = [None] * len(descriptors)
        self.shard_records: dict[int, dict[str, Any]] = {}
        self.pending: set[int] = set()

    def attribution(self) -> list[dict[str, Any]]:
        """Per-shard summary rows for the merge record / run report."""
        rows = []
        for index in sorted(self.shard_records):
            record = self.shard_records[index]
            rows.append(
                {
                    "index": index,
                    "status": record["status"],
                    "cache": record.get("cache", "none"),
                    "wall_time_s": record["wall_time_s"],
                    "solver_delta": record.get("solver_delta", {}),
                    "store_delta": record.get("store_delta", {}),
                }
            )
        return rows

    def fold_into(self, record: dict[str, Any]) -> None:
        """Aggregate the shard deltas into ``record`` (the merge record).

        After folding, the record's counter deltas are Σ(shard deltas) +
        the merge's own deltas — for pure-enumeration counters that sum
        equals the monolithic task's deltas exactly (duplicated shard
        work is attributed to ``shard_overhead_ops``), so run totals and
        the bench_smoke gates see one task, not N.
        """
        registered = set(record.get("lru_registered", ()))
        for fieldname in _DELTA_FIELDS:
            total: dict[str, Any] = {}
            for index in sorted(self.shard_records):
                _merge_delta(total, self.shard_records[index].get(fieldname, {}))
            _merge_delta(total, record.get(fieldname, {}))
            record[fieldname] = total
        for shard_record in self.shard_records.values():
            registered.update(shard_record.get("lru_registered", ()))
        record["lru_registered"] = sorted(registered)


def _worker_init(store: ArtifactStore | None) -> None:
    """Arm process-global state in every worker process as it starts.

    Under ``fork`` this is belt-and-braces (workers inherit the parent's
    activated store; the metrics lock re-arms itself via its pid
    guard).  Under ``spawn`` it is load-bearing: the worker is a fresh
    interpreter, so the artifact store must be re-activated from the
    pickled backend for warm-starts to work at all.
    """
    if store is not None:
        store_runtime.activate(store)


def _process_pool(jobs: int, store: ArtifactStore | None) -> Any:
    """A ``ProcessPoolExecutor`` of ``jobs`` workers, started by fork
    (cheap, inherits the imported solver stack).

    ``REPRO_MP_CONTEXT`` overrides the start method (``spawn`` /
    ``forkserver``), for platforms where fork is unavailable or unsafe
    and for the spawn-mode test suite; an unknown method raises
    ``ValueError``.  The value only picks how worker processes start;
    payloads, results and cache keys are identical under every method,
    so it cannot make results irreproducible.  The imports live here so
    that a serial run, and the engine's import, never load them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # repro-lint: allow[determinism] config-only env read at the pool boundary
    override = os.environ.get("REPRO_MP_CONTEXT")
    if override:
        context = multiprocessing.get_context(override)
    else:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover — non-POSIX fallback
            context = multiprocessing.get_context()
    return ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=context,
        initializer=_worker_init,
        initargs=(store,),
    )


def _completed(in_flight: dict[Any, str]) -> list[tuple[str, dict[str, Any]]]:
    """Wait for pooled units to finish; pop them from ``in_flight`` as
    ``(unit, record)`` pairs in unit-name order.  A dead worker fails
    every unit in flight with ``BrokenProcessPool``, re-raised naming them.
    """
    from concurrent.futures import FIRST_COMPLETED, wait
    from concurrent.futures.process import BrokenProcessPool

    units = sorted(in_flight.values())
    done = wait(in_flight, return_when=FIRST_COMPLETED).done
    finished = sorted((in_flight.pop(future), future) for future in done)
    try:
        return [(unit, future.result()) for unit, future in finished]
    except BrokenProcessPool as exc:
        raise BrokenProcessPool(f"{exc} Units in flight: {units}") from exc


def run_tasks(
    registry: TaskRegistry | Mapping[str, TaskSpec],
    *,
    jobs: int = 1,
    shards: int | None = None,
    cache: ResultCache | None = None,
    store: ArtifactStore | None = None,
    only: Iterable[str] | None = None,
    on_record: Callable[[dict[str, Any]], None] | None = None,
) -> EngineReport:
    """Execute a task set and return the :class:`EngineReport`.

    ``only`` restricts the run to the named tasks plus their transitive
    dependencies.  ``shards`` caps the width of intra-task shard plans;
    ``None`` defaults to the effective (post-cap) ``jobs``, so a
    sequential run stays monolithic unless sharding is requested
    explicitly.  ``cache`` defaults to a fresh :class:`ResultCache`
    over ``.repro-cache/``; pass ``ResultCache(enabled=False)`` for
    ``--no-cache`` semantics.  ``store``, when given, is activated as
    the process-global artifact store for the duration of the run —
    *before* any worker pool forks, so workers inherit it and
    warm-start from the same backend (the previous global store is
    restored on exit).  ``on_record`` is invoked once per finished
    task, in completion order (progress reporting).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    jobs_requested = jobs
    # More workers than cores just adds fork cost and scheduler churn;
    # cap silently here, report the cap in the run summary.  The shard
    # width is *not* capped: explicit narrow-machine sharding is how the
    # differential tests exercise merge determinism.
    jobs = min(jobs, os.cpu_count() or 1)
    shard_width = shards if shards is not None else jobs
    if isinstance(registry, TaskRegistry):
        specs = (
            registry.closure(list(only)) if only is not None else registry.specs()
        )
    else:
        specs = dict(registry)
        if only is not None:
            specs = TaskRegistry(iter(specs.values())).closure(list(only))
    validate_dag(specs)
    order = topological_order(specs)
    cache = cache if cache is not None else ResultCache()

    records: dict[str, dict[str, Any]] = {}
    keys: dict[str, str] = {}
    shard_states: dict[str, _ShardState] = {}
    #: unit id → ("task" | "shard" | "merge", task name, shard index).
    unit_info: dict[str, tuple[str, str, int]] = {}
    shard_summary: dict[str, dict[str, Any]] = {}
    started = time.perf_counter()

    # Run-wide accumulators: Σ of the executed records' deltas, by record
    # field.  With a worker pool, executed records are the *only* channel
    # for worker-process activity (lazy task imports mean the parent
    # process typically registers nothing), so the per-record deltas are
    # merged here in the parent.  Sharded tasks contribute exactly once:
    # their shard deltas are folded into the merge record before it is
    # committed.
    unit_totals: dict[str, dict[str, Any]] = {
        fieldname: {} for fieldname in _DELTA_FIELDS
    }
    seen_registered: set[str] = set()
    run_before = metrics.snapshot()

    def finish(name: str, record: dict[str, Any]) -> None:
        """Commit a task's record and fold its deltas into the run
        accumulators (a hit's or a skip's are empty)."""
        records[name] = record
        seen_registered.update(record.get("lru_registered", ()))
        for fieldname in _DELTA_FIELDS:
            _merge_delta(unit_totals[fieldname], record.get(fieldname, {}))
        if on_record is not None:
            on_record(record)

    def summarise(name: str, count: int, **extra: Any) -> None:
        """Enter a sharded task of ``count`` shards in the shard summary."""
        shard_summary[name] = {
            "count": count,
            "effective_width": count,
            "clamped": count < shard_width,
            **extra,
        }

    def plan_shards(
        spec: TaskSpec, dep_keys: dict[str, str]
    ) -> tuple[list[Any], str, list[str]] | None:
        """Run the planner in the parent; None keeps the task monolithic."""
        planner = resolve_function(spec.shards.planner, task=spec.name)
        descriptors = _json_roundtrip(
            list(planner(**spec.args, width=shard_width))
        )
        if len(descriptors) < 2:
            return None
        # The canonical plan (descriptors in order) fingerprints the
        # execution shape: merge and shard records are stored under
        # plan-salted keys, so a width change re-runs shards + merge
        # while dependents — which hash the unsalted key — stay cached.
        plan_extra = canonical_json({"plan": descriptors})
        storage_key = cache.key_for(spec, dep_keys, extra=plan_extra)
        shard_keys = [
            cache.key_for(
                spec,
                dep_keys,
                extra=canonical_json(
                    {"of": len(descriptors), "shard": [index, descriptor]}
                ),
            )
            for index, descriptor in enumerate(descriptors)
        ]
        return descriptors, storage_key, shard_keys

    def merge_unit(name: str) -> tuple[str, dict[str, Any]]:
        spec = specs[name]
        state = shard_states[name]
        unit = f"{name}#merge"
        unit_info[unit] = ("merge", name, -1)
        return unit, {
            "task": name,
            "fn": spec.shards.merge_fn,
            "args": dict(spec.args),
            "dep_results": {
                **state.dep_results,
                "shards": list(state.partials),
            },
        }

    def prepare(name: str) -> list[tuple[str, dict[str, Any]]]:
        """Cache-probe a ready task; return the units that must run."""
        spec = specs[name]
        failed = [
            dep
            for dep in spec.dep_tasks
            if records[dep]["status"] != "ok"
        ]
        if failed:
            message = f"dependency failed or was skipped: {failed}"
            finish(name, _error_record(name, "skipped", "SkippedDependency", message))
            return []
        dep_keys = {
            param: keys[dep] for param, dep in sorted(spec.deps.items())
        }
        # Dependents always hash the plain key — the sharded commit is
        # bit-identical to the monolithic result by contract.
        key = cache.key_for(spec, dep_keys)
        keys[name] = key
        dep_results = {
            param: records[dep]["result"] for param, dep in spec.deps.items()
        }
        plan = None
        if spec.shards is not None and shard_width > 1:
            try:
                plan = plan_shards(spec, dep_keys)
            except Exception as exc:  # noqa: BLE001 — isolation, as for tasks
                message = f"shard planner failed: {exc}"
                record = _error_record(
                    name, "error", type(exc).__name__, message, traceback.format_exc()
                )
                finish(name, record)
                return []
        if plan is None:
            cached = cache.load(key)
            if cached is not None and cached.get("status") == "ok":
                finish(name, _zeroed_hit(cached))
                return []
            unit_info[name] = ("task", name, -1)
            return [
                (
                    name,
                    {
                        "task": name,
                        "fn": spec.fn,
                        "args": dict(spec.args),
                        "dep_results": dep_results,
                    },
                )
            ]
        descriptors, storage_key, shard_keys = plan
        cached = cache.load(storage_key)
        if cached is not None and cached.get("status") == "ok":
            finish(name, _zeroed_hit(cached))
            summarise(name, len(descriptors), cache="hit")
            return []
        state = _ShardState(descriptors, dep_results, storage_key, shard_keys)
        shard_states[name] = state
        units = []
        total = len(descriptors)
        for index, descriptor in enumerate(descriptors):
            shard_cached = cache.load(shard_keys[index])
            if shard_cached is not None and shard_cached.get("status") == "ok":
                hit = _zeroed_hit(shard_cached)
                state.shard_records[index] = hit
                state.partials[index] = hit["result"]
                continue
            unit = f"{name}#{index}/{total}"
            unit_info[unit] = ("shard", name, index)
            state.pending.add(index)
            units.append(
                (
                    unit,
                    {
                        "task": unit,
                        "fn": spec.shards.shard_fn,
                        "args": {**spec.args, "shard": descriptor},
                        "dep_results": dep_results,
                    },
                )
            )
        if not state.pending:
            # Every shard was a cache hit; go straight to the merge.
            return [merge_unit(name)]
        return units

    def seal(record: dict[str, Any], key: str) -> None:
        """Stamp an executed unit's record with its key; store it if ok."""
        record["cache"] = "miss" if cache.enabled else "bypass"
        record["key"] = key
        if record["status"] == "ok":
            cache.store(key, record)

    def complete(
        unit: str, record: dict[str, Any]
    ) -> list[tuple[str, dict[str, Any]]]:
        """Commit one executed unit; return follow-up units to run."""
        kind, name, index = unit_info.pop(unit)
        if kind == "task":
            seal(record, keys[name])
            finish(name, record)
            return []
        state = shard_states[name]
        if kind == "shard":
            seal(record, state.shard_keys[index])
            state.shard_records[index] = record
            state.partials[index] = record["result"]
            state.pending.discard(index)
            if state.pending:
                return []
            failed = [
                shard
                for shard in sorted(state.shard_records)
                if state.shard_records[shard]["status"] != "ok"
            ]
            if not failed:
                return [merge_unit(name)]
            # The last shard is in and some failed: the task's record is
            # a ShardFailure, committed below like a merge record.
            first = state.shard_records[failed[0]]["error"]
            message = (
                f"shard(s) {failed} of {len(state.descriptors)} failed: "
                f"{first['type']}: {first['message']}"
            )
            record = _error_record(
                name, "error", "ShardFailure", message, first["traceback"]
            )
        state.fold_into(record)
        rows = record["shards"] = state.attribution()
        walls = [row["wall_time_s"] for row in rows]
        if kind == "merge":
            summarise(
                name,
                len(state.descriptors),
                merge_wall_s=record["wall_time_s"],
                shard_walls_s=walls,
                shard_cache=[row["cache"] for row in rows],
            )
            seal(record, state.storage_key)
        else:
            summarise(
                name, len(state.descriptors), failed=failed, shard_walls_s=walls
            )
        finish(name, record)
        return []

    #: Pooled units in flight: future → unit id.
    in_flight: dict[Any, str] = {}

    def submit(pool: Any, units: list[tuple[str, dict[str, Any]]]) -> None:
        """Run units inline and complete them (and their follow-ups) at
        once when there is no pool; submit them to the pool otherwise.
        ``_execute_payload`` is looked up here, at submit time, so a
        replacement installed on the module (a tracer) runs either way.
        """
        for unit, payload in units:
            if pool is None:
                submit(pool, complete(unit, _execute_payload(payload)))
            else:
                in_flight[pool.submit(_execute_payload, payload)] = unit

    # Activate the artifact store in the parent *before* the pool
    # forks: workers inherit the global and hydrate from the shared
    # backend (sqlite connections re-open lazily per pid).
    previous_store = store_runtime.activate(store) if store is not None else None
    pool = None
    try:
        if jobs > 1:
            pool = _process_pool(jobs, store)
        unadmitted = list(order)
        while True:
            for name in list(unadmitted):
                if all(dep in records for dep in specs[name].dep_tasks):
                    unadmitted.remove(name)
                    submit(pool, prepare(name))
            if not in_flight:
                break
            for unit, record in _completed(in_flight):
                submit(pool, complete(unit, record))
    finally:
        if pool is not None:
            # Drop queued units on the way out (a dead worker, a raising
            # on_record, Ctrl-C) instead of running them first.
            pool.shutdown(cancel_futures=True)
        if store is not None:
            store_runtime.deactivate(previous_store)

    elapsed = time.perf_counter() - started
    ordered = [records[name] for name in sorted(records)]
    # The parent's own lru traffic over this run.  Sequential units ran
    # in this process, so their deltas are already in it and no worker
    # bucket may repeat them.
    main_lru = metrics.diff(run_before, metrics.snapshot())["lru"]
    worker_lru = unit_totals["lru_delta"] if jobs > 1 else {}
    lru_totals = {"hits": 0, "misses": 0, "currsize": 0}
    for counters in (*main_lru.values(), *worker_lru.values()):
        for fieldname in lru_totals:
            lru_totals[fieldname] += counters[fieldname]
    return EngineReport(
        jobs=jobs,
        jobs_requested=jobs_requested,
        elapsed_s=elapsed,
        records=ordered,
        cache=cache.describe(),
        lru_caches={
            "registered": sorted(
                set(metrics.registered_names()) | seen_registered
            ),
            "main_process": main_lru,
            "workers": {name: worker_lru[name] for name in sorted(worker_lru)},
            "totals": lru_totals,
        },
        solver={"totals": dict(sorted(unit_totals["solver_delta"].items()))},
        store={
            "enabled": store is not None,
            "backend": store.describe() if store is not None else None,
            "totals": dict(sorted(unit_totals["store_delta"].items())),
        },
        shards={
            "width": shard_width,
            "requested": shards,
            "tasks": {
                name: shard_summary[name] for name in sorted(shard_summary)
            },
        },
    )
