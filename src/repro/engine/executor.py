"""The engine scheduler: topological fan-out over a worker pool.

``run_tasks`` takes a registry (or a plain spec mapping), resolves the
dependency closure of the requested tasks, and executes them:

* in-process, in topological order, when ``jobs == 1`` (deterministic
  and debugger-friendly);
* on a ``multiprocessing`` pool otherwise — every task whose
  dependencies are satisfied is in flight simultaneously, up to
  ``jobs`` workers.

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
order.
"""

from __future__ import annotations

import multiprocessing
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

#: Seconds between completion polls of the worker pool.
_POLL_INTERVAL = 0.005

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


def _skipped_record(name: str, failed_deps: list[str]) -> dict[str, Any]:
    return {
        "task": name,
        "status": "skipped",
        "result": None,
        "error": {
            "type": "SkippedDependency",
            "message": f"dependency failed or was skipped: {failed_deps}",
            "traceback": None,
        },
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
        "failed",
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
        self.failed = False

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
    """Pool initializer: arm process-global state in every worker.

    Under ``fork`` this is belt-and-braces (workers inherit the parent's
    activated store; the metrics lock re-arms itself via its pid
    guard).  Under ``spawn`` it is load-bearing: the worker is a fresh
    interpreter, so the artifact store must be re-activated from the
    pickled backend for warm-starts to work at all.
    """
    if store is not None:
        store_runtime.activate(store)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, inherits the imported solver stack).

    ``REPRO_MP_CONTEXT`` overrides the start method (``spawn`` /
    ``forkserver``), for platforms where fork is unavailable or unsafe
    and for the spawn-mode test suite.  The value only picks how worker
    processes start; payloads, results and cache keys are identical
    under every method, so it cannot make results irreproducible.
    """
    # repro-lint: allow[determinism] config-only env read at the pool boundary
    override = os.environ.get("REPRO_MP_CONTEXT")
    if override:
        return multiprocessing.get_context(override)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX fallback
        return multiprocessing.get_context()


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
    # absorbed.
    unit_totals: dict[str, dict[str, Any]] = {
        fieldname: {} for fieldname in _DELTA_FIELDS
    }
    seen_registered: set[str] = set()
    run_before = metrics.snapshot()

    def absorb(record: dict[str, Any]) -> None:
        """Fold one executed record's deltas into the run accumulators."""
        seen_registered.update(record.get("lru_registered", ()))
        for fieldname in _DELTA_FIELDS:
            _merge_delta(unit_totals[fieldname], record.get(fieldname, {}))

    def finish(name: str, record: dict[str, Any]) -> None:
        records[name] = record
        if on_record is not None:
            on_record(record)

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
            finish(name, _skipped_record(name, failed))
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
                record = _skipped_record(name, [])
                record["status"] = "error"
                record["error"] = {
                    "type": type(exc).__name__,
                    "message": f"shard planner failed: {exc}",
                    "traceback": traceback.format_exc(),
                }
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
            shard_summary[name] = {
                "count": len(descriptors),
                "cache": "hit",
                "effective_width": len(descriptors),
                "clamped": len(descriptors) < shard_width,
            }
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

    def seal_task(name: str, record: dict[str, Any]) -> None:
        record["cache"] = "miss" if cache.enabled else "bypass"
        record["key"] = keys[name]
        absorb(record)
        if record["status"] == "ok":
            cache.store(keys[name], record)
        finish(name, record)

    def seal_merge(name: str, record: dict[str, Any]) -> None:
        state = shard_states[name]
        state.fold_into(record)
        record["cache"] = "miss" if cache.enabled else "bypass"
        record["key"] = state.storage_key
        record["shards"] = state.attribution()
        shard_summary[name] = {
            "count": len(state.descriptors),
            "effective_width": len(state.descriptors),
            "clamped": len(state.descriptors) < shard_width,
            "merge_wall_s": record["wall_time_s"],
            "shard_walls_s": [row["wall_time_s"] for row in record["shards"]],
            "shard_cache": [row["cache"] for row in record["shards"]],
        }
        absorb(record)
        if record["status"] == "ok":
            cache.store(state.storage_key, record)
        finish(name, record)

    def fail_shards(name: str) -> None:
        """Commit an error record for a task whose shard(s) failed."""
        state = shard_states[name]
        failed = [
            index
            for index in sorted(state.shard_records)
            if state.shard_records[index]["status"] != "ok"
        ]
        first = state.shard_records[failed[0]]["error"]
        record = {
            "task": name,
            "status": "error",
            "result": None,
            "error": {
                "type": "ShardFailure",
                "message": (
                    f"shard(s) {failed} of {len(state.descriptors)} failed: "
                    f"{first['type']}: {first['message']}"
                ),
                "traceback": first["traceback"],
            },
            "wall_time_s": 0.0,
            "args_bytes": 0,
            "result_bytes": 0,
            "cache": "none",
            **_no_deltas(),
        }
        state.fold_into(record)
        record["shards"] = state.attribution()
        shard_summary[name] = {
            "count": len(state.descriptors),
            "effective_width": len(state.descriptors),
            "clamped": len(state.descriptors) < shard_width,
            "failed": failed,
            "shard_walls_s": [row["wall_time_s"] for row in record["shards"]],
        }
        absorb(record)
        finish(name, record)

    def complete(
        unit: str, record: dict[str, Any]
    ) -> list[tuple[str, dict[str, Any]]]:
        """Commit one executed unit; return follow-up units to run."""
        kind, name, index = unit_info.pop(unit)
        if kind == "task":
            seal_task(name, record)
            return []
        if kind == "merge":
            seal_merge(name, record)
            return []
        state = shard_states[name]
        record["cache"] = "miss" if cache.enabled else "bypass"
        record["key"] = state.shard_keys[index]
        if record["status"] == "ok":
            cache.store(state.shard_keys[index], record)
            state.partials[index] = record["result"]
        else:
            state.failed = True
        state.shard_records[index] = record
        state.pending.discard(index)
        if state.pending:
            return []
        if state.failed:
            fail_shards(name)
            return []
        return [merge_unit(name)]

    # Activate the artifact store in the parent *before* the pool
    # forks: workers inherit the global and hydrate from the shared
    # backend (sqlite connections re-open lazily per pid).
    previous_store = store_runtime.activate(store) if store is not None else None
    try:
        if jobs == 1:
            for name in order:
                queue = prepare(name)
                while queue:
                    unit, payload = queue.pop(0)
                    queue.extend(complete(unit, _execute_payload(payload)))
        else:
            ctx = _pool_context()
            with ctx.Pool(
                processes=jobs, initializer=_worker_init, initargs=(store,)
            ) as pool:
                in_flight: dict[str, Any] = {}
                submitted: set[str] = set()
                while len(records) < len(specs):
                    for name in order:
                        if name in records or name in submitted:
                            continue
                        if any(dep not in records for dep in specs[name].dep_tasks):
                            continue
                        submitted.add(name)
                        for unit, payload in prepare(name):
                            in_flight[unit] = pool.apply_async(
                                _execute_payload, (payload,)
                            )
                    done_now = [u for u, a in in_flight.items() if a.ready()]
                    if not done_now:
                        if in_flight:
                            time.sleep(_POLL_INTERVAL)
                        continue
                    for unit in sorted(done_now):
                        for follow_up, payload in complete(
                            unit, in_flight.pop(unit).get()
                        ):
                            in_flight[follow_up] = pool.apply_async(
                                _execute_payload, (payload,)
                            )
    finally:
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
