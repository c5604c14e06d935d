"""Intra-task sharding: expansion, bit-identity, caching, attribution.

The contract under test (DESIGN.md "sharding"): a task with a
:class:`~repro.engine.spec.ShardPlan` commits a record bit-identical to
the monolithic run at every width; dependents hash the plain task key,
so changing the width re-runs only the shards and the merge; shard
failures surface as one ``ShardFailure`` task error; and the merge
record's counter deltas are the sum of the shard deltas (exact
conservation for real solver counters, duplicated stem work measured
separately in ``shard_overhead_ops``).
"""

import os

import pytest

from repro.engine import ResultCache, TaskRegistry, run_tasks
from repro.engine.spec import ShardPlan, TaskSpec, canonical_json

TASKFNS = "tests.engine.taskfns"

RANGE_PLAN = ShardPlan(
    f"{TASKFNS}:plan_range",
    f"{TASKFNS}:range_part",
    f"{TASKFNS}:range_merge",
)


def _registry(n: int = 10) -> TaskRegistry:
    registry = TaskRegistry()
    registry.add(
        "ranged", f"{TASKFNS}:range_sum", args={"n": n}, shards=RANGE_PLAN
    )
    registry.add(
        "doubled", f"{TASKFNS}:double_total", deps={"part": "ranged"}
    )
    registry.add("loner", f"{TASKFNS}:const", args={"value": "solo"})
    return registry


def _uncap_cpus(monkeypatch, count: int = 8) -> None:
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def _stable(report):
    return [(r["task"], r["status"], r["result"]) for r in report.records]


# -- bit-identity across widths ----------------------------------------------


@pytest.mark.parametrize("width", [2, 3, 4])
def test_sharded_result_is_bit_identical_to_monolithic(tmp_path, width):
    mono = run_tasks(
        _registry(),
        jobs=1,
        shards=1,
        cache=ResultCache(root=tmp_path / "mono"),
    )
    sharded = run_tasks(
        _registry(),
        jobs=1,
        shards=width,
        cache=ResultCache(root=tmp_path / str(width)),
    )
    assert sharded.ok
    assert canonical_json(_stable(mono)) == canonical_json(_stable(sharded))
    record = sharded.record_for("ranged")
    assert [row["index"] for row in record["shards"]] == list(range(width))
    assert sharded.shards["width"] == width
    assert sharded.shards["tasks"]["ranged"]["count"] == width
    # The monolithic run never expanded anything.
    assert "shards" not in mono.record_for("ranged")
    assert mono.shards["tasks"] == {}


def test_single_descriptor_plan_stays_monolithic(tmp_path):
    # n=1 gives the planner one lane regardless of width: the engine
    # must fall back to the plain task path (no merge, no salted key).
    report = run_tasks(
        _registry(n=1),
        jobs=1,
        shards=4,
        cache=ResultCache(root=tmp_path),
    )
    assert report.ok
    assert "shards" not in report.record_for("ranged")
    assert report.shards["tasks"] == {}


def test_clamped_width_is_recorded_in_report(tmp_path):
    # Three values cannot fill eight lanes: the planner clamps to three
    # shards and the report says so instead of silently under-sharding.
    report = run_tasks(
        _registry(n=3),
        jobs=1,
        shards=8,
        cache=ResultCache(root=tmp_path),
    )
    assert report.ok
    assert report.shards["width"] == 8
    assert report.shards["requested"] == 8
    summary = report.shards["tasks"]["ranged"]
    assert summary["effective_width"] == 3
    assert summary["clamped"] is True
    assert len(report.record_for("ranged")["shards"]) == 3
    # An unclamped run reports effective width == requested width.
    full = run_tasks(
        _registry(),
        jobs=1,
        shards=4,
        cache=ResultCache(root=tmp_path / "full"),
    )
    assert full.shards["tasks"]["ranged"]["effective_width"] == 4
    assert full.shards["tasks"]["ranged"]["clamped"] is False


def test_requested_width_is_none_when_defaulted(tmp_path, monkeypatch):
    _uncap_cpus(monkeypatch)
    report = run_tasks(
        _registry(), jobs=2, cache=ResultCache(root=tmp_path)
    )
    assert report.shards["width"] == 2
    assert report.shards["requested"] is None


def test_planners_clamp_to_available_lanes():
    from repro.engine.shards import (
        clamp_width,
        length_band_plan,
        round_robin,
        subtree_plan,
    )

    assert clamp_width(64, 10) == 10
    assert clamp_width(2, 10) == 2
    assert clamp_width(0, 10) == 1
    # round_robin never deals more lanes than values.
    assert len(round_robin([1, 2, 3], 8)) == 3
    # Binary alphabet, depth capped at max_length: at most |Σ|^max_length
    # subtree shards no matter the requested width.
    plans = subtree_plan("ab", 2, 64)
    assert len(plans) == 4
    covered = sorted(p for plan in plans for p in plan["prefixes"])
    assert covered == ["aa", "ab", "ba", "bb"]
    # Unary grid: at most max_length + 1 length bands.
    bands = length_band_plan("a", 3, 64)
    assert len(bands) == 4
    assert sorted(n for band in bands for n in band["lengths"]) == [0, 1, 2, 3]


def test_default_width_is_effective_jobs(tmp_path, monkeypatch):
    _uncap_cpus(monkeypatch)
    serial = run_tasks(
        _registry(), jobs=1, cache=ResultCache(root=tmp_path / "serial")
    )
    assert serial.shards["width"] == 1
    assert "shards" not in serial.record_for("ranged")
    pooled = run_tasks(
        _registry(), jobs=2, cache=ResultCache(root=tmp_path / "pooled")
    )
    assert pooled.shards["width"] == 2
    assert len(pooled.record_for("ranged")["shards"]) == 2
    assert canonical_json(_stable(serial)) == canonical_json(_stable(pooled))


def test_parallel_sharded_matches_serial_sharded(tmp_path, monkeypatch):
    _uncap_cpus(monkeypatch)
    serial = run_tasks(
        _registry(),
        jobs=1,
        shards=3,
        cache=ResultCache(root=tmp_path / "serial"),
    )
    pooled = run_tasks(
        _registry(),
        jobs=2,
        shards=3,
        cache=ResultCache(root=tmp_path / "pooled"),
    )
    assert canonical_json(_stable(serial)) == canonical_json(_stable(pooled))


def test_serial_units_run_in_topological_then_shard_order(tmp_path, monkeypatch):
    """With ``jobs=1`` each task's units run before the next task's: a
    sharded task's shards in index order, then its merge.  Per-task
    counters rely on it, since process-wide caches carry from one task
    to the next."""
    from repro.engine import executor, topological_order

    ran = []
    execute = executor._execute_payload

    def logged(payload):
        ran.append(payload["task"])
        return execute(payload)

    monkeypatch.setattr(executor, "_execute_payload", logged)
    registry = _registry()
    report = run_tasks(registry, jobs=1, shards=2, cache=ResultCache(root=tmp_path))
    assert report.ok
    expected = []
    for name in topological_order(registry.specs()):
        if name == "ranged":
            expected += ["ranged#0/2", "ranged#1/2"]
        expected.append(name)
    assert ran == expected


def test_shards_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        run_tasks(
            _registry(), jobs=1, shards=0, cache=ResultCache(root=tmp_path)
        )


# -- caching: plain dep keys, plan-salted storage keys ------------------------


def test_width_change_reruns_only_shards_and_merge(tmp_path):
    cache = ResultCache(root=tmp_path)
    first = run_tasks(_registry(), jobs=1, shards=2, cache=cache)
    assert first.ok

    # Same width again: the merge record hits under its plan-salted key
    # and no shard executes at all.
    warm = run_tasks(_registry(), jobs=1, shards=2, cache=cache)
    assert warm.record_for("ranged")["cache"] == "hit"
    assert warm.shards["tasks"]["ranged"] == {
        "count": 2,
        "cache": "hit",
        "effective_width": 2,
        "clamped": False,
    }
    assert warm.record_for("doubled")["cache"] == "hit"

    # New width: a different plan salts different shard/merge keys, so
    # the task re-runs — but the dependent hashes the plain (unsalted)
    # key and must stay cached.
    wider = run_tasks(_registry(), jobs=1, shards=4, cache=cache)
    ranged = wider.record_for("ranged")
    assert ranged["cache"] == "miss"
    assert len(ranged["shards"]) == 4
    assert all(row["cache"] == "miss" for row in ranged["shards"])
    assert wider.record_for("doubled")["cache"] == "hit"
    assert canonical_json(_stable(first)) == canonical_json(_stable(wider))

    # Back to the first width: everything hits again.
    back = run_tasks(_registry(), jobs=1, shards=2, cache=cache)
    assert back.record_for("ranged")["cache"] == "hit"


def test_shard_records_cache_individually(tmp_path):
    from repro.engine.shards import round_robin

    cache = ResultCache(root=tmp_path)
    run_tasks(_registry(), jobs=1, shards=3, cache=cache)
    # Drop only the merge record; the shards themselves must hit and
    # only the merge re-executes.
    spec = _registry().get("ranged")
    plan_descriptors = [
        {"values": lane} for lane in round_robin(list(range(10)), 3)
    ]
    storage_key = cache.key_for(
        spec, {}, extra=canonical_json({"plan": plan_descriptors})
    )
    cache.path_for(storage_key).unlink()
    rerun = run_tasks(_registry(), jobs=1, shards=3, cache=cache)
    record = rerun.record_for("ranged")
    assert record["cache"] == "miss"  # the merge itself re-ran
    assert [row["cache"] for row in record["shards"]] == ["hit"] * 3


def test_version_bump_invalidates_shards_and_dependents(tmp_path):
    cache = ResultCache(root=tmp_path)
    run_tasks(_registry(), jobs=1, shards=2, cache=cache)
    bumped = TaskRegistry()
    bumped.add(
        "ranged",
        f"{TASKFNS}:range_sum",
        args={"n": 10},
        shards=RANGE_PLAN,
        version="2",
    )
    bumped.add("doubled", f"{TASKFNS}:double_total", deps={"part": "ranged"})
    bumped.add("loner", f"{TASKFNS}:const", args={"value": "solo"})
    report = run_tasks(bumped, jobs=1, shards=2, cache=cache)
    ranged = report.record_for("ranged")
    assert ranged["cache"] == "miss"
    assert all(row["cache"] == "miss" for row in ranged["shards"])
    assert report.record_for("doubled")["cache"] == "miss"
    assert report.record_for("loner")["cache"] == "hit"


# -- failure isolation ---------------------------------------------------------


def test_shard_failure_fails_task_and_skips_dependents(tmp_path):
    registry = TaskRegistry()
    registry.add(
        "ranged",
        f"{TASKFNS}:range_sum",
        args={"n": 10},
        shards=ShardPlan(
            f"{TASKFNS}:plan_range",
            f"{TASKFNS}:shard_boom",
            f"{TASKFNS}:range_merge",
        ),
    )
    registry.add("doubled", f"{TASKFNS}:double_total", deps={"part": "ranged"})
    registry.add("unrelated", f"{TASKFNS}:const", args={"value": 7})
    report = run_tasks(
        registry, jobs=1, shards=2, cache=ResultCache(root=tmp_path)
    )
    assert report.counts() == {"ok": 1, "error": 1, "skipped": 1}
    failed = report.record_for("ranged")
    assert failed["error"]["type"] == "ShardFailure"
    assert "shard exploded" in failed["error"]["message"]
    # Attribution still records every shard, including the survivors.
    statuses = {row["index"]: row["status"] for row in failed["shards"]}
    assert statuses == {0: "ok", 1: "error"}
    assert report.record_for("doubled")["status"] == "skipped"
    assert report.record_for("unrelated")["result"] == 7
    # A failed shard set is not cached: the task re-runs from scratch.
    rerun = run_tasks(
        registry, jobs=1, shards=2, cache=ResultCache(root=tmp_path)
    )
    assert rerun.record_for("ranged")["error"]["type"] == "ShardFailure"


def test_planner_failure_is_a_task_error(tmp_path):
    registry = TaskRegistry()
    registry.add(
        "ranged",
        f"{TASKFNS}:range_sum",
        args={"n": 10},
        shards=ShardPlan(
            f"{TASKFNS}:plan_boom",
            f"{TASKFNS}:range_part",
            f"{TASKFNS}:range_merge",
        ),
    )
    registry.add("doubled", f"{TASKFNS}:double_total", deps={"part": "ranged"})
    report = run_tasks(
        registry, jobs=1, shards=2, cache=ResultCache(root=tmp_path)
    )
    failed = report.record_for("ranged")
    assert failed["status"] == "error"
    assert "shard planner failed" in failed["error"]["message"]
    assert report.record_for("doubled")["status"] == "skipped"


# -- spec validation -----------------------------------------------------------


def test_reserved_parameters_rejected_for_sharded_specs():
    with pytest.raises(ValueError, match="reserved for shard execution"):
        TaskSpec(
            "bad",
            f"{TASKFNS}:range_sum",
            args={"shard": 1},
            shards=RANGE_PLAN,
        )
    with pytest.raises(ValueError, match="reserved for shard execution"):
        TaskSpec(
            "bad",
            f"{TASKFNS}:range_sum",
            deps={"shards": "other"},
            shards=RANGE_PLAN,
        )
    # Without a shard plan the names are ordinary parameters.
    TaskSpec("fine", f"{TASKFNS}:const", args={"shard": 1})


def test_fn_paths_include_shard_plan_functions():
    registry = _registry()
    paths = registry.fn_paths()
    for path in RANGE_PLAN.paths():
        assert path in paths


# -- counter conservation over a real experiment -------------------------------


def test_e01_shard_counters_conserve_exactly(tmp_path):
    """Σ(shard solver deltas) + merge delta == the monolithic delta.

    E01's plan round-robins the i-grid, so no work is duplicated at all:
    every real solver counter must match exactly and the overhead
    counter must stay zero.  All lru caches are cleared between runs so
    both widths do identical cold work in this process.
    """
    from repro import metrics
    from repro.engine.experiments import build_default_registry

    registry = build_default_registry()

    def run(width):
        for site in metrics._SITES.values():
            site.cache_clear()
        return run_tasks(
            registry,
            jobs=1,
            shards=width,
            cache=ResultCache(root=tmp_path, enabled=False),
            only=["E01"],
        ).record_for("E01")

    mono = run(1)
    sharded = run(3)
    assert mono["status"] == "ok" and sharded["status"] == "ok"
    assert canonical_json(mono["result"]) == canonical_json(sharded["result"])
    assert len(sharded["shards"]) == 3
    def real(delta):
        return {k: v for k, v in delta.items() if k != "shard_overhead_ops"}

    assert real(sharded["solver_delta"]) == real(mono["solver_delta"])
    assert sharded["solver_delta"].get("shard_overhead_ops", 0) == 0


# -- spawn start method (satellite: REPRO_MP_CONTEXT) --------------------------


def test_spawn_pool_runs_the_dag(tmp_path, monkeypatch):
    """Workers started via spawn (fresh interpreters) must produce the
    same records: payloads carry only dotted paths and JSON data, and
    the store backend re-activates through the pool initializer."""
    _uncap_cpus(monkeypatch)
    monkeypatch.setenv("REPRO_MP_CONTEXT", "spawn")
    from repro.store import ArtifactStore, open_backend

    registry = _registry()
    registry.add(
        "interned",
        f"{TASKFNS}:interned_probe",
        args={"word": "abbaabbaabba"},
    )
    store = ArtifactStore(open_backend(tmp_path / "store"))
    report = run_tasks(
        registry,
        jobs=2,
        shards=2,
        cache=ResultCache(root=tmp_path / "cache"),
        store=store,
    )
    assert report.ok
    assert report.record_for("ranged")["result"]["total"] == 45
    assert report.record_for("doubled")["result"] == 90
    monkeypatch.delenv("REPRO_MP_CONTEXT")
    serial = run_tasks(
        registry,
        jobs=1,
        shards=2,
        cache=ResultCache(root=tmp_path / "serial"),
    )
    assert canonical_json(_stable(serial)) == canonical_json(_stable(report))


def test_unknown_start_method_is_rejected(tmp_path, monkeypatch):
    _uncap_cpus(monkeypatch)
    monkeypatch.setenv("REPRO_MP_CONTEXT", "no-such-method")
    with pytest.raises(ValueError):
        run_tasks(_registry(), jobs=2, cache=ResultCache(root=tmp_path))


def test_sqlite_backend_pickles_without_live_connection(tmp_path):
    import pickle

    from repro.store.backends import SqliteBackend

    backend = SqliteBackend(tmp_path / "artifacts.sqlite")
    backend.put("aa", b"payload")  # opens the connection
    clone = pickle.loads(pickle.dumps(backend))
    assert clone._conn is None and clone._pid == -1
    assert clone.get("aa") == b"payload"
    backend.close()
    clone.close()
