"""Scheduler semantics: dep injection, isolation, caching, parallelism."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import ResultCache, TaskRegistry, run_tasks

TASKFNS = "tests.engine.taskfns"

#: The checkout root: ``src`` for ``repro``, and the root itself for the
#: ``tests.engine.taskfns`` paths a fresh interpreter must resolve.
ROOT = Path(__file__).resolve().parents[2]


def _registry() -> TaskRegistry:
    registry = TaskRegistry()
    registry.add("base", f"{TASKFNS}:const", args={"value": 21})
    registry.add("doubled", f"{TASKFNS}:double", deps={"n": "base"})
    registry.add(
        "summed", f"{TASKFNS}:add", args={"y": 8}, deps={"x": "doubled"}
    )
    registry.add("loner", f"{TASKFNS}:const", args={"value": "solo"})
    return registry


def _stable(report):
    """The deterministic projection of a report's records."""
    return [
        (r["task"], r["status"], r["result"]) for r in report.records
    ]


def test_jobs1_runs_in_order_and_injects_deps(tmp_path):
    seen = []
    report = run_tasks(
        _registry(),
        jobs=1,
        cache=ResultCache(root=tmp_path),
        on_record=lambda record: seen.append(record["task"]),
    )
    assert report.ok
    assert report.record_for("doubled")["result"] == 42
    assert report.record_for("summed")["result"] == 50
    # Records come back sorted by name; completion order is topological.
    assert [r["task"] for r in report.records] == sorted(seen)
    assert seen.index("base") < seen.index("doubled") < seen.index("summed")
    assert all(r["cache"] == "miss" for r in report.records)
    assert report.record_for("summed")["wall_time_s"] >= 0


def test_failure_isolation_and_dependent_skipping(tmp_path):
    registry = TaskRegistry()
    registry.add("fails", f"{TASKFNS}:boom")
    registry.add("downstream", f"{TASKFNS}:double", deps={"n": "fails"})
    registry.add("unrelated", f"{TASKFNS}:const", args={"value": 7})
    report = run_tasks(registry, jobs=1, cache=ResultCache(root=tmp_path))

    assert not report.ok
    assert report.counts() == {"ok": 1, "error": 1, "skipped": 1}
    failed = report.record_for("fails")
    assert failed["error"]["type"] == "RuntimeError"
    assert "intentional failure" in failed["error"]["message"]
    skipped = report.record_for("downstream")
    assert skipped["status"] == "skipped"
    assert "fails" in skipped["error"]["message"]
    assert report.record_for("unrelated")["result"] == 7


def test_error_records_are_not_cached(tmp_path):
    registry = TaskRegistry()
    registry.add("fails", f"{TASKFNS}:boom")
    run_tasks(registry, jobs=1, cache=ResultCache(root=tmp_path))
    rerun = run_tasks(registry, jobs=1, cache=ResultCache(root=tmp_path))
    assert rerun.record_for("fails")["cache"] == "miss"


def test_non_json_result_is_an_error_not_a_crash(tmp_path):
    registry = TaskRegistry()
    registry.add("bad", f"{TASKFNS}:not_json")
    report = run_tasks(registry, jobs=1, cache=ResultCache(root=tmp_path))
    assert report.record_for("bad")["status"] == "error"
    assert report.record_for("bad")["error"]["type"] == "TypeError"


def test_results_are_json_normalised(tmp_path):
    registry = TaskRegistry()
    registry.add("tupled", f"{TASKFNS}:tupled")
    report = run_tasks(registry, jobs=1, cache=ResultCache(root=tmp_path))
    assert report.record_for("tupled")["result"] == {
        "pair": [1, 2],
        "table": {"3": "c"},
    }


def test_warm_run_hits_with_identical_payloads(tmp_path):
    cold = run_tasks(_registry(), jobs=1, cache=ResultCache(root=tmp_path))
    warm = run_tasks(_registry(), jobs=1, cache=ResultCache(root=tmp_path))
    assert warm.ok
    assert all(r["cache"] == "hit" for r in warm.records)
    assert warm.cache["hits"] == len(warm.records)
    assert warm.cache["hit_rate"] == 1.0
    assert _stable(cold) == _stable(warm)


def test_version_bump_reruns_task_and_dependents(tmp_path):
    run_tasks(_registry(), jobs=1, cache=ResultCache(root=tmp_path))
    bumped = TaskRegistry()
    bumped.add("base", f"{TASKFNS}:const", args={"value": 21}, version="2")
    bumped.add("doubled", f"{TASKFNS}:double", deps={"n": "base"})
    bumped.add(
        "summed", f"{TASKFNS}:add", args={"y": 8}, deps={"x": "doubled"}
    )
    bumped.add("loner", f"{TASKFNS}:const", args={"value": "solo"})
    report = run_tasks(bumped, jobs=1, cache=ResultCache(root=tmp_path))
    # The bumped task misses, and the new dependency keys cascade
    # Merkle-style through its consumers; the unrelated task still hits.
    assert report.record_for("base")["cache"] == "miss"
    assert report.record_for("doubled")["cache"] == "miss"
    assert report.record_for("summed")["cache"] == "miss"
    assert report.record_for("loner")["cache"] == "hit"


def test_no_cache_bypasses(tmp_path):
    cache = ResultCache(root=tmp_path, enabled=False)
    report = run_tasks(_registry(), jobs=1, cache=cache)
    assert report.ok
    assert all(r["cache"] == "bypass" for r in report.records)
    assert report.cache["bypassed"] == len(report.records)
    assert not any(tmp_path.rglob("*.json"))


def test_only_restricts_to_dependency_closure(tmp_path):
    report = run_tasks(
        _registry(),
        jobs=1,
        cache=ResultCache(root=tmp_path),
        only=["doubled"],
    )
    assert {r["task"] for r in report.records} == {"base", "doubled"}


def _uncap_cpus(monkeypatch, count=8):
    """Pretend the host has ``count`` cores so jobs>1 is not capped."""
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: count)


def test_parallel_run_matches_serial(tmp_path, monkeypatch):
    _uncap_cpus(monkeypatch)
    serial = run_tasks(
        _registry(), jobs=1, cache=ResultCache(root=tmp_path / "serial")
    )
    parallel = run_tasks(
        _registry(), jobs=2, cache=ResultCache(root=tmp_path / "parallel")
    )
    assert parallel.jobs == 2
    assert _stable(serial) == _stable(parallel)


def test_parallel_failure_isolation(tmp_path, monkeypatch):
    _uncap_cpus(monkeypatch)
    registry = TaskRegistry()
    registry.add("fails", f"{TASKFNS}:boom")
    registry.add("downstream", f"{TASKFNS}:double", deps={"n": "fails"})
    registry.add("unrelated", f"{TASKFNS}:const", args={"value": 7})
    report = run_tasks(registry, jobs=2, cache=ResultCache(root=tmp_path))
    assert report.counts() == {"ok": 1, "error": 1, "skipped": 1}


DEAD_WORKER = f"""
import os
from concurrent.futures.process import BrokenProcessPool

from repro.engine import ResultCache, TaskRegistry, run_tasks

# Four cores, so jobs=2 is not capped to an inline run (where the exit
# would end this script instead of a worker).
os.cpu_count = lambda: 4
registry = TaskRegistry()
registry.add("dies", "{TASKFNS}:die")
registry.add("after", "{TASKFNS}:double", deps={{"n": "dies"}})
registry.add("other", "{TASKFNS}:const", args={{"value": 7}})
try:
    run_tasks(registry, jobs=2, cache=ResultCache(enabled=False))
except BrokenProcessPool as exc:
    print("BrokenProcessPool:", exc)
"""


def _run_script(script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter in its own process group;
    on a 60 s timeout kill the group (workers too) and fail."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(ROOT)))}
    child = subprocess.Popen(
        [sys.executable, "-c", script, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("the script was still running after 60 s")
    assert child.returncode == 0, err
    return out


def test_dead_worker_ends_the_run():
    """A worker that dies mid-unit breaks the pool: ``run_tasks`` raises
    ``BrokenProcessPool``, naming the lost unit, instead of waiting
    forever for its result."""
    out = _run_script(DEAD_WORKER)
    assert out.startswith("BrokenProcessPool:"), out
    assert "'dies'" in out


SETUP_IMPORTS = """
import sys

import repro.engine
from repro.engine.experiments import build_default_registry
from repro.store import open_backend

build_default_registry()
open_backend("sqlite:" + sys.argv[1]).keys()
print(sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
"""


def test_setup_imports_no_process_pool_machinery(tmp_path):
    """Importing the engine, building the DAG and opening a store (a
    benchmark pass's set-up) loads no pool machinery: only ``jobs > 1``
    needs it."""
    out = _run_script(SETUP_IMPORTS, str(tmp_path / "store.sqlite"))
    assert out.strip() == "[]"


def test_jobs_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        run_tasks(_registry(), jobs=0, cache=ResultCache(root=tmp_path))


# -- lru-cache / solver-stats aggregation -----------------------------------


def test_pool_worker_cache_activity_is_merged(tmp_path, monkeypatch):
    """Worker-process lru activity must surface in the final report.

    The real experiment tasks import the solver stack lazily inside the
    executing process, so with a worker pool the parent's own snapshot
    sees none of their cache traffic — the report must merge the
    per-record deltas instead (this was the `registered: []` bug).
    """
    _uncap_cpus(monkeypatch)
    registry = TaskRegistry()
    registry.add(
        "f1", f"{TASKFNS}:factor_count", args={"word": "abcabcabbacb"}
    )
    registry.add(
        "f2", f"{TASKFNS}:factor_count", args={"word": "bbacbacabcab"}
    )
    report = run_tasks(registry, jobs=2, cache=ResultCache(root=tmp_path))
    assert report.ok
    assert "words.factors.factors" in report.lru_caches["registered"]
    workers = report.lru_caches["workers"]
    bucket = workers["words.factors.factors"]
    assert bucket["hits"] + bucket["misses"] >= 2
    # Totals = parent aggregate + worker deltas, so they must dominate
    # the parent-only numbers by exactly the merged worker activity.
    parent = report.lru_caches["main_process"]
    parent_hits = sum(c["hits"] for c in parent.values())
    merged_hits = sum(c["hits"] for c in workers.values())
    assert report.lru_caches["totals"]["hits"] == parent_hits + merged_hits
    for record in report.records:
        assert "words.factors.factors" in record["lru_registered"]


def test_sequential_run_does_not_double_count(tmp_path):
    registry = TaskRegistry()
    registry.add(
        "f1", f"{TASKFNS}:factor_count", args={"word": "abcacbabcacb"}
    )
    report = run_tasks(registry, jobs=1, cache=ResultCache(root=tmp_path))
    assert report.ok
    # Sequential execution happens in this process: its deltas are already
    # inside the main snapshot, so no worker bucket may exist for them.
    assert report.lru_caches["workers"] == {}
    parent_hits = sum(
        c["hits"] for c in report.lru_caches["main_process"].values()
    )
    assert report.lru_caches["totals"]["hits"] == parent_hits


def test_lru_caches_report_this_run_not_the_process_lifetime(tmp_path):
    """lru totals are this run's traffic, like the solver/store totals.

    They used to come from an absolute snapshot at the end of the run,
    so a second run in one process reported the first run's lookups too.
    """
    registry = TaskRegistry()
    registry.add(
        "f1", f"{TASKFNS}:factor_count", args={"word": "abcbcabcabba"}
    )
    cache = ResultCache(root=tmp_path, enabled=False)
    run_tasks(registry, jobs=1, cache=cache)
    report = run_tasks(registry, jobs=1, cache=cache)
    assert report.ok
    # The second run's one lookup is a hit on the entry the first left.
    delta = report.record_for("f1")["lru_delta"]
    assert delta == {
        "words.factors.factors": {"hits": 1, "misses": 0, "currsize": 0}
    }
    assert report.lru_caches["totals"] == {
        "hits": 1, "misses": 0, "currsize": 0,
    }
    assert report.lru_caches["main_process"] == delta


def test_solver_stats_flow_into_report(tmp_path):
    registry = TaskRegistry()
    registry.add(
        # Words chosen to be unique to this test: solver_for is a shared
        # per-process cache, and a solver warmed by another test would
        # report a zero delta here.
        "probe", f"{TASKFNS}:ef_probe", args={"w": "aabbab", "v": "aababb", "k": 2}
    )
    report = run_tasks(registry, jobs=1, cache=ResultCache(root=tmp_path))
    assert report.ok
    delta = report.record_for("probe")["solver_delta"]
    assert delta["positions_explored"] > 0
    totals = report.solver["totals"]
    assert totals["positions_explored"] >= delta["positions_explored"]
    # A warm rerun does no solver work and must not report any.
    warm = run_tasks(registry, jobs=1, cache=ResultCache(root=tmp_path))
    assert warm.record_for("probe")["cache"] == "hit"
    assert warm.record_for("probe")["solver_delta"] == {}


def test_jobs_capped_at_cpu_count(tmp_path, monkeypatch):
    import repro.engine.executor as executor_module

    monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 2)
    registry = TaskRegistry()
    registry.add("only", f"{TASKFNS}:const", args={"value": 1})
    report = run_tasks(registry, jobs=64, cache=ResultCache(root=tmp_path))
    assert report.jobs == 2
    assert report.jobs_requested == 64
    assert report.to_json_dict()["engine"]["jobs"] == 2
    assert report.to_json_dict()["engine"]["jobs_requested"] == 64


def test_jobs_within_cpu_count_is_untouched(tmp_path):
    registry = TaskRegistry()
    registry.add("only", f"{TASKFNS}:const", args={"value": 1})
    report = run_tasks(registry, jobs=1, cache=ResultCache(root=tmp_path))
    assert report.jobs == 1
    assert report.jobs_requested == 1
