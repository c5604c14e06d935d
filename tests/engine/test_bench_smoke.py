"""The bench-smoke regression gate: comparison logic, not the full run.

(The full run is exercised by CI itself; here we pin down what counts as
a regression so the gate can't silently rot.)
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.bench_smoke import (  # noqa: E402
    GATED_COUNTERS,
    LRU_GATES,
    check,
    check_lru,
)


class _Report:
    def __init__(self, records, shards=None):
        self.records = records
        # The real EngineReport always carries a shard summary; the
        # default here mimics a run where some task executed sharded.
        self.shards = (
            shards
            if shards is not None
            else {"width": 2, "tasks": {"E01": {"count": 2}}}
        )


def _record(task, status="ok", **counters):
    return {"task": task, "status": status, "solver_delta": dict(counters)}


BASELINE = {
    "counters": {
        "E01": {"positions_explored": 100},
        "E05": {
            "sweep_words_interned": 9841,
            "sweep_tables_extended": 9840,
            "sweep_tables_rebuilt": 1,
        },
        "E20": {"foeq_positions_explored": 500},
        "prim": {},
    }
}


def _ok_records():
    return [
        _record("E01", positions_explored=100),
        _record(
            "E05",
            sweep_words_interned=9841,
            sweep_tables_extended=9840,
            sweep_tables_rebuilt=1,
        ),
        _record("E20", foeq_positions_explored=500),
        _record("prim"),
    ]


def test_matching_run_passes():
    assert check(_Report(_ok_records()), BASELINE, tolerance=0.2) == []


def test_within_tolerance_passes():
    records = _ok_records()
    records[0] = _record("E01", positions_explored=119)
    assert check(_Report(records), BASELINE, tolerance=0.2) == []


def test_regression_beyond_tolerance_fails():
    records = _ok_records()
    records[0] = _record("E01", positions_explored=121)
    failures = check(_Report(records), BASELINE, tolerance=0.2)
    assert len(failures) == 1
    assert "E01" in failures[0] and "regressed" in failures[0]


def test_sweep_counter_regression_fails():
    # A rebuild where an extension should happen (broken prefix sharing)
    # shows up as sweep_tables_rebuilt growing from its baseline.
    records = _ok_records()
    records[1] = _record(
        "E05",
        sweep_words_interned=9841,
        sweep_tables_extended=8000,
        sweep_tables_rebuilt=1841,
    )
    failures = check(_Report(records), BASELINE, tolerance=0.2)
    assert any("sweep_tables_rebuilt" in f for f in failures)


def test_foeq_counter_regression_fails():
    records = _ok_records()
    records[2] = _record("E20", foeq_positions_explored=1000)
    failures = check(_Report(records), BASELINE, tolerance=0.2)
    assert any("foeq_positions_explored" in f for f in failures)


def test_task_error_fails_even_without_effort_change():
    records = _ok_records()
    records[0] = _record("E01", status="error", positions_explored=100)
    failures = check(_Report(records), BASELINE, tolerance=0.2)
    assert any("did not finish ok" in f for f in failures)


def test_new_solver_work_on_zero_baseline_fails():
    records = _ok_records()
    records[3] = _record("prim", positions_explored=7)
    failures = check(_Report(records), BASELINE, tolerance=0.2)
    assert any("prim" in f for f in failures)


def test_run_without_sharded_tasks_fails():
    # Sharding silently disabled (e.g. every planner degenerating to one
    # descriptor) would un-gate the shard/merge path.
    report = _Report(_ok_records(), shards={"width": 2, "tasks": {}})
    failures = check(report, BASELINE, tolerance=0.2)
    assert any("shard plan" in f for f in failures)


def test_unbaselined_task_fails_loudly():
    report = _Report([_record("E99", positions_explored=5)])
    failures = check(report, BASELINE, tolerance=0.2)
    assert any("no baseline entry" in f for f in failures)


def test_improvement_passes():
    records = _ok_records()
    records[0] = _record("E01", positions_explored=10)
    assert check(_Report(records), BASELINE, tolerance=0.2) == []


def test_every_gated_counter_is_checked():
    # Guard the gate itself: all advertised counters really participate.
    for name in GATED_COUNTERS:
        baseline = {"counters": {"T": {name: 100}}}
        report = _Report([_record("T", **{name: 200})])
        failures = check(report, baseline, tolerance=0.2)
        assert any(name in f for f in failures), name


# --- the lru no-eviction gate -------------------------------------------


def _lru_snapshot(hits, misses, currsize, maxsize=4096):
    return {
        name: {
            "hits": hits,
            "misses": misses,
            "currsize": currsize,
            "maxsize": maxsize,
        }
        for name in LRU_GATES
    }


def test_lru_no_eviction_passes():
    assert check_lru(_lru_snapshot(hits=50, misses=200, currsize=200)) == []


def test_lru_eviction_fails():
    failures = check_lru(_lru_snapshot(hits=29, misses=2087, currsize=512))
    assert any("evicted 1575" in f for f in failures)


def test_lru_zero_hits_fails():
    failures = check_lru(_lru_snapshot(hits=0, misses=10, currsize=10))
    assert any("no longer shares work" in f for f in failures)


def test_lru_unregistered_cache_fails():
    failures = check_lru({})
    assert any("not registered" in f for f in failures)


def test_match_spans_cache_is_gated():
    from repro.spanners.regex_formulas import _match_spans_cached

    assert "spanners.regex_formulas.match_spans" in LRU_GATES
    # The smoke subset doesn't drive spanner evaluation, so the gate is
    # registration + no-eviction only (min_hits 0).
    assert LRU_GATES["spanners.regex_formulas.match_spans"] == 0
    assert _match_spans_cached.cache_info().maxsize == 4096


def test_plan_cache_is_gated():
    from repro.fc.sweep import compiled_plan

    assert LRU_GATES["fc.sweep.compiled_plan"] == 1
    assert compiled_plan.cache_info().maxsize == 256


def test_match_spans_zero_hits_passes_but_eviction_fails():
    snapshot = _lru_snapshot(hits=1, misses=10, currsize=10)
    spans = snapshot["spanners.regex_formulas.match_spans"]
    spans["hits"] = 0
    assert check_lru(snapshot) == []
    spans["misses"] = spans["currsize"] + 3
    failures = check_lru(snapshot)
    assert any(
        "match_spans evicted 3" in failure for failure in failures
    )


def test_solver_for_cache_holds_the_engine_workload():
    # The maxsize-512 regression: the full DAG requests ~2 000 distinct
    # (w, v, alphabet) pairs, and at 512 the heavyweight solvers were
    # evicted and rebuilt (2 087 misses vs 29 hits).  Pin the size above
    # the workload so the no-eviction regime can't silently regress.
    from repro.ef.equivalence import solver_for

    assert solver_for.cache_info().maxsize >= 4096
    assert "ef.equivalence.solver_for" in LRU_GATES
