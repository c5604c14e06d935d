"""Self-tests for the benchmark: ``python3 -m pytest perfbench -q``.

They cover the tail rule, the seeded serve-mix stream, the correctness
gates (a tampered task result and a flipped verdict must both count as
failures), the span tracer and the agreement between ``BENCHMARK.json``
and the metric catalogue.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import benchstats
import dag
import harness
import metrics as catalogue
import run
import servemix
import spans

sys.path.insert(0, str(harness.SRC))


# -- the tail rule ----------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert benchstats.tail_percentile(count, ceiling=99.9) == expected
    if expected is not None:
        assert benchstats.samples_beyond(count, expected) >= benchstats.MIN_BEYOND


def test_tail_percentile_never_exceeds_the_named_percentile():
    assert benchstats.tail_percentile(50_000) == 99.0
    assert benchstats.tail_percentile(50_000, ceiling=95.0) == 95.0


def test_tail_reports_value_percentile_and_count():
    samples = [float(i) for i in range(1, 1001)]
    assert benchstats.tail(samples) == (990.0, 99.0, 1000)
    assert benchstats.tail(samples[:150]) == (135.0, 90.0, 150)
    assert benchstats.tail([3.0, 1.0, 2.0]) == (3.0, None, 3)


def test_interquartile_mean_averages_the_middle_half():
    samples = [float(i) for i in range(1, 101)]
    assert benchstats.interquartile_mean(samples) == pytest.approx(50.5)
    assert benchstats.interquartile_mean([1.0, 2.0, 3.0, 100.0]) == 2.5
    assert benchstats.interquartile_mean([7.0]) == 7.0
    # A sparse middle: the median jumps from 20 to 30, the mean moves less.
    before = [1.0] * 9 + [10.0, 30.0] + [50.0] * 9
    after = [1.0] * 9 + [30.0, 30.0] + [50.0] * 9
    assert benchstats.median(after) - benchstats.median(before) == 10.0
    assert benchstats.interquartile_mean(after) - benchstats.interquartile_mean(
        before
    ) == pytest.approx(2.0)


def test_dag_tail_never_reads_below_the_p50():
    units = [1.0] * 40 + [10.0, 20.0, 30.0, 40.0] + [50.0] * 40
    outcome = catalogue.Outcome()
    dag._end_to_end(outcome, [0.1], [1.0], [1.0], [100.0], units)
    assert benchstats.tail(units)[1] == 50.0
    assert outcome.metrics["latency_p99_ms"] == outcome.metrics["latency_p50_ms"]


def test_spread_is_interquartile_range_over_median():
    assert benchstats.spread([10.0]) == 0.0
    assert benchstats.spread([10.0] * 5) == 0.0
    assert benchstats.spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


# -- the seeded serve-mix stream ---------------------------------------------


def _heavy():
    committed = servemix._committed()
    return servemix.heavy_pairs(committed)


def test_stream_is_a_function_of_the_seed():
    heavy = [request for request, _ in _heavy()]
    first = servemix.build_stream(7, heavy, 3)
    assert first == servemix.build_stream(7, heavy, 3)
    assert first != servemix.build_stream(8, heavy, 3)


def test_stream_blocks_have_the_fixed_mix():
    heavy = [request for request, _ in _heavy()]
    stream = servemix.build_stream(3, heavy, 4)
    assert len(stream) == 4 * servemix.BLOCK
    heavy_keys = {spans.request_fingerprint(r) for r in heavy}
    for start in range(0, len(stream), servemix.BLOCK):
        block = stream[start:start + servemix.BLOCK]
        keys = [spans.request_fingerprint(r) for r in block]
        assert sum(key in heavy_keys for key in keys) == servemix.HEAVY_PER_BLOCK
        ops = Counter(r["op"] for r in block if spans.request_fingerprint(r) not in heavy_keys)
        assert sum(ops.values()) == servemix.BLOCK - servemix.HEAVY_PER_BLOCK
    fresh_seen = Counter(spans.request_fingerprint(r) for r in stream)
    repeated = sum(count - 1 for count in fresh_seen.values())
    # Hot repeats plus heavy repeats, never a repeated fresh request.
    assert repeated >= 4 * servemix.HOT_PER_BLOCK - servemix.HOT_SIZE


def test_heavy_pairs_come_from_committed_verdicts():
    pairs = {(r["w"], r["v"], r["k"]): verdict for r, verdict in _heavy()}
    assert pairs[("a" * 12 + "b" * 12, "a" * 14 + "b" * 12, 2)] is True
    assert pairs[("a" * 12, "a" * 14, 2)] is True
    assert pairs[("aaaa", "aaa", 2)] is False


# -- correctness gates -------------------------------------------------------


def _committed_report():
    return json.loads(harness.COMMITTED_REPORT.read_text(encoding="utf-8"))


def test_dag_gate_accepts_the_committed_results():
    outcome = catalogue.Outcome()
    dag.gate(_committed_report(), dag.committed_results(), outcome, "pass")
    assert outcome.attempted == 42 and outcome.failed == 0


def test_dag_gate_catches_a_tampered_result_and_a_lost_task():
    report = _committed_report()
    tampered = copy.deepcopy(report)
    record = next(r for r in tampered["tasks"] if r["task"] == "E03")
    record["result"]["minimal_pairs"]["2"] = [12, 15]
    outcome = catalogue.Outcome()
    dag.gate(tampered, dag.committed_results(), outcome, "pass")
    assert outcome.failed == 1 and "E03" in outcome.details[0]

    lost = copy.deepcopy(report)
    lost["tasks"] = [r for r in lost["tasks"] if r["task"] != "E16"]
    outcome = catalogue.Outcome()
    dag.gate(lost, dag.committed_results(), outcome, "pass")
    assert outcome.failed == 1


def _answered(stream):
    """Answers from the in-process service, shaped like a closed loop's."""
    from repro.serve import protocol
    from repro.serve.service import QueryService

    service = QueryService()
    loop = servemix.LoopResult()
    for index, request in enumerate(stream):
        envelope = protocol.ok_response(request["op"], service.dispatch(request))
        loop.answers[index] = (0, 0.001, json.loads(json.dumps(envelope)))
    return loop


def test_serve_gate_catches_a_flipped_verdict():
    heavy = [(r, v) for r, v in _heavy() if len(r["w"]) <= 4]
    stream = servemix.build_stream(5, [r for r, _ in heavy], 1)
    oracle = servemix.Oracle(heavy)
    loop = _answered(stream)
    outcome = catalogue.Outcome()
    servemix.check(loop, stream, oracle, outcome)
    assert outcome.attempted == len(stream) and outcome.failed == 0

    for op, field in (("membership", "member"), ("equiv", "equivalent")):
        index = next(i for i, r in enumerate(stream) if r["op"] == op)
        flipped = copy.deepcopy(loop)
        result = flipped.answers[index][2]["result"]
        result[field] = not result[field]
        outcome = catalogue.Outcome()
        servemix.check(flipped, stream, oracle, outcome)
        assert outcome.failed == 1, op


# -- tracing -----------------------------------------------------------------


def test_tracer_self_time_calls_and_lazy_results():
    tracer = spans.Tracer()

    def inner(n):
        return sum(range(n))

    traced_inner = spans._wrap(tracer, "inner", inner)

    def outer(n):
        return traced_inner(n) + traced_outer_again(n)

    def outer_again(n):
        return n

    def lazy(n):
        for i in range(n):
            yield traced_inner(i)

    traced_outer = spans._wrap(tracer, "outer", outer)
    traced_outer_again = spans._wrap(tracer, "outer", outer_again)
    traced_lazy = spans._wrap(tracer, "lazy", lazy)
    assert traced_outer(1000) == sum(range(1000)) + 1000
    assert list(traced_lazy(3)) == [0, 0, 1]
    dump = tracer.drain()
    calls = {layer: agg[0] for layer, agg in dump["agg"].items()}
    # A same-layer call inside a span is part of that span.
    assert calls == {"outer": 1, "inner": 4, "lazy": 1}
    outer_calls, outer_total, outer_self = dump["agg"]["outer"]
    assert outer_self < outer_total
    parents = {(layer, parent) for layer, _s, _e, parent, _t in dump["spans"]}
    assert ("inner", "outer") in parents and ("inner", "lazy") in parents
    covered = spans.covered_seconds([dump], (0.0, float("inf")))
    assert covered == pytest.approx(
        sum(e - s for layer, s, e, p, _t in dump["spans"] if p is None)
    )


def test_install_skips_entry_points_that_no_longer_exist():
    spans.install(spans.Tracer(), {"gone": (
        "repro.no_such_module:entry",
        "repro.fc.semantics:no_such_function",
        "repro.fc.semantics:NoSuchClass.method",
    )})


def test_unit_walls_and_critical_path():
    report = {
        "tasks": [
            {"task": "A", "wall_time_s": 1.0},
            {"task": "B", "wall_time_s": 0.5,
             "shards": [{"wall_time_s": 2.0, "cache": "miss"},
                        {"wall_time_s": 1.5, "cache": "miss"}]},
            {"task": "C", "wall_time_s": 0.25},
        ],
        "deps": {"A": [], "B": ["A"], "C": []},
    }
    assert sorted(dag.unit_walls(report)) == [0.25, 0.5, 1.0, 1.5, 2.0]
    assert dag.critical_path_s(report) == pytest.approx(3.5)


# -- the benchmark definition ------------------------------------------------


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        catalogue.END_TO_END
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        catalogue.PER_LAYER
    )


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dag-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
