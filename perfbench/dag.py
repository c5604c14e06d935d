"""The ``dag-cold`` and ``dag-warm-pooled`` workloads.

Each *pass* is one run of all 42 experiment tasks in a fresh interpreter
(:mod:`dagpass`), with the result cache off, so nothing but the artifact
store carries over between passes.  Every task result is checked against
the committed ``BENCH_engine.json``.

* ``dag-cold``: ``jobs=1 shards=1`` on a fresh empty sqlite store per
  pass.  Set-up is what a cold run pays before its first task: starting
  the interpreter, importing the engine and experiment registry, and
  creating the store.
* ``dag-warm-pooled``: ``jobs=2 shards=2``; set-up warms one store with a
  cold pooled pass, and every measured pass starts from a copy of it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from typing import Any

import benchstats
import harness
import metrics as catalogue
import spans

DAGPASS = harness.HERE / "dagpass.py"

#: Cold set-ups timed per run (each a fraction of a second).
SETUP_REPEATS = 5

#: ``passes`` is per 20 requested seconds (about that long on a 2-CPU
#: host).  The count is fixed rather than timed so every run measures the
#: same work and the unit-wall tail always has the same sample count.
MODES = {
    "dag-cold": {"jobs": 1, "shards": 1, "warm": False, "passes": 2},
    "dag-warm-pooled": {"jobs": 2, "shards": 2, "warm": True, "passes": 4},
}


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def committed_results() -> dict[str, str]:
    report = json.loads(harness.COMMITTED_REPORT.read_text(encoding="utf-8"))
    return {record["task"]: canonical(record["result"]) for record in report["tasks"]}


def gate(report: dict, committed: dict[str, str], outcome: catalogue.Outcome,
         label: str) -> None:
    """One check per committed task: status ok and result bit-identical."""
    records = {record["task"]: record for record in report["tasks"]}
    for task, expected in committed.items():
        record = records.get(task)
        ok = (
            record is not None
            and record["status"] == "ok"
            and canonical(record["result"]) == expected
        )
        outcome.check(ok, f"{label}: task {task}")
    for task in sorted(set(records) - set(committed)):
        outcome.check(False, f"{label}: task {task} is not in the committed report")


def unit_walls(report: dict) -> list[float]:
    """Wall time of every executed unit: tasks, shards and merges."""
    walls = []
    for record in report["tasks"]:
        for row in record.get("shards", ()):
            if row["cache"] != "hit":
                walls.append(row["wall_time_s"])
        walls.append(record["wall_time_s"])
    return walls


def critical_path_s(report: dict) -> float:
    """Longest dependency chain, a sharded task costing max(shard) + merge."""
    cost = {}
    for record in report["tasks"]:
        shard_walls = [row["wall_time_s"] for row in record.get("shards", ())]
        cost[record["task"]] = max(shard_walls, default=0.0) + record["wall_time_s"]
    finish: dict[str, float] = {}

    def finish_of(task: str) -> float:
        if task not in finish:
            finish[task] = cost[task] + max(
                (finish_of(dep) for dep in report["deps"][task]), default=0.0
            )
        return finish[task]

    return max(finish_of(task) for task in cost)


def engine_metrics(report: dict, ipc_bytes: int) -> dict[str, float]:
    walls = unit_walls(report)
    jobs = report["engine"]["jobs"]
    elapsed = report["engine"]["elapsed_s"]
    merges = [
        summary["merge_wall_s"]
        for summary in report.get("shards", {}).get("tasks", {}).values()
        if "merge_wall_s" in summary
    ]
    return {
        "engine.task_wall_sum_s": sum(walls),
        "engine.idle_s": jobs * elapsed - sum(walls),
        "engine.critical_path_s": critical_path_s(report),
        "engine.shard_merge_s": sum(merges),
        "engine.ipc_bytes": ipc_bytes,
    }


def totals(report: dict, section: str) -> dict:
    """A report section's counter totals ({} if the report lacks it)."""
    return (report.get(section) or {}).get("totals", {})


def lru_counts(report: dict, name: str) -> tuple[int, int]:
    caches = report.get("lru_caches", {})
    hits = misses = 0
    for scope in (caches.get("main_process", {}), caches.get("workers", {})):
        counters = scope.get(name) or {}
        hits += counters.get("hits") or 0
        misses += counters.get("misses") or 0
    return hits, misses


class _Passes:
    """Runs DAG passes in child processes inside one work directory."""

    def __init__(self, work: Path, mode: dict) -> None:
        self.work = work
        self.mode = mode
        self.count = 0

    def run(self, store_dir: Path, trace_dir: Path | None = None,
            setup_only: bool = False) -> tuple[harness.ChildResult, dict | None]:
        self.count += 1
        out = self.work / f"pass-{self.count}.json"
        argv = [
            sys.executable, str(DAGPASS),
            "--store", str(store_dir / "store.sqlite"),
            "--jobs", str(self.mode["jobs"]),
            "--shards", str(self.mode["shards"]),
            "--out", str(out),
        ]
        if trace_dir is not None:
            argv += ["--trace-dir", str(trace_dir)]
        if setup_only:
            argv.append("--setup-only")
        child = harness.run_child(argv, self.work / f"pass-{self.count}.log")
        if child.returncode != 0 and not out.exists():
            raise RuntimeError(
                f"DAG pass exited {child.returncode}:\n{child.output[-4000:]}"
            )
        report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
        return child, report

    def fresh_store(self, template: Path | None) -> Path:
        store_dir = self.work / f"store-{self.count + 1}"
        if template is None:
            store_dir.mkdir()
        else:
            shutil.copytree(template, store_dir)
        return store_dir


def run(workload: str, seed: int, seconds: float, trace: bool) -> catalogue.Outcome:
    mode = MODES[workload]
    committed = committed_results()
    outcome = catalogue.Outcome()
    with harness.WorkDir() as work:
        passes = _Passes(work, mode)
        template = None
        setups = []
        if mode["warm"]:
            template = work / "warm-store"
            template.mkdir()
            child, report = passes.run(template)
            setups.append(child.wall_s)
            gate(report, committed, outcome, "warm-up pass")
        else:
            for _ in range(SETUP_REPEATS):
                child, _report = passes.run(passes.fresh_store(None), setup_only=True)
                setups.append(child.wall_s)
        if trace:
            return _traced(passes, template, committed, outcome, workload, seed)

        walls, cpus, rsss, units, counters = [], [], [], [], []
        for _ in range(max(1, round(mode["passes"] * seconds / 20.0))):
            child, report = passes.run(passes.fresh_store(template))
            gate(report, committed, outcome, f"pass {len(walls) + 1}")
            walls.append(child.wall_s)
            cpus.append(child.cpu_s)
            rsss.append(child.maxrss_mb)
            units.extend(wall * 1000.0 for wall in unit_walls(report))
            counters.append((totals(report, "solver"), totals(report, "store")))

    _end_to_end(outcome, setups, walls, cpus, rsss, units)
    outcome.details += _exactness(counters)
    return outcome


def _end_to_end(outcome, setups, walls, cpus, rsss, units) -> None:
    def put(name: str, samples: list[float], what: str) -> None:
        outcome.metrics[name] = benchstats.median(samples)
        outcome.notes[name] = (
            f"median of {len(samples)} {what}, spread "
            f"{benchstats.spread(samples):.1%}"
        )

    put("setup_s", setups, "set-ups")
    put("wall_s", walls, "passes")
    put("cpu_s", cpus, "passes")
    put("peak_rss_mb", rsss, "passes")
    outcome.metrics["latency_p50_ms"] = benchstats.interquartile_mean(units)
    outcome.notes["latency_p50_ms"] = (
        f"interquartile mean of {len(units)} unit walls "
        f"(median {benchstats.median(units):.4g} ms)"
    )
    value, pct, n = benchstats.tail(units)
    if pct == 50.0:
        # Too few samples for a tail: report the p50 estimate, so the
        # "p99" never reads below the p50.
        value = outcome.metrics["latency_p50_ms"]
    outcome.metrics["latency_p99_ms"] = value
    outcome.notes["latency_p99_ms"] = (
        f"p{pct:g} of {n} unit walls (tail rule)" if pct else f"max of {n} unit walls"
    )
    qps = [len(units) / len(walls) / wall for wall in walls]
    put("throughput_qps", qps, "passes (units per second)")


def _exactness(counters: list[tuple[dict, dict]]) -> list[str]:
    """Which program counters repeated exactly across this run's passes."""
    if len(counters) < 2:
        return ["counters: one pass only, exactness not checked"]
    exact, drifting = [], []
    for index, label in ((0, "solver"), (1, "store")):
        names = sorted(set().union(*(totals[index] for totals in counters)))
        for name in names:
            values = {totals[index].get(name, 0) for totals in counters}
            (exact if len(values) == 1 else drifting).append(f"{label}.{name}")
    return [
        f"counters exact across {len(counters)} passes: {', '.join(exact) or '-'}",
        f"counters drifting: {', '.join(drifting) or '-'}",
    ]


def _traced(passes: _Passes, template: Path | None, committed: dict[str, str],
            outcome: catalogue.Outcome, workload: str, seed: int) -> catalogue.Outcome:
    plain, plain_report = passes.run(passes.fresh_store(template))
    gate(plain_report, committed, outcome, "untraced pass")
    trace_dir = harness.OUT_ROOT / f"{workload}-seed{seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    traced, report = passes.run(passes.fresh_store(template), trace_dir=trace_dir)
    gate(report, committed, outcome, "traced pass")

    dumps = spans.load_dumps(trace_dir)
    agg = spans.merge_aggregates(dumps)
    values = catalogue.layer_metrics(
        agg,
        totals(report, "solver"),
        totals(report, "store"),
        lru_counts(report, "ef.equivalence.solver_for"),
    )
    # Scheduling metrics come from the untraced pass: span bookkeeping
    # would inflate every unit's wall.  The byte count is the same in both.
    values.update(
        engine_metrics(plain_report, sum(dump.get("ipc_bytes", 0) for dump in dumps))
    )
    window = tuple(report["window"])
    capacity = report["engine"]["jobs"] * (window[1] - window[0])
    covered = spans.covered_seconds(dumps, window)
    values["trace.overhead_pct"] = 100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s
    values["trace.unattributed_pct"] = 100.0 * max(0.0, 1.0 - covered / capacity)
    outcome.metrics = catalogue.zero_fill(values)
    dropped = sum(dump["dropped"] for dump in dumps)
    outcome.details.append(
        f"trace: {sum(len(d['spans']) for d in dumps)} spans kept, {dropped} "
        f"dropped over the cap, from {len({d['pid'] for d in dumps})} process(es), "
        f"written to {trace_dir.relative_to(harness.ROOT)}"
    )
    outcome.details.append(
        f"trace: untraced pass {plain.wall_s:.2f}s, traced pass {traced.wall_s:.2f}s"
    )
    return outcome
