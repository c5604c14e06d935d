"""CI bench-smoke: guard solver search effort against silent regressions.

Runs a small, fast subset of the experiment DAG (``SMOKE_TASKS`` plus
their dependency closure) with ``jobs=1``, ``shards=SMOKE_SHARDS`` and
the result cache disabled, then compares each record's gated
solver-delta counters against the committed
``benchmarks/baselines.json``.  The run fails if

* any task errors, or no task executed through a shard plan (the
  smoke subset includes several sharded tasks on purpose — sharding
  silently disabled would un-gate the shard/merge path), or
* any gated counter grows more than ``TOLERANCE`` (20%) over its
  baseline, or is nonzero where the baseline has zero.

Sharded tasks report their counters on the merge record as
Σ(shard deltas) + merge delta, with duplicated stem/sweep work
rerouted to ``shard_overhead_ops`` — so the *real* gated counters are
directly comparable to a monolithic run, and the overhead counter is
gated like any other so lane duplication cannot grow unnoticed.

The gated counters are machine-independent proxies for solver work —
``positions_explored`` (EF kernel transposition misses),
``foeq_positions_explored`` (the FO[EQ] position-game solver),
the sweep-layer effort counters (``sweep_words_interned``,
``sweep_tables_extended`` vs ``sweep_tables_rebuilt`` — a rebuild where
an extension should happen means the prefix sharing broke), and the
relational-sweep counters (``sweep_relation_rows`` — total satisfying
tuples emitted, a semantic invariant; ``sweep_bitset_ops`` — bitset
mask operations, the effort proxy for the vectorised evaluation path).
With a single job and a cold cache they are bit-deterministic, so an
exact baseline with a small headroom band is meaningful where
wall-clock time would flake.  Big *improvements* are reported but do
not fail; refresh the baseline to lock them in:

    PYTHONPATH=src python benchmarks/bench_smoke.py --update

Beyond the counter baselines, :func:`check_lru` asserts the
no-eviction regime for workload-sized ``lru_cache`` sites (currently
``ef.equivalence.solver_for``): every miss must still be resident and
the memo must have produced at least some hits, so a workload growth
that silently reintroduces cache thrash fails CI instead of costing
minutes of rebuilt solver state.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "baselines.json"

#: Solver-heavy but CI-fast entry points; deps (prim/*) ride along.
#: E01/E02 drive full-structure games, E08 the restricted
#: (symmetry-reduced) pseudo-congruence games, E05 the batched language
#: sweep, E20 the FO[EQ] position games (its heavy FC dep rides along),
#: E16 the ψ-rewriting equivalence check (its two formula batches run
#: the bitset relation scan, so it pins ``sweep_relation_rows``), and
#: prim/relation/Mult the heaviest ψ-reduction agreement grid.
SMOKE_TASKS = ("E01", "E02", "E05", "E08", "E16", "E20", "prim/relation/Mult")

#: Intra-task shard width for the smoke run: 2 keeps the run fast while
#: exercising the planner → shards → ordered-merge path end to end.
SMOKE_SHARDS = 2

#: Solver-delta counters the gate watches, per task.
GATED_COUNTERS = (
    "positions_explored",
    "foeq_positions_explored",
    "sweep_words_interned",
    "sweep_tables_extended",
    "sweep_tables_rebuilt",
    "sweep_relation_rows",
    "sweep_bitset_ops",
    "shard_overhead_ops",
)

TOLERANCE = 0.20

#: ``repro.metrics`` lru sites whose cache must hold its entire workload
#: (no evictions) by the end of the smoke run, mapped to a minimum hit
#: count proving the memo actually shares work.  ``solver_for`` was
#: resized after the maxsize-512 thrash regression (2 087 misses vs 29
#: hits on the full DAG); this gate keeps the no-eviction regime pinned.
LRU_GATES = {
    "ef.equivalence.solver_for": 1,
    # The cross-call match_spans memo (bounded at 4096 after the
    # unbounded-growth fix).  The smoke subset does not drive spanner
    # evaluation, so min_hits stays 0: the gate checks registration and
    # the no-eviction regime, and tightens automatically if a spanner
    # task ever joins SMOKE_TASKS.
    "spanners.regex_formulas.match_spans": 0,
}


def run_smoke():
    """Execute the smoke subset deterministically; return the report."""
    from repro.engine import ResultCache, run_tasks
    from repro.engine.experiments import build_default_registry

    registry = build_default_registry()
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as scratch:
        cache = ResultCache(root=Path(scratch), enabled=False)
        return run_tasks(
            registry,
            jobs=1,
            shards=SMOKE_SHARDS,
            cache=cache,
            only=list(SMOKE_TASKS),
        )


def counters_by_task(report) -> dict[str, dict[str, int]]:
    """Gated solver-delta counters for every record, zeros included."""
    return {
        record["task"]: {
            name: record.get("solver_delta", {}).get(name, 0)
            for name in GATED_COUNTERS
        }
        for record in report.records
    }


def check_lru(snapshot: dict) -> list[str]:
    """No-eviction gates for workload-sized ``lru_cache`` sites.

    For every cache in ``LRU_GATES``: an ``lru_cache`` inserts one entry
    per miss, so ``misses - currsize`` is the number of evictions since
    the last clear.  Any eviction means the cache no longer holds its
    workload (the maxsize-512 ``solver_for`` failure mode: heavyweight
    solvers rebuilt with their whole memo tables); too few hits means
    the memo stopped sharing work at all.
    """
    failures = []
    for name, min_hits in sorted(LRU_GATES.items()):
        info = snapshot.get(name)
        if info is None:
            failures.append(f"lru gate: cache {name!r} is not registered")
            continue
        evictions = info["misses"] - info["currsize"]
        if evictions > 0:
            failures.append(
                f"lru gate: {name} evicted {evictions} entries "
                f"(misses {info['misses']}, resident {info['currsize']}, "
                f"maxsize {info['maxsize']}) — resize it to hold the "
                "workload"
            )
        elif info["hits"] < min_hits:
            failures.append(
                f"lru gate: {name} recorded {info['hits']} hits "
                f"(< {min_hits}); the memo no longer shares work"
            )
    return failures


def check(report, baseline: dict, tolerance: float) -> list[str]:
    """Return a list of failure messages (empty = pass)."""
    failures = []
    errored = [r["task"] for r in report.records if r["status"] != "ok"]
    if errored:
        failures.append(f"tasks did not finish ok: {', '.join(errored)}")
    if not report.shards.get("tasks"):
        failures.append(
            "no task executed through a shard plan — the smoke subset "
            "must exercise the shard/merge path"
        )

    baseline_tasks = baseline.get("counters", {})
    for task, counters in sorted(counters_by_task(report).items()):
        expected_counters = baseline_tasks.get(task)
        if expected_counters is None:
            failures.append(
                f"{task}: no baseline entry — run with --update and commit"
            )
            continue
        for name, observed in counters.items():
            expected = expected_counters.get(name, 0)
            if expected == 0:
                if observed > 0:
                    failures.append(
                        f"{task}: baseline has no {name} but this run "
                        f"recorded {observed}"
                    )
            elif observed > expected * (1 + tolerance):
                failures.append(
                    f"{task}: {name} regressed "
                    f"{expected} -> {observed} "
                    f"(+{100 * (observed / expected - 1):.0f}%, "
                    f"tolerance {100 * tolerance:.0f}%)"
                )
            elif observed < expected * (1 - tolerance):
                print(
                    f"note: {task} improved {name} {expected} -> {observed}; "
                    "consider --update to tighten the baseline"
                )
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite benchmarks/baselines.json from this run",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=TOLERANCE,
        help="allowed relative increase in any gated counter",
    )
    options = parser.parse_args(argv)

    report = run_smoke()

    if options.update:
        payload = {
            "comment": (
                "Deterministic solver-effort baselines for "
                "benchmarks/bench_smoke.py (jobs=1, cache disabled). "
                "Regenerate with: PYTHONPATH=src python "
                "benchmarks/bench_smoke.py --update"
            ),
            "smoke_tasks": list(SMOKE_TASKS),
            "gated_counters": list(GATED_COUNTERS),
            "counters": counters_by_task(report),
        }
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baselines written to {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"missing {BASELINE_PATH}; run with --update first")
        return 2
    from repro import metrics

    # Caches register at module import; no smoke task imports the
    # spanner layer, so pull it in explicitly to keep the "is not
    # registered" arm of check_lru meaningful for its gate.
    import repro.spanners.regex_formulas  # noqa: F401

    baseline = json.loads(BASELINE_PATH.read_text())
    failures = check(report, baseline, options.tolerance)
    failures.extend(check_lru(metrics.snapshot()["lru"]))
    totals = report.solver.get("totals", {})
    print(
        f"bench-smoke: {len(report.records)} tasks, "
        f"{totals.get('positions_explored', 0)} positions explored"
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench-smoke: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
