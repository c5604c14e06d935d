"""The benchmark's metric catalogue and the per-layer metric derivation.

``BENCHMARK.json`` lists exactly these names; ``test_perfbench.py``
checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: (name, unit, better) — reported by every workload with ``--trace 0``.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("throughput_qps", "1/s", "higher"),
)

#: Layers whose spans give ``<layer>.self_s`` and ``<layer>.calls``.
TIMED_LAYERS = (
    "fc.sweep",
    "fc.compiled",
    "ef",
    "ef.unary",
    "ef.partial_iso",
    "kernel.interning",
    "kernel.automorphisms",
    "foeq",
    "spanners",
)

#: Per-layer metric → the program's own counter (``repro.kernel.stats``).
SOLVER_COUNTERS = {
    "kernel.sweep.words_interned": "sweep_words_interned",
    "kernel.sweep.tables_extended": "sweep_tables_extended",
    "kernel.sweep.bitset_ops": "sweep_bitset_ops",
    "kernel.sweep.relation_rows": "sweep_relation_rows",
    "kernel.efcore.positions_explored": "positions_explored",
    "kernel.efcore.consistency_checks": "consistency_checks",
    "kernel.efcore.table_hits": "table_hits",
    "kernel.automorphism_cap_hits": "automorphism_cap_hits",
    "foeq.positions_explored": "foeq_positions_explored",
    "engine.shard_overhead_ops": "shard_overhead_ops",
}

SERVE_OPS = ("membership", "equiv", "rank", "spanner")


def _per_layer() -> tuple[tuple[str, str], ...]:
    rows: list[tuple[str, str]] = []
    for layer in TIMED_LAYERS:
        rows += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
    rows += [(name, "count") for name in SOLVER_COUNTERS]
    rows += [
        ("ef.solver_for.hit_ratio", "ratio"),
        ("store.load_s", "s"),
        ("store.publish_s", "s"),
        ("store.calls", "count"),
        ("store.hit_ratio", "ratio"),
        ("store.bytes_read", "bytes"),
        ("store.bytes_written", "bytes"),
        ("engine.task_wall_sum_s", "s"),
        ("engine.idle_s", "s"),
        ("engine.critical_path_s", "s"),
        ("engine.shard_merge_s", "s"),
        ("engine.ipc_bytes", "bytes"),
        ("engine.canonical_json_s", "s"),
        ("engine.canonical_json.calls", "count"),
    ]
    rows += [(f"serve.op.{op}.p50_ms", "ms") for op in SERVE_OPS]
    rows += [
        ("serve.wire_ms_p50", "ms"),
        ("trace.overhead_pct", "%"),
        ("trace.unattributed_pct", "%"),
    ]
    return tuple(rows)


#: (name, unit) — reported by every workload with ``--trace 1``.
PER_LAYER: tuple[tuple[str, str], ...] = _per_layer()


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    #: name → human-readable provenance (median of n, spread, percentile)
    notes: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    details: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.details.append(f"MISMATCH {message}")


def ratio(hits: float, misses: float) -> float:
    probes = hits + misses
    return hits / probes if probes else 0.0


def layer_metrics(
    agg: dict[str, list[float]],
    solver: dict[str, int],
    store: dict[str, int],
    solver_for: tuple[int, int],
) -> dict[str, float]:
    """Span aggregates and program counters → the per-layer metrics that
    every workload shares (engine and serve metrics are added by the
    workload that exercises them)."""
    metrics: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        calls, _total, self_s = agg.get(layer, [0, 0.0, 0.0])
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.calls"] = calls
    for name, counter in SOLVER_COUNTERS.items():
        metrics[name] = solver.get(counter, 0)
    metrics["ef.solver_for.hit_ratio"] = ratio(*solver_for)
    load = agg.get("store.load", [0, 0.0, 0.0])
    publish = agg.get("store.publish", [0, 0.0, 0.0])
    metrics["store.load_s"] = load[2]
    metrics["store.publish_s"] = publish[2]
    metrics["store.calls"] = load[0] + publish[0]
    metrics["store.hit_ratio"] = ratio(
        store.get("store_hits", 0), store.get("store_misses", 0)
    )
    metrics["store.bytes_read"] = store.get("store_bytes_read", 0)
    metrics["store.bytes_written"] = store.get("store_bytes_written", 0)
    canonical = agg.get("engine.canonical_json", [0, 0.0, 0.0])
    metrics["engine.canonical_json_s"] = canonical[2]
    metrics["engine.canonical_json.calls"] = canonical[0]
    return metrics


def zero_fill(metrics: dict[str, Any]) -> dict[str, Any]:
    """Layers a workload does not exercise read 0."""
    for name, _unit in PER_LAYER:
        metrics.setdefault(name, 0)
    return metrics
