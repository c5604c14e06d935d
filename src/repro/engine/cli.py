"""The ``python -m repro run`` command.

Drives the full experiment DAG (or a ``--only`` subset plus its
dependency closure) through the scheduler, prints a per-task progress
line as records complete and a summary at the end, and always writes
the machine-readable engine report (``--json PATH``, default
``BENCH_engine.json``) so the perf trajectory is trackable across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

from repro.engine.cache import ResultCache, default_cache_dir
from repro.engine.executor import EngineReport, run_tasks
from repro.engine.experiments import build_default_registry
from repro.store import open_backend
from repro.store.core import ArtifactStore
from repro.store.runtime import default_store_path

__all__ = ["add_run_parser", "cmd_run", "resolve_store", "write_engine_report"]

#: ``--store`` with no value: use the default path/env resolution.
STORE_DEFAULT = "__default__"


def resolve_store(spec: str | None) -> ArtifactStore | None:
    """An :class:`ArtifactStore` from a ``--store`` argument, or ``None``.

    ``None`` (flag absent) disables the store; the :data:`STORE_DEFAULT`
    sentinel (bare ``--store``) resolves ``$REPRO_STORE_DIR`` /
    ``.repro-store``; anything else is a backend spec (``memory``,
    ``sqlite:PATH``, or a directory).
    """
    if spec is None:
        return None
    if spec == STORE_DEFAULT:
        return ArtifactStore(open_backend(default_store_path()))
    return ArtifactStore(open_backend(spec))


DEFAULT_REPORT_PATH = "BENCH_engine.json"


def write_engine_report(
    report: EngineReport | dict[str, Any], path: str | Path = DEFAULT_REPORT_PATH
) -> Path:
    """Persist an engine report as JSON and return the written path."""
    payload = (
        report.to_json_dict() if isinstance(report, EngineReport) else report
    )
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)
        + "\n",
        encoding="utf-8",
    )
    return target


def _positive_int(text: str) -> int:
    """argparse type for a width: an integer, at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def add_run_parser(commands: argparse._SubParsersAction) -> None:
    run = commands.add_parser(
        "run",
        help="execute the experiment suite through the engine",
        description=(
            "Run the E01–E23 experiment DAG with the parallel execution "
            "engine and the content-addressed result cache."
        ),
    )
    run.add_argument(
        "--jobs",
        type=_positive_int,
        default=max(1, os.cpu_count() or 1),
        help="worker processes (default: CPU count)",
    )
    run.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "intra-task shard width for tasks that declare a shard plan "
            "(default: auto — the CPU count; 1 disables sharding)"
        ),
    )
    run.add_argument(
        "--only",
        default=None,
        help="comma-separated task names, e.g. E12,E14 "
        "(dependencies are pulled in automatically)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache entirely",
    )
    run.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help=f"where to write the engine report (default: {DEFAULT_REPORT_PATH})",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    run.add_argument(
        "--store",
        nargs="?",
        const=STORE_DEFAULT,
        default=None,
        metavar="SPEC",
        help=(
            "enable the persistent artifact store (kernel warm-start); "
            "bare --store uses $REPRO_STORE_DIR or .repro-store, or pass "
            "a backend spec: memory, sqlite:PATH, or a directory"
        ),
    )
    run.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete all cached records before running",
    )
    run.add_argument(
        "--list",
        dest="list_tasks",
        action="store_true",
        help="list the registered tasks and exit",
    )


def _resolve_only(raw: str, registry) -> list[str]:
    names = []
    for chunk in raw.split(","):
        name = chunk.strip()
        if not name:
            continue
        if name not in registry and name.upper() in registry:
            name = name.upper()
        if name not in registry:
            raise SystemExit(
                f"unknown task: {name!r} (see `python -m repro run --list`)"
            )
        names.append(name)
    if not names:
        raise SystemExit("--only selected no tasks")
    return names


def _progress_line(record: dict[str, Any]) -> str:
    marks = {"ok": "✓", "error": "✗", "skipped": "∅"}
    mark = marks.get(record["status"], "?")
    source = record.get("cache", "none")
    timing = f"{record['wall_time_s']:.2f}s"
    if source == "hit":
        timing = f"cached ({timing} originally)"
    return f"  {mark} {record['task']:<22s} [{source}] {timing}"


def cmd_run(args: argparse.Namespace) -> int:
    registry = build_default_registry()
    if args.list_tasks:
        for spec in registry:
            deps = f"  ← {', '.join(spec.dep_tasks)}" if spec.deps else ""
            print(f"{spec.name:<22s} {spec.description}{deps}")
        return 0

    only = _resolve_only(args.only, registry) if args.only else None
    cache = ResultCache(
        root=args.cache_dir or default_cache_dir(),
        enabled=not args.no_cache,
    )
    if args.clear_cache:
        removed = cache.clear()
        print(f"cleared {removed} cached record(s) from {cache.root}")

    store = resolve_store(getattr(args, "store", None))
    store_where = None
    if store is not None:
        info = store.describe()
        store_where = info["path"] or info["backend"]
    selected = registry.closure(only) if only else registry.specs()
    print(
        f"running {len(selected)} task(s) with --jobs {args.jobs} "
        f"(cache: {'off' if args.no_cache else cache.root}"
        + (f", store: {store_where}" if store_where else "")
        + ")"
    )
    report = run_tasks(
        registry,
        jobs=args.jobs,
        shards=getattr(args, "shards", None),
        cache=cache,
        store=store,
        only=only,
        on_record=lambda record: print(_progress_line(record), flush=True),
    )

    counts = report.counts()
    stats = report.cache
    if report.jobs != report.jobs_requested:
        print(
            f"note: --jobs {report.jobs_requested} capped at "
            f"{report.jobs} (host CPU count)"
        )
    print(
        f"\n{counts['ok']} ok, {counts['error']} error(s), "
        f"{counts['skipped']} skipped in {report.elapsed_s:.2f}s — "
        f"cache: {stats['hits']} hit(s), {stats['misses']} miss(es), "
        f"{stats['bypassed']} bypassed"
    )
    if report.store.get("enabled"):
        totals = report.store["totals"]
        print(
            f"store: {totals.get('store_hits', 0)} hit(s), "
            f"{totals.get('store_misses', 0)} miss(es), "
            f"{totals.get('store_stores', 0)} store(s), "
            f"{totals.get('store_errors', 0)} error(s)"
        )
    sharded = report.shards.get("tasks", {})
    if sharded:
        print(f"shards (width {report.shards['width']}):")
        for task, summary in sharded.items():
            if summary.get("cache") == "hit":
                print(f"  {task:<22s} {summary['count']} shard(s) [hit]")
                continue
            walls = ", ".join(
                f"{wall:.2f}s" for wall in summary.get("shard_walls_s", ())
            )
            merge_wall = summary.get("merge_wall_s", 0.0)
            print(
                f"  {task:<22s} {summary['count']} shard(s) "
                f"[{walls}] + merge {merge_wall:.2f}s"
            )
    for record in report.records:
        if record["status"] == "error":
            print(
                f"  FAILED {record['task']}: {record['error']['type']}: "
                f"{record['error']['message']}",
                file=sys.stderr,
            )

    written = write_engine_report(report, args.json_path or DEFAULT_REPORT_PATH)
    print(f"engine report written to {written}")
    return 0 if report.ok else 1
