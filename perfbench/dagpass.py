"""One pass of the 42-task experiment DAG in a fresh interpreter.

Run by the benchmark as a child process, so every pass starts with cold
in-process caches, exactly like ``python -m repro run``::

    python3 perfbench/dagpass.py --store PATH --jobs 1 --shards 1 --out OUT
        [--trace-dir DIR] [--setup-only]

It calls the public engine entry point (``repro.engine.run_tasks``) with
the result cache off and an sqlite artifact store at ``PATH``, and writes
the engine report plus the DAG's dependency edges to ``OUT``.  With
``--trace-dir`` the layer entry points are wrapped with spans
(:mod:`spans`) and every executed unit, in whichever process ran it,
drains its spans into the directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _install_tracing(trace_dir: str):
    import spans
    from repro.engine import executor

    tracer = spans.Tracer()
    spans.install(tracer)
    execute = getattr(executor, "_execute_payload", None)
    if execute is None:
        return tracer  # the executor changed shape: parent-process spans only

    @functools.wraps(execute)
    def execute_and_dump(payload):
        record = execute(payload)
        tracer.dump(
            trace_dir,
            {
                "unit": payload["task"],
                "ipc_bytes": record["args_bytes"] + record["result_bytes"],
            },
        )
        return record

    # Pool workers unpickle the unit function by its module path, so the
    # module attribute is what they run.
    executor._execute_payload = execute_and_dump
    return tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--shards", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop after importing the engine and opening the store",
    )
    args = parser.parse_args()

    from repro.engine import ResultCache, run_tasks
    from repro.engine.experiments import build_default_registry
    from repro.store import ArtifactStore, open_backend

    registry = build_default_registry()
    tracer = _install_tracing(args.trace_dir) if args.trace_dir else None
    backend = open_backend(f"sqlite:{args.store}")
    store = ArtifactStore(backend)
    if args.setup_only:
        backend.keys()  # opens, and so creates, the database
        return 0
    window_start = time.perf_counter()
    report = run_tasks(
        registry,
        jobs=args.jobs,
        shards=args.shards,
        cache=ResultCache(enabled=False),
        store=store,
    )
    window_end = time.perf_counter()
    if tracer is not None:
        tracer.dump(args.trace_dir, {"unit": None, "ipc_bytes": 0})
    payload = report.to_json_dict()
    payload["deps"] = {spec.name: list(spec.dep_tasks) for spec in registry}
    payload["window"] = [window_start, window_end]
    Path(args.out).write_text(json.dumps(payload), encoding="utf-8")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
