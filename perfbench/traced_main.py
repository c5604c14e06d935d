"""Run a ``python -m repro`` command with the layer entry points traced.

    python3 perfbench/traced_main.py --trace-out FILE -- serve --port 0 ...

When the command returns (for ``serve``: after a ``shutdown`` request),
the spans, per-layer aggregates and the program's own counters
(``repro.kernel.stats``, ``repro.store.stats``, ``repro.cachestats``)
are written to ``FILE`` as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: The program's own counter modules, read when the command returns.
COUNTER_MODULES = {
    "solver": "repro.kernel.stats",
    "store": "repro.store.stats",
    "lru": "repro.cachestats",
}


def _snapshot(module: str) -> dict:
    """A counter module's totals; {} once a refactor has removed it."""
    try:
        return importlib.import_module(module).snapshot()
    except (ImportError, AttributeError):
        return {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import spans
    from repro.__main__ import main as repro_main

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return repro_main(command)
    finally:
        payload = tracer.drain()
        payload["counters"] = {
            name: _snapshot(module) for name, module in COUNTER_MODULES.items()
        }
        Path(args.trace_out).write_text(json.dumps(payload), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
