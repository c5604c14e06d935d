"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload dag-cold --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  It prints the host fingerprint, one
line per metric (value, unit, and how it was sampled), any correctness
mismatches, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a separate traced
run reports the per-layer ones.  ``BENCHMARK.json`` at the repository root
names the workloads and metrics; ``perfbench/NOTES.md`` explains them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import metrics as catalogue  # noqa: E402

WORKLOADS = ("dag-cold", "dag-warm-pooled", "serve-mix")

#: Mismatch lines printed in full; the rest are only counted.
SHOWN_MISMATCHES = 20


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> catalogue.Outcome:
    sys.path.insert(0, str(harness.SRC))
    if workload == "serve-mix":
        import servemix

        return servemix.run(seed, seconds, trace)
    import dag

    return dag.run(workload, seed, seconds, trace)


def report(outcome: catalogue.Outcome, trace: bool) -> dict:
    names = catalogue.PER_LAYER if trace else [
        (name, unit) for name, unit, _ in catalogue.END_TO_END
    ]
    metrics = {}
    for name, unit in names:
        value = outcome.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        note = outcome.notes.get(name)
        print(f"metric {name} = {value:.6g} {unit}" + (f"  [{note}]" if note else ""))
    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"checks: {outcome.attempted} attempted, {outcome.failed} failed, "
          f"error_rate {rate:.4g}")
    mismatches = [line for line in outcome.details if line.startswith("MISMATCH")]
    for line in outcome.details:
        if not line.startswith("MISMATCH"):
            print(line)
    for line in mismatches[:SHOWN_MISMATCHES]:
        print(line)
    if len(mismatches) > SHOWN_MISMATCHES:
        print(f"... {len(mismatches) - SHOWN_MISMATCHES} more mismatches")
    return {
        "correct": outcome.attempted > 0 and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.require_checkout()
    except harness.CheckoutError as error:
        print(f"perfbench: not a checkout of the program: {error}", file=sys.stderr)
        return 2
    mode = {
        "dag-cold": "fresh sqlite store per pass, jobs=1 shards=1, result cache off",
        "dag-warm-pooled": "store warmed in set-up, jobs=2 shards=2, result cache off",
        "serve-mix": "daemon on a store warmed in set-up, 2 closed-loop connections",
    }[args.workload]
    print("fingerprint " + json.dumps(harness.fingerprint(
        workload=args.workload, mode=mode, seed=args.seed,
        seconds=args.seconds, trace=args.trace,
    )))
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
