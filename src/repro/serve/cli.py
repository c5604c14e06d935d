"""``python -m repro serve`` and ``python -m repro warm``.

``serve`` runs the long-lived daemon; ``warm`` prebuilds store artifacts
so a later ``serve`` or ``run --store`` starts hot.  Both default to the
same store resolution as ``run --store`` (bare flag → ``$REPRO_STORE_DIR``
or ``.repro-store``), except that for these two commands the store is
the point, so it is on by default rather than opt-in.
"""

from __future__ import annotations

import argparse
import itertools
from typing import Any

from repro import metrics
from repro.engine.cli import STORE_DEFAULT, resolve_store

__all__ = ["add_serve_parser", "add_warm_parser", "cmd_serve", "cmd_warm"]

#: The words behind the heaviest engine tasks (``prim/equiv/anbn-k2``,
#: ``prim/equiv/abpow-k2``): warming these is what makes the second
#: engine run measurably faster.
_DEFAULT_BATTERY: tuple[tuple[str, str, int], ...] = (
    ("a" * 12 + "b" * 12, "a" * 14 + "b" * 12, 2),
    ("ab" * 12, "ab" * 14, 2),
)


def add_serve_parser(commands: argparse._SubParsersAction) -> None:
    serve = commands.add_parser(
        "serve",
        help="long-lived query daemon (membership/equiv/rank/spanner)",
        description=(
            "Start a JSON-lines TCP daemon that loads hot tables once "
            "and answers membership, EF-equivalence, rank, and spanner "
            "queries until a shutdown request."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=7357,
        help="bind port (0 picks an ephemeral port; default: 7357)",
    )
    serve.add_argument(
        "--store",
        nargs="?",
        const=STORE_DEFAULT,
        default=STORE_DEFAULT,
        metavar="SPEC",
        help=(
            "artifact store to hydrate from (default: $REPRO_STORE_DIR "
            "or .repro-store; pass 'memory' for an ephemeral store, "
            "'off' to disable)"
        ),
    )


def add_warm_parser(commands: argparse._SubParsersAction) -> None:
    warm = commands.add_parser(
        "warm",
        help="prebuild kernel artifacts into the persistent store",
        description=(
            "Build intern tables, automorphism groups, EF transposition "
            "tables and paper-formula sweep tables for a battery of "
            "words, publishing everything to the artifact store so "
            "later runs and daemons start warm."
        ),
    )
    warm.add_argument(
        "words",
        nargs="*",
        metavar="WORD",
        help=(
            "words to warm (default: the heavyweight "
            "prim/equiv/anbn-k2 and abpow battery)"
        ),
    )
    warm.add_argument(
        "--alphabet",
        default=None,
        help="signature alphabet (default: letters of the words)",
    )
    warm.add_argument(
        "--rank",
        type=int,
        default=2,
        help="EF rank to warm pairwise equivalences at (default: 2)",
    )
    warm.add_argument(
        "--formulas",
        action="store_true",
        help="also evaluate the named paper formulas on every word over "
        "their alphabet (exercises the FC evaluator; stores nothing)",
    )
    warm.add_argument(
        "--store",
        nargs="?",
        const=STORE_DEFAULT,
        default=STORE_DEFAULT,
        metavar="SPEC",
        help=(
            "target store (default: $REPRO_STORE_DIR or .repro-store; "
            "memory, sqlite:PATH, or a directory)"
        ),
    )


def _resolve(spec: str | None) -> Any:
    if spec == "off":
        return None
    return resolve_store(spec)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.daemon import serve_forever

    store = _resolve(args.store)
    return serve_forever(args.host, args.port, store=store)


def _warm_pairs(words: list[str], rank: int) -> list[tuple[str, str, int]]:
    return [
        (w, v, rank) for w, v in itertools.combinations(sorted(set(words)), 2)
    ]


def cmd_warm(args: argparse.Namespace) -> int:
    from repro.ef.equivalence import equiv_k
    from repro.fc.builders import PAPER_FORMULAS, paper_formula
    from repro.fc.semantics import defines_language_member
    from repro.kernel.automorphisms import automorphism_group
    from repro.kernel.interning import intern_table
    from repro.store import runtime as store_runtime

    store = _resolve(args.store)
    if store is None:
        print("warm: no store to warm (--store off)")
        return 2
    info = store.describe()
    where = info["path"] or info["backend"]

    if args.words:
        words = list(dict.fromkeys(args.words))
        pairs = _warm_pairs(words, args.rank)
    else:
        pairs = list(_DEFAULT_BATTERY)
        words = list(dict.fromkeys(w for pair in pairs for w in pair[:2]))

    before = metrics.snapshot()
    previous = store_runtime.activate(store)
    try:
        for word in words:
            alphabet = args.alphabet or "".join(sorted(set(word))) or "a"
            table = intern_table(word, tuple(alphabet))
            automorphism_group(table)
        for w, v, k in pairs:
            alphabet = args.alphabet or "".join(sorted(set(w) | set(v))) or "a"
            equiv_k(w, v, k, alphabet)
        if args.formulas:
            for name in sorted(PAPER_FORMULAS):
                phi, alphabet = paper_formula(name)
                for word in words:
                    if set(word) <= set(alphabet):
                        defines_language_member(word, phi, alphabet)
    finally:
        store_runtime.deactivate(previous)

    delta = metrics.diff(before, metrics.snapshot())["store"]
    print(
        f"warmed {len(words)} word(s), {len(pairs)} pair(s) into {where} — "
        f"store: {delta.get('store_hits', 0)} hit(s), "
        f"{delta.get('store_misses', 0)} miss(es), "
        f"{delta.get('store_stores', 0)} store(s)"
    )
    return 0
