"""Tiny module-level task functions for the engine tests.

They live in an importable module (not a test file) because the engine
resolves tasks from dotted paths — including inside worker processes.
"""

from __future__ import annotations

import os
from typing import Any


def const(value: Any) -> Any:
    return value


def double(n: int) -> int:
    return 2 * n


def add(x: int, y: int) -> int:
    return x + y


def combine(left: Any, right: Any) -> dict[str, Any]:
    return {"left": left, "right": right}


def tupled() -> Any:
    # Tuples and int dict keys only exist pre-roundtrip; the engine must
    # normalise them to their JSON image (lists / string keys).
    return {"pair": (1, 2), "table": {3: "c"}}


def factor_count(word: str) -> int:
    # Lazy import on purpose: mirrors the real experiment tasks, whose
    # instrumented caches are only touched inside the executing process.
    from repro.words.factors import factors

    return len(factors(word))


def ef_probe(w: str, v: str, k: int) -> bool:
    from repro.ef.equivalence import solver_for

    return solver_for(w, v, "ab").duplicator_wins(k)


def interned_probe(word: str) -> int:
    # Long enough to cross the store hydration threshold, so a run with
    # an active artifact store records store deltas for this task.
    from repro.kernel.interning import intern_table

    table = intern_table(word, ("a", "b"))
    return table.n_factors


def boom() -> None:
    raise RuntimeError("intentional failure")


def die() -> None:
    # Ends the executing process outright: no exception, no result.
    os._exit(3)


# -- sharded tasks -----------------------------------------------------------
#
# range_sum is the monolithic reference; (plan_range, range_part,
# range_merge) is its shard plan.  The merge must be bit-identical to the
# monolithic result for every width — that contract is what the sharding
# tests gate.


def range_sum(n: int) -> dict[str, Any]:
    values = list(range(n))
    return {"n": n, "total": sum(values), "values": values}


def plan_range(n: int, *, width: int) -> list[dict[str, Any]]:
    from repro.engine.shards import round_robin

    return [{"values": lane} for lane in round_robin(list(range(n)), width)]


def range_part(n: int, *, shard: dict[str, Any]) -> dict[str, Any]:
    values = list(shard["values"])
    return {"total": sum(values), "values": values}


def range_merge(n: int, *, shards: list[dict[str, Any]]) -> dict[str, Any]:
    values = sorted(v for part in shards for v in part["values"])
    return {"n": n, "total": sum(values), "values": values}


def double_total(part: dict[str, Any]) -> int:
    return 2 * part["total"]


def shard_boom(n: int, *, shard: dict[str, Any]) -> dict[str, Any]:
    # Round-robin puts value 1 on lane 1, so exactly one shard fails at
    # width >= 2 while its siblings succeed.
    if 1 in shard["values"]:
        raise RuntimeError("shard exploded")
    return {"total": sum(shard["values"]), "values": list(shard["values"])}


def plan_boom(n: int, *, width: int) -> list[dict[str, Any]]:
    raise RuntimeError("planner exploded")


def not_json() -> Any:
    return {1, 2, 3}


#: Resolution-failure targets for the spec tests: resolve_function must
#: reject non-callables and bound methods by name.
NOT_CALLABLE = 42


class _Holder:
    def method(self) -> None:  # pragma: no cover - never called
        return None


HOLDER = _Holder()
bound_method = HOLDER.method
