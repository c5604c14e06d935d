"""repro.engine — the shared experiment-execution engine.

The repo machine-checks the paper's lemmas through 23 experiments plus a
handful of solver primitives.  This package turns each of them into a
declarative, pure *task* and provides the machinery to run the whole
collection efficiently:

* :mod:`repro.engine.spec`       — :class:`TaskSpec` (name, dotted
  function path, JSON-hashable args, dependency wiring) and the
  :class:`TaskRegistry`;
* :mod:`repro.engine.dag`        — dependency-graph validation and
  deterministic topological ordering;
* :mod:`repro.engine.cache`      — the content-addressed on-disk result
  cache under ``.repro-cache/`` (key = SHA-256 of task name +
  canonicalised args + code-version salt + dependency keys);
* :mod:`repro.engine.executor`   — the scheduler: one loop that runs
  units inline for ``jobs=1`` and on a ``concurrent.futures`` process
  pool otherwise, with per-task wall-time metrics, single-task failure
  isolation, deterministic result ordering, and ``BrokenProcessPool``
  (not a hang) when a worker dies;
* :mod:`repro.engine.primitives` — pure, picklable entry points around
  ``ef.solver`` / ``ef.equivalence`` / ``ef.synthesis`` /
  ``core.witnesses``;
* :mod:`repro.engine.experiments` — ``run_e01`` … ``run_e23`` plus
  :func:`build_default_registry`, the full task DAG;
* :mod:`repro.engine.cli`        — the ``python -m repro run`` command.

``experiments``, ``primitives`` and ``cli`` import the whole solver
stack, so they are *not* imported here — this module must stay light.
Every counter and ``lru_cache`` site the executor samples per unit
lives in the layer-free :mod:`repro.metrics` leaf, which the
instrumented modules import directly at import time.
"""

from __future__ import annotations

from repro.engine.cache import ENGINE_SALT, CacheStats, ResultCache
from repro.engine.dag import (
    DependencyCycleError,
    MissingDependencyError,
    topological_order,
    validate_dag,
)
from repro.engine.executor import EngineReport, run_tasks
from repro.engine.spec import TaskRegistry, TaskSpec

__all__ = [
    "ENGINE_SALT",
    "CacheStats",
    "DependencyCycleError",
    "EngineReport",
    "MissingDependencyError",
    "ResultCache",
    "TaskRegistry",
    "TaskSpec",
    "run_tasks",
    "topological_order",
    "validate_dag",
]
