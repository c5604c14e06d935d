"""The lru_cache sites of the metrics registry (``repro.metrics``)."""

import importlib
from functools import lru_cache

import pytest

from repro import metrics


@pytest.fixture
def scoped_cache():
    """A registered lru_cache that is unregistered again afterwards."""

    @lru_cache(maxsize=8)
    def square(n: int) -> int:
        return n * n

    name = "tests.square"
    metrics.register(name, square)
    yield name, square
    metrics._SITES.pop(name, None)


def lru_diff(before):
    return metrics.diff(before, metrics.snapshot())["lru"]


def test_snapshot_and_diff(scoped_cache):
    name, square = scoped_cache
    square.cache_clear()
    before = metrics.snapshot()
    square(2)
    square(2)
    square(3)
    assert lru_diff(before)[name] == {"hits": 1, "misses": 2, "currsize": 2}


def test_diff_omits_inactive_caches(scoped_cache):
    name, square = scoped_cache
    before = metrics.snapshot()
    assert name not in lru_diff(before)


def test_register_is_idempotent_for_same_fn(scoped_cache):
    name, square = scoped_cache
    metrics.register(name, square)  # same function: fine

    @lru_cache(maxsize=2)
    def other(n: int) -> int:
        return n

    with pytest.raises(ValueError, match="already registered"):
        metrics.register(name, other)


def test_register_requires_cache_info():
    with pytest.raises(TypeError):
        metrics.register("tests.plain", lambda n: n)


def test_aggregate_totals(scoped_cache):
    name, square = scoped_cache
    square.cache_clear()
    square(5)
    square(5)
    lru = metrics.snapshot()["lru"]
    assert lru[name]["maxsize"] == 8
    assert sum(counters["hits"] for counters in lru.values()) >= 1
    assert sum(counters["misses"] for counters in lru.values()) >= 1


INSTRUMENTED_MODULES = (
    "repro.ef.equivalence",
    "repro.fc.structures",
    "repro.spanners.regex_formulas",
    "repro.words.factors",
    "repro.words.fibonacci",
)


def test_real_sites_are_registered():
    # Importing the instrumented modules registers their caches.
    for module in INSTRUMENTED_MODULES:
        importlib.import_module(module)

    names = set(metrics.registered_names())
    assert {
        "ef.equivalence.solver_for",
        "fc.structures.word_structure",
        "words.factors.factors",
        "words.fibonacci.fibonacci_word",
        "spanners.regex_formulas.parse_regex_formula",
    } <= names
