"""Query dispatch semantics, socket-free."""

import pytest

from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError, validate_request
from repro.serve.service import QueryService
from repro.store import runtime as store_runtime
from repro.store.backends import MemoryBackend
from repro.store.core import ArtifactStore


@pytest.fixture
def service():
    return QueryService()


def ask(service, **request):
    return service.dispatch(validate_request(request))


class TestPing:
    def test_reports_protocol_version(self, service):
        assert ask(service, op="ping") == {"protocol": PROTOCOL_VERSION}


class TestStats:
    def test_without_store(self, service):
        previous = store_runtime.activate(None)
        try:
            result = ask(service, op="stats")
        finally:
            store_runtime.deactivate(previous)
        assert result["store"] is None
        assert "store_hits" in result["counters"]

    def test_with_store(self, service):
        previous = store_runtime.activate(ArtifactStore(MemoryBackend()))
        try:
            result = ask(service, op="stats")
        finally:
            store_runtime.deactivate(previous)
        assert result["store"]["backend"] == "memory"

    def test_reports_solver_and_lru_sections(self, service):
        # The whole registry: a client sees the FC plan cache serve a
        # repeated membership request.
        text = "E x: E y: (x = y.y)"
        ask(service, op="membership", word="abab", text=text, alphabet="ab")
        before = ask(service, op="stats")
        for _ in range(2):
            ask(service, op="membership", word="abab", text=text, alphabet="ab")
        after = ask(service, op="stats")
        assert set(after) == {"store", "counters", "solver", "lru"}
        assert "sweep_bitset_ops" in after["solver"]
        plan_cache = "fc.sweep.compiled_plan"
        assert after["lru"][plan_cache]["hits"] == (
            before["lru"][plan_cache]["hits"] + 2
        )
        assert after["lru"][plan_cache]["misses"] == (
            before["lru"][plan_cache]["misses"]
        )


class TestMembership:
    def test_named_paper_formula(self, service):
        result = ask(service, op="membership", word="abab", formula="ww")
        assert result == {"word": "abab", "alphabet": "ab", "member": True}
        assert not ask(service, op="membership", word="aba", formula="ww")[
            "member"
        ]

    def test_text_formula(self, service):
        result = ask(
            service,
            op="membership",
            word="aa",
            text="E x: (x = a.a)",
            alphabet="ab",
        )
        assert result["member"] is True

    def test_requires_exactly_one_formula_source(self, service):
        with pytest.raises(ProtocolError, match="exactly one"):
            ask(service, op="membership", word="ab")
        with pytest.raises(ProtocolError, match="exactly one"):
            ask(
                service,
                op="membership",
                word="ab",
                formula="ww",
                text="E x: (x = a)",
            )

    def test_unknown_name_and_bad_text_surface_as_protocol_errors(
        self, service
    ):
        with pytest.raises(ProtocolError, match="unknown paper formula"):
            ask(service, op="membership", word="ab", formula="nope")
        with pytest.raises(ProtocolError, match="parse error"):
            ask(service, op="membership", word="ab", text="((")

    def test_open_formulas_are_rejected(self, service):
        with pytest.raises(ProtocolError, match="open"):
            ask(service, op="membership", word="ab", text="(x = a)")


class TestEquivAndRank:
    def test_equiv_verdicts(self, service):
        assert ask(service, op="equiv", w="aaa", v="aaaa", k=1)["equivalent"]
        assert not ask(service, op="equiv", w="a", v="aa", k=1)["equivalent"]

    def test_negative_rank_is_rejected(self, service):
        with pytest.raises(ProtocolError, match="≥ 0"):
            ask(service, op="equiv", w="a", v="a", k=-1)
        with pytest.raises(ProtocolError, match="≥ 0"):
            ask(service, op="rank", w="a", v="a", max_k=-1)

    def test_rank_finds_least_separating_k(self, service):
        result = ask(service, op="rank", w="aa", v="aaa", max_k=3)
        assert result["rank"] == 1

    def test_rank_none_when_equivalent_throughout(self, service):
        result = ask(service, op="rank", w="aaa", v="aaaa", max_k=1)
        assert result["rank"] is None


class TestSpanner:
    def test_extraction_rows_are_sorted_and_content_bearing(self, service):
        result = ask(
            service, op="spanner", pattern="a*x{a+}a*", document="aaa"
        )
        assert result["schema"] == ["x"]
        assert result["class"] == "regular"
        spans = [(row["x"]["start"], row["x"]["end"]) for row in result["rows"]]
        assert spans == sorted(spans)
        assert {row["x"]["content"] for row in result["rows"]} == {
            "a", "aa", "aaa",
        }

    def test_bad_pattern_is_a_protocol_error(self, service):
        with pytest.raises(ProtocolError, match="bad pattern"):
            ask(service, op="spanner", pattern="{x}", document="a")


class TestShutdown:
    def test_acknowledges(self, service):
        assert ask(service, op="shutdown") == {"stopping": True}
