"""Unit tests for the id-domain flow analysis (repro.analysis.domains).

Each test seeds a fixture package with pinned producers and asserts on
the analysis object directly: parsed specs, collected pins, inferred
return domains and recorded events.  The rule-level behaviour (findings,
suppression, scoping) lives in ``test_domainrules.py``.
"""

import repro.analysis.domains as domains_module
from repro.analysis.domains import DomainAnalysis, parse_spec

from tests.analysis.util import build

# A miniature of repro.kernel.bitset: same function names, so the flow
# models it natively once ``bitset_modules`` points at it.
BITSET = """\
    def from_ids(ids):
        mask = 0
        for gid in ids:
            mask |= 1 << gid
        return mask


    def declare_universe(mask, role):
        del role
        return mask


    def contains(mask, gid):
        return (mask >> gid) & 1 == 1


    def count(mask):
        return mask.bit_count()


    def iter_ids(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
    """


def analysis_of(tmp_path, files, **overrides):
    overrides.setdefault("bitset_modules", ("fixpkg.low.bits",))
    codebase, config = build(tmp_path, files, **overrides)
    return DomainAnalysis(codebase, config)


def events_of(analysis, qualname):
    return [(e.kind, e.message) for e in analysis.events.get(qualname, [])]


# -- spec grammar ------------------------------------------------------------


def test_parse_spec_accepts_the_lattice():
    assert parse_spec("plain") == "plain"
    assert parse_spec(" slot ") == "slot"
    assert parse_spec("interval") == "interval"
    assert parse_spec("shard-lane") == "shard-lane"
    assert parse_spec("dfa-state") == "dfa-state"
    assert parse_spec("intern:sweep") == "intern:sweep"
    assert parse_spec("bitset-universe:sweep") == "bitset-universe:sweep"
    assert parse_spec("bitset-pool:sweep") == "bitset-pool:sweep"
    assert parse_spec("iter[intern:sweep]") == "iter[intern:sweep]"
    # Nested containers normalise whitespace.
    assert (
        parse_spec("map[slot,intern:sweep]") == "map[slot, intern:sweep]"
    )
    assert (
        parse_spec("map[plain, map[plain, interval]]")
        == "map[plain, map[plain, interval]]"
    )


def test_parse_spec_rejects_malformed_text():
    assert parse_spec("banana") is None
    assert parse_spec("intern:") is None
    assert parse_spec("intern:no spaces") is None
    assert parse_spec("iter[banana]") is None
    assert parse_spec("map[slot]") is None
    assert parse_spec("map[slot, intern:sweep, extra]") is None


# -- pin collection ----------------------------------------------------------


def test_def_pin_declares_returns_and_params(tmp_path):
    analysis = analysis_of(tmp_path, {
        "fixpkg/low/base.py": """\
            # repro-lint: domain[returns=intern:sweep, text=plain] the mint
            def intern(text):
                return 7
            """,
    })
    assert analysis.returns["fixpkg.low.base.intern"] == "intern:sweep"
    assert analysis.param_pins["fixpkg.low.base.intern"] == {"text": "plain"}
    assert analysis.pin_errors == []
    assert analysis.pin_count == 2


def test_malformed_pin_is_collected_as_error(tmp_path):
    analysis = analysis_of(tmp_path, {
        "fixpkg/low/base.py": """\
            # repro-lint: domain[banana] not a real domain
            VALUE = 3
            """,
    })
    assert len(analysis.pin_errors) == 1
    module, line, text = analysis.pin_errors[0]
    assert module == "fixpkg.low.base"
    assert text == "banana"


def test_attribute_pin_flows_through_self(tmp_path):
    analysis = analysis_of(tmp_path, {
        "fixpkg/low/base.py": """\
            class Table:
                def __init__(self):
                    self.gid = 0  # repro-lint: domain[intern:sweep] the id

                def probe(self):
                    return self.gid
            """,
    })
    assert (
        analysis.attr_domains["fixpkg.low.base.Table"]["gid"]
        == "intern:sweep"
    )
    assert analysis.returns["fixpkg.low.base.Table.probe"] == "intern:sweep"


def test_trailing_pin_declares_only_its_own_line(tmp_path):
    # A pin trailing code declares that line; the unpinned line below it
    # stays plain.  A pin on a comment line of its own declares the line
    # below.
    analysis = analysis_of(tmp_path, {
        "fixpkg/low/base.py": """\
            class Automaton:
                start: int  # repro-lint: domain[dfa-state] the start state
                letters: frozenset
                # repro-lint: domain[iter[dfa-state]] the accepting states
                accepting: frozenset

                def build(self):
                    index = {}  # repro-lint: domain[map[plain, dfa-state]] mint
                    worklist = []
                    # repro-lint: domain[dfa-state] the next state
                    fresh = len(index)
                    return worklist, fresh
            """,
    })
    assert analysis.attr_domains["fixpkg.low.base.Automaton"] == {
        "start": "dfa-state",
        "accepting": "iter[dfa-state]",
    }
    module = analysis.codebase.modules["fixpkg.low.base"]
    assert analysis.local_pin(module, 8) == "map[plain, dfa-state]"
    assert analysis.local_pin(module, 9) is None
    assert analysis.local_pin(module, 11) == "dfa-state"
    assert analysis.pin_count == 4


# -- interprocedural inference ----------------------------------------------


def test_return_domains_propagate_through_calls(tmp_path):
    analysis = analysis_of(tmp_path, {
        "fixpkg/low/base.py": """\
            # repro-lint: domain[returns=intern:sweep] the mint
            def intern(text):
                return 0


            def alias(text):
                return intern(text)


            def collect(texts):
                return [alias(text) for text in texts]
            """,
    })
    assert analysis.returns["fixpkg.low.base.alias"] == "intern:sweep"
    assert (
        analysis.returns["fixpkg.low.base.collect"] == "iter[intern:sweep]"
    )


def test_return_inference_runs_to_stability(tmp_path):
    # Sorted order visits every wrapper before the function it wraps, so
    # each pass types one more wrapper: the outermost needs a sixth pass.
    analysis = analysis_of(tmp_path, {
        "fixpkg/low/base.py": """\
            def a_outer(text):
                return b_wrap(text)


            def b_wrap(text):
                return c_wrap(text)


            def c_wrap(text):
                return d_wrap(text)


            def d_wrap(text):
                return e_wrap(text)


            def e_wrap(text):
                return f_mint(text)


            # repro-lint: domain[returns=intern:sweep] the mint
            def f_mint(text):
                return 0


            # repro-lint: domain[returns=slot] the slot mint
            def g_slot(name):
                return 0


            def mixes(text, name):
                return a_outer(text) == g_slot(name)
            """,
    })
    for wrapper in ("a_outer", "b_wrap", "c_wrap", "d_wrap", "e_wrap"):
        assert analysis.returns[f"fixpkg.low.base.{wrapper}"] == "intern:sweep"
    assert events_of(analysis, "fixpkg.low.base.mixes") == [(
        "mix",
        "compares a intern:sweep id with a slot id "
        "(a_outer(text) == g_slot(name))",
    )]


def test_return_inference_loses_a_falling_domain(tmp_path, monkeypatch):
    # ``member_mask() & pick()`` is the universe while pick() is plain,
    # and falls to plain once pick() reads an intern id out of it, which
    # makes pick() plain again.  Without the rising rule the passes
    # would alternate for ever; with it both are lost by the third pass,
    # well inside the 3n + 1 bound the rule guarantees.
    def bounded(items, step):
        for _ in range(3 * len(items) + 1):
            if not any([step(item) for item in items]):
                return
        raise AssertionError("the passes did not stabilise")

    monkeypatch.setattr(domains_module, "until_stable", bounded)
    analysis = analysis_of(tmp_path, {
        "fixpkg/low/bits.py": BITSET,
        "fixpkg/low/base.py": """\
            from fixpkg.low import bits


            # repro-lint: domain[returns=bitset-universe:sweep] member mask
            def member_mask():
                return bits.declare_universe(3, "sweep")


            def pick():
                return min(bits.iter_ids(restrict()))


            def restrict():
                return member_mask() & pick()
            """,
    })
    assert "fixpkg.low.base.pick" not in analysis.returns
    assert "fixpkg.low.base.restrict" not in analysis.returns


def test_shift_mints_pool_and_intersection_restores_universe(tmp_path):
    analysis = analysis_of(tmp_path, {
        "fixpkg/low/bits.py": BITSET,
        "fixpkg/low/base.py": """\
            from fixpkg.low import bits


            # repro-lint: domain[returns=intern:sweep] the mint
            def intern(text):
                return 0


            # repro-lint: domain[returns=bitset-universe:sweep] member mask
            def member_mask():
                return bits.declare_universe(3, "sweep")


            def witness(text):
                pool = 1 << intern(text)
                safe = pool & member_mask()
                return sorted(bits.iter_ids(safe))
            """,
    })
    witness = "fixpkg.low.base.witness"
    assert analysis.returns[witness] == "iter[intern:sweep]"
    assert events_of(analysis, witness) == []


def test_witnessing_an_unrestricted_pool_records_escape(tmp_path):
    analysis = analysis_of(tmp_path, {
        "fixpkg/low/bits.py": BITSET,
        "fixpkg/low/base.py": """\
            from fixpkg.low import bits


            # repro-lint: domain[returns=intern:sweep] the mint
            def intern(text):
                return 0


            def witness(text):
                pool = 1 << intern(text)
                return sorted(bits.iter_ids(pool))
            """,
    })
    [(kind, message)] = events_of(analysis, "fixpkg.low.base.witness")
    assert kind == "escape"
    assert "bitset-pool:sweep" in message


def test_if_branches_join_so_a_pool_survives_a_narrowing_branch(tmp_path):
    analysis = analysis_of(tmp_path, {
        "fixpkg/low/bits.py": BITSET,
        "fixpkg/low/base.py": """\
            from fixpkg.low import bits


            # repro-lint: domain[returns=intern:sweep] the mint
            def intern(text):
                return 0


            # repro-lint: domain[returns=bitset-universe:sweep] member mask
            def member_mask():
                return bits.declare_universe(3, "sweep")


            def witness(text, narrow):
                candidates = 1 << intern(text)
                if narrow:
                    candidates = member_mask()
                return sorted(bits.iter_ids(candidates))
            """,
    })
    # Only one path restricts the pool: the join keeps the pool.
    [(kind, message)] = events_of(analysis, "fixpkg.low.base.witness")
    assert kind == "escape"
    assert "bitset-pool:sweep" in message


def test_complement_of_a_mask_is_a_pool(tmp_path):
    analysis = analysis_of(tmp_path, {
        "fixpkg/low/bits.py": BITSET,
        "fixpkg/low/base.py": """\
            from fixpkg.low import bits


            # repro-lint: domain[returns=bitset-universe:sweep] member mask
            def member_mask():
                return bits.declare_universe(3, "sweep")


            def outside():
                return sorted(bits.iter_ids(~member_mask()))
            """,
    })
    [(kind, message)] = events_of(analysis, "fixpkg.low.base.outside")
    assert kind == "escape"
    assert "bitset-pool:sweep" in message


def test_unpinned_modules_stay_out_of_scope(tmp_path):
    analysis = analysis_of(tmp_path, {
        "fixpkg/low/base.py": """\
            def plain_arithmetic(a, b):
                return (a << b) & (a | b)
            """,
    })
    # No pins anywhere: the module is never walked, so no events exist.
    assert "fixpkg.low.base" not in {
        analysis.graph.functions[q].module for q in analysis.events
    }


def test_summary_payload_shape(tmp_path):
    analysis = analysis_of(tmp_path, {
        "fixpkg/low/base.py": """\
            # repro-lint: domain[returns=slot] the slot mint
            def slot_of(name):
                return 0
            """,
    })
    payload = analysis.summary_payload()
    assert payload["pins"] == 1
    assert payload["pin_errors"] == []
    assert "fixpkg.low.base" in payload["modules_analyzed"]
    [entry] = payload["functions"]
    assert entry["function"] == "fixpkg.low.base.slot_of"
    assert entry["returns"] == "slot"
    assert entry["events"] == []
    assert payload["events"] == {}
