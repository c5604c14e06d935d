"""Seeded violations for the determinism rule."""

from repro.analysis.determinism import DeterminismChecker
from repro.analysis.framework import run_checkers

from tests.analysis.util import build, line_of


def run(tmp_path, source, **overrides):
    codebase, config = build(
        tmp_path, {"fixpkg/high/solver.py": source}, **overrides
    )
    return codebase, config, list(
        DeterminismChecker().check(codebase, config)
    )


def test_wall_clock_read_is_flagged(tmp_path):
    codebase, _, findings = run(
        tmp_path,
        """\
        import time


        def stamp():
            return time.time()
        """,
    )
    assert [f.message for f in findings] == [
        "wall-clock read time.time() in a deterministic module"
    ]
    assert findings[0].line == line_of(
        codebase, "fixpkg/high/solver.py", "return time.time()"
    )


def test_environment_reads_are_flagged(tmp_path):
    _, _, findings = run(
        tmp_path,
        """\
        import os


        def config():
            return os.environ.get("X", os.getenv("Y"))
        """,
    )
    assert sorted(f.message for f in findings) == [
        "os.environ read in a deterministic module",
        "os.getenv read in a deterministic module",
    ]


def test_unseeded_random_is_flagged_seeded_is_not(tmp_path):
    _, _, findings = run(
        tmp_path,
        """\
        import random


        def bad():
            return random.random(), random.Random()


        def good():
            return random.Random(42).random()
        """,
    )
    assert sorted(f.message for f in findings) == [
        "random.Random() constructed without a seed",
        "unseeded module-level random.random() call",
    ]


def test_fresh_set_iteration_is_flagged_sorted_is_not(tmp_path):
    codebase, _, findings = run(
        tmp_path,
        """\
        def bad(values):
            return [v for v in {x * 2 for x in values}]


        def good(values):
            return sorted({x * 2 for x in values})


        def also_good(values):
            return any(v for v in {x * 2 for x in values})
        """,
    )
    assert len(findings) == 1
    assert "hash randomisation" in findings[0].message
    assert findings[0].line == line_of(
        codebase, "fixpkg/high/solver.py", "[v for v in {x * 2 for x in values}]"
    )


def test_id_call_is_flagged(tmp_path):
    _, _, findings = run(
        tmp_path,
        """\
        def order(items):
            return [id(item) for item in items]
        """,
    )
    assert [f.message for f in findings] == [
        "id()-dependent logic in a deterministic module"
    ]


def test_modules_outside_the_prefix_are_not_checked(tmp_path):
    codebase, config = build(
        tmp_path,
        {
            "fixpkg/low/cli.py": """\
                import time


                def stamp():
                    return time.time()
                """,
        },
    )
    assert list(DeterminismChecker().check(codebase, config)) == []


def test_inline_suppression_moves_finding_to_suppressed(tmp_path):
    _, config, _ = run(
        tmp_path,
        """\
        import time


        def stamp():
            # repro-lint: allow[determinism] report metadata only
            return time.time()
        """,
    )
    active, suppressed = run_checkers(
        config, checkers=[DeterminismChecker()]
    )
    assert active == []
    assert len(suppressed) == 1
    assert suppressed[0].rule == "determinism"


def test_trailing_allow_pin_covers_only_its_own_line(tmp_path):
    # A pin trailing code belongs to that line; only a pin on a comment
    # line of its own also covers the line below it.
    codebase, config, _ = run(
        tmp_path,
        """\
        import time


        def stamps():
            first = time.time()  # repro-lint: allow[determinism] metadata
            return first, time.time()
        """,
    )
    active, suppressed = run_checkers(
        config, checkers=[DeterminismChecker()]
    )
    path = "fixpkg/high/solver.py"
    assert [f.line for f in suppressed] == [
        line_of(codebase, path, "first = time.time()")
    ]
    assert [f.line for f in active] == [
        line_of(codebase, path, "return first, time.time()")
    ]


def test_entropy_reads_are_flagged(tmp_path):
    _, _, findings = run(
        tmp_path,
        """\
        import os
        import uuid


        def token():
            return os.urandom(8)


        def fresh_id():
            return uuid.uuid4()


        def node_id():
            return uuid.uuid1()
        """,
    )
    messages = sorted(f.message for f in findings)
    assert messages == [
        "entropy read os.urandom() in a deterministic module",
        "entropy read uuid.uuid1() in a deterministic module",
        "entropy read uuid.uuid4() in a deterministic module",
    ]


def test_content_derived_uuid_is_not_flagged(tmp_path):
    _, _, findings = run(
        tmp_path,
        """\
        import uuid


        def stable_id(name):
            return uuid.uuid5(uuid.NAMESPACE_URL, name)
        """,
    )
    assert findings == []


def test_hash_ordering_key_is_flagged(tmp_path):
    codebase, _, findings = run(
        tmp_path,
        """\
        def shuffle_ish(items):
            return sorted(items, key=hash)


        def pick(items):
            return min(items, key=lambda x: hash(x.name))


        def inplace(items):
            items.sort(key=hash)
        """,
    )
    assert len(findings) == 3
    assert all("hash() used as the ordering key" in f.message for f in findings)
    assert {f.line for f in findings} == {
        line_of(codebase, "fixpkg/high/solver.py", "sorted(items"),
        line_of(codebase, "fixpkg/high/solver.py", "min(items"),
        line_of(codebase, "fixpkg/high/solver.py", "items.sort"),
    }


def test_value_derived_ordering_key_is_not_flagged(tmp_path):
    _, _, findings = run(
        tmp_path,
        """\
        def stable(items):
            return sorted(items, key=lambda x: (len(x), x))
        """,
    )
    assert findings == []
