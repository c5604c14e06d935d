"""Seeded-violation and clean-pass fixtures for the effects.* rules."""

from repro.analysis.effectrules import (
    EffectAssignmentPurityChecker,
    EffectPurityPropagationChecker,
    MemoKeyCompletenessChecker,
    WorkerIsolationChecker,
)

from tests.analysis.util import build


def findings_of(checker, tmp_path, files, **overrides):
    codebase, config = build(tmp_path, files, **overrides)
    return list(checker.check(codebase, config))


# -- effects.purity-propagation ---------------------------------------------


def test_transitively_impure_lru_cache_is_flagged(tmp_path):
    found = findings_of(EffectPurityPropagationChecker(), tmp_path, {
        "fixpkg/low/base.py": """\
            import functools


            def helper(x):
                print(x)
                return x


            @functools.lru_cache(maxsize=None)
            def cached(x):
                return helper(x)
            """,
    })
    assert len(found) == 1
    assert "cached()" in found[0].message
    assert "io" in found[0].message
    assert "helper" in found[0].message  # the witness chain names the leaf


def test_transitively_pure_lru_cache_passes(tmp_path):
    found = findings_of(EffectPurityPropagationChecker(), tmp_path, {
        "fixpkg/low/base.py": """\
            import functools


            def helper(acc, x):
                acc.append(x)


            @functools.lru_cache(maxsize=None)
            def cached(x):
                out = []
                helper(out, x)
                return tuple(out)
            """,
    })
    assert found == []


def test_returned_closure_body_is_not_the_factory_effect(tmp_path):
    # A nested def runs when it is called: a cached factory that only
    # returns the closure stays pure, whatever the closure does later.
    found = findings_of(EffectPurityPropagationChecker(), tmp_path, {
        "fixpkg/low/base.py": """\
            import functools


            def node(label):
                def run(ctx):
                    print(label)
                    return ctx.cat(label)

                return run


            @functools.lru_cache(maxsize=None)
            def cached(label):
                return (node(label),)
            """,
    })
    assert found == []


def test_called_nested_def_is_the_enclosing_effect(tmp_path):
    # The same closure called (or handed to a callee) inside the cached
    # function runs there, so its effect is the function's.
    for use in ("run(None)", "sorted([label], key=run)"):
        found = findings_of(EffectPurityPropagationChecker(), tmp_path, {
            "fixpkg/low/base.py": f"""\
                import functools


                @functools.lru_cache(maxsize=None)
                def cached(label):
                    def run(ctx):
                        print(label)
                        return label

                    return {use}
                """,
        })
        assert len(found) == 1, use
        assert "io" in found[0].message


# -- effects.assignment-purity ----------------------------------------------

# The PR-4 regression class: an _assignment_pure atom whose _evaluate
# reads the per-word structure (here via structure.constant) poisons
# every family-wide memo keyed only on the assigned values.
WORDVIEW_BUG = {
    "fixpkg/low/base.py": """\
        class BrokenAtom:
            _assignment_pure = True

            def _evaluate(self, structure, assignment):
                return assignment["x"] == structure.constant("u")
        """,
}


def test_structure_read_in_assignment_pure_atom_is_flagged(tmp_path):
    found = findings_of(
        EffectAssignmentPurityChecker(), tmp_path, WORDVIEW_BUG
    )
    # Both sub-checks fire: the direct structure read, and the summary
    # check (structure.constant on an unknown receiver infers unknown).
    assert found
    assert any(
        "reads the per-word structure parameter 'structure'" in f.message
        for f in found
    )
    assert all("BrokenAtom" in f.message for f in found)


def test_impure_reachable_code_in_atom_is_flagged(tmp_path):
    found = findings_of(EffectAssignmentPurityChecker(), tmp_path, {
        "fixpkg/low/base.py": """\
            def log(x):
                print(x)


            class NoisyAtom:
                _assignment_pure = True

                def _evaluate(self, structure, assignment):
                    log(assignment)
                    return True
            """,
    })
    assert any("io" in f.message for f in found)


def test_clean_assignment_pure_atom_passes(tmp_path):
    found = findings_of(EffectAssignmentPurityChecker(), tmp_path, {
        "fixpkg/low/base.py": """\
            class CleanAtom:
                _assignment_pure = True

                def _evaluate(self, structure, assignment):
                    return assignment["x"] == assignment["y"]
            """,
    })
    assert found == []


def test_subclass_evaluate_is_also_checked(tmp_path):
    found = findings_of(EffectAssignmentPurityChecker(), tmp_path, {
        "fixpkg/low/base.py": """\
            class BaseAtom:
                _assignment_pure = True

                def _evaluate(self, structure, assignment):
                    return True


            class LeakyAtom(BaseAtom):
                def _evaluate(self, structure, assignment):
                    return structure.contains(assignment["x"])
            """,
    })
    assert any("LeakyAtom" in f.message for f in found)


# -- effects.memo-key-completeness ------------------------------------------


MEMO = dict(memo_modules=("fixpkg.low.base",))


def test_memo_value_depending_on_non_key_state_is_flagged(tmp_path):
    found = findings_of(MemoKeyCompletenessChecker(), tmp_path, {
        "fixpkg/low/base.py": """\
            class Family:
                def __init__(self):
                    self._memo = {}

                def lookup(self, key, ctx):
                    cached = self._memo.get(key)
                    if cached is None:
                        cached = len(ctx.view) + len(key)
                        self._memo[key] = cached
                    return cached
            """,
    }, **MEMO)
    assert len(found) == 1
    assert "'ctx'" in found[0].message
    assert "self._memo" in found[0].message


def test_key_derived_memo_value_passes(tmp_path):
    found = findings_of(MemoKeyCompletenessChecker(), tmp_path, {
        "fixpkg/low/base.py": """\
            class Family:
                def __init__(self):
                    self._memo = {}
                    self.scale = 3

                def lookup(self, key):
                    pair = (key, len(key))
                    cached = self._memo.get(pair)
                    if cached is None:
                        cached = len(key) * self.scale
                        self._memo[pair] = cached
                    return cached
            """,
    }, **MEMO)
    assert found == []


def test_plain_local_memo_is_not_family_wide(tmp_path):
    found = findings_of(MemoKeyCompletenessChecker(), tmp_path, {
        "fixpkg/low/base.py": """\
            def search(items, ctx):
                local = {}
                for key in items:
                    value = local.get(key)
                    if value is None:
                        value = ctx.rank(key)
                        local[key] = value
                return local
            """,
    }, **MEMO)
    assert found == []


def test_aliased_self_memo_is_checked(tmp_path):
    found = findings_of(MemoKeyCompletenessChecker(), tmp_path, {
        "fixpkg/low/base.py": """\
            class Family:
                def __init__(self):
                    self._states = {}

                def state_for(self, word, clock):
                    states = self._states
                    state = states.get(word)
                    if state is None:
                        state = (word, clock)
                        states[word] = state
                    return state
            """,
    }, **MEMO)
    assert len(found) == 1
    assert "'clock'" in found[0].message


def test_tuple_unpacked_memo_read_is_checked(tmp_path):
    # The unpacked names come from the memo itself; the local computed
    # from the per-call context does not.
    found = findings_of(MemoKeyCompletenessChecker(), tmp_path, {
        "fixpkg/low/base.py": """\
            class Family:
                def __init__(self):
                    self._memo = {}

                def tally(self, key, ctx):
                    weight = len(ctx.view)
                    hits, total = self._memo.get(key, (0, 0))
                    self._memo[key] = (hits + 1, total + weight)
                    return hits
            """,
    }, **MEMO)
    assert [f.message for f in found] == [
        "memo self._memo stores a value that depends on 'weight', which "
        "is not derivable from the key key"
    ]


# -- effects.worker-isolation -----------------------------------------------


def test_task_reachable_global_assignment_is_flagged(tmp_path):
    found = findings_of(
        WorkerIsolationChecker(),
        tmp_path,
        {
            "fixpkg/low/base.py": """\
                RESULTS = {}


                def remember(name, value):
                    RESULTS[name] = value


                def task_fn(n):
                    remember("n", n)
                    return n
                """,
        },
        task_roots=("fixpkg.low.base:task_fn",),
    )
    assert len(found) == 1
    assert "remember()" in found[0].message
    assert "task_fn" in found[0].message  # chain from the root


def test_counter_module_writes_are_exempt(tmp_path):
    found = findings_of(
        WorkerIsolationChecker(),
        tmp_path,
        {
            "fixpkg/low/stats.py": """\
                TALLY = {}


                def record(name):
                    TALLY[name] = TALLY.get(name, 0) + 1
                """,
            "fixpkg/low/base.py": """\
                from fixpkg.low import stats


                def task_fn(n):
                    stats.record("task")
                    return n
                """,
        },
        task_roots=("fixpkg.low.base:task_fn",),
        counter_modules=("fixpkg.low.stats",),
    )
    assert found == []


def test_store_channel_calls_are_exempt(tmp_path):
    found = findings_of(
        WorkerIsolationChecker(),
        tmp_path,
        {
            "fixpkg/low/storemod.py": """\
                _ACTIVE = None


                def publish(kind, args, payload):
                    if _ACTIVE is not None:
                        _ACTIVE[kind, str(args)] = payload
                """,
            "fixpkg/low/base.py": """\
                from fixpkg.low import storemod


                def task_fn(n):
                    storemod.publish("squares", n, n * n)
                    return n
                """,
        },
        task_roots=("fixpkg.low.base:task_fn",),
        store_modules=("fixpkg.low.storemod",),
    )
    assert found == []


def test_inline_store_pin_outside_channel_is_flagged(tmp_path):
    found = findings_of(
        WorkerIsolationChecker(),
        tmp_path,
        {
            "fixpkg/low/base.py": """\
                def sneaky(n):  # repro-lint: effects[store]
                    with open("artifacts.json", "a") as fh:
                        fh.write(str(n))


                def task_fn(n):
                    sneaky(n)
                    return n
                """,
        },
        task_roots=("fixpkg.low.base:task_fn",),
        store_modules=("fixpkg.low.storemod",),
    )
    assert len(found) == 1
    assert "sneaky()" in found[0].message
    assert "store modules" in found[0].message


def test_store_pin_inside_channel_module_is_allowed(tmp_path):
    found = findings_of(
        WorkerIsolationChecker(),
        tmp_path,
        {
            "fixpkg/low/storemod.py": """\
                def publish(kind, args, payload):  # repro-lint: effects[store]
                    with open("artifacts.json", "a") as fh:
                        fh.write(kind)
                """,
            "fixpkg/low/base.py": """\
                from fixpkg.low import storemod


                def task_fn(n):
                    storemod.publish("squares", n, n * n)
                    return n
                """,
        },
        task_roots=("fixpkg.low.base:task_fn",),
        store_modules=("fixpkg.low.storemod",),
    )
    assert found == []
