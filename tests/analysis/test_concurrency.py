"""Seeded-violation and clean-pass fixtures for the concurrency.* rules.

Each rule gets a fixture package that reproduces a real bug shape —
including the three pre-fix daemon races this rule family was built to
catch (the ``begin_shutdown`` check-then-set on ``_stopping``, the
``stats.record`` counter increment, and the ``runtime.activate`` global
swap) — plus a clean twin showing the accepted discipline.
"""

from repro.analysis.concurrency import (
    AtomicCountersChecker,
    ForkSafetyChecker,
    GuardedByChecker,
    SharedStateRaceChecker,
    concurrency_for,
)
from repro.analysis.framework import Codebase, default_config

from tests.analysis.util import build


def findings_of(checker, tmp_path, files, **overrides):
    codebase, config = build(tmp_path, files, **overrides)
    return list(checker.check(codebase, config))


# -- concurrency.shared-state-race -------------------------------------------


DAEMON_ROOTS = dict(
    thread_roots=("fixpkg.high.daemon.Server.handle",),
    thread_shared_classes=("fixpkg.high.daemon.Server",),
)

#: The pre-fix ``ReproServer.begin_shutdown`` shape: two handler threads
#: both pass the ``_stopping`` guard and the flag is set twice.
STOPPING_RACE = {
    "fixpkg/high/daemon.py": """\
        class Server:
            def __init__(self):
                self._stopping = False

            def handle(self):
                self.begin_shutdown()

            def begin_shutdown(self):
                if self._stopping:
                    return
                self._stopping = True
        """,
}


def test_check_then_set_flag_race_is_flagged(tmp_path):
    found = findings_of(
        SharedStateRaceChecker(), tmp_path, STOPPING_RACE, **DAEMON_ROOTS
    )
    assert len(found) == 1
    assert "_stopping" in found[0].message
    assert "begin_shutdown" in found[0].message
    # The witness chain walks from the thread root to the write.
    assert "Server.handle" in found[0].message


def test_lock_guarded_flag_passes(tmp_path):
    found = findings_of(SharedStateRaceChecker(), tmp_path, {
        "fixpkg/high/daemon.py": """\
            import threading


            class Server:
                def __init__(self):
                    self._stopping = False
                    self._lock = threading.Lock()

                def handle(self):
                    self.begin_shutdown()

                def begin_shutdown(self):
                    with self._lock:
                        if self._stopping:
                            return
                        self._stopping = True
            """,
    }, **DAEMON_ROOTS)
    assert found == []


#: The pre-fix ``store.runtime.activate`` shape: an unsynchronized swap
#: of a module-global singleton from thread-reachable code.
ACTIVATE_RACE = {
    "fixpkg/high/daemon.py": """\
        from fixpkg.high import runtime


        class Server:
            def handle(self):
                runtime.activate(object())
        """,
    "fixpkg/high/runtime.py": """\
        _ACTIVE = None


        def activate(store):
            global _ACTIVE
            previous = _ACTIVE
            _ACTIVE = store
            return previous
        """,
}


def test_global_singleton_swap_is_flagged(tmp_path):
    found = findings_of(
        SharedStateRaceChecker(), tmp_path, ACTIVATE_RACE, **DAEMON_ROOTS
    )
    assert len(found) == 1
    assert "_ACTIVE" in found[0].message
    assert "activate" in found[0].message


def test_must_hold_covers_helpers_called_under_the_lock(tmp_path):
    # The helper writes shared state with no local guard, but every call
    # path into it holds the lock — the interprocedural must-hold set
    # keeps it clean.  Calling it once outside the lock flips the verdict.
    guarded = {
        "fixpkg/high/daemon.py": """\
            import threading


            class Server:
                def __init__(self):
                    self.state = {}
                    self._lock = threading.Lock()

                def handle(self):
                    with self._lock:
                        self._store(1)

                def _store(self, value):
                    self.state["latest"] = value
            """,
    }
    assert findings_of(
        SharedStateRaceChecker(), tmp_path, guarded, **DAEMON_ROOTS
    ) == []
    leaked = {
        "fixpkg/high/daemon.py": guarded["fixpkg/high/daemon.py"].replace(
            "with self._lock:\n                        self._store(1)",
            "self._store(1)",
        ),
    }
    found = findings_of(
        SharedStateRaceChecker(), tmp_path, leaked, **DAEMON_ROOTS
    )
    assert len(found) == 1
    assert "_store" in found[0].message


def test_lru_factory_results_are_thread_shared(tmp_path):
    # An lru_cache on a thread-reachable factory makes its instances
    # process-global: mutations through them are shared-state writes.
    files = {
        "fixpkg/high/daemon.py": """\
            import functools


            class Table:
                def __init__(self):
                    self.rows = {}

                def put(self, key, value):
                    self.rows[key] = value


            @functools.lru_cache(maxsize=None)
            def table_for(name: str) -> Table:
                return Table()


            class Server:
                def handle(self):
                    table_for("hot").put(1, 2)
            """,
    }
    found = findings_of(
        SharedStateRaceChecker(), tmp_path, files, **DAEMON_ROOTS
    )
    assert len(found) == 1
    assert "Table.rows" in found[0].message
    # Without the lru_cache the factory hands out private instances and
    # the same write is construction-local, not shared.
    private = {
        "fixpkg/high/daemon.py": files["fixpkg/high/daemon.py"].replace(
            "@functools.lru_cache(maxsize=None)\n            def table_for",
            "def table_for",
        ),
    }
    assert "lru_cache" not in private["fixpkg/high/daemon.py"]
    assert findings_of(
        SharedStateRaceChecker(), tmp_path, private, **DAEMON_ROOTS
    ) == []


def test_base_class_field_written_on_a_shared_subclass_is_a_race(tmp_path):
    # The field files under the base class that declares it, but the
    # instance written is the lru-cached subclass's (the shape of
    # PartialIsoCheck._bump on a cached KernelSolver).
    files = {
        "fixpkg/high/daemon.py": """\
            import functools


            class Check:
                def __init__(self):
                    self.counters = {"checks": 0}

                def bump(self):
                    self.counters["checks"] += 1


            class Solver(Check):
                def solve(self):
                    self.bump()


            @functools.lru_cache(maxsize=None)
            def solver_for(name: str) -> Solver:
                return Solver()


            class Server:
                def handle(self):
                    solver_for("hot").solve()
            """,
    }
    found = findings_of(
        SharedStateRaceChecker(), tmp_path, files, **DAEMON_ROOTS
    )
    assert len(found) == 1
    assert "Check.counters" in found[0].message
    assert "Solver.solve" in found[0].message
    # Without the cache every caller builds its own solver: the same
    # base-class write is private.
    private = {
        "fixpkg/high/daemon.py": files["fixpkg/high/daemon.py"].replace(
            "@functools.lru_cache(maxsize=None)\n            def solver_for",
            "def solver_for",
        ),
    }
    assert "lru_cache" not in private["fixpkg/high/daemon.py"]
    assert findings_of(
        SharedStateRaceChecker(), tmp_path, private, **DAEMON_ROOTS
    ) == []


def test_writes_through_a_held_shared_object_are_races(tmp_path):
    # A field of the lru-cached plan is shared wherever it is written:
    # through the holder's typed attribute, not only through ``self``.
    files = {
        "fixpkg/high/daemon.py": """\
            import functools


            class Plan:
                def __init__(self, size: int):
                    self.size = size


            @functools.lru_cache(maxsize=None)
            def plan_for(name: str) -> Plan:
                return Plan(len(name))


            class Binding:
                def __init__(self, plan: Plan):
                    self.plan = plan

                def run(self):
                    self.plan.size = 0


            class Server:
                def handle(self):
                    Binding(plan_for("hot")).run()
            """,
    }
    found = findings_of(
        SharedStateRaceChecker(), tmp_path, files, **DAEMON_ROOTS
    )
    assert len(found) == 1
    assert "Plan.size" in found[0].message
    # Reading the shared plan and writing the private binding is clean.
    clean = {
        "fixpkg/high/daemon.py": files["fixpkg/high/daemon.py"].replace(
            "self.plan.size = 0", "self.size = self.plan.size"
        ),
    }
    assert findings_of(
        SharedStateRaceChecker(), tmp_path, clean, **DAEMON_ROOTS
    ) == []


def test_ctor_writes_are_not_races(tmp_path):
    found = findings_of(SharedStateRaceChecker(), tmp_path, {
        "fixpkg/high/daemon.py": """\
            class Server:
                def __init__(self):
                    self.state = {"ready": False}

                def handle(self):
                    return self.state
            """,
    }, **DAEMON_ROOTS)
    assert found == []


# -- concurrency.guarded-by --------------------------------------------------


def test_partially_guarded_location_is_flagged(tmp_path):
    found = findings_of(GuardedByChecker(), tmp_path, {
        "fixpkg/low/state.py": """\
            import threading

            _LOCK = threading.Lock()
            _STATE = {}


            def set_safe(value):
                with _LOCK:
                    _STATE["current"] = value


            def set_unsafe(value):
                _STATE["current"] = value
            """,
    })
    assert len(found) == 1
    assert "set_unsafe" in found[0].message
    assert "set_safe" in found[0].message  # names the guarded witness
    assert "_LOCK" in found[0].message


def test_consistently_guarded_location_passes(tmp_path):
    found = findings_of(GuardedByChecker(), tmp_path, {
        "fixpkg/low/state.py": """\
            import threading

            _LOCK = threading.Lock()
            _STATE = {}


            def set_a(value):
                with _LOCK:
                    _STATE["a"] = value


            def set_b(value):
                with _LOCK:
                    _STATE["b"] = value
            """,
    })
    assert found == []


def test_lock_order_cycle_is_flagged(tmp_path):
    found = findings_of(GuardedByChecker(), tmp_path, {
        "fixpkg/low/locks.py": """\
            import threading

            _A = threading.Lock()
            _B = threading.Lock()


            def forward():
                with _A:
                    with _B:
                        pass


            def backward():
                with _B:
                    with _A:
                        pass
            """,
    })
    assert len(found) == 1
    assert "lock-order cycle" in found[0].message
    assert "_A" in found[0].message and "_B" in found[0].message


def test_consistent_lock_order_passes(tmp_path):
    found = findings_of(GuardedByChecker(), tmp_path, {
        "fixpkg/low/locks.py": """\
            import threading

            _A = threading.Lock()
            _B = threading.Lock()


            def first():
                with _A:
                    with _B:
                        pass


            def second():
                with _A:
                    with _B:
                        pass
            """,
    })
    assert found == []


def test_cross_function_lock_cycle_is_flagged(tmp_path):
    # The cycle closes through a call edge: helper() acquires _A while
    # the caller still holds _B, and elsewhere _A nests over _B directly.
    found = findings_of(GuardedByChecker(), tmp_path, {
        "fixpkg/low/locks.py": """\
            import threading

            _A = threading.Lock()
            _B = threading.Lock()


            def helper():
                with _A:
                    pass


            def outer():
                with _B:
                    helper()


            def direct():
                with _A:
                    with _B:
                        pass
            """,
    })
    assert len(found) == 1
    assert "lock-order cycle" in found[0].message


# -- concurrency.fork-safety -------------------------------------------------


def test_bare_module_lock_crossing_fork_is_flagged(tmp_path):
    found = findings_of(ForkSafetyChecker(), tmp_path, {
        "fixpkg/low/work.py": """\
            import threading

            _LOCK = threading.Lock()
            _TOTALS = {}


            def run_task(name):
                with _LOCK:
                    _TOTALS[name] = _TOTALS.get(name, 0) + 1
            """,
    }, task_roots=("fixpkg.low.work:run_task",))
    assert len(found) == 1
    assert "_LOCK" in found[0].message
    assert "run_task" in found[0].message
    assert "os.getpid()" in found[0].hint


def test_pid_guarded_lock_accessor_passes(tmp_path):
    # The blessed pattern (metrics._lock): compare os.getpid() and
    # re-arm the lock, so a forked worker never inherits a held lock.
    found = findings_of(ForkSafetyChecker(), tmp_path, {
        "fixpkg/low/work.py": """\
            import os
            import threading

            _LOCK = threading.Lock()
            _LOCK_PID = os.getpid()
            _TOTALS = {}


            def _lock():
                global _LOCK, _LOCK_PID
                pid = os.getpid()
                if pid != _LOCK_PID:
                    _LOCK = threading.Lock()
                    _LOCK_PID = pid
                return _LOCK


            def run_task(name):
                with _lock():
                    _TOTALS[name] = _TOTALS.get(name, 0) + 1
            """,
    }, task_roots=("fixpkg.low.work:run_task",))
    assert found == []


def test_sqlite_connection_needs_pid_reconnect(tmp_path):
    seeded = {
        "fixpkg/low/db.py": """\
            import sqlite3


            class Backend:
                def __init__(self, path):
                    self._conn = sqlite3.connect(path)

                def read(self, key):
                    return self._conn.execute(
                        "select v from kv where k = ?", (key,)
                    ).fetchone()


            def run_task(name):
                return Backend("x.db").read(name)
            """,
    }
    found = findings_of(
        ForkSafetyChecker(), tmp_path, seeded,
        task_roots=("fixpkg.low.db:run_task",),
    )
    assert len(found) == 1
    assert "_conn" in found[0].message
    assert "sqlite3.connect" in found[0].message
    # The SqliteBackend._connection discipline: compare pids, rebuild.
    clean = {
        "fixpkg/low/db.py": """\
            import os
            import sqlite3


            class Backend:
                def __init__(self, path):
                    self._path = path
                    self._pid = os.getpid()
                    self._conn = sqlite3.connect(path)

                def _connection(self):
                    if self._pid != os.getpid():
                        self._pid = os.getpid()
                        self._conn = sqlite3.connect(self._path)
                    return self._conn

                def read(self, key):
                    return self._connection().execute(
                        "select v from kv where k = ?", (key,)
                    ).fetchone()


            def run_task(name):
                return Backend("x.db").read(name)
            """,
    }
    assert findings_of(
        ForkSafetyChecker(), tmp_path, clean,
        task_roots=("fixpkg.low.db:run_task",),
    ) == []


# -- concurrency.atomic-counters ---------------------------------------------


#: The pre-fix ``stats.record`` shape: a bare ``+=`` on the shared
#: counter table loses increments under concurrent handler threads.
COUNTER_RACE = {
    "fixpkg/low/stats.py": """\
        _COUNTERS = {"hits": 0}


        def record(name, amount=1):
            _COUNTERS[name] += amount
        """,
}


def test_unguarded_counter_increment_is_flagged(tmp_path):
    found = findings_of(
        AtomicCountersChecker(), tmp_path, COUNTER_RACE,
        counter_modules=("fixpkg.low.stats",),
    )
    assert len(found) == 1
    assert "read-modify-write" in found[0].message
    assert "_COUNTERS" in found[0].message


def test_locked_counter_increment_passes(tmp_path):
    found = findings_of(AtomicCountersChecker(), tmp_path, {
        "fixpkg/low/stats.py": """\
            import threading

            _COUNTERS = {"hits": 0}
            _LOCK = threading.Lock()


            def record(name, amount=1):
                with _LOCK:
                    _COUNTERS[name] += amount
            """,
    }, counter_modules=("fixpkg.low.stats",))
    assert found == []


def test_get_then_store_counter_update_is_flagged(tmp_path):
    # ``d[k] = d.get(k, 0) + n`` is the same lost-update shape as ``+=``.
    found = findings_of(AtomicCountersChecker(), tmp_path, {
        "fixpkg/low/stats.py": """\
            _COUNTERS = {}


            def record(name, amount=1):
                _COUNTERS[name] = _COUNTERS.get(name, 0) + amount
            """,
    }, counter_modules=("fixpkg.low.stats",))
    assert len(found) == 1
    assert "read-modify-write" in found[0].message


def test_plain_counter_reset_is_not_rmw(tmp_path):
    found = findings_of(AtomicCountersChecker(), tmp_path, {
        "fixpkg/low/stats.py": """\
            _COUNTERS = {"hits": 0}


            def reset():
                _COUNTERS["hits"] = 0
            """,
    }, counter_modules=("fixpkg.low.stats",))
    assert found == []


#: ``repro.metrics.record``: each thread bumps its own cell, reached
#: through a ``threading.local()`` global, so the ``+=`` races nobody.
THREAD_LOCAL_CELL = """\
    import threading

    _LOCAL = threading.local()


    def record(name, amount=1):
        cell = _LOCAL.cell
        cell[name] += amount
        _LOCAL.depth += 1
    """


def test_thread_local_cell_increment_passes(tmp_path):
    files = {"fixpkg/low/stats.py": THREAD_LOCAL_CELL}
    assert findings_of(
        AtomicCountersChecker(), tmp_path, files,
        counter_modules=("fixpkg.low.stats",),
    ) == []
    # Outside a counter module, a thread root writing through the
    # thread-local is no shared-state race either.
    assert findings_of(
        SharedStateRaceChecker(), tmp_path, files,
        thread_roots=("fixpkg.low.stats.record",),
    ) == []


def test_module_dict_cell_increment_is_flagged(tmp_path):
    # The same increment on a plain module dict is shared by every thread.
    found = findings_of(AtomicCountersChecker(), tmp_path, {
        "fixpkg/low/stats.py": """\
            _CELL = {"hits": 0}


            def record(name, amount=1):
                cell = _CELL
                cell[name] += amount
            """,
    }, counter_modules=("fixpkg.low.stats",))
    assert len(found) == 1
    assert "read-modify-write" in found[0].message
    assert "_CELL" in found[0].message


# -- thread roots on this repository -----------------------------------------


def test_daemon_handler_reaches_the_server_calls_it_makes():
    """``server: "ReproServer" = self.server`` types the handler's local,
    so ``answer`` and ``begin_shutdown`` need no thread root of their own."""
    config = default_config()
    conc = concurrency_for(Codebase(config.src_root, config.package), config)
    handle = "repro.serve.daemon._Handler.handle"
    for method in ("answer", "begin_shutdown"):
        qualname = f"repro.serve.daemon.ReproServer.{method}"
        assert conc.thread_parents[qualname] == handle
        assert qualname not in config.thread_roots
