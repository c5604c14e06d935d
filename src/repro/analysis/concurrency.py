"""Thread/fork-reachability race detection over the effect graph.

PR 6 made the reproduction a long-lived service: the serve daemon is a
``ThreadingTCPServer`` whose handler threads all run the same query
stack concurrently, and whose docstring used to *assert* that the stack
is safe under that model.  This module turns the assertion into a
machine-checked invariant, the same way ``effects.assignment-purity``
turned the PR-4 ``_WordView.constant`` bug class into a lint error.

Layered on the project call graph (:mod:`repro.analysis.callgraph`) and
the shared effect analysis (:mod:`repro.analysis.effects`), the
:class:`ConcurrencyAnalysis` computes:

* **thread roots** — entry points that may execute on ≥ 2 threads at
  once (``LintConfig.thread_roots``; globs expand over function
  qualnames, which is how the ``getattr``-dispatched ``op_*`` handlers
  join the root set), and **fork roots** — the registered engine task
  functions that run inside forked worker pools (the same root set as
  ``effects.worker-isolation``);
* **thread-shared locations** — module-level bindings (shared by
  definition: one interpreter, one module object; a global bound to
  ``threading.local()`` is the exception — every thread sees its own
  attributes, so writes through it are thread-confined) and fields of
  *shared classes*: the configured server/service singletons, closed
  over field-annotation types, subclasses, and classes returned by
  lru_cached thread-reachable factories (an lru cache is process-global
  state, so the objects it hands out are shared across handler threads).
  A field is filed under the base-most class declaring it, so it is
  shared when that class or any subclass of it is;
* **lock regions** — ``with <lock>:`` scopes over lock objects
  (module-level / class-level / ``self`` fields built by
  ``threading.Lock`` and friends, plus *accessor functions* that return
  one — the pid-guarded ``_lock()`` pattern of ``repro.metrics``), with
  a must-hold interprocedural pass so a helper that is only ever called
  under a lock counts as guarded;
* **GuardedBy inference** — per shared location, the set of locks held
  at each write; a location guarded anywhere must be guarded
  everywhere, and nested/held-across-call acquisitions feed a
  lock-order graph checked for cycles.

Four rules consume this:

* ``concurrency.shared-state-race`` — unsynchronized write to
  thread-shared state in a thread-reachable function;
* ``concurrency.guarded-by`` — inconsistent lock discipline on one
  location, or a lock-order cycle;
* ``concurrency.fork-safety`` — locks / sockets / sqlite connections
  used in fork-reachable code without a per-pid reconnect guard
  (the ``SqliteBackend._connection`` pattern: compare ``os.getpid()``
  and rebuild the resource after a fork);
* ``concurrency.atomic-counters`` — read-modify-write on a counter
  module's globals outside a lock region.

Known blind spots, so reviewers know what the green check does *not*
prove: operator dunders (``table.cat[i]`` never surfaces
``LazyCat.__getitem__`` as a call edge), mutation through parameters
whose arguments are shared objects, and bare ``.acquire()``/
``.release()`` pairs (only ``with`` regions count).  Genuinely benign
survivors — grow-only memo dicts whose entries are idempotent — carry
explicit ``# repro-lint: allow[concurrency.shared-state-race] reason``
pins next to the write, so every tolerated race is visible in-source.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.callgraph import _unparse_short, bound_name
from repro.analysis.effects import _MUTATING_METHODS, analysis_for
from repro.analysis.framework import (
    Checker,
    Codebase,
    Finding,
    LintConfig,
    reach,
    until_stable,
)
from repro.analysis.purity import _is_lru_cached

__all__ = [
    "AtomicCountersChecker",
    "ConcurrencyAnalysis",
    "ForkSafetyChecker",
    "GuardedByChecker",
    "SharedStateRaceChecker",
    "concurrency_for",
]

#: Constructors whose results are mutual-exclusion primitives.
_LOCK_CONSTRUCTORS = frozenset({
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
})

#: Constructors whose results must not cross a ``fork`` boundary: an
#: inherited lock may be held forever (the holding thread does not
#: exist in the child), and sockets / sqlite handles are attached to
#: the parent's file descriptors.
_RESOURCE_CONSTRUCTORS = _LOCK_CONSTRUCTORS | frozenset({
    "sqlite3.connect",
    "socket.socket",
    "socket.create_connection",
    "socket.socketpair",
})

#: Dict/container method names that read-modify-write their receiver.
_RMW_METHODS = frozenset({"setdefault", "update", "pop", "popitem"})


@dataclass(frozen=True)
class Mutation:
    """One write to a non-local location inside one function."""

    line: int
    location: str  # "global:<dotted>" or "field:<class>.<attr>"
    rmw: bool  # read-modify-write (x += 1, d[k] = d[k] + 1, .setdefault)
    detail: str


@dataclass(frozen=True)
class Acquisition:
    """One ``with <lock>:`` region."""

    line: int
    end_line: int
    lock: str  # location id of the lock object


@dataclass(frozen=True)
class ResourceUse:
    """A fork-reachable touch of a fork-unsafe resource binding."""

    line: int
    binding: str  # location id of the resource binding
    detail: str


@dataclass(frozen=True)
class FunctionFacts:
    """Concurrency-relevant facts of one function body."""

    qualname: str
    mutations: tuple[Mutation, ...]
    acquisitions: tuple[Acquisition, ...]
    resource_uses: tuple[ResourceUse, ...]


class ConcurrencyAnalysis:
    """Reachability, sharing, and locking facts for a whole codebase."""

    def __init__(self, codebase: Codebase, config: LintConfig) -> None:
        self.codebase = codebase
        self.config = config
        self.analysis = analysis_for(codebase, config)
        self.graph = self.analysis.graph
        #: location id → line of the defining binding
        self.module_locks: dict[str, int] = {}
        self.field_locks: set[str] = set()
        #: location id → constructor dotted name
        self.resources: dict[str, str] = {}
        #: module globals bound to ``threading.local()``
        self.thread_locals: set[str] = set()
        #: resource/lock bindings with a getpid-compare-and-rebuild guard
        self.pid_guarded: set[str] = set()
        #: function qualname → lock id it returns (accessor pattern)
        self.lock_accessors: dict[str, str] = {}
        #: class qualname → attrs assigned via ``self`` in its methods
        self._class_fields: dict[str, set[str]] = {}
        self.facts: dict[str, FunctionFacts] = {}

        self._index_class_fields()
        self._index_module_bindings()
        self._index_field_bindings()
        self._index_accessors()
        self._build_facts()

        callees = self.analysis.callees
        self.thread_parents = reach(self._thread_roots(), callees)
        self.fork_parents = reach(self._fork_roots(), callees)
        self.thread_reachable = set(self.thread_parents)
        self.fork_reachable = set(self.fork_parents)
        self.shared_classes = self._shared_classes()
        self.held_entry = self._must_hold()
        self._collect_resource_uses()

    # -- indexes -----------------------------------------------------------

    def _ctor_of(self, module, value: ast.expr) -> str | None:
        """Dotted constructor name of a Call value, if resolvable."""
        if not isinstance(value, ast.Call):
            return None
        if not isinstance(value.func, (ast.Name, ast.Attribute)):
            return None
        return self.codebase.resolve_name(module, value.func)

    def _index_class_fields(self) -> None:
        for qualname, info in sorted(self.codebase.classes().items()):
            attrs = {name for name, _annotation, _line in info.fields}
            self._class_fields[qualname] = attrs
        for qualname in sorted(self.graph.functions):
            info = self.graph.functions[qualname]
            if info.cls is None or info.self_name is None:
                continue
            attrs = self._class_fields.setdefault(info.cls, set())
            for node in self.graph.scanners[qualname].nodes:
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                else:
                    continue
                attrs.update(
                    target.attr
                    for target in targets
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == info.self_name
                )

    def owner_class(self, cls: str | None, attr: str) -> str:
        """The base-most class in ``cls``'s MRO declaring ``attr``.

        Canonicalising field locations onto the declaring class merges
        sites across subclasses (a subclass method writing a base-class
        field talks about the same location as the base's own writes).
        """
        if cls is None:
            return "<unknown>"
        owner = cls
        for candidate in self.codebase.mro(cls):  # cls first, bases after
            if attr in self._class_fields.get(candidate, set()):
                owner = candidate
        return owner

    def _index_module_bindings(self) -> None:
        for module in self.codebase.iter_modules():
            for statement in module.tree.body:
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(statement, ast.Assign):
                    targets, value = statement.targets, statement.value
                elif isinstance(statement, ast.AnnAssign):
                    targets, value = [statement.target], statement.value
                if value is None:
                    continue
                ctor = self._ctor_of(module, value)
                if ctor is None:
                    continue
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    dotted = f"{module.name}.{target.id}"
                    if ctor in _LOCK_CONSTRUCTORS:
                        self.module_locks[f"global:{dotted}"] = (
                            statement.lineno
                        )
                    if ctor in _RESOURCE_CONSTRUCTORS:
                        self.resources[f"global:{dotted}"] = ctor
                    if ctor == "threading.local":
                        self.thread_locals.add(f"global:{dotted}")

    def _index_field_bindings(self) -> None:
        """Locks/resources bound to ``self`` fields or class attributes."""
        for cls, info in sorted(self.codebase.classes().items()):
            module = self.codebase.modules.get(info.module)
            if module is None:
                continue
            for statement in info.node.body:
                if isinstance(statement, ast.Assign):
                    ctor = self._ctor_of(module, statement.value)
                    if ctor is None:
                        continue
                    for target in statement.targets:
                        if isinstance(target, ast.Name):
                            self._record_field_binding(cls, target.id, ctor)
        for qualname in sorted(self.graph.functions):
            info = self.graph.functions[qualname]
            if info.cls is None or info.self_name is None:
                continue
            module = self.codebase.modules[info.module]
            # Locals assigned from a resource constructor, so that
            # ``conn = sqlite3.connect(...); self._conn = conn`` counts.
            local_ctor: dict[str, str] = {}
            for node in self.graph.scanners[qualname].nodes:
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                target = node.targets[0]
                ctor = self._ctor_of(module, node.value)
                if isinstance(target, ast.Name):
                    if ctor is not None:
                        local_ctor[target.id] = ctor
                    continue
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == info.self_name
                ):
                    continue
                if ctor is None and isinstance(node.value, ast.Name):
                    ctor = local_ctor.get(node.value.id)
                if ctor is not None:
                    self._record_field_binding(info.cls, target.attr, ctor)

    def _record_field_binding(self, cls: str, attr: str, ctor: str) -> None:
        location = f"field:{self.owner_class(cls, attr)}.{attr}"
        if ctor in _LOCK_CONSTRUCTORS:
            self.field_locks.add(location)
        if ctor in _RESOURCE_CONSTRUCTORS:
            self.resources[location] = ctor

    def _index_accessors(self) -> None:
        """Functions that return a known lock (``_lock()`` pattern)."""
        for qualname in sorted(self.graph.functions):
            info = self.graph.functions[qualname]
            for node in self.graph.scanners[qualname].nodes:
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                lock = None
                value = node.value
                if isinstance(value, ast.Name):
                    dotted = f"global:{info.module}.{value.id}"
                    if dotted in self.module_locks:
                        lock = dotted
                elif (
                    isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == info.self_name
                ):
                    candidate = (
                        f"field:{self.owner_class(info.cls, value.attr)}"
                        f".{value.attr}"
                    )
                    if candidate in self.field_locks:
                        lock = candidate
                if lock is not None:
                    self.lock_accessors[qualname] = lock

    def _pid_guard_pass(self) -> None:
        """Bindings re-armed by an ``os.getpid()``-reading function.

        A function that both consults ``os.getpid()`` and *assigns* the
        binding implements the per-pid reconnect pattern
        (``SqliteBackend._connection``): stale post-fork state is
        detected and rebuilt before use, so the binding is fork-safe.
        """
        for qualname in sorted(self.graph.functions):
            scan = self.graph.scans[qualname]
            reads_pid = any(
                site.external == "os.getpid" for site in scan.calls
            )
            if not reads_pid:
                continue
            for mutation in self.facts[qualname].mutations:
                if mutation.location in self.resources:
                    self.pid_guarded.add(mutation.location)

    # -- per-function facts ------------------------------------------------

    def _build_facts(self) -> None:
        for qualname in sorted(self.graph.functions):
            self.facts[qualname] = self._facts_for(qualname)
        self._pid_guard_pass()

    def _facts_for(self, qualname: str) -> FunctionFacts:
        scanner = self.graph.scanners[qualname]
        # Aliases that carry a location: ``lock = self._lock`` or
        # ``table = _GLOBAL`` — single-target name assignments, applied
        # in line order so later aliases can build on earlier ones.
        alias: dict[str, str] = {}
        for node in scanner.name_assignments:
            location = self._expr_location(node.value, scanner, alias)
            if location is not None:
                alias[bound_name(node)] = location

        mutations: list[Mutation] = []
        acquisitions: list[Acquisition] = []
        for node in scanner.nodes:
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                if isinstance(node, ast.AnnAssign) and node.value is None:
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                rmw = isinstance(node, ast.AugAssign)
                value = node.value
                for target in targets:
                    mutations.extend(self._target_mutations(
                        target, value, rmw, scanner, alias
                    ))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    mutations.extend(self._target_mutations(
                        target, None, False, scanner, alias
                    ))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
            ):
                location = self._expr_location(node.func.value, scanner, alias)
                if location is not None:
                    mutations.append(Mutation(
                        node.lineno,
                        location,
                        node.func.attr in _RMW_METHODS,
                        f"{_unparse_short(node.func)}(…)",
                    ))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    lock = self._lock_of(item.context_expr, scanner, alias)
                    if lock is not None:
                        acquisitions.append(Acquisition(
                            node.lineno, node.end_lineno or node.lineno, lock
                        ))

        key = lambda m: (m.line, m.location)  # noqa: E731
        return FunctionFacts(
            qualname=qualname,
            mutations=tuple(sorted(mutations, key=key)),
            acquisitions=tuple(
                sorted(acquisitions, key=lambda a: (a.line, a.lock))
            ),
            resource_uses=(),
        )

    def _target_mutations(
        self, target, value, rmw, scanner, alias
    ) -> list[Mutation]:
        if isinstance(target, (ast.Tuple, ast.List)):
            out: list[Mutation] = []
            for element in target.elts:
                out.extend(self._target_mutations(
                    element, value, rmw, scanner, alias
                ))
            return out
        if isinstance(target, ast.Starred):
            return self._target_mutations(
                target.value, value, rmw, scanner, alias
            )
        location: str | None = None
        if isinstance(target, ast.Name):
            if target.id in scanner.declared_globals:
                location = f"global:{scanner.info.module}.{target.id}"
                if not rmw and value is not None:
                    # ``global X; X = X + 1`` is a check-then-update too.
                    rmw = any(
                        isinstance(node, ast.Name) and node.id == target.id
                        for node in ast.walk(value)
                    )
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            location = self._expr_location(target, scanner, alias)
            if (
                not rmw
                and location is not None
                and isinstance(target, ast.Subscript)
                and value is not None
            ):
                rmw = self._value_reads_container(target.value, value)
        if location is None:
            return []
        return [Mutation(
            target.lineno, location, rmw, f"{_unparse_short(target)} = …"
        )]

    @staticmethod
    def _value_reads_container(container: ast.expr, value: ast.expr) -> bool:
        """Does the assigned value read the mutated container back?

        Catches ``d[k] = d[k] + 1`` and ``d[k] = d.get(k, 0) + 1`` — the
        check-then-update shapes ``concurrency.atomic-counters`` exists
        for.
        """
        container_src = ast.unparse(container)
        for node in ast.walk(value):
            if isinstance(node, ast.Subscript):
                if ast.unparse(node.value) == container_src:
                    return True
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "pop", "setdefault")
                and ast.unparse(node.func.value) == container_src
            ):
                return True
        return False

    def _global_location(self, root: str) -> str | None:
        """``root`` if it is a thread-shared global, else ``None``.

        Anything reached through a ``threading.local()`` global is the
        calling thread's own (``cell = _LOCAL.cell; cell[k] += 1``), so
        it is treated like a local.
        """
        if root.startswith("global:") and root not in self.thread_locals:
            return root
        return None

    def _expr_location(
        self, expr: ast.expr, scanner, alias: dict[str, str]
    ) -> str | None:
        """Location id an expression denotes, or ``None`` (local/fresh)."""
        info = scanner.info
        if isinstance(expr, ast.Subscript):
            return self._expr_location(expr.value, scanner, alias)
        if isinstance(expr, ast.Name):
            if expr.id in alias:
                return alias[expr.id]
            root, _ = scanner._name_root_type(expr.id)
            return self._global_location(root)
        if isinstance(expr, ast.Attribute):
            base = expr.value
            if (
                isinstance(base, ast.Name)
                and base.id == info.self_name
                and info.cls is not None
            ):
                owner = self.owner_class(info.cls, expr.attr)
                return f"field:{owner}.{expr.attr}"
            # A field of an object whose class the chain resolves to
            # (``self.plan.root``, a typed parameter's ``p.x``) is that
            # class's field, wherever the write happens.
            _, base_type = scanner._resolve_chain(base)
            if base_type is not None and base_type in self.codebase.classes():
                owner = self.owner_class(base_type, expr.attr)
                return f"field:{owner}.{expr.attr}"
            root, _ = scanner._resolve_chain(expr)
            return self._global_location(root)
        return None

    def _lock_of(
        self, expr: ast.expr, scanner, alias: dict[str, str]
    ) -> str | None:
        """The lock id a ``with`` context expression acquires, if any."""
        if isinstance(expr, (ast.Name, ast.Attribute)):
            location = self._expr_location(expr, scanner, alias)
            if location in self.module_locks or location in self.field_locks:
                return location
            return None
        site = scanner.sites.get(expr)
        if site is not None and site.target is not None:
            return self.lock_accessors.get(site.target)
        return None

    # -- reachability ------------------------------------------------------

    def _thread_roots(self) -> list[str]:
        patterns = getattr(self.config, "thread_roots", ())
        names = sorted(self.graph.functions)
        roots: list[str] = []
        for pattern in patterns:
            roots.extend(
                name
                for name in names
                if fnmatch.fnmatchcase(name, pattern)
            )
        return sorted(set(roots))

    def _fork_roots(self) -> list[str]:
        from repro.analysis.effectrules import WorkerIsolationChecker

        return [
            root
            for root in WorkerIsolationChecker._task_roots(self.config)
            if root in self.graph.functions
        ]

    # -- sharing -----------------------------------------------------------

    def _shared_classes(self) -> set[str]:
        classes = self.codebase.classes()
        shared = {
            cls
            for cls in getattr(self.config, "thread_shared_classes", ())
            if cls in classes
        }
        for qualname in sorted(self.thread_reachable):
            info = self.graph.functions[qualname]
            if not _is_lru_cached(info.node):
                continue
            module = self.codebase.modules[info.module]
            returned = self.graph.resolve_annotation(
                module, info.node.returns
            )
            if returned is not None:
                shared.add(returned)
        # Close over field-annotation types and subclasses: anything a
        # shared object holds (or any subtype standing in for it) is
        # reachable from the same ≥ 2 threads.

        def held_or_derived(cls: str) -> list[str]:
            grown = set(self.graph.attr_types.get(cls, {}).values())
            grown |= self.codebase.subclasses(cls)
            return sorted(grown & classes.keys())

        return set(reach(sorted(shared), held_or_derived))

    def is_thread_shared(self, location: str) -> bool:
        if location.startswith("global:"):
            return True
        if location.startswith("field:"):
            cls, _, _attr = location[len("field:"):].rpartition(".")
            # Fields file under their base-most declaring class
            # (owner_class), so the write may land on any subclass.
            owners = {cls} | self.codebase.subclasses(cls)
            return not self.shared_classes.isdisjoint(owners)
        return False

    def describe(self, location: str) -> str:
        prefix = self.config.package + "."
        if location.startswith("global:"):
            dotted = location[len("global:"):]
            if dotted.startswith(prefix):
                dotted = dotted[len(prefix):]
            return f"module-level {dotted}"
        dotted = location[len("field:"):]
        if dotted.startswith(prefix):
            dotted = dotted[len(prefix):]
        return f"field {dotted}"

    # -- lock discipline ---------------------------------------------------

    def _must_hold(self) -> dict[str, frozenset[str]]:
        """Locks held on *every* path into each reachable function."""
        reachable = sorted(self.thread_reachable | self.fork_reachable)
        roots = set(self._thread_roots()) | set(self._fork_roots())
        held = dict.fromkeys(sorted(roots), frozenset())

        def enter_callees(caller: str) -> bool:
            base = held.get(caller)
            if base is None:
                return False
            changed = False
            facts = self.facts[caller]
            for site in self.graph.scans[caller].calls:
                at_site = base | {
                    acq.lock
                    for acq in facts.acquisitions
                    if acq.line < site.line <= acq.end_line
                }
                for callee, _ in self.analysis._callee_summary(site):
                    if callee not in self.facts or callee in roots:
                        continue  # a root can be entered lock-free
                    previous = held.get(callee)
                    merged = at_site if previous is None else previous & at_site
                    if merged != previous:
                        held[callee] = merged
                        changed = True
            return changed

        until_stable(reachable, enter_callees)
        return held

    def guards_at(self, qualname: str, line: int) -> frozenset[str]:
        """Locks provably held at ``line`` inside ``qualname``."""
        facts = self.facts[qualname]
        held = set(self.held_entry.get(qualname, frozenset()))
        for acq in facts.acquisitions:
            if acq.line < line <= acq.end_line:
                held.add(acq.lock)
        return frozenset(held)

    def lock_order_edges(self) -> dict[tuple[str, str], tuple[str, int]]:
        """(held, acquired) lock pairs with one witness site each."""
        acquired_closure: dict[str, frozenset[str]] = {
            qualname: frozenset(
                acq.lock for acq in facts.acquisitions
            )
            for qualname, facts in self.facts.items()
        }

        def absorb_callees(qualname: str) -> bool:
            grown = acquired_closure[qualname].union(*(
                acquired_closure.get(callee, frozenset())
                for callee in self.analysis.callees(qualname)
            ))
            if grown == acquired_closure[qualname]:
                return False
            acquired_closure[qualname] = grown
            return True

        until_stable(sorted(self.facts), absorb_callees)
        edges: dict[tuple[str, str], tuple[str, int]] = {}

        def record(held: str, taken: str, qualname: str, line: int) -> None:
            if held != taken:
                edges.setdefault((held, taken), (qualname, line))

        for qualname in sorted(self.facts):
            facts = self.facts[qualname]
            entry = self.held_entry.get(qualname, frozenset())
            for acq in facts.acquisitions:
                for outer in sorted(entry):
                    record(outer, acq.lock, qualname, acq.line)
                for other in facts.acquisitions:
                    if acq.line < other.line <= acq.end_line:
                        record(acq.lock, other.lock, qualname, other.line)
            for site in self.graph.scans[qualname].calls:
                held_here = entry | {
                    acq.lock
                    for acq in facts.acquisitions
                    if acq.line < site.line <= acq.end_line
                }
                if not held_here:
                    continue
                for callee, _ in self.analysis._callee_summary(site):
                    for taken in sorted(
                        acquired_closure.get(callee, frozenset())
                    ):
                        for outer in sorted(held_here):
                            record(outer, taken, qualname, site.line)
        return edges

    def _collect_resource_uses(self) -> None:
        """Attach resource-use facts to fork-reachable functions."""
        if not self.resources:
            return
        for qualname in sorted(self.fork_reachable):
            facts = self.facts[qualname]
            scanner = self.graph.scanners[qualname]
            uses: dict[str, ResourceUse] = {}
            for node in scanner.nodes:
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                    getattr(node, "ctx", None), ast.Load
                ):
                    location = self._expr_location(node, scanner, {})
                    if location in self.resources and location not in uses:
                        uses[location] = ResourceUse(
                            node.lineno, location, _unparse_short(node)
                        )
            for acq in facts.acquisitions:
                if acq.lock in self.resources and acq.lock not in uses:
                    uses[acq.lock] = ResourceUse(
                        acq.line, acq.lock, "with-lock region"
                    )
            if uses:
                self.facts[qualname] = FunctionFacts(
                    qualname=facts.qualname,
                    mutations=facts.mutations,
                    acquisitions=facts.acquisitions,
                    resource_uses=tuple(
                        sorted(
                            uses.values(), key=lambda u: (u.line, u.binding)
                        )
                    ),
                )


def concurrency_for(
    codebase: Codebase, config: LintConfig
) -> ConcurrencyAnalysis:
    """One shared :class:`ConcurrencyAnalysis` per (codebase, config)."""
    cached = getattr(codebase, "_concurrency_analysis", None)
    if cached is not None and cached.config is config:
        return cached
    analysis = ConcurrencyAnalysis(codebase, config)
    codebase._concurrency_analysis = analysis
    return analysis


# ---------------------------------------------------------------------------
# Rules.


_CTOR_NAMES = ("__init__", "__post_init__")


def _module_of(codebase: Codebase, analysis: ConcurrencyAnalysis, qualname):
    return codebase.modules[analysis.graph.functions[qualname].module]


class SharedStateRaceChecker(Checker):
    name = "concurrency.shared-state-race"
    description = (
        "thread-reachable code may not write thread-shared state "
        "(module globals, shared-class fields) outside a lock region"
    )

    def check(
        self, codebase: Codebase, config: LintConfig
    ) -> Iterator[Finding]:
        conc = concurrency_for(codebase, config)
        counters = set(getattr(config, "counter_modules", ()))
        for qualname in sorted(conc.thread_reachable):
            info = conc.graph.functions[qualname]
            if info.name in _CTOR_NAMES:
                continue  # construction precedes sharing
            if info.module in counters:
                continue  # concurrency.atomic-counters owns these
            for mutation in conc.facts[qualname].mutations:
                if not conc.is_thread_shared(mutation.location):
                    continue
                if conc.guards_at(qualname, mutation.line):
                    continue
                yield self.finding(
                    codebase,
                    _module_of(codebase, conc, qualname),
                    mutation.line,
                    f"unsynchronized write to thread-shared "
                    f"{conc.describe(mutation.location)} in {info.name}() "
                    f"({mutation.detail}); reachable via "
                    f"{conc.analysis.chain(qualname, conc.thread_parents)}",
                    hint=(
                        "guard the write with a lock (with <lock>: …), "
                        "aggregate per-thread and merge under one, or — "
                        "for a genuinely benign grow-only site — pin with "
                        "# repro-lint: allow[concurrency.shared-state-race] "
                        "and a reason"
                    ),
                )


class GuardedByChecker(Checker):
    name = "concurrency.guarded-by"
    description = (
        "a location guarded by a lock anywhere must be guarded "
        "everywhere, and lock acquisition order must be acyclic"
    )

    def check(
        self, codebase: Codebase, config: LintConfig
    ) -> Iterator[Finding]:
        conc = concurrency_for(codebase, config)
        yield from self._inconsistent_guards(codebase, conc)
        yield from self._lock_cycles(codebase, conc)

    def _inconsistent_guards(
        self, codebase: Codebase, conc: ConcurrencyAnalysis
    ) -> Iterator[Finding]:
        #: location → [(qualname, mutation, guards)]
        events: dict[str, list[tuple[str, Mutation, frozenset[str]]]] = {}
        for qualname in sorted(conc.facts):
            info = conc.graph.functions[qualname]
            if info.name in _CTOR_NAMES:
                continue
            for mutation in conc.facts[qualname].mutations:
                guards = conc.guards_at(qualname, mutation.line)
                events.setdefault(mutation.location, []).append(
                    (qualname, mutation, guards)
                )
        for location in sorted(events):
            sites = events[location]
            guarded = [s for s in sites if s[2]]
            unguarded = [s for s in sites if not s[2]]
            if guarded and unguarded:
                witness_fn, witness_mutation, witness_guards = guarded[0]
                lock = sorted(witness_guards)[0]
                witness_info = conc.graph.functions[witness_fn]
                for qualname, mutation, _ in unguarded:
                    info = conc.graph.functions[qualname]
                    yield self.finding(
                        codebase,
                        _module_of(codebase, conc, qualname),
                        mutation.line,
                        f"{conc.describe(location)} is written under "
                        f"{conc.describe(lock)} in {witness_info.name}() "
                        f"but unguarded here in {info.name}() "
                        f"({mutation.detail})",
                        hint=(
                            "GuardedBy is all-or-nothing: take the same "
                            "lock here, or drop the partial locking and "
                            "pin the site with a reason"
                        ),
                    )
            elif guarded:
                common = frozenset.intersection(*(s[2] for s in guarded))
                if not common:
                    for qualname, mutation, guards in guarded:
                        info = conc.graph.functions[qualname]
                        yield self.finding(
                            codebase,
                            _module_of(codebase, conc, qualname),
                            mutation.line,
                            f"{conc.describe(location)} is written under "
                            f"different locks at its sites "
                            f"({', '.join(sorted(conc.describe(g) for g in guards))} "
                            f"here in {info.name}()); no common lock "
                            f"protects the location",
                            hint=(
                                "pick one lock for the location and take "
                                "it at every write"
                            ),
                        )

    def _lock_cycles(
        self, codebase: Codebase, conc: ConcurrencyAnalysis
    ) -> Iterator[Finding]:
        edges = conc.lock_order_edges()
        adjacency: dict[str, set[str]] = {}
        for held, taken in edges:
            adjacency.setdefault(held, set()).add(taken)
        seen_cycles: set[tuple[str, ...]] = set()
        for start in sorted(adjacency):
            stack = [(start, (start,))]
            while stack:
                node, path = stack.pop()
                for nxt in sorted(adjacency.get(node, ())):
                    if nxt == start:
                        rotation = min(
                            tuple(path[i:] + path[:i])
                            for i in range(len(path))
                        )
                        if rotation in seen_cycles:
                            continue
                        seen_cycles.add(rotation)
                        witness_fn, witness_line = edges[(node, start)]
                        cycle_text = " → ".join(
                            conc.describe(lock)
                            for lock in (*path, start)
                        )
                        yield self.finding(
                            codebase,
                            _module_of(codebase, conc, witness_fn),
                            witness_line,
                            f"lock-order cycle: {cycle_text}",
                            hint=(
                                "impose one global acquisition order for "
                                "these locks (sort call sites so every "
                                "path takes them in the same order)"
                            ),
                        )
                    elif nxt not in path:
                        stack.append((nxt, path + (nxt,)))


class ForkSafetyChecker(Checker):
    name = "concurrency.fork-safety"
    description = (
        "locks, sockets, and sqlite connections used in fork-reachable "
        "code need a per-pid reconnect guard"
    )

    def check(
        self, codebase: Codebase, config: LintConfig
    ) -> Iterator[Finding]:
        conc = concurrency_for(codebase, config)
        for qualname in sorted(conc.fork_reachable):
            info = conc.graph.functions[qualname]
            for use in conc.facts[qualname].resource_uses:
                if use.binding in conc.pid_guarded:
                    continue
                ctor = conc.resources[use.binding]
                yield self.finding(
                    codebase,
                    _module_of(codebase, conc, qualname),
                    use.line,
                    f"fork-unsafe resource {conc.describe(use.binding)} "
                    f"(built by {ctor}) is used in fork-reachable "
                    f"{info.name}() without a per-pid guard; reachable "
                    f"via {conc.analysis.chain(qualname, conc.fork_parents)}",
                    hint=(
                        "a forked worker inherits the parent's handle "
                        "(a held lock stays held forever; sockets and "
                        "sqlite connections share file descriptors); "
                        "compare os.getpid() and rebuild the resource "
                        "like SqliteBackend._connection, or pin with a "
                        "reason"
                    ),
                )


class AtomicCountersChecker(Checker):
    name = "concurrency.atomic-counters"
    description = (
        "read-modify-write on counter-module globals must happen "
        "inside a lock region"
    )

    def check(
        self, codebase: Codebase, config: LintConfig
    ) -> Iterator[Finding]:
        conc = concurrency_for(codebase, config)
        counters = set(getattr(config, "counter_modules", ()))
        if not counters:
            return
        for qualname in sorted(conc.facts):
            info = conc.graph.functions[qualname]
            if info.module not in counters:
                continue
            for mutation in conc.facts[qualname].mutations:
                if not mutation.rmw:
                    continue
                if not mutation.location.startswith("global:"):
                    continue
                if conc.guards_at(qualname, mutation.line):
                    continue
                yield self.finding(
                    codebase,
                    _module_of(codebase, conc, qualname),
                    mutation.line,
                    f"read-modify-write on counter global "
                    f"{conc.describe(mutation.location)} outside a lock "
                    f"region in {info.name}() ({mutation.detail})",
                    hint=(
                        "two daemon threads interleave the read and the "
                        "write and one increment is lost; wrap the update "
                        "in the module's pid-guarded lock (with _lock(): …)"
                    ),
                )
