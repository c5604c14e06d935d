"""Project-wide call-graph construction over the :class:`Codebase` index.

The effect analyzer (:mod:`repro.analysis.effects`) needs three things a
per-module AST walk cannot give it: *who calls whom* across module
boundaries, *what object a mutation lands on* (the receiver of an
``x.append(...)`` may be a fresh local, a parameter, ``self``-reachable
state, or a module global — only the last three are effects), and *which
module-level bindings are ever mutated* (reading a constant table is
pure; reading a dict some other function writes is not).  This module
answers all three with a purely syntactic pass:

* every top-level function and method gets a :class:`FunctionInfo`;
* each body is scanned once into a :class:`FunctionScan`: call sites
  with resolved targets where the receiver's type can be inferred
  (annotated dataclass fields, ``__init__`` assignments from annotated
  parameters or constructor calls, local aliases, annotated locals),
  store sites and module-global reads, each tagged with a *root*
  describing where the object came from.  The scanner is the one call
  resolver: the id-domain flow and the race analysis read its sites
  and its executed nodes rather than resolving or walking again;
* nested functions and lambdas are absorbed into their enclosing
  function — their statements contribute to the outer scan, and their
  parameters become plain locals.  A nested ``def`` runs when it is
  called, not when it is defined: a closure the enclosing function
  only returns (a factory's product) never runs there, so its body is
  left out of the scan.  Whoever calls the returned closure does so
  through a dynamic call, which the effect lattice already scores as
  ``unknown`` at that call site.

Roots form a tiny grammar (see :data:`ROOT_KINDS`): ``self``,
``param:<name>``, ``local``, ``fresh`` (constructed here),
``global:<dotted>`` / ``class:<dotted>`` / ``func:<dotted>`` /
``module:<dotted>`` (module-scope bindings), ``external:<dotted>``
(stdlib / builtin), and ``unknown``.  Resolution is best-effort and
deterministic; anything dynamic degrades to ``unknown`` and the effect
lattice treats it as its top element.
"""

from __future__ import annotations

import ast
import builtins
import re
from dataclasses import dataclass, field, replace

from repro.analysis.framework import Codebase, SourceModule, pin_lines

__all__ = [
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "FunctionScan",
    "GlobalRead",
    "ROOT_KINDS",
    "StoreSite",
]

#: The root grammar for receivers/targets, documented for rule authors.
ROOT_KINDS = (
    "self", "param:", "local", "fresh", "global:", "class:", "func:",
    "module:", "external:", "unknown",
)

_BUILTIN_NAMES = frozenset(dir(builtins))

#: ``# repro-lint: effects[pure] reason`` on a ``def`` line, or on a
#: comment line of its own above it, pins the function's summary,
#: bypassing inference (trusted declaration).
_DECLARED_RE = re.compile(r"repro-lint:\s*effects\[([^\]]*)\]")

#: Constructors whose module-level results are mutable containers.
_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "Counter", "OrderedDict",
})


@dataclass(frozen=True)
class FunctionInfo:
    """One analysed function or method."""

    qualname: str  # "repro.fc.sweep.SweepProgram.evaluate"
    module: str
    cls: str | None  # owning class qualname, None for module functions
    name: str
    line: int
    params: tuple[str, ...]
    self_name: str | None  # first parameter for bound methods
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(repr=False)


@dataclass(frozen=True)
class CallSite:
    """One call expression, with best-effort resolution."""

    line: int
    col: int
    target: str | None = None  # qualname of a codebase function/class
    external: str | None = None  # dotted stdlib/builtin name
    method: str | None = None  # attribute name for unresolved method calls
    receiver: str | None = None  # root of the receiver object, if any
    constructor: bool = False
    display: str = ""  # short source-ish text for messages
    arg_roots: tuple[str, ...] = ()  # roots of positional arguments
    kw_roots: tuple[tuple[str, str], ...] = ()  # (keyword, root) pairs


@dataclass(frozen=True)
class StoreSite:
    """One assignment/deletion whose target is not a plain local."""

    line: int
    root: str
    detail: str


@dataclass(frozen=True)
class GlobalRead:
    """A read of a module-level data binding."""

    line: int
    dotted: str


@dataclass(frozen=True)
class FunctionScan:
    """Everything the effect pass needs to know about one body."""

    qualname: str
    calls: tuple[CallSite, ...]
    stores: tuple[StoreSite, ...]
    global_reads: tuple[GlobalRead, ...]
    declared: frozenset[str] | None  # pinned summary, or None to infer


def _unparse_short(node: ast.AST, limit: int = 48) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover — unparse is total on 3.10+
        text = "<expr>"
    return text if len(text) <= limit else text[: limit - 1] + "…"


def _escaping_defs(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Nested defs of ``node`` whose body never runs inside ``node``.

    A nested def runs when it is called.  If every reference to its name
    outside its own body is the value of a ``return`` statement, the
    enclosing function hands the closure out without calling it (or
    passing it to a callee that might).  A def that is called, passed
    as an argument, stored or never referenced at all does not escape
    and stays part of the enclosing scan.
    """
    nested = [
        child
        for child in ast.walk(node)
        if child is not node
        and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    escaping = []
    for inner in nested:
        own = {id(n) for n in ast.walk(inner)}
        returned: set[int] = set()
        loads: list[ast.Name] = []
        for child in ast.walk(node):
            if id(child) in own:
                continue
            if (
                isinstance(child, ast.Return)
                and isinstance(child.value, ast.Name)
                and child.value.id == inner.name
            ):
                returned.add(id(child.value))
            elif (
                isinstance(child, ast.Name)
                and child.id == inner.name
                and isinstance(child.ctx, ast.Load)
            ):
                loads.append(child)
        if loads and all(id(load) in returned for load in loads):
            escaping.append(inner)
    return escaping


def bound_name(node: ast.Assign | ast.AnnAssign) -> str:
    """The local a single-name binding in ``name_assignments`` binds."""
    target = node.targets[0] if isinstance(node, ast.Assign) else node.target
    return target.id


def _is_staticmethod(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "staticmethod":
            return True
    return False


def _param_names(args: ast.arguments) -> tuple[str, ...]:
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names)


def _mutable_module_value(node: ast.expr) -> bool:
    """Is a module-level binding's value a mutable container?"""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        target = node.func
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        return name in _MUTABLE_CALLS
    return False


class CallGraph:
    """The project-wide function index plus per-function scans."""

    def __init__(self, codebase: Codebase) -> None:
        self.codebase = codebase
        self.functions: dict[str, FunctionInfo] = {}
        #: class qualname → {method name → function qualname}
        self.class_methods: dict[str, dict[str, str]] = {}
        #: class qualname → {attribute → class qualname}
        self.attr_types: dict[str, dict[str, str]] = {}
        #: dotted module-level data binding → value-is-mutable
        self.data_bindings: dict[str, bool] = {}
        self.scans: dict[str, FunctionScan] = {}
        #: qualname → the scanner that produced its scan; the race
        #: analysis reads its name roots and executable nodes.
        self.scanners: dict[str, _Scanner] = {}
        #: dotted data bindings some function stores into
        self.mutated_globals: set[str] = set()
        self._collect()
        self._infer_attr_types()
        for qualname in sorted(self.functions):
            scanner = _Scanner(self, self.functions[qualname])
            self.scanners[qualname] = scanner
            self.scans[qualname] = scanner.scan()
        for scan in self.scans.values():
            for store in scan.stores:
                if store.root.startswith("global:"):
                    self.mutated_globals.add(store.root[len("global:"):])

    # -- index construction ------------------------------------------------

    def _collect(self) -> None:
        for module in self.codebase.iter_modules():
            for statement in module.tree.body:
                if isinstance(
                    statement, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    self._register(module, statement, cls=None)
                elif isinstance(statement, ast.ClassDef):
                    cls = f"{module.name}.{statement.name}"
                    for child in statement.body:
                        if isinstance(
                            child, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            self._register(module, child, cls=cls)
                elif isinstance(statement, ast.Assign):
                    for target in statement.targets:
                        if isinstance(target, ast.Name):
                            self.data_bindings[
                                f"{module.name}.{target.id}"
                            ] = _mutable_module_value(statement.value)
                elif isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    if statement.value is not None:
                        self.data_bindings[
                            f"{module.name}.{statement.target.id}"
                        ] = _mutable_module_value(statement.value)

    def _register(
        self,
        module: SourceModule,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: str | None,
    ) -> None:
        qualname = f"{cls or module.name}.{node.name}"
        params = _param_names(node.args)
        self_name = None
        if cls is not None and params and not _is_staticmethod(node):
            self_name = params[0]
            params = params[1:]
        self.functions[qualname] = FunctionInfo(
            qualname=qualname,
            module=module.name,
            cls=cls,
            name=node.name,
            line=node.lineno,
            params=params,
            self_name=self_name,
            node=node,
        )
        if cls is not None:
            self.class_methods.setdefault(cls, {})[node.name] = qualname

    # -- attribute typing ---------------------------------------------------

    def resolve_annotation(
        self, module: SourceModule, node: ast.expr | None
    ) -> str | None:
        """The codebase class an annotation denotes, if any."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            # "X | None" — the optional part carries the type.
            left = self.resolve_annotation(module, node.left)
            return left or self.resolve_annotation(module, node.right)
        if isinstance(node, (ast.Name, ast.Attribute)):
            resolved = self.codebase.resolve_name(module, node)
            if resolved in self.codebase.classes():
                return resolved
        return None

    def _infer_attr_types(self) -> None:
        classes = self.codebase.classes()
        # Field annotations first, ctor assignments second: typing
        # ``self._cat_a = table_a.cat`` needs the *other* class's field
        # table to already exist.
        for qualname in sorted(classes):
            info = classes[qualname]
            module = self.codebase.modules.get(info.module)
            if module is None:
                continue
            table = self.attr_types.setdefault(qualname, {})
            for name, annotation_src, _line in info.fields:
                try:
                    annotation = ast.parse(annotation_src, mode="eval").body
                except SyntaxError:
                    continue
                resolved = self.resolve_annotation(module, annotation)
                if resolved is not None:
                    table[name] = resolved
        for qualname in sorted(classes):
            module = self.codebase.modules.get(classes[qualname].module)
            if module is None:
                continue
            table = self.attr_types[qualname]
            for ctor in ("__init__", "__post_init__"):
                fn = self.functions.get(f"{qualname}.{ctor}")
                if fn is not None:
                    self._attr_types_from_ctor(module, qualname, fn, table)

    def _attr_types_from_ctor(
        self,
        module: SourceModule,
        cls: str,
        fn: FunctionInfo,
        table: dict[str, str],
    ) -> None:
        annotations: dict[str, str] = {}
        for arg in fn.node.args.posonlyargs + fn.node.args.args + \
                fn.node.args.kwonlyargs:
            resolved = self.resolve_annotation(module, arg.annotation)
            if resolved is not None:
                annotations[arg.arg] = resolved
        for statement in ast.walk(fn.node):
            target = None
            value = None
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target, value = statement.targets[0], statement.value
            elif isinstance(statement, ast.AnnAssign):
                target = statement.target
                resolved = self.resolve_annotation(module, statement.annotation)
                if (
                    resolved is not None
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == fn.self_name
                ):
                    table.setdefault(target.attr, resolved)
                continue
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == fn.self_name
            ):
                continue
            if isinstance(value, ast.Name) and value.id in annotations:
                table.setdefault(target.attr, annotations[value.id])
            elif isinstance(value, ast.Call) and isinstance(
                value.func, (ast.Name, ast.Attribute)
            ):
                resolved = self.codebase.resolve_name(module, value.func)
                if resolved in self.codebase.classes():
                    table.setdefault(target.attr, resolved)
            elif isinstance(value, ast.Attribute):
                # ``self._cat_a = table_a.cat`` with an annotated param:
                # walk the chain through already-built field tables.
                chain: list[str] = []
                node = value
                while isinstance(node, ast.Attribute):
                    chain.append(node.attr)
                    node = node.value
                if isinstance(node, ast.Name) and node.id in annotations:
                    current: str | None = annotations[node.id]
                    for attr in reversed(chain):
                        current = self.attr_types.get(
                            current or "", {}
                        ).get(attr)
                        if current is None:
                            break
                    if current is not None:
                        table.setdefault(target.attr, current)

    # -- method resolution --------------------------------------------------

    def resolve_method(self, cls: str | None, name: str) -> str | None:
        """The defining function qualname for ``cls.name``, walking bases."""
        if not cls:
            return None
        for current in self.codebase.mro(cls):
            found = self.class_methods.get(current, {}).get(name)
            if found is not None:
                return found
        return None

    def declared_effects(
        self, module: SourceModule, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> frozenset[str] | None:
        for text in pin_lines(module, node.lineno):
            match = _DECLARED_RE.search(text)
            if match is not None:
                atoms = {
                    chunk.strip()
                    for chunk in match.group(1).split(",")
                    if chunk.strip()
                }
                atoms.discard("pure")
                return frozenset(atoms)
        return None


class _Scanner:
    """One pass over a function body, producing its :class:`FunctionScan`."""

    def __init__(self, graph: CallGraph, info: FunctionInfo) -> None:
        self.graph = graph
        self.info = info
        self.module = graph.codebase.modules[info.module]
        self.imports = graph.codebase.import_table(self.module)
        self.param_types: dict[str, str] = {}
        self.locals: set[str] = set()
        self.import_bound: set[str] = set()
        self.nested_defs: set[str] = set()
        self.declared_globals: set[str] = set()
        self.alias_root: dict[str, str] = {}
        self.alias_type: dict[str, str] = {}
        self.alias_callable: dict[str, tuple[str, str]] = {}
        self.nodes: list[ast.AST] = []
        #: single-name bindings (``x = …``, ``x: T = …``), in source order
        self.name_assignments: list[ast.Assign | ast.AnnAssign] = []
        #: each executed call → its site; the id-domain flow and the
        #: race analysis read call targets here instead of re-resolving
        self.sites: dict[ast.Call, CallSite] = {}

    # -- scanning -----------------------------------------------------------

    def scan(self) -> FunctionScan:
        node = self.info.node
        module = self.module
        ignore = self._ignored_ids(node)
        self.nodes = [
            child for child in ast.walk(node) if id(child) not in ignore
        ]
        self._collect_bindings(node)
        for arg in node.args.posonlyargs + node.args.args + \
                node.args.kwonlyargs:
            resolved = self.graph.resolve_annotation(module, arg.annotation)
            if resolved is not None and arg.arg != self.info.self_name:
                self.param_types[arg.arg] = resolved
        self._alias_pass()
        calls: list[CallSite] = []
        stores: list[StoreSite] = []
        reads: list[GlobalRead] = []
        for child in self.nodes:
            if isinstance(child, ast.Call):
                site = self._call_site(child)
                if site is not None:
                    if child.keywords:
                        site = replace(
                            site, kw_roots=self._kw_roots(child)
                        )
                    self.sites[child] = site
                    calls.append(site)
            elif isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                if isinstance(child, ast.AnnAssign) and child.value is None:
                    continue
                for target in targets:
                    stores.extend(self._store_sites(target))
            elif isinstance(child, ast.Delete):
                for target in child.targets:
                    stores.extend(self._store_sites(target))
            elif isinstance(child, ast.Global):
                for name in child.names:
                    stores.append(StoreSite(
                        child.lineno,
                        f"global:{module.name}.{name}",
                        f"global {name}",
                    ))
            elif isinstance(child, ast.Name) and isinstance(
                child.ctx, ast.Load
            ):
                root, _ = self._name_root_type(child.id)
                if root.startswith("global:"):
                    dotted = root[len("global:"):]
                    if dotted in self.graph.data_bindings:
                        reads.append(GlobalRead(child.lineno, dotted))
        key = lambda s: (s.line, getattr(s, "col", 0))
        return FunctionScan(
            qualname=self.info.qualname,
            calls=tuple(sorted(calls, key=lambda s: (s.line, s.col))),
            stores=tuple(sorted(stores, key=key)),
            global_reads=tuple(sorted(reads, key=key)),
            declared=self.graph.declared_effects(module, node),
        )

    def _ignored_ids(self, node: ast.FunctionDef) -> set[int]:
        """Subtrees that never execute inside the body: annotations,
        decorator lists, the outer function's own defaults, and the
        bodies of nested defs that only escape (see :func:`_escaping_defs`)."""
        ignore: set[int] = set()

        def drop(subtree: ast.AST | None) -> None:
            if subtree is not None:
                ignore.update(id(n) for n in ast.walk(subtree))

        for nested in _escaping_defs(node):
            for statement in nested.body:
                drop(statement)
        for child in ast.walk(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = child.args
                for arg in arguments.posonlyargs + arguments.args + \
                        arguments.kwonlyargs:
                    drop(arg.annotation)
                for arg in (arguments.vararg, arguments.kwarg):
                    if arg is not None:
                        drop(arg.annotation)
                drop(child.returns)
                for decorator in child.decorator_list:
                    drop(decorator)
                if child is node:
                    for default in arguments.defaults:
                        drop(default)
                    for default in arguments.kw_defaults:
                        drop(default)
            elif isinstance(child, ast.AnnAssign):
                drop(child.annotation)
        return ignore

    def _collect_bindings(self, node: ast.FunctionDef) -> None:
        self.locals.update(self.info.params)
        if self.info.self_name:
            self.locals.add(self.info.self_name)
        for child in self.nodes:
            if isinstance(child, ast.Name) and isinstance(
                child.ctx, (ast.Store, ast.Del)
            ):
                self.locals.add(child.id)
            elif isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and child is not node:
                self.nested_defs.add(child.name)
                self.locals.add(child.name)
                self.locals.update(_param_names(child.args))
            elif isinstance(child, ast.Lambda):
                self.locals.update(_param_names(child.args))
            elif isinstance(child, ast.ExceptHandler) and child.name:
                self.locals.add(child.name)
            elif isinstance(child, ast.Global):
                self.declared_globals.update(child.names)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                # Function-local imports bind locals, but the bound name
                # still *resolves* — the module import table covers every
                # import statement in the file, so a deferred
                # ``from repro.ef import equiv_k`` must not degrade its
                # call sites to dynamic "local" dispatch.
                for alias in child.names:
                    name = alias.asname or alias.name.split(".")[0]
                    self.locals.add(name)
                    self.import_bound.add(name)
        self.locals -= self.declared_globals

    def _alias_pass(self) -> None:
        self.name_assignments = sorted(
            (
                child
                for child in self.nodes
                if isinstance(child, ast.Assign)
                and len(child.targets) == 1
                and isinstance(child.targets[0], ast.Name)
                or isinstance(child, ast.AnnAssign)
                and child.value is not None
                and isinstance(child.target, ast.Name)
            ),
            key=lambda child: (child.lineno, child.col_offset),
        )
        for child in self.name_assignments:
            name = bound_name(child)
            value = child.value
            ctype = None
            if isinstance(value, (ast.Name, ast.Attribute, ast.Subscript)):
                root, ctype = self._resolve_chain(value)
                self.alias_root[name] = root
                callable_target = self._callable_of_chain(value)
                if callable_target is not None:
                    self.alias_callable[name] = callable_target
            elif isinstance(value, ast.Call):
                root, ctype = self._call_value(value)
                self.alias_root[name] = root
            if isinstance(child, ast.AnnAssign):
                # ``server: "ReproServer" = self.server`` — the
                # annotation types the local where the value cannot.
                declared = self.graph.resolve_annotation(
                    self.module, child.annotation
                )
                if declared is not None:
                    self.alias_root.setdefault(name, "local")
                    ctype = declared
            if ctype is not None:
                self.alias_type[name] = ctype

    # -- resolution ---------------------------------------------------------

    def _name_root_type(self, name: str) -> tuple[str, str | None]:
        if name == self.info.self_name:
            return "self", self.info.cls
        if name in self.param_types:
            return f"param:{name}", self.param_types[name]
        if name in self.info.params:
            return f"param:{name}", None
        if name in self.alias_root:
            return self.alias_root[name], self.alias_type.get(name)
        if name in self.import_bound:
            resolved = self._import_root(name)
            if resolved is not None:
                return resolved
        if name in self.locals:
            return "local", None
        graph = self.graph
        dotted = f"{self.module.name}.{name}"
        if dotted in graph.codebase.classes() and (
            graph.codebase.classes()[dotted].module == self.module.name
        ):
            return f"class:{dotted}", None
        if dotted in graph.functions:
            return f"func:{dotted}", None
        if dotted in graph.data_bindings:
            return f"global:{dotted}", None
        resolved = self._import_root(name)
        if resolved is not None:
            return resolved
        if name in _BUILTIN_NAMES:
            return f"external:{name}", None
        return "unknown", None

    def _import_root(self, name: str) -> tuple[str, str | None] | None:
        """Resolve an import-table name to its root, if present."""
        imported = self.imports.get(name)
        if imported is None:
            return None
        graph = self.graph
        if imported in graph.codebase.modules:
            return f"module:{imported}", None
        if imported in graph.codebase.classes():
            return f"class:{imported}", None
        if imported in graph.functions:
            return f"func:{imported}", None
        if imported in graph.data_bindings:
            return f"global:{imported}", None
        return f"external:{imported}", None

    def _resolve_chain(self, expr: ast.expr) -> tuple[str, str | None]:
        """(root, receiver class) for a Name/Attribute/Subscript chain."""
        steps: list[str | None] = []  # attr name, or None for a subscript
        node = expr
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            steps.append(node.attr if isinstance(node, ast.Attribute) else None)
            node = node.value
        steps.reverse()
        if isinstance(node, ast.Name):
            root, ctype = self._name_root_type(node.id)
        elif isinstance(node, ast.Call):
            root, ctype = self._call_value(node)
        else:
            return "unknown", None
        graph = self.graph
        for step in steps:
            if step is None:  # subscript: element type unknown
                ctype = None
                continue
            if root.startswith("module:"):
                dotted = f"{root[len('module:'):]}.{step}"
                if dotted in graph.codebase.modules:
                    root, ctype = f"module:{dotted}", None
                elif dotted in graph.codebase.classes():
                    root, ctype = f"class:{dotted}", None
                elif dotted in graph.functions:
                    root, ctype = f"func:{dotted}", None
                elif dotted in graph.data_bindings:
                    root, ctype = f"global:{dotted}", None
                else:
                    root, ctype = "unknown", None
                continue
            if root.startswith("external:"):
                root = f"external:{root[len('external:'):]}.{step}"
                ctype = None
                continue
            ctype = graph.attr_types.get(ctype or "", {}).get(step)
        return root, ctype

    def _callable_of_chain(
        self, expr: ast.expr
    ) -> tuple[str, str] | None:
        """(function qualname, receiver root) when a chain names a bound
        method or a function — supports ``intern = self.family.intern``."""
        if not isinstance(expr, ast.Attribute):
            if isinstance(expr, ast.Name):
                root, _ = self._name_root_type(expr.id)
                if root.startswith("func:"):
                    return root[len("func:"):], "local"
            return None
        base_root, base_type = self._resolve_chain(expr.value)
        if base_root.startswith("module:"):
            dotted = f"{base_root[len('module:'):]}.{expr.attr}"
            if dotted in self.graph.functions:
                return dotted, "local"
            return None
        target = self.graph.resolve_method(base_type, expr.attr)
        if target is not None:
            return target, base_root
        return None

    def _call_value(self, call: ast.Call) -> tuple[str, str | None]:
        """Root/type of a call *result* (for alias and chain bases)."""
        site = self.sites.get(call) or self._call_site(call)
        if site is not None and site.constructor and site.target:
            return "fresh", site.target
        if site is not None and site.target in self.graph.functions:
            # A factory with a class-valued return annotation types its
            # result: ``solver_for(w, v).duplicator_wins(...)`` resolves
            # through ``-> GameSolver``.  The root stays "local", not
            # "fresh" — a cached factory may hand back a shared object,
            # so mutations through the result are not absorbed as
            # construction-time initialisation.
            info = self.graph.functions[site.target]
            module = self.graph.codebase.modules[info.module]
            returned = self.graph.resolve_annotation(
                module, info.node.returns
            )
            if returned is not None:
                return "local", returned
        return "local", None

    # -- extraction ---------------------------------------------------------

    def _store_sites(self, target: ast.expr) -> list[StoreSite]:
        if isinstance(target, (ast.Tuple, ast.List)):
            out: list[StoreSite] = []
            for element in target.elts:
                out.extend(self._store_sites(element))
            return out
        if isinstance(target, ast.Starred):
            return self._store_sites(target.value)
        if isinstance(target, ast.Name):
            if target.id in self.declared_globals:
                return [StoreSite(
                    target.lineno,
                    f"global:{self.module.name}.{target.id}",
                    f"{target.id} = …",
                )]
            return []
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root, _ = self._resolve_chain(target.value)
            return [StoreSite(
                target.lineno, root, _unparse_short(target)
            )]
        return []

    def _arg_roots(self, call: ast.Call) -> tuple[str, ...]:
        roots = []
        for argument in call.args:
            node = argument.value if isinstance(
                argument, ast.Starred
            ) else argument
            if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)):
                roots.append(self._resolve_chain(node)[0])
            elif isinstance(node, ast.Call):
                roots.append(self._call_value(node)[0])
            else:
                roots.append("fresh")
        return tuple(roots)

    def _kw_roots(self, call: ast.Call) -> tuple[tuple[str, str], ...]:
        roots = []
        for keyword in call.keywords:
            if keyword.arg is None:
                continue  # **kwargs expansion — unmatchable
            node = keyword.value
            if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)):
                root, _ = self._resolve_chain(node)
                roots.append((keyword.arg, root))
            else:
                roots.append((keyword.arg, "fresh"))
        return tuple(roots)

    def _call_site(self, call: ast.Call) -> CallSite | None:
        func = call.func
        line, col = call.lineno, call.col_offset
        arg_roots = self._arg_roots(call)
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.nested_defs:
                return None  # absorbed into this scan
            if name in self.alias_callable:
                target, receiver = self.alias_callable[name]
                return CallSite(
                    line, col, target=target, receiver=receiver,
                    display=f"{name}()", arg_roots=arg_roots,
                )
            root, _ = self._name_root_type(name)
            return self._site_for_root(
                call, root, display=f"{name}()", arg_roots=arg_roots
            )
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if (
                isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
            ):
                target = None
                info = self.graph.codebase.classes().get(self.info.cls or "")
                if info is not None:
                    for base in info.bases:
                        target = self.graph.resolve_method(base, attr)
                        if target is not None:
                            break
                return CallSite(
                    line, col, target=target, method=attr, receiver="self",
                    display=f"super().{attr}()", arg_roots=arg_roots,
                )
            root, ctype = self._resolve_chain(func.value)
            display = f"{_unparse_short(func.value, 24)}.{attr}()"
            if root.startswith("module:"):
                dotted = f"{root[len('module:'):]}.{attr}"
                if dotted in self.graph.functions:
                    return CallSite(
                        line, col, target=dotted, display=display,
                        arg_roots=arg_roots,
                    )
                if dotted in self.graph.codebase.classes():
                    return CallSite(
                        line, col, target=dotted, constructor=True,
                        display=display, arg_roots=arg_roots,
                    )
                return CallSite(
                    line, col, method=attr, receiver=root, display=display,
                    arg_roots=arg_roots,
                )
            if root.startswith("class:"):
                cls = root[len("class:"):]
                target = self.graph.resolve_method(cls, attr)
                if target is not None:
                    # C.m(obj) — the receiver is the first argument.
                    receiver = arg_roots[0] if arg_roots else "unknown"
                    return CallSite(
                        line, col, target=target, receiver=receiver,
                        display=display, arg_roots=arg_roots[1:],
                    )
                return CallSite(
                    line, col, method=attr, receiver=root, display=display,
                    arg_roots=arg_roots,
                )
            if root.startswith("external:"):
                dotted = f"{root[len('external:'):]}.{attr}"
                receiver = None
                if dotted in ("object.__setattr__", "object.__delattr__"):
                    receiver = arg_roots[0] if arg_roots else "unknown"
                return CallSite(
                    line, col, external=dotted, receiver=receiver,
                    display=display, arg_roots=arg_roots,
                )
            if ctype is not None:
                target = self.graph.resolve_method(ctype, attr)
                if target is not None:
                    return CallSite(
                        line, col, target=target, receiver=root,
                        display=display, arg_roots=arg_roots,
                    )
            return CallSite(
                line, col, method=attr, receiver=root, display=display,
                arg_roots=arg_roots,
            )
        return CallSite(
            line, col, receiver="unknown",
            display=f"{_unparse_short(func, 24)}()", arg_roots=arg_roots,
        )

    def _site_for_root(
        self,
        call: ast.Call,
        root: str,
        display: str,
        arg_roots: tuple[str, ...],
    ) -> CallSite:
        line, col = call.lineno, call.col_offset
        if root.startswith("func:"):
            return CallSite(
                line, col, target=root[len("func:"):], display=display,
                arg_roots=arg_roots,
            )
        if root.startswith("class:"):
            return CallSite(
                line, col, target=root[len("class:"):], constructor=True,
                display=display, arg_roots=arg_roots,
            )
        if root.startswith("external:"):
            dotted = root[len("external:"):]
            receiver = None
            if dotted in ("setattr", "delattr"):
                receiver = arg_roots[0] if arg_roots else "unknown"
            return CallSite(
                line, col, external=dotted, receiver=receiver,
                display=display, arg_roots=arg_roots,
            )
        # Calling a parameter, a local value, or module data: dynamic.
        return CallSite(
            line, col, receiver=root if root != "local" else "unknown",
            display=display, arg_roots=arg_roots,
        )
