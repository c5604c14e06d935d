"""Id-domain flow analysis: which dense-int space does a value live in?

The fast path of this reproduction keeps almost everything as small
ints — interned factor gids (:class:`repro.kernel.sweep.SweepFamily`),
FO[EQ] interval ids, relation slot indices, bitset universes (big-int
masks over an intern table), shard lane indices, DFA state numbers.
Python cannot tell them apart, and the one real soundness hole shipped
so far (the PR-4 sweep pool escape) was exactly a cross-domain
confusion: candidate gids minted by pure regex/oracle pools were
witnessed without first intersecting with the word's member mask.

This module assigns every expression a small *id-domain* lattice
element and flows it through assignments, calls, returns, container
element types and comprehensions, on top of the PR-5 call graph
(:mod:`repro.analysis.callgraph`).  The lattice values are strings:

``plain``
    not an id (or the analysis lost track) — the bottom element.
``intern:<role>``
    a dense id minted by the intern table named ``<role>``
    (e.g. ``intern:sweep`` for :meth:`SweepFamily.intern` gids).
``interval``
    an FO[EQ] interval id (:mod:`repro.foeq.compiled`).
``slot``
    a relation slot index (:meth:`repro.fc.sweep._Compiler._slot`).
``shard-lane``
    a shard lane index (:mod:`repro.engine.shards`).
``dfa-state``
    a DFA state number (:mod:`repro.fcreg.automata`).
``bitset-universe:<role>``
    a bitset mask over ``<role>``'s id space that has been restricted
    to one word's member set (safe to witness from).
``bitset-pool:<role>``
    an *unrestricted* candidate mask over ``<role>``'s id space — it
    may contain ids that are not factors of the current word and must
    be intersected with a ``bitset-universe`` mask before any id is
    witnessed out of it (the PR-4 invariant).
``iter[<spec>]``
    a container whose elements carry ``<spec>`` (iteration, ``min``/
    ``max``/``next`` and positional subscripts unwrap it).
``map[<index>, <elem>]``
    a container that must be subscripted with ``<index>``-domain keys
    and yields ``<elem>``-domain values (e.g. a relation environment is
    ``map[slot, intern:sweep]``).

Domains enter the flow through ``# repro-lint: domain[...]`` pins:

* on (or on a comment line of its own just above) a ``def`` —
  ``domain[returns=<spec>, <param>=<spec>, ...] reason`` declares a
  producer or translator;
* on (or on a comment line of its own just above) an assignment —
  ``domain[<spec>] reason`` declares the bound local, ``self``
  attribute or module-level binding.

A pin trailing a code line applies to that line only.

``kernel/bitset.py`` additionally grows :func:`declare_universe`, the
one trusted mint for ``bitset-universe:<role>`` masks; the analysis
models it (plus ``from_ids`` / ``iter_ids`` / ``contains``) natively.

Four rules in :mod:`repro.analysis.domainrules` consume the typed
events this analysis records; everything un-pinned stays ``plain`` and
silent, so adoption is incremental.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.callgraph import FunctionInfo
from repro.analysis.effects import analysis_for as _effects_for
from repro.analysis.framework import (
    Codebase,
    LintConfig,
    SourceModule,
    pin_lines,
    until_stable,
)

__all__ = [
    "DomainAnalysis",
    "DomainEvent",
    "domains_for",
    "parse_spec",
]


PLAIN = "plain"

#: Scalar id domains that need no role suffix.
_SIMPLE = frozenset({"interval", "slot", "shard-lane", "dfa-state"})

#: Role-carrying scalar/mask domain prefixes.
_ROLED = ("intern:", "bitset-universe:", "bitset-pool:")

_PIN_MARK = re.compile(r"repro-lint:\s*domain\[")

#: Functions in ``config.bitset_modules`` the flow models natively.
_BITSET_FNS = frozenset(
    {"iter_ids", "from_ids", "contains", "count", "declare_universe"}
)

#: Builtins that return their (container) argument re-ordered/copied.
_PRESERVING_BUILTINS = frozenset(
    {"sorted", "list", "tuple", "set", "frozenset", "reversed", "iter"}
)

#: Builtins that pick one element out of a container argument.
_PICKING_BUILTINS = frozenset({"min", "max", "next"})


# ---------------------------------------------------------------------------
# Spec grammar.


def _split_top(text: str, sep: str = ",") -> list[str]:
    """Split on ``sep`` outside brackets (``map[a, b]`` stays whole)."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [part.strip() for part in parts if part.strip()]


def parse_spec(text: str) -> str | None:
    """Normalise one domain spec, or ``None`` if it is malformed."""
    text = text.strip()
    if text == PLAIN or text in _SIMPLE:
        return text
    for prefix in _ROLED:
        if text.startswith(prefix):
            role = text[len(prefix):]
            if role and re.fullmatch(r"[A-Za-z0-9_-]+", role):
                return text
            return None
    if text.startswith("iter[") and text.endswith("]"):
        inner = parse_spec(text[len("iter["):-1])
        return None if inner is None else f"iter[{inner}]"
    if text.startswith("map[") and text.endswith("]"):
        parts = _split_top(text[len("map["):-1])
        if len(parts) != 2:
            return None
        index, elem = parse_spec(parts[0]), parse_spec(parts[1])
        if index is None or elem is None:
            return None
        return f"map[{index}, {elem}]"
    return None


def _is_mask(spec: str) -> bool:
    return spec.startswith(("bitset-universe:", "bitset-pool:"))


def _is_universe(spec: str) -> bool:
    return spec.startswith("bitset-universe:")


def _is_scalar_id(spec: str) -> bool:
    return spec in _SIMPLE or spec.startswith("intern:")


def _role(spec: str) -> str:
    return spec.split(":", 1)[1]


def _elem_of(spec: str) -> str:
    """Element domain of a container spec (``plain`` otherwise)."""
    if spec.startswith("iter[") and spec.endswith("]"):
        return spec[len("iter["):-1]
    if spec.startswith("map[") and spec.endswith("]"):
        return _split_top(spec[len("map["):-1])[1]
    return PLAIN


def _index_of(spec: str) -> str | None:
    """Declared index domain of a ``map[...]`` spec, else ``None``."""
    if spec.startswith("map[") and spec.endswith("]"):
        return _split_top(spec[len("map["):-1])[0]
    return None


def _join(left: str, right: str) -> str:
    """Control-flow join: equal domains survive, and a pool meeting its
    own universe stays a pool (either path may hand back the
    unrestricted mask); anything else drops to ``plain``."""
    if left == right:
        return left
    if _is_mask(left) and _is_mask(right) and _role(left) == _role(right):
        return f"bitset-pool:{_role(left)}"
    return PLAIN


def _rises(previous: str, inferred: str) -> bool:
    """Is ``previous`` → ``inferred`` a step up the return inference's
    order: ``plain`` below every domain, a pool below its universe?"""
    return previous == PLAIN or (
        previous.startswith("bitset-pool:")
        and inferred == f"bitset-universe:{_role(previous)}"
    )


# ---------------------------------------------------------------------------
# Pins.


def _pin_entries(line: str) -> str | None:
    """The bracketed body of a ``domain[...]`` pin on ``line``, if any."""
    match = _PIN_MARK.search(line)
    if match is None:
        return None
    depth, start = 1, match.end()
    for i in range(start, len(line)):
        if line[i] == "[":
            depth += 1
        elif line[i] == "]":
            depth -= 1
            if depth == 0:
                return line[start:i]
    return None


@dataclass(frozen=True)
class DomainEvent:
    """One domain violation candidate recorded during the flow walk."""

    kind: str  # "mix" | "bitset" | "escape" | "slot" | "pin"
    line: int
    message: str


@dataclass
class _Flow:
    """Per-function flow result."""

    returns: str = PLAIN
    events: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# The per-function abstract interpreter.


class _FlowScan:
    """One walk over a function body, tracking local id domains.

    Flow-sensitivity is per-statement in source order, over one map
    (local name → domain); the recording run walks the body twice so
    loop-carried domains stabilise.  An ``if``'s two branches start
    from the same environment and their exits are joined name by name
    (:func:`_join`); loops, ``try`` and ``with`` bodies share one
    environment (last writer wins) — sound enough for a lint whose
    rules only fire on *declared* domains.  Call targets and receiver
    classes are the call graph's: the function's scanner
    (:attr:`CallGraph.scanners`) resolved them when it scanned the body.
    """

    def __init__(self, analysis: "DomainAnalysis", info: FunctionInfo):
        self.analysis = analysis
        self.graph = analysis.graph
        self.scanner = analysis.graph.scanners[info.qualname]
        self.info = info
        self.module = analysis.codebase.modules[info.module]
        self.env: dict[str, str] = {}
        self.events: list[DomainEvent] = []
        self.return_domain: str | None = None
        self.record = False

    # -- entry ----------------------------------------------------------

    def run(self, record: bool) -> _Flow:
        self.env.update(self.analysis.param_pins.get(self.info.qualname, {}))
        passes = 2 if record else 1
        for final in range(passes):
            self.record = record and final == passes - 1
            self.events = []
            self.return_domain = None
            for stmt in self.info.node.body:
                self._stmt(stmt)
        return _Flow(self.return_domain or PLAIN, self.events)

    # -- events ----------------------------------------------------------

    def _event(self, kind: str, node: ast.AST, message: str) -> None:
        if self.record:
            self.events.append(DomainEvent(kind, node.lineno, message))

    @staticmethod
    def _src(node: ast.AST) -> str:
        try:
            text = ast.unparse(node)
        except Exception:
            return "<expr>"
        return text if len(text) <= 60 else text[:57] + "..."

    # -- statements -------------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._dom(stmt.value)
            for target in stmt.targets:
                self._assign(target, value)
        elif isinstance(stmt, ast.AnnAssign):
            self._assign(stmt.target, self._dom(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                current = self.env.get(stmt.target.id, PLAIN)
                combined = self._binop_domain(
                    stmt.op, current, self._dom(stmt.value), stmt
                )
                self.env[stmt.target.id] = combined
            else:
                self._dom(stmt.value)
                if isinstance(stmt.target, ast.Subscript):
                    self._subscript_domain(stmt.target, store=True)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._dom(stmt.value)
                if self.return_domain is None:
                    self.return_domain = value
                else:
                    self.return_domain = _join(self.return_domain, value)
        elif isinstance(stmt, ast.For):
            iterable = self._dom(stmt.iter)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = _elem_of(iterable)
            for child in stmt.body + stmt.orelse:
                self._stmt(child)
        elif isinstance(stmt, ast.While):
            self._dom(stmt.test)
            for child in stmt.body + stmt.orelse:
                self._stmt(child)
        elif isinstance(stmt, ast.If):
            self._dom(stmt.test)
            entry = dict(self.env)
            for child in stmt.body:
                self._stmt(child)
            taken, self.env = self.env, entry
            for child in stmt.orelse:
                self._stmt(child)
            for name in sorted(taken.keys() | self.env.keys()):
                self.env[name] = _join(
                    self._lookup(taken, name), self._lookup(self.env, name)
                )
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._dom(item.context_expr)
            for child in stmt.body:
                self._stmt(child)
        elif isinstance(stmt, ast.Try):
            for child in stmt.body:
                self._stmt(child)
            for handler in stmt.handlers:
                for child in handler.body:
                    self._stmt(child)
            for child in stmt.orelse + stmt.finalbody:
                self._stmt(child)
        elif isinstance(stmt, ast.Expr):
            self._dom(stmt.value)
        elif isinstance(stmt, (ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._dom(child)
        # Nested defs/classes/imports don't carry domains across.

    def _assign(self, target: ast.expr, value: str) -> None:
        if isinstance(target, ast.Name):
            pinned = self.analysis.local_pin(self.module, target.lineno)
            self.env[target.id] = pinned if pinned is not None else value
        elif isinstance(target, ast.Subscript):
            elem = self._subscript_domain(target, store=True)
            if (
                self.record
                and elem != PLAIN
                and value != PLAIN
                and not value.startswith(("iter[", "map["))
                and value != elem
            ):
                self._event(
                    "mix",
                    target,
                    f"stores a {value} id into a container declared to "
                    f"hold {elem} ({self._src(target)})",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self.env[element.id] = PLAIN

    # -- expression domains ------------------------------------------------

    def _lookup(self, env: dict[str, str], name: str) -> str:
        spec = env.get(name)
        if spec is not None:
            return spec
        return self.analysis.global_domain(self.module, name)

    def _dom(self, node: ast.expr | None) -> str:
        if node is None:
            return PLAIN
        if isinstance(node, ast.Name):
            return self._lookup(self.env, node.id)
        if isinstance(node, ast.Attribute):
            self._dom(node.value)
            _, cls = self.scanner._resolve_chain(node.value)
            if cls is not None:
                spec = self.analysis.attr_domain(cls, node.attr)
                if spec is not None:
                    return spec
            return PLAIN
        if isinstance(node, ast.Subscript):
            return self._subscript_domain(node, store=False)
        if isinstance(node, ast.Call):
            return self._call_domain(node)
        if isinstance(node, ast.BinOp):
            left = self._dom(node.left)
            right = self._dom(node.right)
            return self._binop_domain(node.op, left, right, node)
        if isinstance(node, ast.BoolOp):
            domains = [self._dom(value) for value in node.values]
            result = domains[0]
            for other in domains[1:]:
                result = _join(result, other)
            return result
        if isinstance(node, ast.IfExp):
            self._dom(node.test)
            return _join(self._dom(node.body), self._dom(node.orelse))
        if isinstance(node, ast.Compare):
            self._compare(node)
            return PLAIN
        if isinstance(node, ast.NamedExpr):
            value = self._dom(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = value
            return value
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            return self._comprehension(node)
        if isinstance(node, ast.DictComp):
            self._bind_generators(node.generators)
            self._dom(node.key)
            self._dom(node.value)
            return PLAIN
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            domains = {self._dom(element) for element in node.elts}
            if len(domains) == 1:
                only = domains.pop()
                if only != PLAIN and not only.startswith(("iter[", "map[")):
                    return f"iter[{only}]"
            return PLAIN
        if isinstance(node, ast.Starred):
            return self._dom(node.value)
        if isinstance(node, ast.Lambda):
            for arg in node.args.args:
                self.env.setdefault(arg.arg, PLAIN)
            self._dom(node.body)
            return PLAIN
        if isinstance(node, ast.UnaryOp):
            operand = self._dom(node.operand)
            if isinstance(node.op, ast.Invert) and _is_mask(operand):
                # The complement holds every id the mask lacks, members
                # of no word among them: an unrestricted pool.
                return f"bitset-pool:{_role(operand)}"
            return PLAIN
        if isinstance(node, ast.JoinedStr):
            return PLAIN
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._dom(child)
        return PLAIN

    def _comprehension(self, node) -> str:
        self._bind_generators(node.generators)
        elem = self._dom(node.elt)
        if elem != PLAIN and not elem.startswith(("iter[", "map[")):
            return f"iter[{elem}]"
        return PLAIN

    def _bind_generators(self, generators) -> None:
        for gen in generators:
            iterable = self._dom(gen.iter)
            if isinstance(gen.target, ast.Name):
                self.env[gen.target.id] = _elem_of(iterable)
            elif isinstance(gen.target, (ast.Tuple, ast.List)):
                for element in gen.target.elts:
                    if isinstance(element, ast.Name):
                        self.env[element.id] = PLAIN
            for condition in gen.ifs:
                self._dom(condition)

    # -- subscripts --------------------------------------------------------

    def _subscript_domain(self, node: ast.Subscript, store: bool) -> str:
        container = self._dom(node.value)
        if isinstance(node.slice, ast.Slice):
            for bound in (node.slice.lower, node.slice.upper, node.slice.step):
                self._dom(bound)
            return container
        index = self._dom(node.slice)
        declared = _index_of(container)
        if declared is not None and self.record:
            if declared == "slot" and index != "slot":
                self._event(
                    "slot",
                    node,
                    f"indexes a declared map[slot, ...] container with a "
                    f"{index} value ({self._src(node)})",
                )
            elif (
                declared != "slot"
                and index != PLAIN
                and index != declared
            ):
                self._event(
                    "mix",
                    node,
                    f"indexes a map[{declared}, ...] container with a "
                    f"{index} id ({self._src(node)})",
                )
        return _elem_of(container)

    # -- calls -------------------------------------------------------------

    def _call_domain(self, node: ast.Call) -> str:
        func = node.func
        args = node.args

        # Container-method calls on a tracked map/iter value.
        if isinstance(func, ast.Attribute):
            receiver = self._dom(func.value)
            if receiver.startswith(("map[", "iter[")):
                for arg in args:
                    self._dom(arg)
                if func.attr in {"get", "setdefault", "pop"} and args:
                    declared = _index_of(receiver)
                    key = self._dom(args[0])
                    if (
                        declared is not None
                        and self.record
                        and key != PLAIN
                        and key != declared
                    ):
                        self._event(
                            "mix",
                            node,
                            f"looks up a map[{declared}, ...] container "
                            f"with a {key} id ({self._src(node)})",
                        )
                    return _elem_of(receiver)
                return PLAIN

        site = self.scanner.sites.get(node)
        qualname = site.target if site is not None else None

        # The kernel bitset primitives are modelled natively.
        if qualname is not None:
            bitset_domain = self._bitset_call(qualname, node)
            if bitset_domain is not None:
                return bitset_domain

        # Builtins that preserve or pick from container domains.
        if isinstance(func, ast.Name) and qualname is None and args:
            first = self._dom(args[0])
            for arg in args[1:]:
                self._dom(arg)
            for keyword in node.keywords:
                self._dom(keyword.value)
            if func.id in _PRESERVING_BUILTINS:
                if first.startswith("iter["):
                    return first
                if first.startswith("map["):
                    return f"iter[{_elem_of(first)}]"
                return PLAIN
            if func.id in _PICKING_BUILTINS:
                return _elem_of(first)
            return PLAIN

        arg_domains = [self._dom(arg) for arg in args]
        for keyword in node.keywords:
            self._dom(keyword.value)
        if qualname is None:
            return PLAIN
        if qualname in self.analysis.codebase.classes():
            constructor = self.graph.resolve_method(qualname, "__init__")
            if constructor is not None:
                self._check_call_args(constructor, node, arg_domains)
            return PLAIN
        self._check_call_args(qualname, node, arg_domains)
        return self.analysis.returns.get(qualname, PLAIN)

    def _check_call_args(
        self, qualname: str, node: ast.Call, arg_domains: list[str]
    ) -> None:
        declared = self.analysis.param_pins.get(qualname)
        if not declared or not self.record:
            return
        info = self.graph.functions.get(qualname)
        if info is None:
            return
        for position, actual in enumerate(arg_domains):
            if position >= len(info.params):
                break
            expected = declared.get(info.params[position])
            if (
                expected is not None
                and actual != PLAIN
                and actual != expected
            ):
                self._event(
                    "mix",
                    node,
                    f"passes a {actual} id where {qualname.rsplit('.', 1)[-1]}"
                    f" declares {info.params[position]}={expected} "
                    f"({self._src(node)})",
                )

    def _bitset_call(self, qualname: str, node: ast.Call) -> str | None:
        module, _, name = qualname.rpartition(".")
        if (
            module not in self.analysis.config.bitset_modules
            or name not in _BITSET_FNS
        ):
            return None
        args = node.args
        first = self._dom(args[0]) if args else PLAIN
        for arg in args[1:]:
            self._dom(arg)
        if name == "iter_ids":
            if first.startswith("bitset-pool:"):
                self._event(
                    "escape",
                    node,
                    f"witnesses ids out of an unrestricted {first} "
                    f"candidate mask — intersect with the word's "
                    f"bitset-universe:{_role(first)} member mask first "
                    f"({self._src(node)})",
                )
            if _is_mask(first):
                return f"iter[intern:{_role(first)}]"
            return PLAIN
        if name == "from_ids":
            elem = _elem_of(first)
            if elem.startswith("intern:"):
                return f"bitset-pool:{_role(elem)}"
            return PLAIN
        if name == "declare_universe":
            if len(args) >= 2 and isinstance(args[1], ast.Constant):
                role = args[1].value
                if isinstance(role, str):
                    spec = parse_spec(f"bitset-universe:{role}")
                    if spec is not None:
                        return spec
            return PLAIN
        if name == "contains":
            second = self._dom(args[1]) if len(args) > 1 else PLAIN
            if (
                _is_mask(first)
                and second.startswith("intern:")
                and _role(first) != _role(second)
            ):
                self._event(
                    "bitset",
                    node,
                    f"probes a {first} mask for a {second} id — masks and "
                    f"ids must share one intern table ({self._src(node)})",
                )
            return PLAIN
        if name == "count":
            return PLAIN
        return None

    # -- operators ---------------------------------------------------------

    def _binop_domain(
        self, op: ast.operator, left: str, right: str, node: ast.AST
    ) -> str:
        if isinstance(op, ast.LShift) and right.startswith("intern:"):
            # ``1 << gid`` mints a singleton candidate mask over the
            # gid's table.
            return f"bitset-pool:{_role(right)}"
        if isinstance(op, (ast.BitAnd, ast.BitOr, ast.BitXor)):
            if _is_mask(left) and _is_mask(right):
                if _role(left) != _role(right):
                    self._event(
                        "bitset",
                        node,
                        f"combines a {left} mask with a {right} mask — "
                        f"bitset algebra is only defined over one intern "
                        f"table ({self._src(node)})",
                    )
                    return PLAIN
                role = _role(left)
                if isinstance(op, ast.BitAnd):
                    # Intersecting with a universe mask restricts the
                    # pool: this *is* the declared pool→universe
                    # translation (the PR-4 fix shape).
                    if _is_universe(left) or _is_universe(right):
                        return f"bitset-universe:{role}"
                    return f"bitset-pool:{role}"
                # Union/xor can only widen: the result is universe-safe
                # only when both operands already were.
                if _is_universe(left) and _is_universe(right):
                    return f"bitset-universe:{role}"
                return f"bitset-pool:{role}"
            if _is_mask(left) != _is_mask(right):
                mask, other = (left, right) if _is_mask(left) else (right, left)
                if _is_scalar_id(other):
                    self._event(
                        "mix",
                        node,
                        f"combines a {mask} mask with a bare {other} id — "
                        f"lift the id with ``1 << id`` over the same table "
                        f"({self._src(node)})",
                    )
                    return PLAIN
                return mask
            if (
                _is_scalar_id(left)
                and _is_scalar_id(right)
                and left != right
            ):
                self._event(
                    "mix",
                    node,
                    f"unions a {left} id with a {right} id "
                    f"({self._src(node)})",
                )
            return PLAIN
        return PLAIN

    def _compare(self, node: ast.Compare) -> None:
        domains = [self._dom(node.left)]
        domains.extend(self._dom(comp) for comp in node.comparators)
        for position, op in enumerate(node.ops):
            left, right = domains[position], domains[position + 1]
            if isinstance(op, (ast.In, ast.NotIn)):
                elem = _elem_of(right)
                if (
                    _is_scalar_id(left)
                    and _is_scalar_id(elem)
                    and left != elem
                ):
                    self._event(
                        "mix",
                        node,
                        f"membership-tests a {left} id against a container "
                        f"of {elem} ids ({self._src(node)})",
                    )
                continue
            if isinstance(op, (ast.Is, ast.IsNot)):
                continue
            if _is_mask(left) and _is_mask(right):
                if _role(left) != _role(right):
                    self._event(
                        "bitset",
                        node,
                        f"compares a {left} mask with a {right} mask "
                        f"({self._src(node)})",
                    )
                continue
            if (
                _is_scalar_id(left)
                and _is_scalar_id(right)
                and left != right
            ):
                self._event(
                    "mix",
                    node,
                    f"compares a {left} id with a {right} id "
                    f"({self._src(node)})",
                )


# ---------------------------------------------------------------------------
# The project-wide analysis.


class DomainAnalysis:
    """Id-domain flow for every function in a pin-reachable module.

    Modules that neither contain a ``domain[...]`` pin nor import one
    that does are skipped entirely — their flows are all-``plain`` by
    construction, so the rules stay silent there and adoption is
    incremental.
    """

    def __init__(self, codebase: Codebase, config: LintConfig) -> None:
        self.codebase = codebase
        self.config = config
        self.graph = _effects_for(codebase, config).graph
        #: function qualname → declared-or-inferred return domain.
        self.returns: dict[str, str] = {}
        #: function qualname → {param name → declared domain}.
        self.param_pins: dict[str, dict[str, str]] = {}
        #: class qualname → {attribute → declared domain}.
        self.attr_domains: dict[str, dict[str, str]] = {}
        #: dotted module binding → declared domain.
        self.global_domains: dict[str, str] = {}
        #: (module name, line) → declared local-assignment domain.
        self._local_pins: dict[tuple[str, int], str] = {}
        #: malformed pins: (module, line, raw text).
        self.pin_errors: list[tuple[str, int, str]] = []
        #: function qualname → flow events (scope functions only).
        self.events: dict[str, list[DomainEvent]] = {}
        self.pin_count = 0

        self._relevant = self._relevant_modules()
        self._collect_pins()
        self._solve()

    # -- pin collection ----------------------------------------------------

    def _relevant_modules(self) -> set[str]:
        relevant = {
            module.name
            for module in self.codebase.iter_modules()
            if _PIN_MARK.search(module.text)
        }
        relevant.update(
            name for name in self.config.bitset_modules
            if name in self.codebase.modules
        )
        # Close over importers so consumers of pinned producers flow too.

        def imports_relevant(module: SourceModule) -> bool:
            if module.name in relevant or not any(
                target in relevant or target.rpartition(".")[0] in relevant
                for target in self.codebase.import_table(module).values()
            ):
                return False
            relevant.add(module.name)
            return True

        until_stable(list(self.codebase.iter_modules()), imports_relevant)
        return relevant

    def _pin_at(self, module: SourceModule, lineno: int) -> str | None:
        """Raw pin body on ``lineno``, or on the line above when that line
        is a comment of its own (a trailing pin belongs to its own line)."""
        for text in pin_lines(module, lineno):
            body = _pin_entries(text)
            if body is not None:
                return body
        return None

    def local_pin(self, module: SourceModule, lineno: int) -> str | None:
        return self._local_pins.get((module.name, lineno))

    def attr_domain(self, cls: str, attr: str) -> str | None:
        for current in self.codebase.mro(cls):
            found = self.attr_domains.get(current, {}).get(attr)
            if found is not None:
                return found
        return None

    def global_domain(self, module: SourceModule, name: str) -> str:
        dotted = f"{module.name}.{name}"
        found = self.global_domains.get(dotted)
        if found is not None:
            return found
        imported = self.codebase.import_table(module).get(name)
        if imported is not None:
            return self.global_domains.get(imported, PLAIN)
        return PLAIN

    def _spec(self, module: SourceModule, lineno: int, text: str) -> str | None:
        spec = parse_spec(text)
        if spec is None:
            self.pin_errors.append((module.name, lineno, text.strip()))
        else:
            self.pin_count += 1
        return spec

    def _collect_pins(self) -> None:
        for name in sorted(self._relevant):
            module = self.codebase.modules[name]
            # Module-level bindings.
            for stmt in module.tree.body:
                targets: list[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                if not targets:
                    continue
                body = self._pin_at(module, stmt.lineno)
                if body is None:
                    continue
                spec = self._spec(module, stmt.lineno, body)
                if spec is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.global_domains[f"{name}.{target.id}"] = spec
            # Class-level attribute declarations.
            for stmt in module.tree.body:
                if not isinstance(stmt, ast.ClassDef):
                    continue
                cls = f"{name}.{stmt.name}"
                for child in stmt.body:
                    target = None
                    if isinstance(child, ast.AnnAssign) and isinstance(
                        child.target, ast.Name
                    ):
                        target = child.target.id
                    elif isinstance(child, ast.Assign) and all(
                        isinstance(t, ast.Name) for t in child.targets
                    ):
                        target = child.targets[0].id
                    if target is None:
                        continue
                    body = self._pin_at(module, child.lineno)
                    if body is None:
                        continue
                    spec = self._spec(module, child.lineno, body)
                    if spec is not None:
                        self.attr_domains.setdefault(cls, {})[target] = spec

        for qualname in sorted(self.graph.functions):
            info = self.graph.functions[qualname]
            if info.module not in self._relevant:
                continue
            module = self.codebase.modules[info.module]
            # Signature pins on (or above) the def line.
            body = self._pin_at(module, info.node.lineno)
            if body is not None:
                for entry in _split_top(body):
                    key, eq, raw = entry.partition("=")
                    if not eq:
                        self.pin_errors.append(
                            (info.module, info.node.lineno, entry)
                        )
                        continue
                    spec = self._spec(module, info.node.lineno, raw)
                    if spec is None:
                        continue
                    key = key.strip()
                    if key == "returns":
                        self.returns[qualname] = spec
                    elif key == info.self_name or key in info.params:
                        self.param_pins.setdefault(qualname, {})[key] = spec
                    else:
                        self.pin_errors.append(
                            (info.module, info.node.lineno, entry)
                        )
            # Attribute pins on self-assignments, local-assignment pins.
            for node in self.graph.scanners[qualname].nodes:
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                if not targets:
                    continue
                pin_body = self._pin_at(module, node.lineno)
                if pin_body is None:
                    continue
                entries = _split_top(pin_body)
                if not entries or "=" in entries[0]:
                    continue
                spec = self._spec(module, node.lineno, pin_body)
                if spec is None:
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == info.self_name
                        and info.cls is not None
                    ):
                        self.attr_domains.setdefault(info.cls, {})[
                            target.attr
                        ] = spec
                    elif isinstance(target, ast.Name):
                        self._local_pins[(info.module, node.lineno)] = spec

    # -- the fixed point ----------------------------------------------------

    def _scope_functions(self) -> list[str]:
        return [
            qualname
            for qualname in sorted(self.graph.functions)
            if self.graph.functions[qualname].module in self._relevant
        ]

    def _solve(self) -> None:
        scope = self._scope_functions()
        # Pinned returns are never overwritten; a return domain the flow
        # stops rising in (see _rises) is lost for good, so every
        # function changes at most three times and the passes end.
        fixed = set(self.returns)

        def infer(qualname: str) -> bool:
            if qualname in fixed:
                return False
            inferred = _FlowScan(self, self.graph.functions[qualname]).run(
                record=False
            ).returns
            previous = self.returns.get(qualname, PLAIN)
            if inferred == previous:
                return False
            if not _rises(previous, inferred):
                fixed.add(qualname)
                inferred = PLAIN
            if inferred == PLAIN:
                self.returns.pop(qualname, None)
            else:
                self.returns[qualname] = inferred
            return True

        until_stable(scope, infer)
        # Recording pass: events against the stable signature map.
        for qualname in scope:
            flow = _FlowScan(self, self.graph.functions[qualname]).run(
                record=True
            )
            self.events[qualname] = flow.events

    # -- reporting ----------------------------------------------------------

    def summary_payload(self) -> dict:
        """JSON-ready digest for ``repro lint --domains-json``."""
        functions = []
        for qualname in sorted(self.events):
            info = self.graph.functions[qualname]
            returns = self.returns.get(qualname, PLAIN)
            params = self.param_pins.get(qualname, {})
            if returns == PLAIN and not params and not self.events[qualname]:
                continue
            functions.append(
                {
                    "function": qualname,
                    "module": info.module,
                    "line": info.line,
                    "returns": returns,
                    "params": dict(sorted(params.items())),
                    "events": [
                        {
                            "kind": event.kind,
                            "line": event.line,
                            "message": event.message,
                        }
                        for event in self.events[qualname]
                    ],
                }
            )
        event_totals: dict[str, int] = {}
        for events in self.events.values():
            for event in events:
                event_totals[event.kind] = event_totals.get(event.kind, 0) + 1
        return {
            "modules_analyzed": sorted(self._relevant),
            "pins": self.pin_count,
            "pin_errors": [
                {"module": module, "line": line, "text": text}
                for module, line, text in self.pin_errors
            ],
            "attr_domains": {
                cls: dict(sorted(attrs.items()))
                for cls, attrs in sorted(self.attr_domains.items())
            },
            "functions": functions,
            "events": dict(sorted(event_totals.items())),
        }


def domains_for(codebase: Codebase, config: LintConfig) -> DomainAnalysis:
    """The (cached) domain analysis for this codebase + config."""
    cached = getattr(codebase, "_domains_analysis", None)
    if cached is not None and cached.config is config:
        return cached
    analysis = DomainAnalysis(codebase, config)
    codebase._domains_analysis = analysis
    return analysis
