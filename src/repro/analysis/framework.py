"""The checker framework behind ``python -m repro lint``.

Small, dependency-free static-analysis plumbing:

* :class:`Codebase` loads every module of a package once, parses it with
  :mod:`ast`, and derives shared indexes (per-module import tables, the
  class graph with dataclass/frozen/field facts);
* :class:`Finding` is one diagnostic with a stable fingerprint, so
  findings can be baselined across runs;
* :class:`Checker` is the rule interface; concrete rules live in the
  sibling modules and are assembled by :func:`all_checkers`;
* inline suppressions — a ``# repro-lint: allow[rule] reason`` comment
  on (or directly above) the flagged line — acknowledge a finding in
  the source itself, next to the code that needs the exemption.

Everything is deterministic: modules, classes and findings are visited
and emitted in sorted order.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Checker",
    "ClassInfo",
    "Codebase",
    "Finding",
    "LintConfig",
    "SourceModule",
    "all_checkers",
    "apply_baseline",
    "default_config",
    "load_baseline",
    "run_checkers",
    "select_checkers",
    "write_baseline",
]


# ---------------------------------------------------------------------------
# Findings.


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: where, what rule, what is wrong, how to fix it."""

    path: str  # source-root-relative posix path, e.g. "repro/fc/syntax.py"
    line: int
    rule: str
    message: str
    severity: str = "error"
    hint: str = ""

    @property
    def fingerprint(self) -> str:
        """Line-independent identity used for baseline matching."""
        return f"{self.rule}::{self.path}::{self.message}"

    def to_json_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        text = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


# ---------------------------------------------------------------------------
# Source loading and shared indexes.


@dataclass(frozen=True)
class SourceModule:
    """One parsed module of the analysed package."""

    name: str  # dotted, e.g. "repro.fc.syntax"
    path: Path
    text: str = field(repr=False)
    tree: ast.Module = field(repr=False)
    is_package: bool = False

    @property
    def lines(self) -> list[str]:
        return self.text.splitlines()

    def package_parts(self) -> tuple[str, ...]:
        """The dotted path of the package *containing* this module."""
        parts = tuple(self.name.split("."))
        return parts if self.is_package else parts[:-1]


@dataclass(frozen=True)
class ClassInfo:
    """Static facts about one class definition."""

    qualname: str  # "repro.fc.syntax.Concat"
    module: str
    name: str
    line: int
    bases: tuple[str, ...]  # qualified where resolvable, raw name otherwise
    is_dataclass: bool
    frozen: bool
    # (field name, annotation source text, line) per annotated field.
    fields: tuple[tuple[str, str, int], ...]


def _dataclass_facts(node: ast.ClassDef) -> tuple[bool, bool]:
    """(is_dataclass, frozen) from the decorator list."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name != "dataclass":
            continue
        frozen = False
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if keyword.arg == "frozen":
                    frozen = (
                        isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    )
        return True, frozen
    return False, False


class Codebase:
    """Every module under ``src_root/package``, parsed once, plus indexes."""

    def __init__(self, src_root: Path, package: str = "repro") -> None:
        self.src_root = Path(src_root).resolve()
        self.package = package
        self.modules: dict[str, SourceModule] = {}
        package_dir = self.src_root / package
        if not package_dir.is_dir():
            raise FileNotFoundError(
                f"package directory not found: {package_dir}"
            )
        for path in sorted(package_dir.rglob("*.py")):
            relative = path.relative_to(self.src_root)
            parts = list(relative.with_suffix("").parts)
            is_package = parts[-1] == "__init__"
            if is_package:
                parts = parts[:-1]
            name = ".".join(parts)
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=str(path))
            self.modules[name] = SourceModule(name, path, text, tree, is_package)
        self._by_relpath = {
            self.relpath(module): module for module in self.modules.values()
        }
        self._classes: dict[str, ClassInfo] | None = None
        self._import_tables: dict[str, dict[str, str]] = {}

    # -- paths ------------------------------------------------------------

    def relpath(self, module: SourceModule) -> str:
        return module.path.relative_to(self.src_root).as_posix()

    def module_for_path(self, relpath: str) -> SourceModule | None:
        return self._by_relpath.get(relpath)

    def iter_modules(
        self, prefixes: Sequence[str] = ()
    ) -> Iterator[SourceModule]:
        """Modules in sorted name order, optionally prefix-filtered."""
        for name in sorted(self.modules):
            if not prefixes or any(
                name == p or name.startswith(p + ".") for p in prefixes
            ):
                yield self.modules[name]

    # -- imports ----------------------------------------------------------

    def import_table(self, module: SourceModule) -> dict[str, str]:
        """Map each imported local name to its fully qualified target."""
        cached = self._import_tables.get(module.name)
        if cached is not None:
            return cached
        table: dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = alias.name
                    else:
                        # ``import a.b.c`` binds ``a``.
                        head = alias.name.split(".")[0]
                        table[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = self.resolve_import_base(module, node)
                if base is None:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    table[local] = f"{base}.{alias.name}" if base else alias.name
        self._import_tables[module.name] = table
        return table

    @staticmethod
    def resolve_import_base(
        module: SourceModule, node: ast.ImportFrom
    ) -> str | None:
        """Absolute dotted module a ``from … import`` pulls from."""
        if node.level == 0:
            return node.module
        package = list(module.package_parts())
        drop = node.level - 1
        if drop > len(package):
            return None
        if drop:
            package = package[:-drop]
        if node.module:
            package.append(node.module)
        return ".".join(package)

    def resolve_name(self, module: SourceModule, expr: ast.expr) -> str | None:
        """Qualify a Name/Attribute reference using the import table."""
        if isinstance(expr, ast.Name):
            local = f"{module.name}.{expr.id}"
            if local in self.classes():
                return local
            return self.import_table(module).get(expr.id)
        if isinstance(expr, ast.Attribute):
            head = self.resolve_name(module, expr.value)
            if head is None:
                return None
            return f"{head}.{expr.attr}"
        return None

    # -- classes ----------------------------------------------------------

    def classes(self) -> dict[str, ClassInfo]:
        if self._classes is None:
            self._classes = {}
            # Two passes: register names first so local bases resolve.
            declared: list[tuple[SourceModule, ast.ClassDef]] = []
            for module in self.iter_modules():
                for node in ast.walk(module.tree):
                    if isinstance(node, ast.ClassDef):
                        declared.append((module, node))
                        qualname = f"{module.name}.{node.name}"
                        self._classes[qualname] = ClassInfo(
                            qualname, module.name, node.name, node.lineno,
                            (), False, False, (),
                        )
            for module, node in declared:
                bases = []
                for base in node.bases:
                    resolved = self.resolve_name(module, base)
                    bases.append(resolved or ast.unparse(base))
                is_dataclass, frozen = _dataclass_facts(node)
                fields = tuple(
                    (
                        statement.target.id,
                        ast.unparse(statement.annotation),
                        statement.lineno,
                    )
                    for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                )
                qualname = f"{module.name}.{node.name}"
                self._classes[qualname] = ClassInfo(
                    qualname, module.name, node.name, node.lineno,
                    tuple(bases), is_dataclass, frozen, fields,
                )
        return self._classes

    def subclasses(self, root: str) -> set[str]:
        """Transitive subclasses of ``root`` (qualified names; root excluded)."""
        children: dict[str, set[str]] = {}
        for info in self.classes().values():
            for base in info.bases:
                children.setdefault(base, set()).add(info.qualname)
        found: set[str] = set()
        stack = [root]
        while stack:
            for child in children.get(stack.pop(), ()):
                if child not in found:
                    found.add(child)
                    stack.append(child)
        return found

    def concrete_subclasses(self, root: str, home_module: str) -> set[str]:
        """Leaf subclasses of ``root`` declared in its home module.

        Subclasses declared elsewhere are *extension* nodes (e.g. FC[REG]
        constraint atoms extending the FC ``Formula`` hierarchy through
        protocol hooks) and are not required dispatch arms.
        """
        in_home = {
            name
            for name in self.subclasses(root)
            if self.classes()[name].module == home_module
        }
        return {
            name
            for name in in_home
            if not (self.subclasses(name) & in_home)
        }


# ---------------------------------------------------------------------------
# Configuration.


@dataclass(frozen=True)
class LintConfig:
    """What the checkers look at; defaults describe this repository."""

    src_root: Path
    package: str = "repro"
    # Import layering, bottom layer first; packages in the same tuple may
    # import each other freely.
    layers: tuple[tuple[str, ...], ...] = (
        # repro.store sits at the bottom with repro.words: the artifact
        # store must be importable from every hydration site (kernel,
        # fc, ef) and depends on nothing above it.
        ("words", "store"),
        ("kernel",),
        ("fc", "fcreg"),
        ("ef", "foeq"),
        ("spanners", "semilinear"),
        ("core",),
        ("engine",),
        # repro.serve rides on top of the engine (it warms via run_tasks
        # and answers queries with the same task functions).
        ("serve",),
        ("analysis",),
    )
    # Top-level modules below the whole DAG (importable from any layer,
    # may import nothing from the package).
    leaf_modules: tuple[str, ...] = ("repro.metrics",)
    # Top-level entry points above the whole DAG.
    unconstrained_modules: tuple[str, ...] = ("repro", "repro.__main__")
    # Dispatch hierarchies: root class → module whose leaf subclasses form
    # the closed set of required arms.
    hierarchies: Mapping[str, str] = field(
        default_factory=lambda: {
            "repro.fc.syntax.Formula": "repro.fc.syntax",
            "repro.foeq.syntax.PFormula": "repro.foeq.syntax",
            "repro.spanners.spanner.Spanner": "repro.spanners.spanner",
            "repro.spanners.regex_formulas.RegexFormula": (
                "repro.spanners.regex_formulas"
            ),
        }
    )
    # Where isinstance-dispatch over those hierarchies is checked.
    dispatch_prefixes: tuple[str, ...] = (
        "repro.fc",
        "repro.fcreg",
        "repro.foeq",
        "repro.ef",
        "repro.spanners",
        "repro.core",
        "repro.semilinear",
    )
    # Modules whose dataclasses must be frozen ASTs with hashable fields.
    syntax_modules: tuple[str, ...] = (
        "repro.fc.syntax",
        "repro.foeq.syntax",
        "repro.fcreg.constraints",
        "repro.spanners.spanner",
        "repro.spanners.regex_formulas",
    )
    # Packages that must be bit-deterministic (witness search + caching).
    # repro.fc.sweep and repro.foeq joined when the batched sweep
    # evaluator and the kernel-backed position-game solver landed: both
    # feed content-addressed engine results, so iteration order in their
    # search/memo code is load-bearing.
    determinism_prefixes: tuple[str, ...] = (
        "repro.ef",
        "repro.engine",
        "repro.fc.sweep",
        # Bounded decompositions flow into store-fingerprinted formulas;
        # automaton construction order must not depend on string hashing.
        "repro.fcreg",
        "repro.foeq",
        "repro.kernel",
        # Artifact keys and payloads feed content-addressed hydration;
        # any iteration-order leak here poisons records on disk.
        "repro.store",
    )
    # Modules whose functions carry the trusted {counter} effect summary
    # (process-wide effort accounting, exempt from the purity rules).
    counter_modules: tuple[str, ...] = ("repro.metrics",)
    # Modules whose functions carry the trusted {store} effect summary —
    # the artifact-store channel.  Hydration code may reach persistent
    # storage only by calling into these; effects.worker-isolation flags
    # inline ``effects[store]`` pins anywhere else.
    store_modules: tuple[str, ...] = (
        "repro.store",
        "repro.store.backends",
        "repro.store.core",
        "repro.store.runtime",
    )
    # Modules whose get-then-store memo dicts must satisfy
    # effects.memo-key-completeness (family-wide caches).
    memo_modules: tuple[str, ...] = (
        "repro.fc.sweep",
        "repro.foeq.compiled",
        "repro.kernel.sweep",
    )
    # Explicit worker-isolation roots (dotted ``pkg.mod:fn`` paths); when
    # empty, the registered engine tasks from ``registry_builder`` are used.
    task_roots: tuple[str, ...] = ()
    # Entry points that may execute on two or more threads at once —
    # the serve daemon's handler threads (one per connection, all running
    # the same code) plus the lifecycle calls that race against them.
    # Globs over function qualnames are allowed: the ``op_*`` handlers
    # are reached through a ``getattr`` dispatch the call graph cannot
    # resolve, so they are enumerated as roots of their own.
    thread_roots: tuple[str, ...] = (
        "repro.serve.daemon._Handler.handle",
        "repro.serve.daemon.ReproServer.answer",
        "repro.serve.daemon.ReproServer.begin_shutdown",
        "repro.serve.daemon.ReproServer.server_close",
        "repro.serve.service.QueryService.dispatch",
        "repro.serve.service.QueryService.op_*",
    )
    # Classes whose instances are shared across the thread roots (the
    # server/service singletons).  ``repro.analysis.concurrency`` closes
    # this seed set over field annotations, subclasses, and the classes
    # returned by lru_cached thread-reachable factories (an lru cache is
    # itself process-global, so its cached objects are shared too).
    thread_shared_classes: tuple[str, ...] = (
        "repro.serve.daemon.ReproServer",
        "repro.serve.service.QueryService",
    )
    # Modules the ``domains.*`` rules report on (empty = whole package);
    # the flow analysis itself only walks pin-reachable modules either way.
    domain_modules: tuple[str, ...] = ()
    # Modules providing the trusted bitset primitives the id-domain flow
    # models natively (iter_ids / from_ids / contains / declare_universe).
    bitset_modules: tuple[str, ...] = ("repro.kernel.bitset",)
    # Dotted path of the engine registry builder, and the version lock.
    registry_builder: str | None = "repro.engine.experiments:build_default_registry"
    lock_path: Path | None = None

    def resolved_lock_path(self) -> Path:
        if self.lock_path is not None:
            return Path(self.lock_path)
        return self.src_root / self.package / "analysis" / "versions.lock"


def default_config() -> LintConfig:
    """The configuration for this repository's own source tree."""
    return LintConfig(src_root=Path(__file__).resolve().parents[2])


# ---------------------------------------------------------------------------
# Checker interface and runner.


class Checker:
    """One lint rule.  Subclasses set ``name`` and implement ``check``."""

    name: str = ""
    description: str = ""

    def check(
        self, codebase: Codebase, config: LintConfig
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        codebase: Codebase,
        module: SourceModule,
        line: int,
        message: str,
        hint: str = "",
        severity: str = "error",
    ) -> Finding:
        return Finding(
            path=codebase.relpath(module),
            line=line,
            rule=self.name,
            message=message,
            severity=severity,
            hint=hint,
        )


def all_checkers() -> list[Checker]:
    """Every registered rule, in stable name order."""
    from repro.analysis.cachesound import CacheSoundnessChecker
    from repro.analysis.concurrency import (
        AtomicCountersChecker,
        ForkSafetyChecker,
        GuardedByChecker,
        SharedStateRaceChecker,
    )
    from repro.analysis.determinism import DeterminismChecker
    from repro.analysis.dispatch import DispatchExhaustivenessChecker
    from repro.analysis.domainrules import (
        DomainsBitsetUniverseChecker,
        DomainsNoCrossMixChecker,
        DomainsSlotDisciplineChecker,
        DomainsUniverseEscapeChecker,
    )
    from repro.analysis.effectrules import (
        EffectAssignmentPurityChecker,
        EffectPurityPropagationChecker,
        MemoKeyCompletenessChecker,
        WorkerIsolationChecker,
    )
    from repro.analysis.frozen import FrozenAstChecker
    from repro.analysis.layering import ImportLayeringChecker
    from repro.analysis.purity import LruCachePurityChecker

    checkers = [
        AtomicCountersChecker(),
        CacheSoundnessChecker(),
        DeterminismChecker(),
        DispatchExhaustivenessChecker(),
        DomainsBitsetUniverseChecker(),
        DomainsNoCrossMixChecker(),
        DomainsSlotDisciplineChecker(),
        DomainsUniverseEscapeChecker(),
        EffectAssignmentPurityChecker(),
        EffectPurityPropagationChecker(),
        ForkSafetyChecker(),
        GuardedByChecker(),
        MemoKeyCompletenessChecker(),
        SharedStateRaceChecker(),
        WorkerIsolationChecker(),
        FrozenAstChecker(),
        ImportLayeringChecker(),
        LruCachePurityChecker(),
    ]
    return sorted(checkers, key=lambda checker: checker.name)


def select_checkers(
    rules: Sequence[str], checkers: Sequence[Checker]
) -> list[Checker]:
    """The checkers matching the rule names/globs (``effects.*`` works).

    Raises ``ValueError`` on a pattern that matches nothing, preserving
    the old exact-name error behaviour.
    """
    selected: list[Checker] = []
    unmatched: list[str] = []
    for pattern in rules:
        matched = [
            checker
            for checker in checkers
            if fnmatch.fnmatchcase(checker.name, pattern)
        ]
        if not matched:
            unmatched.append(pattern)
        for checker in matched:
            if checker not in selected:
                selected.append(checker)
    if unmatched:
        available = ", ".join(sorted(c.name for c in checkers))
        raise ValueError(
            f"unknown rule(s): {', '.join(sorted(unmatched))}; "
            f"available: {available}"
        )
    return selected


_SUPPRESS_RE = re.compile(r"repro-lint:\s*allow\[([^\]]+)\]")


def _is_suppressed(finding: Finding, codebase: Codebase) -> bool:
    """True when an inline allow-comment covers the finding's rule."""
    module = codebase.module_for_path(finding.path)
    if module is None:
        return False
    lines = module.lines
    candidates = []
    if 1 <= finding.line <= len(lines):
        candidates.append(lines[finding.line - 1])
    if 2 <= finding.line <= len(lines) + 1:
        candidates.append(lines[finding.line - 2])
    for text in candidates:
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        allowed = {chunk.strip() for chunk in match.group(1).split(",")}
        if finding.rule in allowed or "*" in allowed:
            return True
    return False


def run_checkers(
    config: LintConfig,
    rules: Sequence[str] | None = None,
    checkers: Sequence[Checker] | None = None,
    codebase: Codebase | None = None,
) -> tuple[list[Finding], list[Finding]]:
    """Run the (selected) rules.  Returns ``(active, suppressed)``.

    Pass ``codebase`` to share one parsed tree (and its cached effect
    analysis) with the caller — ``--effects-json`` relies on this.
    """
    selected = list(checkers) if checkers is not None else all_checkers()
    if rules:
        selected = select_checkers(rules, selected)
    if codebase is None:
        codebase = Codebase(config.src_root, config.package)
    collected: list[Finding] = []
    for checker in selected:
        collected.extend(checker.check(codebase, config))
    collected.sort()
    active = [f for f in collected if not _is_suppressed(f, codebase)]
    suppressed = [f for f in collected if _is_suppressed(f, codebase)]
    return active, suppressed


# ---------------------------------------------------------------------------
# Baselines.


def load_baseline(path: Path) -> set[str]:
    """The set of baselined finding fingerprints (empty if absent)."""
    if not Path(path).exists():
        return set()
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = payload.get("findings", []) if isinstance(payload, dict) else []
    return {entry["fingerprint"] for entry in entries}


def write_baseline(path: Path, findings: Iterable[Finding]) -> None:
    """Persist findings as the accepted baseline (sorted, with context)."""
    entries = [
        {
            "fingerprint": finding.fingerprint,
            "path": finding.path,
            "rule": finding.rule,
            "message": finding.message,
        }
        for finding in sorted(findings)
    ]
    Path(path).write_text(
        json.dumps({"findings": entries}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def apply_baseline(
    findings: Sequence[Finding], fingerprints: set[str]
) -> tuple[list[Finding], list[Finding]]:
    """Split findings into ``(new, baselined)``."""
    new = [f for f in findings if f.fingerprint not in fingerprints]
    baselined = [f for f in findings if f.fingerprint in fingerprints]
    return new, baselined
