"""Dispatch-exhaustiveness: every ``isinstance`` chain over a node
hierarchy must handle every concrete node class or end in a catch-all.

The ASTs of FC, FO[EQ], the spanner algebra and regex formulas are
closed sums dispatched by ``isinstance`` chains (``fc.semantics.evaluate_naive``
is the archetype).  Adding a node class without extending every dispatch
site produces *silent* misbehaviour — a fall-through ``None``/no-yield —
unless the site ends in a catch-all (an ``else`` branch, statements after
the chain, or a trailing ``raise``).  This rule finds chains that test
two or more classes of one hierarchy and neither cover all concrete
classes of that hierarchy nor have a catch-all tail.

Concrete classes are the leaf subclasses declared in the hierarchy's
home module; subclasses declared elsewhere (e.g. the FC[REG] constraint
atoms) are protocol-based extension points, not required arms.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.framework import (
    Checker,
    Codebase,
    Finding,
    LintConfig,
    SourceModule,
)

__all__ = ["DispatchExhaustivenessChecker"]


@dataclass
class _Chain:
    """One maximal run of consecutive ``isinstance`` tests on a subject."""

    subject: str  # ast.dump of the tested expression
    line: int
    tested: list[ast.expr]  # class references from every arm
    has_catchall: bool  # else-branch, opaque elif, or trailing statements


def _isinstance_parts(test: ast.expr) -> tuple[str, list[ast.expr]] | None:
    """(subject dump, class refs) for an ``isinstance(subj, C)`` test."""
    if not (
        isinstance(test, ast.Call)
        and isinstance(test.func, ast.Name)
        and test.func.id == "isinstance"
        and len(test.args) == 2
        and not test.keywords
    ):
        return None
    subject, classes = test.args
    refs = (
        list(classes.elts) if isinstance(classes, ast.Tuple) else [classes]
    )
    return ast.dump(subject), refs


def _iter_chains(block: list[ast.stmt]) -> Iterator[_Chain]:
    """Maximal runs of consecutive isinstance-``if`` statements."""
    current: _Chain | None = None
    for statement in block:
        unit = (
            _parse_if_unit(statement)
            if isinstance(statement, ast.If)
            else None
        )
        if unit is None:
            if current is not None:
                current.has_catchall = True  # non-if statement after chain
                yield current
                current = None
            continue
        subject, refs, catchall, line = unit
        if current is not None and current.subject != subject:
            current.has_catchall = True  # the next if-statement is a tail
            yield current
            current = None
        if current is None:
            current = _Chain(subject, line, [], False)
        current.tested.extend(refs)
        if catchall:
            current.has_catchall = True
            yield current
            current = None
    if current is not None:
        yield current


def _parse_if_unit(
    node: ast.If,
) -> tuple[str, list[ast.expr], bool, int] | None:
    """Digest one if/elif/else statement testing a single subject.

    Returns ``(subject, class refs, has_catchall, line)`` or ``None`` when
    the leading test is not an ``isinstance`` call.  A non-isinstance
    ``elif`` makes the unit opaque, which is treated as a catch-all
    (conservative: no finding for mixed-condition chains).
    """
    parts = _isinstance_parts(node.test)
    if parts is None:
        return None
    subject, refs = parts
    line = node.lineno
    orelse = node.orelse
    while len(orelse) == 1 and isinstance(orelse[0], ast.If):
        tail = _isinstance_parts(orelse[0].test)
        if tail is None or tail[0] != subject:
            return subject, refs, True, line
        refs = refs + tail[1]
        orelse = orelse[0].orelse
    return subject, refs, bool(orelse), line


def _iter_blocks(fn: ast.FunctionDef) -> Iterator[list[ast.stmt]]:
    """Every statement list of ``fn``, without descending into nested
    functions (those are visited as functions in their own right) and
    without re-visiting ``elif`` continuations as separate blocks."""
    stack: list[list[ast.stmt]] = [fn.body]
    while stack:
        block = stack.pop()
        yield block
        for statement in block:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(statement, ast.If):
                stack.append(statement.body)
                orelse = statement.orelse
                while len(orelse) == 1 and isinstance(orelse[0], ast.If):
                    stack.append(orelse[0].body)
                    orelse = orelse[0].orelse
                if orelse:
                    stack.append(orelse)
            elif isinstance(statement, (ast.For, ast.AsyncFor, ast.While)):
                stack.append(statement.body)
                if statement.orelse:
                    stack.append(statement.orelse)
            elif isinstance(statement, (ast.With, ast.AsyncWith)):
                stack.append(statement.body)
            elif isinstance(statement, ast.Try):
                stack.append(statement.body)
                for handler in statement.handlers:
                    stack.append(handler.body)
                if statement.orelse:
                    stack.append(statement.orelse)
                if statement.finalbody:
                    stack.append(statement.finalbody)


class DispatchExhaustivenessChecker(Checker):
    name = "dispatch-exhaustiveness"
    description = (
        "isinstance-chain dispatch over a node hierarchy must handle every "
        "concrete node class or end in a catch-all"
    )

    def check(
        self, codebase: Codebase, config: LintConfig
    ) -> Iterator[Finding]:
        hierarchies = {
            root: {
                "members": codebase.subclasses(root) | {root},
                "required": codebase.concrete_subclasses(root, home),
            }
            for root, home in sorted(config.hierarchies.items())
        }
        for module in codebase.iter_modules(config.dispatch_prefixes):
            for node in ast.walk(module.tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for block in _iter_blocks(node):
                    for chain in _iter_chains(block):
                        yield from self._check_chain(
                            codebase, module, node, chain, hierarchies
                        )

    def _check_chain(
        self,
        codebase: Codebase,
        module: SourceModule,
        fn: ast.FunctionDef,
        chain: _Chain,
        hierarchies: dict[str, dict[str, set[str]]],
    ) -> Iterator[Finding]:
        if chain.has_catchall:
            return
        resolved = set()
        for ref in chain.tested:
            name = codebase.resolve_name(module, ref)
            if name is not None:
                resolved.add(name)
        # The chain belongs to the hierarchy it tests the most classes of.
        best_root, best_overlap = None, set()
        for root, data in hierarchies.items():
            overlap = resolved & data["members"]
            if len(overlap) > len(best_overlap):
                best_root, best_overlap = root, overlap
        if best_root is None or len(best_overlap) < 2:
            return
        handled: set[str] = set()
        for name in best_overlap:
            handled.add(name)
            handled.update(codebase.subclasses(name))
        missing = hierarchies[best_root]["required"] - handled
        if missing:
            short = ", ".join(sorted(n.rsplit(".", 1)[1] for n in missing))
            root_name = best_root.rsplit(".", 1)[1]
            yield self.finding(
                codebase,
                module,
                chain.line,
                f"dispatch over {root_name} in {fn.name}() misses concrete "
                f"node(s) {short} and has no catch-all",
                hint=(
                    "add the missing isinstance arm(s), or end the chain "
                    "with an else/raise catch-all"
                ),
            )
