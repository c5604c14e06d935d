"""Purity of ``lru_cache`` sites.

A memoised function is only sound if its result is a pure function of
its arguments.  The repo instruments a handful of hot constructors with
``functools.lru_cache`` (see ``repro.metrics``); this rule flags the
ways such a site can silently go impure:

* mutable default arguments — the default is captured once, shared
  across calls, and mutates under the cache's feet;
* ``global`` / ``nonlocal`` statements in the body — the cached value
  then depends on (or mutates) state outside the argument tuple;
* definition nested inside another function — the closure captures
  enclosing locals that are invisible to the cache key, and the cache
  itself leaks (one per enclosing call).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Checker, Codebase, Finding, LintConfig

__all__ = ["LruCachePurityChecker"]

_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray", "defaultdict"}


def _is_lru_cached(node: ast.FunctionDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id in {
            "lru_cache",
            "cache",
        }:
            return True
        if isinstance(target, ast.Attribute) and target.attr in {
            "lru_cache",
            "cache",
        }:
            return True
    return False


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CONSTRUCTORS
    )


class LruCachePurityChecker(Checker):
    name = "lru-cache-purity"
    description = (
        "lru_cache functions must not take mutable defaults, touch "
        "global/nonlocal state, or close over enclosing scopes"
    )

    def check(
        self, codebase: Codebase, config: LintConfig
    ) -> Iterator[Finding]:
        for module in codebase.iter_modules((config.package,)):
            # One walk per module; each node carries whether it lies
            # inside a function (its body, decorators or defaults).
            stack: list[tuple[ast.AST, bool]] = [(module.tree, False)]
            while stack:
                node, in_function = stack.pop()
                is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                if is_def and _is_lru_cached(node):
                    yield from self._check_site(
                        codebase, module, node, nested=in_function
                    )
                stack.extend(
                    (child, in_function or is_def)
                    for child in ast.iter_child_nodes(node)
                )

    def _check_site(
        self, codebase: Codebase, module, node: ast.FunctionDef, nested: bool
    ) -> Iterator[Finding]:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield self.finding(
                    codebase,
                    module,
                    default.lineno,
                    f"lru_cache function {node.name}() has a mutable "
                    "default argument",
                    hint="use None + an in-body fallback, or a tuple",
                )
        for statement in ast.walk(node):
            if isinstance(statement, (ast.Global, ast.Nonlocal)):
                keyword = (
                    "global"
                    if isinstance(statement, ast.Global)
                    else "nonlocal"
                )
                yield self.finding(
                    codebase,
                    module,
                    statement.lineno,
                    f"lru_cache function {node.name}() declares "
                    f"{keyword} {', '.join(statement.names)}",
                    hint="cached results must be pure in their arguments",
                )
        if nested:
            yield self.finding(
                codebase,
                module,
                node.lineno,
                f"lru_cache function {node.name}() is defined inside "
                "another function",
                hint=(
                    "hoist it to module level: closures hide state from "
                    "the cache key and the cache never dies"
                ),
            )
