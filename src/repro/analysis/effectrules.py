"""The four ``effects.*`` rules over the inferred summaries.

All consume :func:`repro.analysis.effects.analysis_for` (one shared
call graph + fixed point per lint run):

* ``effects.purity-propagation`` — every ``lru_cache`` site must be
  *transitively* pure: the local checks in :mod:`repro.analysis.purity`
  cannot see a helper three calls down that reads a mutated global;
* ``effects.assignment-purity`` — an ``_assignment_pure`` extension
  atom promises the batched sweep (:mod:`repro.fc.sweep`) that its
  truth depends only on the assigned values, so its ``_evaluate`` may
  neither read the per-word structure parameter nor reach impure code
  (the PR-4 ``_WordView.constant`` bug class);
* ``effects.memo-key-completeness`` — a family-wide memo's stored value
  may only depend on names derivable from the key expression, the memo
  root's own state (``self``-interned), module-level constants, and
  region-local derivations; reading anything else (say, a per-word
  ``ctx``) poisons the memo across words;
* ``effects.worker-isolation`` — functions reachable from registered
  engine task ``fn``s run inside forked workers whose module state is
  thrown away; assigning module-level state there is at best lost and
  at worst a race, except through the trusted counter modules and the
  artifact-store channel (``repro.store``): workers *may* publish
  artifacts, but only via the declared store modules — an inline
  ``effects[store]`` pin outside them is flagged, so the channel cannot
  be widened ad hoc.

Intentional exemptions are written *next to the code* as
``# repro-lint: allow[effects.<rule>] reason`` comments.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from repro.analysis.effects import analysis_for
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
    "EffectAssignmentPurityChecker",
    "EffectPurityPropagationChecker",
    "MemoKeyCompletenessChecker",
    "WorkerIsolationChecker",
]

_BUILTIN_NAMES = frozenset(dir(builtins))

#: Atoms every rule tolerates: effort counters are exempt by design, and
#: the ``store`` channel is too — an artifact-store probe returns either
#: exactly the value the cold computation would produce (content-
#: addressed, salt-versioned) or a miss, so it cannot change any cached
#: result.  Reaching storage *around* the channel still infers
#: ``io``/``unknown`` and fails these rules.
_TOLERATED = frozenset({"counter", "store"})


def _module_of(codebase: Codebase, analysis, qualname: str):
    return codebase.modules[analysis.graph.functions[qualname].module]


def _bound_names(target: ast.expr) -> list[str]:
    """The names a name or tuple-of-names assignment target binds."""
    elements = target.elts if isinstance(target, ast.Tuple) else [target]
    if all(isinstance(element, ast.Name) for element in elements):
        return [element.id for element in elements]
    return []


class EffectPurityPropagationChecker(Checker):
    name = "effects.purity-propagation"
    description = (
        "lru_cache sites must be transitively pure across the call "
        "graph (counter writes exempt)"
    )

    def check(
        self, codebase: Codebase, config: LintConfig
    ) -> Iterator[Finding]:
        analysis = analysis_for(codebase, config)
        graph = analysis.graph
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            if not _is_lru_cached(info.node):
                continue
            summary = analysis.summaries.get(qualname, frozenset())
            for atom in sorted(summary - _TOLERATED):
                chain = "; ".join(analysis.explain(qualname, atom))
                yield self.finding(
                    codebase,
                    _module_of(codebase, analysis, qualname),
                    analysis.first_step_line(qualname, atom),
                    f"lru_cache function {info.name}() is not transitively "
                    f"pure: {atom} via {chain}",
                    hint=(
                        "cached results must be a pure function of the "
                        "arguments; make the reachable code pure, route "
                        "effort through the counter modules, or suppress "
                        "with a reason"
                    ),
                )


def _assignment_pure_classes(codebase: Codebase) -> list[str]:
    """Classes declaring ``_assignment_pure`` (constant or property)."""
    flagged: list[str] = []
    for qualname, info in codebase.classes().items():
        for child in info.node.body:
            declares = False
            if isinstance(child, ast.Assign):
                declares = any(
                    isinstance(t, ast.Name) and t.id == "_assignment_pure"
                    for t in child.targets
                )
            elif isinstance(child, ast.AnnAssign):
                declares = (
                    isinstance(child.target, ast.Name)
                    and child.target.id == "_assignment_pure"
                )
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                declares = child.name == "_assignment_pure"
            if declares:
                flagged.append(qualname)
                break
    return sorted(flagged)


class EffectAssignmentPurityChecker(Checker):
    name = "effects.assignment-purity"
    description = (
        "_assignment_pure extension atoms may not read per-word "
        "structure or reach impure code"
    )

    def check(
        self, codebase: Codebase, config: LintConfig
    ) -> Iterator[Finding]:
        analysis = analysis_for(codebase, config)
        graph = analysis.graph
        targets: dict[str, str] = {}  # _evaluate qualname → flagged class
        for cls in _assignment_pure_classes(codebase):
            for candidate in sorted({cls} | codebase.subclasses(cls)):
                evaluate = graph.resolve_method(candidate, "_evaluate")
                if evaluate is not None:
                    targets.setdefault(evaluate, candidate)
        for qualname in sorted(targets):
            cls = targets[qualname]
            info = graph.functions[qualname]
            module = _module_of(codebase, analysis, qualname)
            yield from self._structure_reads(
                codebase, module, cls, info
            )
            summary = analysis.summaries.get(qualname, frozenset())
            for atom in sorted(summary - _TOLERATED):
                chain = "; ".join(analysis.explain(qualname, atom))
                yield self.finding(
                    codebase,
                    module,
                    analysis.first_step_line(qualname, atom),
                    f"_evaluate of _assignment_pure atom {cls} must infer "
                    f"pure but has {atom} via {chain}",
                    hint=(
                        "family-wide memos replay this atom's result across "
                        "words; anything beyond the assigned values breaks "
                        "the sweep"
                    ),
                )

    def _structure_reads(
        self, codebase: Codebase, module, cls: str, info
    ) -> Iterator[Finding]:
        if not info.params:
            return
        structure = info.params[0]  # (self,) structure, assignment
        for node in ast.walk(info.node):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id == structure
            ):
                yield self.finding(
                    codebase,
                    module,
                    node.lineno,
                    f"_assignment_pure atom {cls} reads the per-word "
                    f"structure parameter {structure!r} in _evaluate",
                    hint=(
                        "an assignment-pure atom's truth may depend only on "
                        "the assigned values — structure reads poison "
                        "family-wide memos (the _WordView.constant bug "
                        "class); gate the read behind _assignment_pure or "
                        "suppress with a reason"
                    ),
                )


class MemoKeyCompletenessChecker(Checker):
    name = "effects.memo-key-completeness"
    description = (
        "family-wide memo values may only depend on key-derived, "
        "memo-root, or module-constant state"
    )

    def check(
        self, codebase: Codebase, config: LintConfig
    ) -> Iterator[Finding]:
        analysis = analysis_for(codebase, config)
        graph = analysis.graph
        memo_modules = getattr(config, "memo_modules", ())
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            if info.module not in memo_modules:
                continue
            module = codebase.modules[info.module]
            yield from self._check_function(codebase, module, info)

    # -- one function ------------------------------------------------------

    def _check_function(
        self, codebase: Codebase, module, info
    ) -> Iterator[Finding]:
        nodes = list(ast.walk(info.node))
        gets = [
            node
            for node in nodes
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and _bound_names(node.targets[0])
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr in ("get", "pop")
            and node.value.args
        ]
        stores = [
            node
            for node in nodes
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Subscript)
        ]
        for get in gets:
            memo_expr = get.value.func.value
            key_expr = get.value.args[0]
            memo_src = ast.unparse(memo_expr)
            key_src = ast.unparse(key_expr)
            store = next(
                (
                    s
                    for s in sorted(stores, key=lambda s: s.lineno)
                    if s.lineno > get.lineno
                    and ast.unparse(s.targets[0].value) == memo_src
                    and ast.unparse(s.targets[0].slice) == key_src
                ),
                None,
            )
            if store is None:
                continue
            if not self._self_rooted(info, get, memo_expr):
                # Only memos hanging off the family object are
                # *family-wide*; a plain-local working dict (e.g. a
                # backtracking frame) or a parameter may legitimately
                # cache per-call state.
                continue
            yield from self._check_region(
                codebase, module, info, get, store, memo_expr, key_expr,
                memo_src, key_src,
            )

    @staticmethod
    def _self_rooted(info, get, memo_expr) -> bool:
        """Is the memo a ``self`` attribute chain, or a one-hop alias?

        Accepts ``self._tables`` directly and ``states = self._states``
        followed by operations on ``states``.
        """
        if not info.self_name:
            return False

        def chain_base(expr):
            while isinstance(expr, (ast.Attribute, ast.Subscript)):
                expr = expr.value
            return expr

        base = chain_base(memo_expr)
        if not isinstance(base, ast.Name):
            return False
        if base.id == info.self_name:
            return base is not memo_expr  # a chain, not bare ``self``
        for node in ast.walk(info.node):
            if (
                isinstance(node, ast.Assign)
                and node.lineno <= get.lineno
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == base.id
            ):
                value_base = chain_base(node.value)
                if (
                    isinstance(value_base, ast.Name)
                    and value_base.id == info.self_name
                    and value_base is not node.value
                ):
                    return True
        return False

    def _check_region(
        self, codebase, module, info, get, store,
        memo_expr, key_expr, memo_src, key_src,
    ) -> Iterator[Finding]:
        fn = info.node
        region = [
            node
            for node in ast.walk(fn)
            if hasattr(node, "lineno")
            and get.lineno < node.lineno <= store.lineno
        ]
        fn_locals = set(info.params)
        if info.self_name:
            fn_locals.add(info.self_name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                fn_locals.add(node.id)

        def names_of(expr: ast.expr) -> set[str]:
            return {
                n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
            }

        allowed = set(_BUILTIN_NAMES)
        allowed |= names_of(key_expr) | names_of(memo_expr)
        for default in get.value.args[1:]:
            allowed |= names_of(default)
        if info.self_name:
            allowed.add(info.self_name)
        for node in region:
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                allowed.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    allowed.add(arg.arg)
        # What the get reads back (``decided, accepted = memo.get(k)``)
        # comes from the memo itself.
        allowed.update(_bound_names(get.targets[0]))
        # Single-name assignments before the get: unfold allowed names
        # backward (the key's inputs are key-derived) and derive forward
        # (locals computed purely from allowed names are allowed).
        pre_defs: list[tuple[str, set[str]]] = []
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and node.lineno <= get.lineno
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                pre_defs.append((node.targets[0].id, names_of(node.value)))

        def unfold(pre_def: tuple[str, set[str]]) -> bool:
            target, value_names = pre_def
            if target in allowed and not value_names <= allowed:
                allowed.update(value_names)
                return True
            if target not in allowed and value_names and value_names <= allowed:
                allowed.add(target)
                return True
            return False

        until_stable(pre_defs, unfold)
        reported: set[str] = set()
        for node in sorted(
            (
                n
                for n in region
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            ),
            key=lambda n: (n.lineno, n.col_offset),
        ):
            name = node.id
            if name in allowed or name in reported:
                continue
            if name not in fn_locals:
                continue  # module-scope constant/function/class
            reported.add(name)
            yield self.finding(
                codebase,
                module,
                node.lineno,
                f"memo {memo_src} stores a value that depends on {name!r}, "
                f"which is not derivable from the key {key_src}",
                hint=(
                    "widen the memo key, derive the value from key/"
                    "memo-root state only, or suppress with a reason "
                    "explaining why the dependency is word-independent"
                ),
            )


class WorkerIsolationChecker(Checker):
    name = "effects.worker-isolation"
    description = (
        "engine task closures may not assign module-level state outside "
        "the trusted counter modules, and may reach the artifact store "
        "only through the declared store modules"
    )

    def check(
        self, codebase: Codebase, config: LintConfig
    ) -> Iterator[Finding]:
        roots = self._task_roots(config)
        if not roots:
            return
        analysis = analysis_for(codebase, config)
        graph = analysis.graph
        parents = reach(
            [root for root in roots if root in graph.functions],
            analysis.callees,
        )
        counters = set(getattr(config, "counter_modules", ()))
        stores = set(getattr(config, "store_modules", ()))
        for qualname in sorted(parents):
            info = graph.functions[qualname]
            if info.module in counters or info.module in stores:
                continue
            seeds = analysis.seeds.get(qualname, {})
            declared = graph.scans[qualname].declared
            if declared is not None and "store" in declared:
                # The store effect is a *channel*, not a suppression: a
                # worker may publish artifacts, but only by calling into
                # the store modules, whose declared summaries propagate
                # the atom on their own.  An inline pin outside them
                # would let arbitrary storage code masquerade as the
                # trusted channel.
                yield self.finding(
                    codebase,
                    codebase.modules[info.module],
                    info.line,
                    f"task-reachable function {info.name}() declares the "
                    f"store effect inline; only the store modules "
                    f"({', '.join(sorted(stores)) or 'none configured'}) "
                    f"may declare it",
                    hint=(
                        "route artifact reads/writes through "
                        "repro.store.runtime.load/publish — the channel's "
                        "declared summary propagates the store atom to "
                        "callers without a pin"
                    ),
                )
            if declared is not None and "mutates-global" not in declared:
                continue
            if "mutates-global" not in seeds and not (
                declared and "mutates-global" in declared
            ):
                continue
            line, detail = seeds.get(
                "mutates-global", (info.line, "declared mutates-global")
            )
            yield self.finding(
                codebase,
                codebase.modules[info.module],
                line,
                f"task-reachable function {info.name}() assigns "
                f"module-level state ({detail}); reached via "
                f"{analysis.chain(qualname, parents)}",
                hint=(
                    "forked workers throw this state away (or race on "
                    "it); keep task closures stateless, or route effort "
                    "through the counter modules"
                ),
            )

    @staticmethod
    def _task_roots(config: LintConfig) -> list[str]:
        roots = list(getattr(config, "task_roots", ()))
        if not roots and config.registry_builder:
            from repro.engine.spec import resolve_function

            builder = resolve_function(config.registry_builder)
            roots = builder().fn_paths()
        return sorted({root.replace(":", ".") for root in roots})
