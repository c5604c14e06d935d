"""Import layering: the package DAG admits no upward imports.

The reproduction is layered bottom-up as

    words → kernel → {fc, fcreg} → {ef, foeq} → {spanners, semilinear}
          → core → engine → analysis

where a package may import from its own layer or any layer below, never
above.  Upward imports create initialisation cycles and — worse for a
proof lab — let substrate modules depend on experiment-orchestration
semantics.  Two escape hatches exist: *leaf* modules (e.g.
``repro.metrics``) sit below the whole DAG and may be imported from
anywhere, and *unconstrained* entry points (``repro.__main__``) sit
above it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import (
    Checker,
    Codebase,
    Finding,
    LintConfig,
    SourceModule,
)

__all__ = ["ImportLayeringChecker"]


class ImportLayeringChecker(Checker):
    name = "import-layering"
    description = (
        "packages may import their own layer or below; never upward "
        "along words → kernel → {fc,fcreg} → {ef,foeq} → "
        "{spanners,semilinear} → core → engine"
    )

    def check(
        self, codebase: Codebase, config: LintConfig
    ) -> Iterator[Finding]:
        layer_of: dict[str, int] = {}
        for index, group in enumerate(config.layers):
            for package in group:
                layer_of[f"{config.package}.{package}"] = index
        leaves = set(config.leaf_modules)
        unconstrained = set(config.unconstrained_modules)

        for module in codebase.iter_modules():
            if module.name in unconstrained:
                continue
            importer_package = self._package_of(module.name, layer_of, leaves)
            seen: set[tuple[int, str]] = set()
            for node, target in self._imports(codebase, module):
                if not (
                    target == config.package
                    or target.startswith(config.package + ".")
                ):
                    continue
                if target in leaves or target in unconstrained:
                    continue
                imported_package = self._package_of(target, layer_of, leaves)
                if imported_package is None:
                    continue
                if (node.lineno, imported_package) in seen:
                    continue
                seen.add((node.lineno, imported_package))
                if importer_package == "leaf":
                    yield self.finding(
                        codebase,
                        module,
                        node.lineno,
                        f"leaf module {module.name} imports {target}; leaf "
                        "modules sit below the DAG and must not import "
                        "package code",
                    )
                    continue
                if importer_package is None:
                    continue  # unlayered top-level module
                if layer_of[imported_package] > layer_of[importer_package]:
                    yield self.finding(
                        codebase,
                        module,
                        node.lineno,
                        f"{module.name} (layer "
                        f"{self._short(importer_package)}) imports upward "
                        f"from {target} (layer "
                        f"{self._short(imported_package)})",
                        hint=(
                            "move the shared code below both layers (cf. "
                            "repro.metrics) or invert the dependency"
                        ),
                    )

    @staticmethod
    def _short(package: str) -> str:
        return package.rsplit(".", 1)[1]

    @staticmethod
    def _package_of(
        name: str, layer_of: dict[str, int], leaves: set[str]
    ) -> str | None:
        """The layered package a dotted module belongs to.

        Returns ``"leaf"`` for leaf modules, ``None`` for modules outside
        every layer (e.g. ``repro`` itself).
        """
        if name in leaves:
            return "leaf"
        parts = name.split(".")
        for cut in range(len(parts), 1, -1):
            prefix = ".".join(parts[:cut])
            if prefix in layer_of:
                return prefix
        return None

    @staticmethod
    def _imports(
        codebase: Codebase, module: SourceModule
    ) -> Iterator[tuple[ast.stmt, str]]:
        """Every imported dotted module name, with its AST node."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield node, alias.name
            elif isinstance(node, ast.ImportFrom):
                base = Codebase.resolve_import_base(module, node)
                if base is None:
                    continue
                yield node, base
                # ``from repro import metrics`` imports the submodule
                # even though the base is just ``repro``.
                for alias in node.names:
                    yield node, f"{base}.{alias.name}"
