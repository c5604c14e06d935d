"""The four ``domains.*`` rules over the id-domain flow analysis.

Each rule reports one event kind recorded by
:class:`repro.analysis.domains.DomainAnalysis`:

* ``domains.no-cross-mix`` — ids from different domains compared,
  unioned, passed where another domain is declared, or used to index a
  container declared over another id space (plus malformed pins, so a
  typo'd declaration cannot silently disable itself);
* ``domains.bitset-universe`` — bitset and/or/xor/contains between
  masks minted over different intern tables;
* ``domains.universe-escape`` — ids witnessed out of an unrestricted
  ``bitset-pool`` candidate mask without first intersecting with the
  word's ``bitset-universe`` member mask (the PR-4 sweep bug class);
* ``domains.slot-discipline`` — a container declared
  ``map[slot, ...]`` subscripted with anything but a slot id.

Deliberate violations carry the standard suppression comment, e.g.
``# repro-lint: allow[domains.slot-discipline] reason``.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.domains import domains_for
from repro.analysis.framework import Checker, Codebase, Finding, LintConfig

__all__ = [
    "DomainsBitsetUniverseChecker",
    "DomainsNoCrossMixChecker",
    "DomainsSlotDisciplineChecker",
    "DomainsUniverseEscapeChecker",
]


class _DomainsChecker(Checker):
    """Shared plumbing: replay one event kind as findings."""

    kind = ""
    hint = ""

    def check(
        self, codebase: Codebase, config: LintConfig
    ) -> Iterator[Finding]:
        analysis = domains_for(codebase, config)
        scope = config.domain_modules or (config.package,)
        for qualname in sorted(analysis.events):
            info = analysis.graph.functions[qualname]
            if not any(
                info.module == prefix or info.module.startswith(prefix + ".")
                for prefix in scope
            ):
                continue
            module = codebase.modules[info.module]
            for event in analysis.events[qualname]:
                if event.kind != self.kind:
                    continue
                yield self.finding(
                    codebase,
                    module,
                    event.line,
                    f"{qualname} {event.message}",
                    hint=self.hint,
                )


class DomainsNoCrossMixChecker(_DomainsChecker):
    name = "domains.no-cross-mix"
    description = (
        "ids from different id domains may not be compared, unioned, "
        "stored over each other, or used to index another domain's "
        "tables without a declared translation"
    )
    kind = "mix"
    hint = (
        "translate explicitly through a pinned producer "
        "(# repro-lint: domain[returns=...]) or suppress a deliberate "
        "reinterpretation with # repro-lint: allow[domains.no-cross-mix]"
    )

    def check(
        self, codebase: Codebase, config: LintConfig
    ) -> Iterator[Finding]:
        analysis = domains_for(codebase, config)
        for module_name, line, text in analysis.pin_errors:
            yield self.finding(
                codebase,
                codebase.modules[module_name],
                line,
                f"malformed domain pin {text!r}",
                hint=(
                    "pin grammar: domain[returns=<spec>, <param>=<spec>] on "
                    "a def, domain[<spec>] on an assignment; specs are "
                    "plain | interval | slot | shard-lane | dfa-state | "
                    "intern:<role> | bitset-universe:<role> | "
                    "bitset-pool:<role> | iter[<spec>] | map[<spec>, <spec>]"
                ),
            )
        yield from super().check(codebase, config)


class DomainsBitsetUniverseChecker(_DomainsChecker):
    name = "domains.bitset-universe"
    description = (
        "bitset and/or/xor/contains are only defined between masks "
        "minted over the same intern table"
    )
    kind = "bitset"
    hint = (
        "masks carry their minting table's role; rebuild one side over "
        "the shared table (kernel.bitset.declare_universe / from_ids) "
        "instead of mixing id spaces"
    )


class DomainsUniverseEscapeChecker(_DomainsChecker):
    name = "domains.universe-escape"
    description = (
        "quantifier-scan and pool candidates must be intersected with "
        "the word's member mask before any id is witnessed"
    )
    kind = "escape"
    hint = (
        "apply `pool & table.mask` (bitset-pool & bitset-universe -> "
        "bitset-universe) before iter_ids — unrestricted pools may "
        "contain ids that are not factors of the current word"
    )


class DomainsSlotDisciplineChecker(_DomainsChecker):
    name = "domains.slot-discipline"
    description = (
        "relation tuples and environments are indexed only through "
        "declared slot maps"
    )
    kind = "slot"
    hint = (
        "derive the index from a pinned slot producer (e.g. "
        "_Compiler._slot) or pin the decoding site with "
        "# repro-lint: allow[domains.slot-discipline] and a reason"
    )
