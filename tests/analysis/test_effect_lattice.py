"""Pinned effect summaries for representative repository functions.

These are regression anchors for the fixed-point inference: if a
refactor changes what the analyzer believes about one of these
functions, this table fails loudly and the diff below documents what
moved.  Picked to span the lattice — pure leaves, counter-only solver
entry points, self-interning memo owners, per-parameter mutation, and
io at the cache boundary.
"""

import pytest

from repro.analysis.effects import EffectAnalysis
from repro.analysis.framework import Codebase, default_config


@pytest.fixture(scope="module")
def analysis():
    config = default_config()
    return EffectAnalysis(Codebase(config.src_root, config.package), config)


PINNED = {
    # The metrics leaf is the declared counter channel.
    "repro.metrics.record": ["counter"],
    # words/: the combinatorial base layer is pure throughout.
    "repro.words.factors.factors": [],
    "repro.words.periodicity.smallest_period": [],
    "repro.words.primitivity.primitive_root": [],
    # kernel/: interning is counter-accounted, hydrates via the store
    # channel, and families self-intern.
    "repro.kernel.interning.LazyCat.point": [],
    "repro.kernel.interning.intern_table": ["counter", "store"],
    "repro.kernel.sweep.SweepFamily._merge": [],
    "repro.kernel.sweep.SweepFamily.intern": ["mutates-self"],
    "repro.kernel.sweep.SweepFamily._extend": ["counter", "mutates-self"],
    "repro.kernel.efcore.KernelSolver._mirror": [],
    "repro.kernel.efcore.KernelSolver._spoiler_moves": [],
    "repro.kernel.efcore.KernelSolver.duplicator_wins": [
        "counter", "mutates-self",
    ],
    # fc/: structures are pure views; sweep programs self-memoise.
    "repro.fc.builders.phi_ww": [],
    "repro.fc.structures.WordStructure.constant": [],
    "repro.fc.sweep._WordView.constant": [],
    "repro.fc.sweep.SweepProgram._filter_ok": ["mutates-self", "unknown"],
    "repro.fc.sweep.SweepProgram._flatten": [
        "mutates-arg:out", "mutates-self", "unknown",
    ],
    # foeq/: per-parameter mutation tracking keeps the lru-cached
    # position_program transitively pure even though its helpers
    # mutate their accumulator arguments.
    "repro.foeq.compiled.position_program": [],
    "repro.foeq.compiled.PositionProgram._flatten": [
        "mutates-arg:out", "mutates-self",
    ],
    "repro.foeq.compiled.PositionProgram._eval": [
        "mutates-arg:sigma", "mutates-arg:state",
    ],
    "repro.foeq.semantics.p_evaluate": ["mutates-arg:assignment"],
    "repro.foeq.games.PositionGameSolver._wins": [
        "counter", "mutates-self",
    ],
    # ef/ and engine/: solver memo owners (persisting their memo through
    # the store channel) and the io cache boundary.
    "repro.ef.solver.GameSolver.duplicator_wins": [
        "counter", "mutates-self", "store",
    ],
    # store/: the channel itself is declared, its codecs infer pure.
    "repro.store.runtime.load": ["store"],
    "repro.store.artifacts.fingerprint_strings": [],
    "repro.store.artifacts.encode_memo": [],
    "repro.engine.spec.canonical_json": [],
    "repro.engine.spec.TaskRegistry.register": ["mutates-self"],
    "repro.engine.cache.ResultCache.store": [
        "io", "mutates-self", "unknown",
    ],
}


@pytest.mark.parametrize("qualname", sorted(PINNED))
def test_pinned_summary(analysis, qualname):
    assert qualname in analysis.summaries, f"{qualname} not analysed"
    assert sorted(analysis.summaries[qualname]) == PINNED[qualname]


def test_every_function_has_a_summary(analysis):
    assert set(analysis.summaries) == set(analysis.graph.functions)


def test_counter_modules_are_declared_counter(analysis):
    for qualname, info in analysis.graph.functions.items():
        if info.module in analysis.config.counter_modules:
            assert analysis.summaries[qualname] == frozenset({"counter"})


def test_store_modules_are_declared_store(analysis):
    seen = 0
    for qualname, info in analysis.graph.functions.items():
        if info.module in analysis.config.store_modules:
            assert analysis.summaries[qualname] == frozenset({"store"})
            seen += 1
    assert seen > 0, "store modules missing from the analysed codebase"
