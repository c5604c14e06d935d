"""Ablation — exact-solver engineering choices.

The ablation called out in DESIGN.md: the sweep evaluator behind
``models`` (compiled candidate pools, projection caches) vs the naive
evaluator on φ_fib model checking (the optimisation that makes E05
feasible).
"""

from benchmarks.reporting import print_banner, print_table
from repro.fc.builders import phi_fib
from repro.fc.semantics import evaluate_naive, models
from repro.fc.structures import word_structure
from repro.words.fibonacci import l_fib_word


PHI_FIB = phi_fib()
FIB_WORD = l_fib_word(3)  # length 16


def test_optimised_model_checking(benchmark):
    result = benchmark(lambda: models(FIB_WORD, PHI_FIB, "abc"))
    assert result is True


def test_naive_model_checking(benchmark):
    structure = word_structure(l_fib_word(1), "abc")  # length 6: naive blows
    # up beyond this — the ablation point.
    result = benchmark(lambda: evaluate_naive(structure, PHI_FIB, {}))
    assert result is True


def test_report_envelope():
    print_banner(
        "Ablation summary",
        "the sweep evaluator (models) vs the naive evaluator",
    )
    print_table(
        ["component", "naive scope", "optimised scope"],
        [
            [
                "φ_fib model check",
                "length ≤ 10 words",
                "length ≈ 100 words",
            ],
        ],
    )
