"""Ablation — exact-solver engineering choices.

The ablation called out in DESIGN.md: the candidate-pool optimiser vs
the naive evaluator on φ_fib model checking (the optimisation that makes
E05 feasible).
"""

from benchmarks.reporting import print_banner, print_table
from repro.fc.builders import phi_fib
from repro.fc.semantics import evaluate, evaluate_naive
from repro.fc.structures import word_structure
from repro.words.fibonacci import l_fib_word


PHI_FIB = phi_fib()
FIB_WORD = l_fib_word(3)  # length 16


def test_optimised_model_checking(benchmark):
    structure = word_structure(FIB_WORD, "abc")
    result = benchmark(lambda: evaluate(structure, PHI_FIB, {}))
    assert result is True


def test_naive_model_checking(benchmark):
    structure = word_structure(l_fib_word(1), "abc")  # length 6: naive blows
    # up beyond this — the ablation point.
    result = benchmark(lambda: evaluate_naive(structure, PHI_FIB, {}))
    assert result is True


def test_report_envelope():
    print_banner(
        "Ablation summary",
        "candidate pools vs the naive evaluator",
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
