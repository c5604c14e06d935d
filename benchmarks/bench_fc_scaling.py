"""Scaling — FC model checking vs word length.

The cost of ``models`` (the sweep evaluator on a one-word family) on the
paper's sentences as the input word grows: φ_ww (squares), φ_no_cube
(∀-heavy), φ_vbv (the rank-5 congruence witness), and φ_fib on genuine
L_fib members.  These curves back the DESIGN.md feasibility envelope.
"""

import pytest

from benchmarks.reporting import print_banner, print_table
from repro.fc.builders import phi_fib, phi_no_cube, phi_vbv, phi_ww
from repro.fc.semantics import models
from repro.words.fibonacci import l_fib_word

WW = phi_ww()
NO_CUBE = phi_no_cube()
VBV = phi_vbv()
FIB = phi_fib()


@pytest.mark.parametrize("n", [8, 16, 32])
def test_ww_scaling(benchmark, n):
    word = ("ab" * n)[:n]
    result = benchmark(lambda: models(word, WW, "ab"))
    assert result is (n % 4 == 0)  # (ab)^{n/2} with n/2 even is a square


@pytest.mark.parametrize("n", [8, 16, 32])
def test_no_cube_scaling(benchmark, n):
    word = (l_fib_word(8) * 3).replace("c", "a")[:n]
    benchmark(lambda: models(word, NO_CUBE, "ab"))


@pytest.mark.parametrize("n", [9, 17, 33])
def test_vbv_scaling(benchmark, n):
    half = (n - 1) // 2
    word = "a" * half + "b" + "a" * half
    result = benchmark(lambda: models(word, VBV, "ab"))
    assert result is True


@pytest.mark.parametrize("fib_index", [4, 6, 8])
def test_fib_scaling(benchmark, fib_index):
    word = l_fib_word(fib_index)
    result = benchmark(lambda: models(word, FIB, "abc"))
    assert result is True


def test_scaling_summary():
    print_banner(
        "FC model-checking envelope",
        "the paper's sentences on growing inputs (see timing table above)",
    )
    print_table(
        ["sentence", "rank", "tested lengths"],
        [
            ["φ_ww", 3, "8 / 16 / 32"],
            ["φ_no_cube", 3, "8 / 16 / 32"],
            ["φ_vbv", 5, "9 / 17 / 33"],
            ["φ_fib", "≈8 + chains", "12 / 33 / 96 (members F₄/F₆/F₈)"],
        ],
    )
