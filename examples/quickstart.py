"""Quickstart: the three layers of the library in five minutes.

1. FC — model-check formulas on word structures;
2. EF games — decide ≡_k exactly and extract witnesses;
3. spanners — extract, combine, select.

Run:  python examples/quickstart.py
"""

from repro.ef.equivalence import (
    distinguishing_rank,
    equiv_k,
    find_equivalent_unary_pair,
)
from repro.fc.builders import phi_no_cube, phi_vbv, phi_ww
from repro.fc.semantics import models, satisfying_assignments
from repro.fc.syntax import Concat, Var
from repro.spanners.spanner import extract


def fc_layer() -> None:
    print("— FC: first-order logic over factor structures —")
    print(f"  'abab' is a square ww:        {models('abab', phi_ww(), 'ab')}")
    print(f"  'aba'  is a square ww:        {models('aba', phi_ww(), 'ab')}")
    print(f"  'aab'  is cube-free:          {models('aab', phi_no_cube(), 'ab')}")
    print(f"  'aaa'  is cube-free:          {models('aaa', phi_no_cube(), 'ab')}")

    # open formulas define relations: ⟦x ≐ y·y⟧(aaaa) is R_copy on factors.
    x, y = Var("x"), Var("y")
    copies = sorted(
        (s[x], s[y])
        for s in satisfying_assignments("aaaa", Concat(x, y, y), "a")
    )
    print(f"  R_copy on factors of aaaa:    {copies}")


def game_layer() -> None:
    print("\n— EF games: k-round equivalence, decided exactly —")
    print(f"  a^12 ≡₂ a^14:                 {equiv_k('a'*12, 'a'*14, 2)}")
    print(f"  a^12 ≡₂ a^13:                 {equiv_k('a'*12, 'a'*13, 2)}")
    print(
        "  distinguishing rank of a⁴/a³: "
        f"{distinguishing_rank('aaaa', 'aaa', 3, alphabet='a')}"
    )
    print("  minimal (p,q) with aᵖ ≡_k a^q per rank:")
    for k in range(3):
        print(f"    k={k}: {find_equivalent_unary_pair(k, max_exponent=20)}")


def spanner_layer() -> None:
    print("\n— document spanners: extract + algebra —")
    document = "aabaab"
    blocks = extract(".*x{a+}.*")
    print(f"  a-blocks of {document!r}:")
    for row in sorted(blocks.evaluate(document), key=lambda r: r["x"]):
        span = row["x"]
        print(f"    {span}  ↦  {span.content(document)!r}")

    pairs = blocks.join(extract(".*y{a+}.*"))
    repeats = pairs.eq("x", "y")
    distinct = sum(
        1 for row in repeats.evaluate(document) if row["x"] != row["y"]
    )
    print(f"  ζ= finds {distinct} repeated a-block pairs at distinct spans")
    print(f"  spanner class: {(pairs - repeats).classify()}")


if __name__ == "__main__":
    fc_layer()
    game_layer()
    spanner_layer()
