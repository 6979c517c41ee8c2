"""Walkthrough: from a defining matrix to characteristic classes.

Builds a 6-dimensional real Bott manifold whose columns pair up, prints
the P-matrix, the column cocycles, the characteristic ideal, and the
truncated Stiefel-Whitney class, and shows why the manifold is
orientable but not Spin.

Run:  python demos/characteristic_classes.py
"""

from realbott import (
    GradedPolyF2,
    bott_to_p,
    characteristic_ideal,
    cocycles,
    parse_bott,
    sw_class,
)

BOTT_TEXT = """
0 0 1 1 1 1
0 0 1 1 1 1
0 0 0 0 1 1
0 0 0 0 1 1
0 0 0 0 0 0
0 0 0 0 0 0
"""


def main() -> None:
    a = parse_bott(BOTT_TEXT)
    print("Bott matrix A (strictly upper triangular over GF(2)):")
    print(a)
    print()

    p = bott_to_p(a)
    print("P-matrix of the torus action (1 = half turn, 2 = conjugation):")
    print(p)
    print()

    alphas, betas = cocycles(p)  # int masks, bit i for x_{i+1}
    print("Column cocycles alpha_j, beta_j in GF(2)[x1..x6]:")
    for j, (al, be) in enumerate(zip(alphas, betas), start=1):
        al, be = GradedPolyF2.linear(p.d, al), GradedPolyF2.linear(p.d, be)
        print(f"  column {j}:  alpha = {al}    beta = {be}")
    print("(beta_j = x_j always holds for Bott-shaped P-matrices, and")
    print(" alpha_j + beta_j reads off column j of A.)")
    print()

    basis = characteristic_ideal(p)
    print("Characteristic ideal generators theta_j = alpha_j * beta_j:")
    for j, theta in enumerate(basis.thetas, start=1):
        print(f"  theta_{j} = {theta}")
    print(f"Reduced degree-2 basis has rank {basis.rank}.")
    print()

    w = sw_class(p, 2)
    print(f"Total Stiefel-Whitney class, truncated at degree 2:  w = {w}")
    w1 = w.graded_component(1)
    w2 = w.graded_component(2)
    print(f"  w1 = {w1}  ->  orientable: {w1.is_zero}")
    print(f"  w2 = {w2} (raw, before reduction modulo the ideal)")
    print()

    member = basis.contains(w2)
    print(f"Is w2 a combination of the theta_j?  {member}")
    print("x3^2 + x4^2 misses the span because columns 3 and 4 of A are")
    print("nonzero, so the manifold is orientable but carries no Spin")
    print("structure.")


if __name__ == "__main__":
    main()
