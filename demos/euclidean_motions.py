"""Walkthrough: the exact Euclidean-motion realization and its oracle role.

The fundamental group of a real Bott manifold is generated by n motions
of R^n: s_i flips the coordinates recorded in row i of the matrix and
shifts coordinate i by one half.  Translations are stored doubled, so
every composition is exact integer arithmetic.  Freeness of the torus
action reduces to a parity statement about these motions, giving an
oracle that is independent of the row-calculus route.

Run:  python demos/euclidean_motions.py
"""

from realbott import (
    acts_freely,
    bott_to_p,
    check_against_rows,
    element_of,
    enumerate_bott,
    free_at_subset,
    generators,
    parse_bott,
)

KLEIN = "0 1 / 0 0"


def describe(motion) -> str:
    signs = " ".join(f"{s:+d}" for s in motion.signs)
    shifts = " ".join(f"{t}/2" for t in motion.trans2)
    return f"signs [{signs}]  translation [{shifts}]"


def main() -> None:
    a = parse_bott(KLEIN)
    print("Klein bottle matrix:")
    print(a)
    print()

    gens = generators(a)
    for i, s in enumerate(gens, start=1):
        print(f"s_{i}: {describe(s)}")
    print()

    print("Squares are unit translations (the lattice inside the group):")
    for i, s in enumerate(gens, start=1):
        print(f"s_{i}^2: {describe(s.compose(s))}")
    print()

    g = element_of(a, [0, 1])
    print(f"s_1 s_2: {describe(g)}")
    print("The flip of coordinate 2 carries the half-step of s_2 to -1/2;")
    print("coordinate 1 keeps sign +1 with an odd half-shift, so the")
    print("element acts freely on the torus:")
    print(f"  acts_freely(A, {{1, 2}}) = {acts_freely(a, [0, 1])}")
    print()

    p = bott_to_p(a)
    print("Per-subset comparison against the row-calculus predicate:")
    for mask in range(1, 4):
        subset = [i for i in range(2) if (mask >> i) & 1]
        e = acts_freely(a, subset)
        r = free_at_subset(p, mask)
        names = ", ".join(f"s_{i + 1}" for i in subset)
        print(f"  {{{names}}}: motion oracle {e}, row calculus {r}")
    print()

    print("Exhaustive cross-check over every matrix with n <= 4:")
    total = 0
    problems = 0
    for n in (1, 2, 3, 4):
        for m in enumerate_bott(n):
            total += 1
            problems += len(check_against_rows(m))
    print(f"  {total} matrices, {problems} disagreements")


if __name__ == "__main__":
    main()
