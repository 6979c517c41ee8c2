"""Walkthrough: the Kahler column pairing and the two Spin deciders.

A real Bott manifold of even dimension carries a Kahler structure
exactly when the columns of its matrix partition into equal pairs.  On
such manifolds Spin has a closed form: sum row i over one representative
column per pair; every row must come out even unless its own column is
entirely zero.  The general decider (w2 membership in the characteristic
ideal) works for every Bott matrix; the demo runs both and shows they
agree.

Run:  python demos/kahler_and_spin.py
"""

import itertools

from realbott import (
    KahlerPairing,
    analyze,
    is_kahler,
    parse_bott,
    spin_kahler_closed_form,
    spin_membership,
)

NOT_SPIN = """
0 0 1 1 1 1
0 0 1 1 1 1
0 0 0 0 1 1
0 0 0 0 1 1
0 0 0 0 0 0
0 0 0 0 0 0
"""

SPIN = """
0 0 1 1 1 1
0 0 0 0 0 0
0 0 0 0 0 0
0 0 0 0 0 0
0 0 0 0 0 0
0 0 0 0 0 0
"""


def show(label: str, text: str) -> None:
    a = parse_bott(text)
    print(f"=== {label} ===")
    print(a)
    pairing = is_kahler(a)
    if pairing is None:
        print("No Kahler structure: the columns do not pair up equally.")
        print()
        return
    pairs = " ".join(f"({i + 1},{j + 1})" for i, j in pairing.pairs)
    print(f"Kahler: columns pair as {pairs}")

    spin_cf, s_vector = spin_kahler_closed_form(a, pairing)
    print(f"S-vector (row parities over representatives): {s_vector}")
    offending = [
        i + 1 for i, s in enumerate(s_vector) if s and any(a.column(i))
    ]
    if offending:
        print(f"Rows {offending} have odd S and a nonzero column -> not Spin.")
    else:
        print("Every odd-S row has a zero column -> Spin.")

    spin_gen, w1, w2 = spin_membership(a)
    print(f"General decider: w1 = {w1}, raw w2 = {w2}, spin = {spin_gen}")
    assert spin_cf == spin_gen

    # the verdict never depends on which representative is taken; the
    # first column of each pair is its representative, so list each
    # chosen one first
    verdicts = set()
    for reps in itertools.product(*pairing.pairs):
        pairs = tuple((r, i + j - r) for r, (i, j) in zip(reps, pairing.pairs))
        verdicts.add(spin_kahler_closed_form(a, KahlerPairing(pairs))[0])
    print(f"Verdict over all {2 ** len(pairing.pairs)} representative choices: {verdicts}")
    print()


def main() -> None:
    show("Kahler but not Spin", NOT_SPIN)
    show("Kahler and Spin (four equal columns, the rest zero)", SPIN)
    show("Not Kahler (Klein bottle)", "0 1 / 0 0")

    print("analyze() bundles everything and cross-checks the deciders:")
    rep = analyze(parse_bott(NOT_SPIN))
    print(
        f"  free={rep.free} holonomy_full={rep.holonomy_full} "
        f"orientable={rep.orientable} kahler={rep.kahler is not None} "
        f"spin={rep.spin}"
    )


if __name__ == "__main__":
    main()
