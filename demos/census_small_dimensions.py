"""Walkthrough: exhaustive censuses of Bott matrices at small dimension.

Counts every strictly upper-triangular 0/1 matrix up to n = 6 and
tabulates how many are orientable, Kahler, and Spin; a plain census
decodes only the orientable matrices that are Kahler or Spin and counts
the rest without looking at them.  Also lists the Kahler-but-not-Spin population at n = 6, the
smallest dimension where it is nonempty.

Run:  python demos/census_small_dimensions.py
"""

from realbott import CSV_HEADER, CensusConfig, analyze, is_kahler, parse_bott, run_census


def main() -> None:
    print(CSV_HEADER)
    for n in range(1, 7):
        # the census lists every matrix on request; the last listing (n = 6)
        # is filtered below
        row, listing = run_census(CensusConfig(n=n, emit_matrices=n == 6))
        print(row.to_csv())
    print()

    not_spin = []
    for line in listing:
        a = parse_bott(line)
        pairing = is_kahler(a)  # cheap column test first, analyze only on a pairing
        if pairing is not None and not analyze(a).spin:
            not_spin.append((line, pairing))
    print(f"Kahler but not Spin at n = 6: {len(not_spin)} matrices")
    for line, pairing in not_spin[:5]:
        pairs = " ".join(f"({i + 1},{j + 1})" for i, j in pairing.pairs)
        print(f"  {line}   pairs {pairs}")
    if len(not_spin) > 5:
        print(f"  ... and {len(not_spin) - 5} more")


if __name__ == "__main__":
    main()
