"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact GF(2) algebra, so the tolerances are equality
plus the stated wall-clock budgets.  Run with ``pytest -s
tests/test_acceptance.py`` to see the one-line verdicts.
"""

import itertools
import json
import random
import time

from realbott import (
    CensusConfig,
    GradedPolyF2,
    KahlerPairing,
    bott_to_p,
    characteristic_ideal,
    cocycles,
    enumerate_bott,
    free_at_subset,
    generators,
    is_kahler,
    matrix_at,
    parse_bott,
    parse_pmatrix,
    run_census,
    spin_kahler_closed_form,
    spin_membership,
    sw_class,
    truncated_product,
)
from realbott.census import cell_count
from realbott.cli import main
from realbott.euclid import EuclideanMotion
from realbott.f2poly import encode_degree2

from conftest import SIXDIM_BOTT_TEXT, SIXDIM_P_TEXT, from_exponents, identical_columns_matrix


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_sixdim_pmatrix_check(capsys, tmp_path):
    started = time.perf_counter()
    path = tmp_path / "sixdim_p.txt"
    path.write_text(SIXDIM_P_TEXT)
    code = main(["check", str(path), "--pmat", "--json"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - started
    rep = json.loads(out)
    ok = (
        code == 0
        and rep["w2"] == "x3^2 + x4^2"
        and rep["kahler"] is True
        and rep["pairing"] == [[1, 2], [3, 4], [5, 6]]
        and rep["spin"] is False
        and elapsed < 1.0
    )
    report(1, ok, f"check on 6x6 P-matrix: w2={rep['w2']!r}, "
                  f"pairing={rep['pairing']}, spin={rep['spin']} ({elapsed:.3f}s)")


def test_criterion_02_sixdim_bott_check(capsys, tmp_path):
    started = time.perf_counter()
    path = tmp_path / "sixdim.txt"
    path.write_text(SIXDIM_BOTT_TEXT)
    code = main(["check", str(path), "--json"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - started
    rep = json.loads(out)
    a = parse_bott(SIXDIM_BOTT_TEXT)
    # the failure must be attributable to rows 3 and 4: odd S-parity on
    # a row whose own column is nonzero
    blame = [
        i + 1
        for i, s in enumerate(rep["sVector"])
        if s == 1 and any(a.column(i))
    ]
    ok = (
        code == 0
        and rep["sVector"] == [0, 0, 1, 1, 0, 0]
        and rep["spin"] is False
        and blame == [3, 4]
        and elapsed < 1.0
    )
    report(2, ok, f"S-vector={rep['sVector']}, spin={rep['spin']}, "
                  f"blamed rows {blame} ({elapsed:.3f}s)")


def test_criterion_03_ideal_fixture():
    p = parse_pmatrix(SIXDIM_P_TEXT)
    basis = characteristic_ideal(p)
    listed = {
        1: "x1^2",
        2: "x2^2",
        3: "x1x3 + x2x3 + x3^2",
        4: "x1x4 + x2x4 + x4^2",
        6: "x1x6 + x2x6 + x3x6 + x4x6 + x6^2",
    }
    ok = all(str(basis.thetas[j - 1]) == s for j, s in listed.items())
    # theta_5 comes from the column formula; the x2x6 variant sometimes
    # quoted for it cannot arise from column 5 and must differ
    theta5 = basis.thetas[4]
    ok = ok and str(theta5) == "x1x5 + x2x5 + x3x5 + x4x5 + x5^2"
    x2x6_variant = from_exponents(
        6,
        [(1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1),
         (0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 2, 0)],
    )
    ok = ok and theta5 != x2x6_variant and all(4 in m for m in theta5.terms)
    report(3, ok, "theta_1..theta_6 match the fixtures; theta_5 follows the "
                  "formula and differs from the x2x6 variant")


def test_criterion_04_oracle_equivalence_n_le_5():
    started = time.perf_counter()
    matrices = 0
    disagreements = 0
    for n in (2, 3, 4, 5):
        for a in enumerate_bott(n):
            matrices += 1
            p = bott_to_p(a)
            alphas, betas = cocycles(p)
            sign_forms = [alphas[j] ^ betas[j] for j in range(n)]
            gens = generators(a)
            for mask in range(1, 1 << n):
                g = EuclideanMotion.identity(n)
                for i in range(n):
                    if (mask >> i) & 1:
                        g = g.compose(gens[i])
                free_euclid = any(
                    s == 1 and t % 2 == 1 for s, t in zip(g.signs, g.trans2)
                )
                if free_euclid != free_at_subset(p, mask):
                    disagreements += 1
                predicted = tuple(
                    -1 if (f & mask).bit_count() & 1 else 1 for f in sign_forms
                )
                if g.signs != predicted:
                    disagreements += 1
    elapsed = time.perf_counter() - started
    ok = matrices == 2 + 8 + 64 + 1024 and disagreements == 0 and elapsed < 30.0
    report(4, ok, f"{matrices} matrices, every nonempty subset: "
                  f"{disagreements} disagreements ({elapsed:.1f}s)")


def test_criterion_05_spin_decider_equivalence():
    started = time.perf_counter()
    checked = 0
    disagreements = 0
    for n in (4, 6):
        for a in enumerate_bott(n):
            pairing = is_kahler(a)
            if pairing is None:
                continue
            checked += 1
            general, _, _ = spin_membership(a)
            for reps in itertools.product(*pairing.pairs):
                # each chosen representative first in its pair
                pairs = tuple((r, i + j - r) for r, (i, j) in zip(reps, pairing.pairs))
                closed, _ = spin_kahler_closed_form(a, KahlerPairing(pairs))
                if closed != general:
                    disagreements += 1
    elapsed = time.perf_counter() - started
    ok = checked > 0 and disagreements == 0 and elapsed < 120.0
    report(5, ok, f"{checked} Kahler matrices at n=4,6, every representative "
                  f"choice: {disagreements} disagreements ({elapsed:.1f}s)")


def test_criterion_06_square_membership_lemma():
    disagreements = 0
    checked = 0
    for n in (1, 2, 3, 4, 5):
        for a in enumerate_bott(n):
            basis = characteristic_ideal(bott_to_p(a))
            for i in range(n):
                checked += 1
                square = from_exponents(
                    n, [tuple(2 if k == i else 0 for k in range(n))]
                )
                member = basis.reduced.in_row_space(encode_degree2(square))
                if member != (not any(a.column(i))):
                    disagreements += 1
    ok = disagreements == 0
    report(6, ok, f"x_i^2 in span(theta) iff column i zero: {checked} checks, "
                  f"{disagreements} disagreements")


def test_criterion_07_identical_columns_family():
    started = time.perf_counter()
    failures = []
    combos = []
    for n in (6, 8, 10, 12):
        for k in (2, 4):
            if n - 2 * k < 1:
                continue  # 2k equal nonzero columns do not fit
            combos.append((n, k))
            a = identical_columns_matrix(n, k)
            spin, _, _ = spin_membership(a)
            if not spin:
                failures.append((n, k))
    elapsed = time.perf_counter() - started
    ok = not failures and combos and elapsed < 5.0
    report(7, ok, f"2k-identical-columns family spin=true for "
                  f"(n,k) in {combos}: {len(failures)} failures ({elapsed:.1f}s)")


def test_criterion_08_orientability_characterization():
    disagreements = 0
    for n in (1, 2, 3, 4, 5):
        for a in enumerate_bott(n):
            orientable = sw_class(bott_to_p(a), 1).graded_component(1).is_zero
            parity_ok = all(sum(a.rows[i]) & 1 == 0 for i in range(n))
            if orientable != parity_ok:
                disagreements += 1
    ok = disagreements == 0
    report(8, ok, f"w1 = 0 iff all row sums even, n <= 5: "
                  f"{disagreements} disagreements")


def test_criterion_09_frobenius_random_forms():
    rng = random.Random(0x5EED)
    failures = 0
    for _ in range(1000):
        d = rng.randint(1, 16)
        mask = rng.randrange(1 << d)
        lhs = truncated_product(
            [GradedPolyF2.one(d) + GradedPolyF2.linear(d, mask)] * 2, 2
        )
        squares = from_exponents(
            d,
            [
                tuple(2 if k == i else 0 for k in range(d))
                for i in range(d)
                if (mask >> i) & 1
            ],
        )
        if lhs != GradedPolyF2.one(d) + squares:
            failures += 1
    ok = failures == 0
    report(9, ok, f"(1+L)^2 = 1 + sum of squares for 1000 random forms: "
                  f"{failures} failures")


def test_criterion_10_census_determinism(census_split):
    rows = {}
    emitted = {}
    for workers in (1, 2, 8):
        pools = census_split(workers)
        cfg = CensusConfig(n=4, emit_matrices=True, check_oracles=True)
        row, listing = run_census(cfg)
        rows[workers], emitted[workers] = row, list(listing)
    deterministic = rows[1] == rows[2] == rows[8] and pools == [2, 8]
    deterministic = deterministic and emitted[1] == emitted[2] == emitted[8]
    roundtrip = all(
        parse_bott(line) == matrix_at(4, idx) and parse_bott(line).to_line() == line
        for idx, line in enumerate(emitted[1])
    )
    ok = deterministic and roundtrip and len(emitted[1]) == 1 << cell_count(4)
    report(10, ok, f"n=4 census identical for 1/2/8 workers "
                   f"({rows[1].to_csv()}), emit round-trip lossless")
