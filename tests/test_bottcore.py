"""Tests for the Bott/P-matrix layer and the manifold deciders."""

import inspect
import itertools
import multiprocessing
import random
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realbott import (
    BottMatrix,
    CensusConfig,
    GradedPolyF2,
    InconsistencyError,
    KahlerPairing,
    MatrixParseError,
    PMatrix,
    analyze,
    bott_to_p,
    bott_verdicts,
    characteristic_ideal,
    check_against_rows,
    cocycles,
    enumerate_bott,
    free_at_subset,
    free_chunks,
    has_full_holonomy,
    is_free,
    is_kahler,
    matrix_at,
    orientable_by_motions,
    parse_bott,
    parse_pmatrix,
    pmatrix_to_bott,
    run_census,
    spin_kahler_closed_form,
    spin_membership,
    sw_class,
)
import realbott.bottcore as bottcore_mod
from realbott.bottcore import mask_line
from realbott.cli import _read as cli_read
from realbott.f2poly import F2Matrix, degree2_count, encode_degree2

from conftest import (
    SIXDIM_BOTT_TEXT,
    SIXDIM_P_TEXT,
    from_exponents,
    identical_columns_matrix,
    indices,
    zero_bott,
)


def theta_formula(a: BottMatrix, j: int) -> GradedPolyF2:
    """Independent route: theta_j = x_j^2 + sum_{i<j} a_ij x_i x_j."""
    n = a.n
    terms = [tuple(2 if k == j else 0 for k in range(n))]
    for i in range(j):
        if a.rows[i][j]:
            terms.append(tuple(1 if k in (i, j) else 0 for k in range(n)))
    return from_exponents(n, terms)


class TestParsing:
    def test_slash_separated(self):
        a = parse_bott("0 1 / 0 0")
        assert a.rows == ((0, 1), (0, 0))

    def test_zero_matrix(self):
        a = parse_bott("0 0 / 0 0")
        assert a.rows == ((0, 0), (0, 0))

    def test_sixdim_text(self):
        a = parse_bott(SIXDIM_BOTT_TEXT)
        assert a.n == 6
        assert a.rows[0] == (0, 0, 1, 1, 1, 1)

    def test_comments_and_whitespace(self):
        a = parse_bott("# title\n 01  # row one\n00\n")
        assert a.rows == ((0, 1), (0, 0))

    def test_ragged_rows(self):
        with pytest.raises(MatrixParseError, match="row 2"):
            parse_bott("0 1 0\n0 0\n0 0 0")

    def test_nonsquare(self):
        with pytest.raises(MatrixParseError, match="square"):
            parse_bott("0 1 0\n0 0 0")

    def test_bad_digit_position(self):
        with pytest.raises(MatrixParseError, match="row 1, column 2"):
            parse_bott("0 2\n0 0")

    def test_lower_triangle_entry_named(self):
        with pytest.raises(MatrixParseError, match="row 2, column 1"):
            parse_bott("0 1\n1 0")

    def test_diagonal_entry_named(self):
        with pytest.raises(MatrixParseError, match="row 1, column 1"):
            parse_bott("1 1\n0 0")

    def test_empty_input(self):
        with pytest.raises(MatrixParseError):
            parse_bott("# nothing here\n")

    def test_pmatrix_alphabet(self):
        p = parse_pmatrix("1 2\n0 1")
        assert p.rows == ((1, 2), (0, 1))
        with pytest.raises(MatrixParseError, match="row 1, column 1"):
            parse_pmatrix("4 0\n0 0")

    def test_pmatrix_rectangular_ok(self):
        p = parse_pmatrix("1 2 3\n0 1 2")
        assert (p.d, p.n) == (2, 3)

    def test_to_line_roundtrip(self):
        a = parse_bott(SIXDIM_BOTT_TEXT)
        assert parse_bott(a.to_line()) == a

    @pytest.mark.parametrize("bad", [1.0, None, "1"])
    def test_non_int_entries_named(self, bad):
        with pytest.raises(MatrixParseError, match="row 1, column 2"):
            BottMatrix(((0, bad), (0, 0)))
        with pytest.raises(MatrixParseError, match="row 1, column 1"):
            PMatrix(((bad,),))

    def test_bool_entries_are_ints(self):
        assert BottMatrix(((0, True), (0, 0))).row_masks == (2, 0)
        assert PMatrix(((True, False),)).rows == ((1, 0),)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_text_and_grid_fail_alike(self, data):
        """The reader checks characters only; the constructors check the rest.

        A grid may hold one value past the alphabet (2 for a Bott matrix,
        4 for a P-matrix), ragged rows, no rows, or entries on and below
        the diagonal; its text, with '/' or newline ends, whitespace and
        comments, fails in the reader at the first such value, and
        otherwise exactly as the constructor fails on the grid.
        """
        bott = data.draw(st.booleans())
        parse, make, alphabet = (
            (parse_bott, BottMatrix, "01") if bott else (parse_pmatrix, PMatrix, "0123")
        )
        # most grids keep to the alphabet; the rest may hold 2 or 4 as well
        top = len(alphabet) - data.draw(st.sampled_from([1, 1, 1, 0]))
        d = data.draw(st.integers(0, 5))
        width = d if bott else data.draw(st.integers(1, 5))
        upper = bott and data.draw(st.booleans())
        grid = []
        for i in range(d):
            length = data.draw(st.sampled_from([width, width, width, 1, 2, 6]))
            grid.append([
                0 if upper and j <= i else data.draw(st.integers(0, top))
                for j in range(length)
            ])
        gap = st.sampled_from(["", " ", "  ", "\t"])
        comment = st.text(alphabet="0124x /#", max_size=4).map(lambda c: " #" + c)
        text = data.draw(st.sampled_from(["", "# title\n", "\n"]))
        for row in grid:
            text += data.draw(gap).join(map(str, row)) + data.draw(gap)
            text += data.draw(st.sampled_from(["/", " / ", "\n"]) | comment.map(lambda c: c + "\n"))

        outside = [
            (i, j, e) for i, row in enumerate(grid) for j, e in enumerate(row) if e >= len(alphabet)
        ]
        if outside:
            i, j, e = outside[0]
            message = (
                f"invalid entry '{e}' at row {i + 1}, column {j + 1} "
                f"(expected one of {','.join(alphabet)})"
            )
            with pytest.raises(MatrixParseError) as parsed:
                parse(text)
            assert str(parsed.value) == message
            return
        try:
            from_grid = make(grid)
        except MatrixParseError as exc:
            with pytest.raises(MatrixParseError) as parsed:
                parse(text)
            assert str(parsed.value) == str(exc)
        else:
            assert parse(text) == from_grid

    @pytest.mark.parametrize("width", [63, 64, 65, 200])
    @pytest.mark.parametrize("bott", [True, False], ids=["bott", "pmat"])
    def test_wide_rows_read_as_the_grid(self, tmp_path, bott, width):
        """Rows past one machine word: every spelling of the text parses to
        the matrix the constructor builds from the grid, and a ragged row or
        an entry on or below the diagonal past column 64 fails with its message.
        The CRLF and BOM spelling goes through the command line's reader."""
        rng = random.Random(width)
        parse, make = (parse_bott, BottMatrix) if bott else (parse_pmatrix, PMatrix)
        d = width if bott else 9
        grid = [
            [rng.randint(0, 1) * (j > i) if bott else rng.randint(0, 3) for j in range(width)]
            for i in range(d)
        ]

        def spellings(grid):
            rows = [" ".join(map(str, row)) for row in grid]
            yield " / ".join(rows)
            yield "".join("".join(map(str, row)) + "/" for row in grid)
            yield "# wide\n" + "".join("\t".join(r.split()) + "\t# row\n" for r in rows)
            path = tmp_path / "matrix.txt"
            path.write_bytes(("\ufeff" + "\r\n".join(rows) + "\r\n").encode("utf-8"))
            yield cli_read(str(path))

        expected = make(grid)
        for text in spellings(grid):
            assert parse(text) == expected

        ragged = [row[:] for row in grid]
        ragged[d // 2] = ragged[d // 2][:-1]
        broken = [ragged]
        if bott and width > 64:
            below = [row[:] for row in grid]
            # the message names the first: the diagonal at width 65, column 71 at 200
            for j in [64] if width == 65 else [70, 150, 198]:
                below[-1][j] = 1
            broken.append(below)
        for bad in broken:
            with pytest.raises(MatrixParseError) as built:
                make(bad)
            for text in spellings(bad):
                with pytest.raises(MatrixParseError) as parsed:
                    parse(text)
                assert str(parsed.value) == str(built.value)

    def test_constructors_refuse_digit_strings(self):
        """Digit strings are text for the parsers, never rows for the constructors."""
        with pytest.raises(MatrixParseError, match="entry '0' at row 1, column 1"):
            BottMatrix(["01", "00"])
        with pytest.raises(MatrixParseError, match="entry '1' at row 1, column 1"):
            PMatrix(["12", "01"])
        with pytest.raises(MatrixParseError, match="entry '1' at row 1, column 2"):
            BottMatrix([[0, "1"], [0, 0]])


class TestBottToP:
    def test_zero(self):
        p = bott_to_p(zero_bott(2))
        assert p.rows == ((1, 0), (0, 1))

    def test_klein_bottle(self, klein_bottle):
        assert bott_to_p(klein_bottle).rows == ((1, 2), (0, 1))

    def test_sixdim(self, sixdim_bott, sixdim_p):
        assert bott_to_p(sixdim_bott) == sixdim_p

    def test_lift_back(self, sixdim_bott, sixdim_p):
        assert pmatrix_to_bott(sixdim_p) == sixdim_bott
        for n in (1, 2, 3, 4):
            for a in enumerate_bott(n):
                assert pmatrix_to_bott(bott_to_p(a)) == a

    def test_lift_rejects_generic(self):
        assert pmatrix_to_bott(PMatrix(((2,),))) is None
        assert pmatrix_to_bott(PMatrix(((1, 3), (0, 1)))) is None
        assert pmatrix_to_bott(PMatrix(((1, 0, 0), (0, 1, 0)))) is None


class TestMaskStorage:
    """The matrices store masks; the constructors validate outside input only."""

    def test_library_paths_skip_validation(self, monkeypatch, sixdim_bott):
        a = sixdim_bott
        p = bott_to_p(a)

        def refuse(self, rows):
            raise AssertionError("a library-built matrix went through validation")

        monkeypatch.setattr(BottMatrix, "__init__", refuse)
        monkeypatch.setattr(PMatrix, "__init__", refuse)
        assert bott_to_p(a) == p
        assert pmatrix_to_bott(p) == a
        assert matrix_at(6, 12345).n == 6
        assert not analyze(a).spin
        assert not spin_membership(a)[0]
        assert check_against_rows(a) == []
        row, _ = run_census(CensusConfig(n=4, check_oracles=True))
        assert row.to_csv() == "4,64,8,6,8,6,0"

    def test_library_f2_rows_skip_validation(self, monkeypatch, sixdim_p):
        """rref and the theta matrix build rows in range, so they skip
        the constructor's per-row checks; outside rows keep them."""
        m = F2Matrix([0b110, 0b011, 0b101], 3)

        def refuse(self, rows, ncols):
            raise AssertionError("a library-built F2Matrix went through validation")

        monkeypatch.setattr(F2Matrix, "__init__", refuse)
        assert m.rref().rows == (0b101, 0b110)
        assert m.rref() == m.rref().rref()
        assert characteristic_ideal(sixdim_p).rank == 6
        assert not spin_membership(sixdim_p)[0]
        monkeypatch.undo()
        with pytest.raises(ValueError, match="bits beyond column 2"):
            F2Matrix([0b1000], 3)

    def test_list_and_tuple_built_are_equal(self):
        pairs = [
            (BottMatrix([[0, 1], [0, 0]]), BottMatrix(((0, 1), (0, 0)))),
            (PMatrix([[1, 2, 3], [0, 1, 2]]), PMatrix(((1, 2, 3), (0, 1, 2)))),
        ]
        for listed, tupled in pairs:
            assert listed == tupled
            assert hash(listed) == hash(tupled)
            assert listed.rows == tupled.rows

    def test_mask_built_equal_validated(self, sixdim_bott):
        bott = [sixdim_bott] + [a for n in (1, 2, 3, 4) for a in enumerate_bott(n)]
        bott += [matrix_at(6, k) for k in (0, 1, 4097, 32767)]
        built = bott + [bott_to_p(a) for a in bott]
        built += [pmatrix_to_bott(bott_to_p(a)) for a in bott]
        for m in built:
            validated = type(m)(m.rows)
            assert m == validated
            assert hash(m) == hash(validated)

    def test_fields_are_frozen(self, sixdim_bott):
        a = sixdim_bott
        p = bott_to_p(a)
        for m, field in [
            (a, "n"),
            (a, "row_masks"),
            (matrix_at(3, 5), "row_masks"),
            (p, "d"),
            (p, "n"),
            (p, "alpha_masks"),
            (p, "beta_masks"),
            (PMatrix(((1, 2),)), "beta_masks"),
        ]:
            with pytest.raises(FrozenInstanceError):
                setattr(m, field, getattr(m, field))


@st.composite
def square_or_rectangular_pmatrices(draw, max_d=8):
    """d x n P-matrix with d, n <= max_d.  Uniform draws are rarely free, so
    when d <= n half of them get entry 1 at (i, i) and zeros below it, which
    leaves every row subset its first row's half-turn.  Half of those then
    lose every entry 1 of the last row, so that only the last row alone,
    lane 0 of a chunk whenever d exceeds the chunk width, is not free."""
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(1, max_d))
    rows = [draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)) for _ in range(d)]
    if d <= n and draw(st.booleans()):
        for i in range(d):
            rows[i][i] = 1
            for k in range(i + 1, d):
                rows[k][i] = 0
        if draw(st.booleans()):
            rows[-1] = [0 if e == 1 else e for e in rows[-1]]
    return PMatrix(tuple(map(tuple, rows)))


class TestFreeness:
    def test_single_reflection_not_free(self):
        assert not is_free(PMatrix(((2,),)))

    def test_single_half_turn_free(self):
        assert is_free(PMatrix(((1,),)))

    def test_bott_always_free_n4(self):
        for a in enumerate_bott(4):
            assert is_free(bott_to_p(a))

    @settings(max_examples=300, deadline=None)
    @given(square_or_rectangular_pmatrices())
    @example(PMatrix(((1, 2, 0), (0, 1, 2), (2, 0, 1))))
    def test_subset_predicate_matches_full_scan(self, p):
        # brute-force recomputation per subset agrees with the bit-sliced kernel,
        # both where it stops early and where it scans every subset
        assert is_free(p) == all(free_at_subset(p, m) for m in range(1, 1 << p.d))

    @pytest.mark.parametrize("bits", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(p=square_or_rectangular_pmatrices())
    @example(p=PMatrix(((1, 2, 0, 3), (0, 1, 2, 0), (0, 0, 1, 2), (0, 0, 0, 2))))
    def test_chunks_match_subset_predicate(self, bits, p):
        # narrow chunks, so rows past the chunk width flip whole columns; the
        # example fails only at its last row alone, lane 0 of a later chunk
        rows = [False] + [free_at_subset(p, m) for m in range(1, 1 << p.d)]
        width = 1 << min(p.d, bits)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bottcore_mod, "FREE_CHUNK_BITS", bits)
            chunks = list(free_chunks(p))
            free = is_free(p)
        assert len(chunks) == len(rows) // width
        assert all(chunk >> width == 0 for chunk in chunks)
        assert [bool(chunk >> m & 1) for chunk in chunks for m in range(width)] == rows
        assert free == all(rows[1:])

    def test_planted_free_14_rows_at_full_width(self):
        # four chunks of 2^12 subsets; without its entry 1 the last row alone,
        # mask 2^13 and lane 0 of chunk 2, is the one subset that is not free
        rows = [
            [1 if j == i else 2 * ((i + j) % 2) * (j > i) for j in range(14)] + [i % 4, (i + 1) % 4]
            for i in range(14)
        ]
        assert is_free(PMatrix(rows))
        rows[-1] = [0 if e == 1 else e for e in rows[-1]]
        p = PMatrix(rows)
        assert not free_at_subset(p, 1 << 13)
        assert all(free_at_subset(p, m) for m in (1, (1 << 13) - 1, (1 << 14) - 1))
        assert not is_free(p)

    def test_subset_mask_validation(self):
        p = PMatrix(((1,),))
        with pytest.raises(ValueError):
            free_at_subset(p, 0)
        with pytest.raises(ValueError):
            free_at_subset(p, 0b10)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_set_bit_walk_matches_row_scan(self, data):
        p = data.draw(square_or_rectangular_pmatrices(max_d=24))
        top = 1 << (p.d - 1)
        mask = data.draw(st.integers(1, (1 << p.d) - 1))
        for m in (mask, mask | top, top, (1 << p.d) - 1):
            a = b = 0
            for i in range(p.d):
                if (m >> i) & 1:
                    a ^= p.alpha_masks[i]
                    b ^= p.beta_masks[i]
            assert free_at_subset(p, m) == bool(a & b)
        # the range guard runs before the walk: a negative mask has
        # infinitely many set bits
        for bad in (0, -1, 1 << p.d):
            with pytest.raises(ValueError, match="out of range"):
                free_at_subset(p, bad)


class TestHolonomy:
    def test_klein_bottle_not_full(self, klein_bottle):
        assert not has_full_holonomy(bott_to_p(klein_bottle))

    def test_sixdim_not_full(self, sixdim_p):
        # rows 5 and 6 contain no sign-flipping entry
        assert not has_full_holonomy(sixdim_p)

    def test_reflection_row_full(self):
        assert has_full_holonomy(PMatrix(((2, 1),)))


class TestCocycles:
    def test_single_half_turn(self):
        alphas, betas = cocycles(PMatrix(((1,),)))
        assert alphas == [1]
        assert betas == [1]

    def test_bott_beta_is_diagonal(self):
        for n in (1, 2, 3, 4):
            for a in enumerate_bott(n):
                _, betas = cocycles(bott_to_p(a))
                for j, beta in enumerate(betas):
                    assert beta == 1 << j

    def test_bott_sign_form_is_column(self):
        for n in (1, 2, 3, 4):
            for a in enumerate_bott(n):
                alphas, betas = cocycles(bott_to_p(a))
                for j in range(n):
                    expected = sum(a.rows[i][j] << i for i in range(j))
                    assert alphas[j] ^ betas[j] == expected


class TestCharacteristicIdeal:
    def test_sixdim_thetas(self, sixdim_p):
        basis = characteristic_ideal(sixdim_p)
        rendered = [str(t) for t in basis.thetas]
        assert rendered == [
            "x1^2",
            "x2^2",
            "x1x3 + x2x3 + x3^2",
            "x1x4 + x2x4 + x4^2",
            "x1x5 + x2x5 + x3x5 + x4x5 + x5^2",
            "x1x6 + x2x6 + x3x6 + x4x6 + x6^2",
        ]
        assert basis.rank == 6

    def test_sixdim_theta5_is_pure_column(self, sixdim_p):
        # Every monomial of theta_5 = alpha_5 * beta_5 is built from
        # column 5 alone, so x2x6 cannot occur in it; a listing showing
        # x2x6 inside theta_5 (instead of x3x5) is a transcription slip.
        theta5 = characteristic_ideal(sixdim_p).thetas[4]
        for m in theta5.terms:
            assert 4 in m  # x5 divides every term
        x2x6_variant = from_exponents(
            6,
            [
                (1, 0, 0, 0, 1, 0),
                (0, 1, 0, 0, 1, 0),
                (0, 1, 0, 0, 0, 1),
                (0, 0, 0, 1, 1, 0),
                (0, 0, 0, 0, 2, 0),
            ],
        )
        assert theta5 != x2x6_variant

    def test_zero_matrix_thetas_are_squares(self):
        for n in (1, 3, 5):
            basis = characteristic_ideal(bott_to_p(zero_bott(n)))
            for j, theta in enumerate(basis.thetas):
                assert theta == from_exponents(
                    n, [tuple(2 if k == j else 0 for k in range(n))]
                )
            assert basis.rank == n

    def test_formula_exhaustive_small_n(self):
        for n in (2, 3, 4):
            for a in enumerate_bott(n):
                basis = characteristic_ideal(bott_to_p(a))
                for j in range(n):
                    assert basis.thetas[j] == theta_formula(a, j)


class TestSwClass:
    def test_sixdim(self, sixdim_p):
        assert str(sw_class(sixdim_p, 2)) == "1 + x3^2 + x4^2"

    def test_zero_matrix(self):
        assert sw_class(bott_to_p(zero_bott(4)), 4) == GradedPolyF2.one(4)

    def test_klein_bottle(self, klein_bottle):
        w = sw_class(bott_to_p(klein_bottle), 1)
        assert str(w) == "1 + x1"


class TestOrientability:
    def test_klein_bottle(self, klein_bottle):
        _, w1, _ = spin_membership(klein_bottle)
        assert not w1.is_zero
        assert str(w1) == "x1"

    def test_sixdim(self, sixdim_bott):
        _, w1, _ = spin_membership(sixdim_bott)
        assert w1.is_zero

    def test_row_parity_characterization(self):
        for n in (1, 2, 3, 4):
            for a in enumerate_bott(n):
                _, w1, _ = spin_membership(a)
                assert w1.is_zero == all(sum(a.rows[i]) & 1 == 0 for i in range(n))
                # coefficient of x_i in w1 is the parity of row i
                coeffs = {m: 1 for m in w1.terms}
                for i in range(n):
                    e = tuple(1 if k == i else 0 for k in range(n))
                    assert coeffs.get(indices(e), 0) == sum(a.rows[i]) & 1


class TestKahler:
    def test_sixdim_pairing(self, sixdim_bott):
        pairing = is_kahler(sixdim_bott)
        assert pairing is not None
        assert pairing.pairs == ((0, 1), (2, 3), (4, 5))

    def test_klein_bottle_absent(self, klein_bottle):
        assert is_kahler(klein_bottle) is None

    def test_zero_matrix_even(self):
        pairing = is_kahler(zero_bott(4))
        assert pairing.pairs == ((0, 1), (2, 3))

    def test_odd_dimension_absent(self):
        assert is_kahler(zero_bott(3)) is None
        assert is_kahler(zero_bott(1)) is None

    def test_pairing_requires_full_column_equality(self):
        # columns 3 and 4 agree on rows 1..2 but differ at row 3; they
        # must not be paired (the manifold is not even orientable), so
        # column equality has to mean equality of the full vectors
        a = parse_bott("0 0 0 0\n0 0 0 0\n0 0 0 1\n0 0 0 0")
        assert a.column(2)[:2] == a.column(3)[:2]
        assert a.column(2) != a.column(3)
        assert is_kahler(a) is None


def reference_closed_form(a: BottMatrix, pairing: KahlerPairing):
    """Independent route: the closed form on the 0/1 tuple grid, with a set
    of seen indices, two column tuples per pair, S_i as a sum over row i's
    entries and the zero columns from zip(*rows)."""
    n = a.n
    seen = set()
    for i, j in pairing.pairs:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"pair ({i}, {j}) is not a pair of distinct column indices")
        if i in seen or j in seen:
            raise ValueError(f"column index reused in pairing at pair ({i}, {j})")
        seen.update((i, j))
        if a.column(i) != a.column(j):
            raise ValueError(
                f"pairing inconsistent with matrix: columns {i + 1} and {j + 1} differ"
            )
    if len(seen) != n:
        raise ValueError("pairing does not cover every column exactly once")
    rows = a.rows
    s_vector = tuple(sum(row[r] for r, _ in pairing.pairs) & 1 for row in rows)
    zero_col = tuple(not any(column) for column in zip(*rows))
    spin = all(s == 0 or zero_col[i] for i, s in enumerate(s_vector))
    return spin, s_vector


def representative_choices(pairing: KahlerPairing):
    """The pairing with each combination of first members, 2^(n/2) in all."""
    for choice in itertools.product(*pairing.pairs):
        yield KahlerPairing(tuple((r, i + j - r) for r, (i, j) in zip(choice, pairing.pairs)))


def seeded_planted_kahler(rng: random.Random, n: int) -> BottMatrix:
    """A Bott matrix of even n whose columns are matched at random into
    equal pairs j < k, both carrying one mask of the rows above j."""
    order = rng.sample(range(n), n)
    cols = [0] * n
    for m in range(0, n, 2):
        j, k = sorted(order[m : m + 2])
        cols[j] = cols[k] = rng.randrange(1 << j)
    return from_columns(n, cols)


class TestSpin:
    def test_sixdim_not_spin(self, sixdim_bott):
        spin, w1, w2 = spin_membership(sixdim_bott)
        assert not spin
        assert w1.is_zero
        assert str(w2) == "x3^2 + x4^2"

    def test_membership_accepts_bott_or_p(self):
        for n in (1, 2, 3, 4):
            for a in enumerate_bott(n):
                assert spin_membership(a) == spin_membership(bott_to_p(a))

    def test_torus_spin(self):
        for n in (1, 2, 3, 4, 6):
            spin, _, w2 = spin_membership(zero_bott(n))
            assert spin and w2.is_zero

    def test_monomial_size_follows_degree(self):
        # a monomial keeps one variable index per factor, so w2 of the
        # (i + j) mod 2 matrix at d = 200 costs its degree, not 200 slots
        # per term (about 9 MB with dense exponent vectors)
        n = 200
        a = BottMatrix(tuple(tuple((i + j) % 2 * (j > i) for j in range(n)) for i in range(n)))
        tracemalloc.start()
        try:
            _, _, w2 = spin_membership(a)
            assert str(w2).startswith("x1x3 + x1x7 + x1x11")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20

    def test_identical_columns_family_even_k(self):
        a = identical_columns_matrix(6, 2)
        assert a.rows[0] == (0, 0, 1, 1, 1, 1)
        spin, _, _ = spin_membership(a)
        assert spin

    def test_closed_form_sixdim(self, sixdim_bott):
        pairing = is_kahler(sixdim_bott)
        spin, s_vector = spin_kahler_closed_form(sixdim_bott, pairing)
        assert s_vector == (0, 0, 1, 1, 0, 0)
        assert not spin
        # failure is attributable to rows 3 and 4: odd S with nonzero column
        for i in (2, 3):
            assert s_vector[i] == 1
            assert any(sixdim_bott.column(i))

    def test_closed_form_zero_matrix(self):
        a = zero_bott(4)
        spin, s_vector = spin_kahler_closed_form(a, is_kahler(a))
        assert spin and s_vector == (0, 0, 0, 0)

    def test_closed_form_identical_columns(self):
        a = identical_columns_matrix(6, 2)
        pairing = is_kahler(a)
        spin, s_vector = spin_kahler_closed_form(a, pairing)
        assert spin and s_vector == (0,) * 6
        general, _, _ = spin_membership(a)
        assert general == spin

    def test_closed_form_representative_independence(self, sixdim_bott):
        pairing = is_kahler(sixdim_bott)
        results = set()
        for choice in itertools.product(*pairing.pairs):
            # each chosen representative first in its pair
            pairs = tuple((r, i + j - r) for r, (i, j) in zip(choice, pairing.pairs))
            results.add(spin_kahler_closed_form(sixdim_bott, KahlerPairing(pairs)))
        assert len(results) == 1

    def test_closed_form_validates_pairing(self, sixdim_bott, klein_bottle):
        bad = KahlerPairing(pairs=((0, 2), (1, 3), (4, 5)))
        with pytest.raises(ValueError, match="columns"):
            spin_kahler_closed_form(sixdim_bott, bad)
        partial = KahlerPairing(pairs=((0, 1),))
        with pytest.raises(ValueError, match="cover"):
            spin_kahler_closed_form(sixdim_bott, partial)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            (((0, 0),), "pair (0, 0) is not a pair of distinct column indices"),
            (((0, 6),), "pair (0, 6) is not a pair of distinct column indices"),
            (((-1, 1),), "pair (-1, 1) is not a pair of distinct column indices"),
            (((0, 1), (1, 2)), "column index reused in pairing at pair (1, 2)"),
            (((0, 1), (0, 1)), "column index reused in pairing at pair (0, 1)"),
            (((0, 2), (1, 3), (4, 5)), "pairing inconsistent with matrix: columns 1 and 3 differ"),
            (((0, 1), (2, 3)), "pairing does not cover every column exactly once"),
            # the checks run pair by pair: unequal columns before a later bad index
            (((0, 2), (1, 6)), "pairing inconsistent with matrix: columns 1 and 3 differ"),
        ],
    )
    def test_closed_form_pairing_messages(self, sixdim_bott, pairs, message):
        for decider in (spin_kahler_closed_form, reference_closed_form):
            with pytest.raises(ValueError) as caught:
                decider(sixdim_bott, KahlerPairing(pairs))
            assert str(caught.value) == message

    def test_closed_form_matches_reference_exhaustive_n_le_6(self):
        checked = 0
        for n in (2, 4, 6):
            for a in enumerate_bott(n):
                pairing = is_kahler(a)
                if pairing is None:
                    continue
                for choice in representative_choices(pairing):
                    assert spin_kahler_closed_form(a, choice) == reference_closed_form(a, choice)
                    checked += 1
        assert checked == 1 * 2 + 6 * 4 + 192 * 8  # Kahler matrices times 2^(n/2) choices

    @pytest.mark.parametrize("n", [8, 10, 12, 14])
    def test_closed_form_matches_reference_planted(self, n):
        rng = random.Random(n)
        for _ in range(20):
            a = seeded_planted_kahler(rng, n)
            pairing = is_kahler(a)
            assert pairing is not None
            for choice in representative_choices(pairing):
                assert spin_kahler_closed_form(a, choice) == reference_closed_form(a, choice)

    def test_square_membership_iff_zero_column(self):
        for n in (1, 2, 3, 4):
            for a in enumerate_bott(n):
                basis = characteristic_ideal(bott_to_p(a))
                for i in range(n):
                    x_i_sq = from_exponents(n, [tuple(2 if k == i else 0 for k in range(n))])
                    member = basis.reduced.in_row_space(encode_degree2(x_i_sq))
                    assert member == (not any(a.column(i)))

    def test_odd_k_family_membership_consistency(self):
        # 2k equal columns with k odd and a supporting row whose own
        # column is nonzero: w2 = L^2 survives reduction, so no Spin;
        # the point is only that spin_membership and a direct membership
        # check stay in lockstep.
        for n, k in ((6, 1), (8, 3)):
            rows = [[0] * n for _ in range(n)]
            rows[0][1] = 1  # column 2 nonzero, supported by row 1
            for j in range(n - 2 * k, n):
                rows[1][j] = 1
            a = BottMatrix(tuple(tuple(r) for r in rows))
            spin, w1, w2 = spin_membership(a)
            basis = characteristic_ideal(bott_to_p(a))
            expected_w2 = from_exponents(
                n, [tuple(2 if i == 1 else 0 for i in range(n))]
            )
            assert w2.graded_component(2) == expected_w2  # k odd: w2 = L^2 = x2^2
            direct = w1.is_zero and basis.reduced.in_row_space(encode_degree2(w2))
            assert spin == direct
            assert not spin


class TestAnalyze:
    def test_sixdim_report(self, sixdim_bott):
        rep = analyze(sixdim_bott)
        assert rep.n == 6
        assert rep.free
        assert not rep.holonomy_full
        assert rep.orientable
        assert rep.kahler is not None
        assert not rep.spin
        assert str(rep.w2raw) == "x3^2 + x4^2"
        assert rep.s_vector == (0, 0, 1, 1, 0, 0)

    def test_klein_bottle_report(self, klein_bottle):
        rep = analyze(klein_bottle)
        assert not rep.orientable
        assert rep.kahler is None
        assert not rep.spin
        assert rep.s_vector is None

    def test_zero_4x4(self):
        rep = analyze(zero_bott(4))
        assert rep.orientable and rep.kahler is not None and rep.spin

    def test_circle(self):
        rep = analyze(zero_bott(1))
        assert rep.orientable and rep.spin and rep.kahler is None

    def test_spin_implies_orientable_exhaustive(self):
        for a in enumerate_bott(4):
            rep = analyze(a)
            assert not rep.spin or rep.orientable
            assert (rep.kahler is None) == (rep.s_vector is None)

    def test_decider_mismatch_raises(self, monkeypatch, sixdim_bott):
        # the closed-form/membership cross-check must trip if one route
        # ever returns a different verdict
        import realbott.bottcore as bottcore_mod

        def sabotaged(a, pairing):
            return True, (0,) * a.n

        monkeypatch.setattr(bottcore_mod, "spin_kahler_closed_form", sabotaged)
        with pytest.raises(InconsistencyError, match="disagree"):
            analyze(sixdim_bott)


class TestIdenticalColumnsBuilder:
    def test_shapes(self):
        for n, k in ((6, 2), (8, 2), (10, 4), (12, 4)):
            a = identical_columns_matrix(n, k)
            cols = [a.column(j) for j in range(n)]
            nonzero = [c for c in cols if any(c)]
            assert len(nonzero) == 2 * k
            assert len(set(nonzero)) == 1
            assert is_kahler(a) is not None

    def test_infeasible_combinations(self):
        with pytest.raises(ValueError):
            identical_columns_matrix(6, 4)  # 8 equal nonzero columns don't fit
        with pytest.raises(ValueError):
            identical_columns_matrix(8, 4)
        with pytest.raises(ValueError):
            identical_columns_matrix(4, 0)


def from_columns(n: int, cols) -> BottMatrix:
    return BottMatrix(
        tuple(tuple((cols[j] >> i) & 1 for j in range(n)) for i in range(n))
    )


@st.composite
def bott_matrices(draw, max_n=12):
    """Uniform Bott matrix with n <= max_n: column j is any mask below 2^j."""
    n = draw(st.integers(1, max_n))
    return from_columns(n, [draw(st.integers(0, (1 << j) - 1)) for j in range(n)])


@st.composite
def planted_kahler(draw, max_n=12):
    """Bott matrix of even n <= max_n whose columns split into equal pairs.

    Uniform draws are almost never Kahler.  Columns are matched at random,
    and both columns of a pair j < k get one mask of the rows above j.
    """
    n = 2 * draw(st.integers(1, max_n // 2))
    order = draw(st.permutations(range(n)))
    cols = [0] * n
    for m in range(0, n, 2):
        j, k = sorted(order[m : m + 2])
        cols[j] = cols[k] = draw(st.integers(0, (1 << j) - 1))
    return from_columns(n, cols)


def slow_verdicts(a: BottMatrix) -> tuple[bool, bool, bool]:
    rep = analyze(a)
    return rep.orientable, rep.kahler is not None, rep.spin


def kernel_matches_analyze(a: BottMatrix) -> bool:
    # looked up on its module at call time, so a test can swap in a mutant
    return bottcore_mod.bott_verdicts(a.n, a.row_masks) == slow_verdicts(a)


def kernel_agrees(a: BottMatrix) -> bool:
    """kernel_matches_analyze, with a raised InconsistencyError as a failure."""
    try:
        return kernel_matches_analyze(a)
    except InconsistencyError:
        return False


@st.composite
def near_kahler(draw):
    """A planted Kahler matrix with n <= 14 and one entry above the
    diagonal flipped.  Column j leaves its class of equal columns and
    joins another or none, so both classes it touches become odd."""
    a = draw(planted_kahler(max_n=14))
    j = draw(st.integers(1, a.n - 1))
    i = draw(st.integers(0, j - 1))
    rows = [list(row) for row in a.rows]
    rows[i][j] ^= 1
    return BottMatrix(tuple(map(tuple, rows)))


def scans_match_constants(a: BottMatrix) -> bool:
    p = bott_to_p(a)
    return is_free(p) and not has_full_holonomy(p)


def failures(job) -> list[str]:
    check, n, start, stop = job
    return [
        matrix_at(n, i).to_line()
        for i in range(start, stop)
        if not check(matrix_at(n, i))
    ]


@pytest.fixture(scope="module")
def pool():
    """Two workers for the three exhaustive twins.  On 2 vCPUs they took
    8.5-10.6 s in all on this pool, spawn included, against 10-17 s in
    one process; the frozenset side of the mask-route twin is 6-11 s of
    that in one process."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as executor:
        yield executor


def exhaustive_failures(pool, check) -> list[str]:
    """Every Bott matrix with n <= 6 on which check fails."""
    jobs = []
    for n in range(1, 7):
        total = 1 << (n * (n - 1) // 2)
        jobs += [(check, n, total * k // 4, total * (k + 1) // 4) for k in range(4)]
    return [line for part in pool.map(failures, jobs) for line in part]


class TestBottVerdicts:
    """The bitmask kernel against analyze, its polynomial twin."""

    def test_row_masks_and_line(self, sixdim_bott):
        assert sixdim_bott.row_masks == (0b111100, 0b111100, 0b110000, 0b110000, 0, 0)
        assert mask_line(6, sixdim_bott.row_masks) == (
            "001111/001111/000011/000011/000000/000000"
        )

    def test_sixdim(self, sixdim_bott):
        assert bott_verdicts(6, sixdim_bott.row_masks) == (True, True, False)

    def test_settle_checks_the_closed_form(self, sixdim_bott):
        # the fixture's classes of equal columns, zero columns first; S_3 is
        # odd with column 3 nonzero, so the closed form says not Spin
        rows, classes = sixdim_bott.row_masks, [0b000011, 0b001100, 0b110000]
        assert bottcore_mod.settle(6, rows, classes, False) == (True, True, False)
        with pytest.raises(InconsistencyError, match="Spin deciders disagree"):
            bottcore_mod.settle(6, rows, classes, True)
        # with no classes there is nothing to check the Spin verdict against
        assert bottcore_mod.settle(6, rows, None, True) == (True, False, True)

    def test_matches_analyze_exhaustive_n_le_6(self, pool):
        assert exhaustive_failures(pool, kernel_matches_analyze) == []

    def test_twin_catches_truncated_spin_loop(self, monkeypatch):
        # a kernel whose Spin loop skips row l - 1 against T_l: the twin's
        # check flags 18 matrices at n = 5 and none below, which is why the
        # exhaustive twin runs up to n = 6
        source = inspect.getsource(bottcore_mod.bott_verdicts)
        assert source.count("rows[:l]") == 1
        namespace = dict(vars(bottcore_mod))
        exec(source.replace("rows[:l]", "rows[:l - 1]"), namespace)
        monkeypatch.setattr(bottcore_mod, "bott_verdicts", namespace["bott_verdicts"])
        jobs = [(kernel_matches_analyze, n, 0, 1 << (n * (n - 1) // 2)) for n in range(1, 6)]
        caught = [len(failures(job)) for job in jobs]
        assert caught == [0, 0, 0, 0, 18]

    @pytest.mark.parametrize(
        "original, mutant, caught",
        [
            # a class that meets R_i keeps only its part inside R_i
            (
                "if part != c:\n                    split.append(c ^ part)\n"
                "                if part:\n                    split.append(part)",
                "split.append(part or c)",
                [0, 0, 0, 9, 0, 2192],
            ),
            # the parity test reads the class of column 0 alone
            (
                "if part.bit_count() & 1:",
                "if part.bit_count() & 1 and c == classes[0]:",
                [0, 0, 0, 11, 0, 4905],
            ),
        ],
        ids=["drops_complement", "first_class_parity"],
    )
    def test_twin_catches_refinement_mutants(self, monkeypatch, original, mutant, caught):
        # the exhaustive twin, counting a raised InconsistencyError as
        # caught, flags both mutants of the Kahler refinement from n = 4 on
        source = inspect.getsource(bottcore_mod.bott_verdicts)
        assert source.count(original) == 1
        namespace = dict(vars(bottcore_mod))
        exec(source.replace(original, mutant), namespace)
        monkeypatch.setattr(bottcore_mod, "bott_verdicts", namespace["bott_verdicts"])
        jobs = [(kernel_agrees, n, 0, 1 << (n * (n - 1) // 2)) for n in range(1, 7)]
        assert [len(failures(job)) for job in jobs] == caught

    @settings(max_examples=150, deadline=None)
    @given(bott_matrices())
    def test_matches_analyze_random(self, a):
        assert kernel_matches_analyze(a)

    @settings(max_examples=150, deadline=None)
    @given(planted_kahler())
    def test_matches_analyze_planted_kahler(self, a):
        assert bott_verdicts(a.n, a.row_masks)[1]
        assert kernel_matches_analyze(a)

    @settings(max_examples=150, deadline=None)
    @given(near_kahler())
    def test_matches_analyze_near_kahler(self, a):
        # an odd class must never heal, at sizes past the exhaustive twin
        assert not bott_verdicts(a.n, a.row_masks)[1]
        assert analyze(a).kahler is None
        assert kernel_matches_analyze(a)


class TestBottPathConstants:
    """analyze reports free = True and holonomy_full = False on every Bott
    matrix without scanning; the scans remain the twins."""

    def test_exhaustive_n_le_6(self, pool):
        assert exhaustive_failures(pool, scans_match_constants) == []

    @settings(max_examples=100, deadline=None)
    @given(bott_matrices())
    def test_random(self, a):
        assert scans_match_constants(a)
        rep = analyze(a)
        assert rep.free and not rep.holonomy_full


# alpha and beta of the entries 0..3, as the bottcore module docstring defines them
ALPHA = (0, 1, 1, 0)
BETA = (0, 1, 0, 1)


def entry_forms(p: PMatrix, table) -> list[int]:
    """One linear-form mask per column, read straight off the entries."""
    return [sum(table[row[j]] << i for i, row in enumerate(p.rows)) for j in range(p.n)]


def mask_route_matches(m: BottMatrix | PMatrix) -> bool:
    """spin_membership, on masks, against the frozenset polynomial route.

    The frozenset route takes the graded pieces of sw_class, which
    multiplies with truncated_product, and row-reduces the encoded
    theta_j = alpha_j * beta_j, each a GradedPolyF2 product of forms read
    straight off the entries.  The masks of those forms must equal
    cocycles, which sw_class reads, and the rendered w1 and w2 must agree
    too.
    """
    p = bott_to_p(m) if isinstance(m, BottMatrix) else m
    alphas, betas = entry_forms(p, ALPHA), entry_forms(p, BETA)
    w = sw_class(p, 2)
    w1, w2 = w.graded_component(1), w.graded_component(2)
    linear = GradedPolyF2.linear
    spin = w1.is_zero and F2Matrix(
        (encode_degree2(linear(p.d, a) * linear(p.d, b)) for a, b in zip(alphas, betas)),
        degree2_count(p.d),
    ).rref().in_row_space(encode_degree2(w2))
    got = spin_membership(p)
    return (
        cocycles(p) == (alphas, betas)
        and got == (spin, w1, w2)
        and (str(got[1]), str(got[2])) == (str(w1), str(w2))
    )


@st.composite
def rectangular_pmatrices(draw, max_d=8):
    """d x n P-matrix with n != d, both at most max_d.  Half of the draws
    are made orientable, so that ideal membership runs: a row with an odd
    number of entries 2 or 3 has its last entry moved across (e ^ 2)."""
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(1, max_d).filter(lambda k: k != d))
    rows = [draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)) for _ in range(d)]
    if draw(st.booleans()):
        for row in rows:
            if sum(e >> 1 for e in row) % 2:
                row[-1] ^= 2
    return PMatrix(tuple(map(tuple, rows)))


class TestMaskRouteTwin:
    """spin_membership expands the Stiefel-Whitney product on masks; the
    frozenset polynomial route is its twin."""

    def test_exhaustive_n_le_6(self, pool):
        assert exhaustive_failures(pool, mask_route_matches) == []

    @settings(max_examples=200, deadline=None)
    @given(rectangular_pmatrices())
    def test_rectangular_pmatrices(self, p):
        assert p.d != p.n
        assert mask_route_matches(p)

    @settings(max_examples=100, deadline=None)
    @given(bott_matrices(max_n=8))
    @example(from_columns(64, [random.Random(64).randrange(1 << j) for j in range(64)]))
    @example(seeded_planted_kahler(random.Random(64), 64))  # orientable: membership runs
    def test_bott_shape(self, a):
        assert mask_route_matches(bott_to_p(a))


def has_bott_shape(p: PMatrix) -> bool:
    """Square, diagonal 1, 0 or 2 above the diagonal, 0 below it."""
    return p.d == p.n and all(
        (e == 1) if i == j else (e in (0, 2)) if i < j else (e == 0)
        for i, row in enumerate(p.rows)
        for j, e in enumerate(row)
    )


def lift_matches_shape(p: PMatrix) -> bool:
    b = pmatrix_to_bott(p)
    return (b is not None) == has_bott_shape(p) and (b is None or bott_to_p(b) == p)


class TestPmatrixToBottTwin:
    """pmatrix_to_bott against a direct shape predicate: every P-matrix with
    d, n <= 2, and Bott P-matrices with one entry mutated."""

    @settings(max_examples=300, deadline=None)
    @given(bott_matrices(max_n=6), st.data())
    def test_one_entry_mutation(self, a, data):
        rows = [list(row) for row in bott_to_p(a).rows]
        i = data.draw(st.integers(0, a.n - 1))
        j = data.draw(st.integers(0, a.n - 1))
        rows[i][j] = data.draw(st.integers(0, 3))
        assert lift_matches_shape(PMatrix(tuple(map(tuple, rows))))

    def test_every_pmatrix_n_le_2(self):
        count = 0
        for d, n in itertools.product((1, 2), repeat=2):
            for entries in itertools.product(range(4), repeat=d * n):
                rows = tuple(entries[i * n : (i + 1) * n] for i in range(d))
                p = PMatrix(rows)
                assert p.rows == rows
                assert lift_matches_shape(p), rows
                count += 1
        assert count == 4 + 16 + 16 + 256

    def test_every_one_entry_mutation_n_le_4(self):
        lifted = 0
        for n in (1, 2, 3, 4):
            for a in enumerate_bott(n):
                rows = bott_to_p(a).rows
                for i, j, e in itertools.product(range(n), range(n), range(4)):
                    mutated = [list(row) for row in rows]
                    mutated[i][j] = e
                    p = PMatrix(tuple(map(tuple, mutated)))
                    assert lift_matches_shape(p), mutated
                    lifted += pmatrix_to_bott(p) is not None
        # each Bott P-matrix comes back once per entry left unchanged and
        # once per 0 <-> 2 swap above the diagonal
        assert lifted == sum(
            (1 << cell_count) * (n * n + cell_count)
            for n, cell_count in ((1, 0), (2, 1), (3, 3), (4, 6))
        )


def predecessor_masks(a: BottMatrix) -> list[int]:
    """Per column j, bit i = a_ij: the rows i with an edge i -> j."""
    return [sum(row[j] << i for i, row in enumerate(a.rows)) for j in range(a.n)]


def relabeling(order) -> tuple[int, ...]:
    """pi with pi[order[k]] = k: the k-th vertex of order gets index k."""
    return tuple(order.index(i) for i in range(len(order)))


def linear_extensions(a: BottMatrix):
    """Every linear extension pi of the digraph of a (i -> j where a_ij = 1).

    pi[i] is the new index of row and column i, and a_ij = 1 implies
    pi[i] < pi[j], so the relabeled matrix is a Bott matrix again.
    """
    preds = predecessor_masks(a)

    def orders(placed: int, order: tuple[int, ...]):
        if len(order) == a.n:
            yield order
            return
        for j in range(a.n):
            if not (placed >> j) & 1 and not preds[j] & ~placed:
                yield from orders(placed | 1 << j, order + (j,))

    return [relabeling(order) for order in orders(0, ())]


def relabel(a: BottMatrix, pi) -> BottMatrix:
    """B with b_{pi(i) pi(j)} = a_ij: the same manifold, coordinates renamed."""
    rows = [[0] * a.n for _ in range(a.n)]
    for i, row in enumerate(a.rows):
        for j, e in enumerate(row):
            rows[pi[i]][pi[j]] = e
    return BottMatrix(tuple(map(tuple, rows)))


# Each route's verdicts must not see the relabeling.  The kernel is looked
# up on its module at call time, so a test can swap it out.
RELABEL_ROUTES = (
    ("kernel", lambda m: bottcore_mod.bott_verdicts(m.n, m.row_masks)),
    ("analyze", slow_verdicts),
    ("motions", orientable_by_motions),
)


def relabel_problems(a: BottMatrix, pi) -> list[str]:
    """Where relabeling a by pi changes a verdict or splits a Kahler pair."""
    b = relabel(a, pi)
    problems = [
        f"{name} differs on {a.to_line()} and its relabeling {b.to_line()} by {pi}"
        for name, route in RELABEL_ROUTES
        if route(a) != route(b)
    ]
    pairing = is_kahler(a)
    for i, j in pairing.pairs if pairing else ():
        if b.column(pi[i]) != b.column(pi[j]):
            problems.append(f"Kahler pair ({i}, {j}) of {a.to_line()} split by {pi}")
    return problems


def relabel_scan(max_n: int) -> tuple[int, list[str]]:
    """(relabeled matrices, problems) over every Bott matrix with n <= max_n
    and every linear extension of it; the motion oracle must also be clean
    on each relabeled matrix with n <= 4."""
    count = 0
    problems: list[str] = []
    for n in range(1, max_n + 1):
        for a in enumerate_bott(n):
            for pi in linear_extensions(a):
                count += 1
                problems += relabel_problems(a, pi)
                if n <= 4:
                    problems += check_against_rows(relabel(a, pi))
    return count, problems


@st.composite
def with_linear_extension(draw, matrices):
    """A drawn Bott matrix and a random linear extension of its digraph."""
    a = draw(matrices)
    preds = predecessor_masks(a)
    placed, order = 0, []
    while len(order) < a.n:
        ready = [j for j in range(a.n) if not (placed >> j) & 1 and not preds[j] & ~placed]
        j = draw(st.sampled_from(ready))
        placed |= 1 << j
        order.append(j)
    return a, relabeling(order)


class TestRelabelingInvariance:
    """Renaming the coordinates along a linear extension of the digraph of
    A gives a diffeomorphic manifold, so no verdict may change."""

    def test_extensions_and_relabel(self):
        assert sorted(linear_extensions(zero_bott(3))) == list(itertools.permutations(range(3)))
        # 0 -> 2 and 1 -> 2: vertex 2 comes last, 0 and 1 in either order
        a = from_columns(3, [0, 0, 0b11])
        assert linear_extensions(a) == [(0, 1, 2), (1, 0, 2)]
        assert relabel(a, (1, 0, 2)) == a
        # a_01 = 1 only; swapping vertices 1 and 2 moves it to a_02
        assert relabel(from_columns(3, [0, 1, 0]), (0, 2, 1)) == from_columns(3, [0, 0, 1])

    def test_exhaustive_n_le_5(self):
        count, problems = relabel_scan(5)
        assert problems == []
        assert count == 10105

    @settings(max_examples=200, deadline=None)
    @given(with_linear_extension(st.one_of(bott_matrices(), planted_kahler())))
    def test_random_and_planted_kahler(self, case):
        assert relabel_problems(*case) == []

    def test_non_invariant_kernel_is_caught(self, monkeypatch):
        real = bottcore_mod.bott_verdicts

        def biased(n, rows):
            orientable, kahler, spin = real(n, rows)
            return orientable, kahler, spin ^ bool(rows[0] & 0b10)

        monkeypatch.setattr(bottcore_mod, "bott_verdicts", biased)
        _, problems = relabel_scan(3)
        assert problems
        assert all(p.startswith("kernel differs") for p in problems)
