"""Tests for the exhaustive census layer."""

import concurrent.futures
import inspect
import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import pytest

from realbott import (
    CensusConfig,
    CensusRow,
    CSV_HEADER,
    InconsistencyError,
    OracleDisagreementError,
    analyze,
    bott_verdicts,
    enumerate_bott,
    generators,
    matrix_at,
    parse_bott,
    run_census,
)
import realbott.census as census_mod
from realbott.bottcore import mask_line
from realbott.census import _classify_range, cell_count


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_bott(2)) == 2
        assert sum(1 for _ in enumerate_bott(3)) == 8
        assert sum(1 for _ in enumerate_bott(4)) == 64

    def test_n1_single_matrix(self):
        mats = list(enumerate_bott(1))
        assert len(mats) == 1
        assert mats[0].rows == ((0,),)

    def test_bijection(self):
        seen = {a.to_line() for a in enumerate_bott(4)}
        assert len(seen) == 64

    def test_index_order_msb_first(self):
        # cells row-major form a binary numeral: index 1 sets the last cell
        assert matrix_at(2, 0).rows == ((0, 0), (0, 0))
        assert matrix_at(2, 1).rows == ((0, 1), (0, 0))
        assert matrix_at(3, 1).rows[1] == (0, 0, 1)
        assert matrix_at(3, 0b100).rows[0] == (0, 1, 0)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            matrix_at(2, 2)
        with pytest.raises(ValueError):
            matrix_at(2, -1)

    def test_size_guard(self):
        assert matrix_at(8, 2**28 - 1).rows[0] == (0,) + (1,) * 7  # n = 8 allowed
        with pytest.raises(ValueError, match="size guard"):
            matrix_at(9, 0)
        with pytest.raises(ValueError, match="size guard"):
            list(enumerate_bott(10))
        with pytest.raises(ValueError):
            list(enumerate_bott(0))


def full_tally(n, start, stop):
    """Kernel verdicts over a range of the full space: the plain walk's twin."""
    layout, table = census_mod._row_layout(n)
    tally = Counter()
    for index in range(start, stop):
        tally[bott_verdicts(n, [table[(index >> shift) & mask] for shift, mask in layout])] += 1
    return tally


def plain_walk_matches(n, full):
    """Whether the bottom-up walk tallies the kernel's verdicts as the full
    walk does (full): settle sees only Kahler matrices, and of the other
    orientable matrices the walk counts the Spin ones, so the rest are
    neither, and every non-orientable matrix is nothing at all."""
    part, spin_only, offender = census_mod._bottom_up_walk(n)
    orientable = 1 << cell_count(n - 1)
    walked = Counter(part) + Counter(
        {
            (True, False, True): spin_only,
            (True, False, False): orientable - sum(part.values()) - spin_only,
            (False, False, False): (1 << cell_count(n)) - orientable,
        }
    )
    return offender is None and all(kahler for _, kahler, _ in part) and walked == full


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each pool run_census builds.  The pool is a fake
    that runs its jobs in process, so no process starts and patched
    functions stay in force."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.fixture(scope="module")
def full_walk_pool():
    """Two workers for the full-space twin: n = 7 has 2^21 matrices."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as executor:
        yield executor


class TestRunCensus:
    def test_n2_counts(self):
        row, emitted = run_census(CensusConfig(n=2))
        assert row == CensusRow(
            n=2, total=2, orientable=1, kahler=1, spin=1,
            kahler_and_spin=1, kahler_not_spin=0,
        )
        assert list(emitted) == []

    def test_n3_counts(self):
        row, _ = run_census(CensusConfig(n=3))
        assert (row.total, row.kahler) == (8, 0)  # odd dimension: no pairings

    def test_count_invariants_n4(self):
        row, _ = run_census(CensusConfig(n=4))
        assert row.total == 64
        assert row.spin <= row.orientable <= row.total
        assert row.kahler_and_spin + row.kahler_not_spin == row.kahler

    def test_worker_independence(self, census_split):
        # only the full walk of --check-oracles splits; the plain census
        # gives the same row in process
        rows = {}
        for workers in (1, 2, 8):
            pools = census_split(workers)
            rows[workers], _ = run_census(CensusConfig(n=4, check_oracles=True))
        assert pools == [2, 8]
        assert rows[1] == rows[2] == rows[8] == run_census(CensusConfig(n=4))[0]

    def test_emit_roundtrip(self):
        _, listing = run_census(CensusConfig(n=3, emit_matrices=True))
        emitted = list(listing)
        assert len(emitted) == 8
        for index, line in enumerate(emitted):
            assert parse_bott(line) == matrix_at(3, index)

    def test_emit_filtered(self):
        # the caller filters the full listing; the filtered count must
        # match the census count
        row, listing = run_census(CensusConfig(n=4, emit_matrices=True))
        emitted = list(listing)
        reports = [analyze(parse_bott(line)) for line in emitted]
        kahler_spin = [r for r in reports if r.spin and r.kahler is not None]
        assert len(emitted) == row.total
        assert len(kahler_spin) == row.kahler_and_spin == 6

    def test_chunk_sums_match_single_range(self):
        # run_census adds per-chunk verdict tallies of the full walk; any
        # contiguous split must give the same tally, and the listing is
        # the index order
        n, total = 4, 1 << cell_count(4)
        results = {}
        for chunks in (1, 3, 8):
            bounds = [(total * c) // chunks for c in range(chunks + 1)]
            tally = Counter()
            for start, stop in zip(bounds, bounds[1:]):
                part, offender = _classify_range(n, start, stop)
                assert offender is None
                tally.update(part)
            results[chunks] = tally
        assert results[1] == results[3] == results[8]
        reports = [analyze(a) for a in enumerate_bott(n)]
        assert results[1] == Counter(
            (r.orientable, r.kahler is not None, r.spin) for r in reports
        )
        row, emitted = run_census(CensusConfig(n=4, emit_matrices=True))
        assert sum(results[1].values()) == row.total
        assert list(emitted) == [matrix_at(4, i).to_line() for i in range(total)]

    def test_emit_guard_allows_n7(self, monkeypatch):
        # the guard refuses n >= 8 (see test_cli); n = 7 still classifies
        # (the walk is stubbed: one Spin matrix) and lists the product of
        # its seven row tables (stubbed: 2^21 lines take 0.5 s)
        monkeypatch.setattr(census_mod, "_bottom_up_walk", lambda n: ({}, 1, None))
        sizes = []

        def listing(*texts):
            sizes.extend(len(text) for text in texts)
            return [("line",)]

        monkeypatch.setattr(census_mod, "product", listing)
        row, emitted = run_census(CensusConfig(n=7, emit_matrices=True))
        assert (row.total, row.orientable, row.spin) == (2**21, 2**15, 1)
        assert list(emitted) == ["line"]
        assert sizes == [64, 32, 16, 8, 4, 2, 1]

    def test_plain_guard_allows_n9(self, monkeypatch):
        # 2^28 orientable matrices of 2^36; the walk itself is stubbed, and
        # counts every one of them Spin
        calls = []

        def stub(*args):
            calls.append(args)
            return {}, 1 << 28, None

        monkeypatch.setattr(census_mod, "_bottom_up_walk", stub)
        row, _ = run_census(CensusConfig(n=9))
        assert calls == [(9,)]
        assert (row.total, row.orientable, row.spin) == (1 << 36, 1 << 28, 1 << 28)

    @pytest.mark.parametrize(
        "cfg", [CensusConfig(n=10), CensusConfig(n=9, check_oracles=True)]
    )
    def test_guard_refuses_before_any_walk(self, monkeypatch, cfg):
        # the plain census stops at n = 9, the full walk at n = 8
        def never(*args):
            raise AssertionError("a walk ran past the size guard")

        monkeypatch.setattr(census_mod, "_classify_range", never)
        monkeypatch.setattr(census_mod, "_bottom_up_walk", never)
        with pytest.raises(ValueError, match="size guard"):
            run_census(cfg)

    def test_emit_order_stable_across_workers(self, census_split):
        cfg = CensusConfig(n=4, emit_matrices=True, check_oracles=True)
        census_split(1)
        serial = list(run_census(cfg)[1])
        pools = census_split(4)
        parallel = list(run_census(cfg)[1])
        assert pools == [4]
        assert serial == parallel == list(run_census(CensusConfig(n=4, emit_matrices=True))[1])

    def test_check_oracles_clean_small_n(self):
        for n in (1, 2, 3, 4):
            row, _ = run_census(CensusConfig(n=n, check_oracles=True))
            assert row.total == 1 << cell_count(n)

    def test_index_decodes_to_matrix_at_rows(self):
        # the full walk reads row masks straight from the index
        for n in range(1, 7):
            layout, table = census_mod._row_layout(n)
            for index in range(1 << cell_count(n)):
                rows = tuple(table[(index >> shift) & mask] for shift, mask in layout)
                assert rows == matrix_at(n, index).row_masks

    def test_orientable_index_map(self):
        # spelled out from the definition: row i <= n-2 takes its first
        # n-2-i cells freely and its last cell is their parity; that map
        # must increase strictly and hit exactly the orientable full-space
        # indices, so run_census may count 2^cells(n-1) orientable matrices
        # by construction.  _index_of, which names the bottom-up walk's
        # offenders, must invert matrix_at on each of them
        for n in range(1, 7):
            widths = [n - 2 - i for i in range(n - 1)]
            bits = sum(widths)
            assert bits == cell_count(n - 1)
            images = []
            for index in range(1 << bits):
                digits = format(index, f"0{bits}b") if bits else ""
                full = ""
                for width in widths:
                    field, digits = digits[:width], digits[width:]
                    full += field + str(field.count("1") % 2)
                images.append(int(full or "0", 2))
                rows = matrix_at(n, images[-1]).row_masks
                assert census_mod._index_of(n, rows) == images[-1]
            assert all(a < b for a, b in zip(images, images[1:]))
            orientable = [
                index
                for index in range(1 << cell_count(n))
                if not any(r.bit_count() & 1 for r in matrix_at(n, index).row_masks)
            ]
            assert images == orientable

    @pytest.mark.parametrize("n", range(1, 8))
    def test_orientable_walk_matches_full_walk(self, full_walk_pool, n):
        # the full walk is the twin: same kernel verdicts per class, and
        # everything the orientable walk skips is non-orientable
        total = 1 << cell_count(n)
        bounds = [total * k // 4 for k in range(5)]
        jobs = [(n, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        assert plain_walk_matches(n, sum(full_walk_pool.map(full_tally, *zip(*jobs)), Counter()))

    def test_plain_walk_skips_non_orientable(self, monkeypatch):
        # on the plain walk settle sees each Kahler matrix once, in the
        # walk's own order, and nothing else: the walk counts the other
        # orientable matrices without decoding them, and never calls the
        # kernel
        seen = []
        real_kernel, real_settle = census_mod.bott_verdicts, census_mod.settle

        def spy(n, rows, *state):
            seen.append(tuple(rows))
            return (real_settle if state else real_kernel)(n, rows, *state)

        def never(n, rows):
            raise AssertionError("the plain walk called bott_verdicts")

        monkeypatch.setattr(census_mod, "settle", spy)
        monkeypatch.setattr(census_mod, "bott_verdicts", never)
        reached = {}
        for n in range(1, 7):
            seen.clear()
            row, _ = run_census(CensusConfig(n=n))
            orientable = [
                a.row_masks
                for a in enumerate_bott(n)
                if not any(r.bit_count() & 1 for r in a.row_masks)
            ]
            reached[n] = Counter(rows for rows in orientable if real_kernel(n, rows)[1])
            assert Counter(seen) == reached[n]
            assert row.orientable == len(orientable) == 1 << cell_count(n - 1)
        # the listing takes the plain walk as it is; only the oracle
        # cross-checks see every matrix, through the kernel
        seen.clear()
        run_census(CensusConfig(n=4, emit_matrices=True))
        assert Counter(seen) == reached[4]
        monkeypatch.setattr(census_mod, "bott_verdicts", spy)
        seen.clear()
        run_census(CensusConfig(n=4, check_oracles=True))
        assert seen == [a.row_masks for a in enumerate_bott(4)]

    def test_emit_lists_the_index_space(self, monkeypatch):
        # the listing decodes no verdict: with a kernel that raises it is
        # still every matrix in index order, and the row is the plain row;
        # under check_oracles the kernel walks beside the same listing
        real_kernel = census_mod.bott_verdicts

        def never(n, rows):
            raise AssertionError("the listing called bott_verdicts")

        for n in range(1, 7):
            expected = [matrix_at(n, i).to_line() for i in range(1 << cell_count(n))]
            monkeypatch.setattr(census_mod, "bott_verdicts", never)
            plain, listing = run_census(CensusConfig(n=n))
            assert list(listing) == []
            row, listing = run_census(CensusConfig(n=n, emit_matrices=True))
            assert (row, list(listing)) == (plain, expected)
            if n <= 4:
                monkeypatch.setattr(census_mod, "bott_verdicts", real_kernel)
                row, listing = run_census(CensusConfig(n=n, emit_matrices=True, check_oracles=True))
                assert (row, list(listing)) == (plain, expected)

    @pytest.mark.parametrize(
        "csv",
        [
            "1,1,1,0,1,0,0",
            "2,2,1,1,1,1,0",
            "3,8,2,0,2,0,0",
            "4,64,8,6,8,6,0",
            "5,1024,64,0,30,0,0",
            "6,32768,1024,192,176,76,116",
            "7,2097152,32768,0,1482,0,0",
        ],
    )
    def test_reference_rows(self, csv):
        # the README table; n = 7 was confirmed once by the polynomial route
        n = int(csv.split(",")[0])
        row, _ = run_census(CensusConfig(n=n))
        assert row.to_csv() == csv

    def test_csv_row(self):
        row, _ = run_census(CensusConfig(n=2))
        assert CSV_HEADER == "n,total,orientable,kahler,spin,kahler_and_spin,kahler_not_spin"
        assert row.to_csv() == "2,2,1,1,1,1,0"


def decoded_rows(n, index):
    """Row masks of one full-space index, read field by field as matrix_at does."""
    layout, table = census_mod._row_layout(n)
    return tuple(table[(index >> shift) & mask] for shift, mask in layout)


class TestRangeWalk:
    """_classify_range, the walk of --check-oracles, reads its rows from the
    row tables; a range cut anywhere, even inside a row's field, must walk
    the same matrices in the same order as the index decode.  The oracle
    walk is the only one with index ranges: the plain census walks bottom
    up in one process."""

    @staticmethod
    def walk(n, bounds):
        """(tally, first offender) of the ranges between bounds, merged."""
        tally, offenders = Counter(), []
        for lo, hi in zip(bounds, bounds[1:]):
            part, offender = _classify_range(n, lo, hi)
            tally.update(part)
            offenders += [offender] if offender else []
        return tally, min(offenders, default=None)

    # kind names the walk under test, the oracle walk, since the plain one
    # has no ranges
    @pytest.mark.parametrize("kind", ["oracles"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_cut_points_inside_fields(self, monkeypatch, n, kind):
        # cuts at total * c // 7 fall inside row fields; cross_check is a
        # stub that flags planted matrices, so only the walk is under test.
        # The kernel sees every matrix once
        total = 1 << cell_count(n)
        cuts = [total * c // 7 for c in range(8)]
        seen = []
        planted = set()
        real_kernel = census_mod.bott_verdicts

        def spy(n, rows):
            seen.append(tuple(rows))
            return real_kernel(n, rows)

        def stub(a, verdicts):
            return ["planted"] if a.row_masks in planted else []

        monkeypatch.setattr(census_mod, "bott_verdicts", spy)
        monkeypatch.setattr(census_mod, "cross_check", stub)
        whole = self.walk(n, [0, total])
        decoded = [decoded_rows(n, i) for i in range(total)]
        assert seen == decoded
        seen.clear()
        assert self.walk(n, cuts) == whole
        assert seen == decoded
        assert whole[1] is None and sum(whole[0].values()) == total
        # two planted offenders in different pieces, then one just past a cut
        past_cut = min(total * 3 // 7 + 1, total - 1)
        for picks in ({total - 1, total // 2}, {past_cut}):
            planted = {decoded[i] for i in picks}
            first = min(picks)
            offender = self.walk(n, [0, total])[1]
            assert offender == (first, matrix_at(n, first).to_line(), "planted")
            assert self.walk(n, cuts)[1] == offender


@pytest.fixture(scope="module")
def plain_census():
    """n -> (row, settle calls) of the plain census for n = 1..8, with a
    counting settle."""
    results = {}
    calls = Counter()
    real_settle = census_mod.settle

    def counting(n, rows, classes, spin):
        calls[n] += 1
        return real_settle(n, rows, classes, spin)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(census_mod, "settle", counting)
        for n in range(1, 9):
            row, _ = run_census(CensusConfig(n=n))
            results[n] = (row, calls[n])
    return results


@lru_cache(maxsize=None)
def full_walk_of(n):
    """full_tally over the whole space of n, once per n."""
    return full_tally(n, 0, 1 << cell_count(n))


def kahler_twins_agree(n):
    """Whether the bottom-up walk's kahler and kahler_and_spin counts at even
    n equal kahler_count's and kahler_walk's, with no offender."""
    part, _, offender = census_mod._bottom_up_walk(n)
    counts = (sum(part.values()), part.get((True, True, True), 0))
    return offender is None and counts == (kahler_count(n), kahler_walk(n)[1])


class TestSkipRule:
    """The bottom-up walk sets each row only from the rows that keep Kahler
    or Spin alive, so settle sees exactly the Kahler matrices, and the Spin
    ones that are not Kahler are counted by rank."""

    def test_kernel_calls(self, plain_census):
        # settle, the closed-form check, on the 192 Kahler matrices of the
        # 1,024 orientable ones at n = 6, and on all 28,464 at n = 8
        for n, (row, calls) in plain_census.items():
            assert calls == row.kahler
        assert plain_census[6][1] == 192
        assert plain_census[8][1] == 28464

    @pytest.mark.parametrize(
        "original, mutant, twin, kahler_twins, census6",
        [
            # Spin-only rows never set, so their subtrees lose their Spin matrices
            ("down(i, u, None, True)", "pass", [3, 5, 6], [], None),
            # a Spin row space without the all-ones constraint: odd rows count as Spin
            ("1 << x: 1 for x", "1 << x: 0 for x", [2, 3, 4, 5, 6], [], None),
            # a Kahler row space without the zero class: rows meeting it are lost
            (
                "for c in classes:\n                c &= domain",
                "for c in classes[1:]:\n                c &= domain",
                [4, 6],
                [4, 6],
                None,
            ),
            # T_l without column l for r_l = 2 mod 4
            ("u | ((u.bit_count() & 2) << (i - 1))", "u", [4, 5, 6], [6], "Spin deciders disagree"),
            # the Kahler refinement of bott_verdicts' drops_complement mutant
            (
                "if part != c:\n                        refined.append(c ^ part)\n"
                "                    if part:\n                        refined.append(part)",
                "refined.append(part or c)",
                [4, 6],
                [4, 6],
                "Spin deciders disagree",
            ),
            # the Spin rows of the Kahler row space counted again by rank
            ("(1 << (n - 1 - len(pivots))) - len(both)", "1 << (n - 1 - len(pivots))", [2, 4, 6], [], None),
            # the Spin rows of the Kahler row space walked again as not Kahler
            ("spin_rows = [u for u in spin_rows if u not in both]", "pass", [2, 4, 6], [], None),
        ],
        ids=[
            "kahler_alone",
            "spin_without_all_ones",
            "kahler_without_zero_class",
            "spin_without_column_l",
            "drops_complement",
            "spin_count_with_kahler_rows",
            "spin_walk_with_kahler_rows",
        ],
    )
    def test_twins_catch_walk_mutants(
        self, monkeypatch, original, mutant, twin, kahler_twins, census6
    ):
        # n <= 6 where the full-walk twin (test_orientable_walk_matches_full_walk)
        # fails, and even n <= 6 where kahler_count or kahler_walk disagrees
        # with the walk's kahler or kahler_and_spin count.  The walk's own
        # Kahler and Spin verdicts reach the census with no second run of
        # the kernel, so census6 names the mutants whose n = 6 census
        # settle's closed-form check aborts, and None where it runs through
        source = inspect.getsource(census_mod._bottom_up_walk)
        assert source.count(original) == 1
        namespace = dict(vars(census_mod))
        exec(source.replace(original, mutant), namespace)
        monkeypatch.setattr(census_mod, "_bottom_up_walk", namespace["_bottom_up_walk"])
        caught_by_twin = [n for n in range(1, 7) if not plain_walk_matches(n, full_walk_of(n))]
        caught_by_counts = [n for n in (2, 4, 6) if not kahler_twins_agree(n)]
        assert (caught_by_twin, caught_by_counts) == (twin, kahler_twins)
        if census6 is None:
            run_census(CensusConfig(n=6))
        else:
            with pytest.raises(OracleDisagreementError, match=census6):
                run_census(CensusConfig(n=6))


def kahler_count(n):
    """Kahler Bott matrices of size n, counted column by column (Ishida:
    every class of equal columns has even size).  Column k takes one of
    2^k values; f(k, u) counts the ways to fill columns k..n-1 when u
    values occur an odd number of times among columns 0..k-1: column k
    repeats one of those u, or takes one of the other 2^k - u values."""

    @lru_cache(maxsize=None)
    def f(k, u):
        if k == n:
            return int(u == 0)
        repeat = u * f(k + 1, u - 1) if u else 0
        return repeat + ((1 << k) - u) * f(k + 1, u + 1)

    return f(0, 0)


class TestKahlerCount:
    """The recurrence is a second route to the census's kahler column, with
    no matrix walked; it reaches n = 8, whose row is not pinned."""

    def test_matches_census(self, plain_census):
        expected = [0, 1, 0, 6, 0, 192, 0, 28464]
        assert [kahler_count(n) for n in range(1, 9)] == expected
        assert [plain_census[n][0].kahler for n in range(1, 9)] == expected

    def test_catches_a_count_of_every_value(self, plain_census):
        # a column that may take any of its 2^k values, odd ones included
        source = inspect.getsource(kahler_count)
        assert source.count("((1 << k) - u)") == 1
        namespace = dict(globals())
        exec(source.replace("((1 << k) - u)", "(1 << k)"), namespace)
        mutant = [namespace["kahler_count"](n) for n in range(1, 9)]
        assert mutant != [plain_census[n][0].kahler for n in range(1, 9)]


def kahler_walk(n):
    """(Kahler matrices, Spin ones, lines where bott_verdicts disagrees) of
    even size n, walked depth first column by column (Ishida: every class
    of equal columns has even size).  Column k takes a value v < 2^k, bit
    i of v being a_ik; odd holds the values taken an odd number of times
    so far, and once it has as many values as columns are left, every
    later column must repeat one of them, so each leaf is Kahler.  At a
    leaf the closed form reads the walk's classes: a class of m equal
    columns makes m/2 pairs, so S (bit i is S_i) is the XOR of the values
    of the classes with m = 2 mod 4, and the manifold is Spin iff every
    row has S_i even or column i zero.  The kernel must give (True, True,
    that verdict) without raising."""
    cols = [0] * n
    kahler = spin = 0
    disagree = []

    def walk(k, odd):
        nonlocal kahler, spin
        if k < n:
            for v in sorted(odd) if len(odd) == n - k else range(1 << k):
                cols[k] = v
                walk(k + 1, odd ^ {v})
            return
        assert not odd
        s = 0
        for v, m in Counter(cols).items():
            if m % 4 == 2:
                s ^= v
        spin_cf = all(not s >> i & 1 or not cols[i] for i in range(n))
        rows = [sum((c >> i & 1) << j for j, c in enumerate(cols)) for i in range(n)]
        try:
            agrees = bott_verdicts(n, rows) == (True, True, spin_cf)
        except InconsistencyError:
            agrees = False
        if not agrees:
            disagree.append(mask_line(n, rows))
        kahler += 1
        spin += spin_cf

    walk(0, frozenset())
    return kahler, spin, disagree


class TestKahlerWalk:
    """The column walk is a second route to the census's kahler and
    kahler_and_spin columns that shares no code with the kernel's
    refinement or settle, and checks the kernel on every Kahler matrix up
    to n = 8, whose row is not pinned."""

    def test_matches_census(self, plain_census):
        # (kahler, kahler_and_spin); n = 8 takes about 0.6 s
        expected = {2: (1, 1), 4: (6, 6), 6: (192, 76), 8: (28464, 4244)}
        for n, counts in expected.items():
            row = plain_census[n][0]
            assert (row.kahler, row.kahler_and_spin) == counts
            assert kahler_walk(n) == (*counts, [])

    def test_catches_a_closed_form_without_zero_columns(self):
        # S_i odd counted against Spin even where column i is zero: 5 of the
        # 6 Kahler matrices at n = 4 and 68 of the 192 at n = 6 disagree
        source = inspect.getsource(kahler_walk)
        assert source.count(" or not cols[i]") == 1
        namespace = dict(globals())
        exec(source.replace(" or not cols[i]", ""), namespace)
        assert [len(namespace["kahler_walk"](n)[2]) for n in (2, 4, 6)] == [0, 5, 68]


class TestDisagreementAbort:
    """A sabotaged route must abort the census at the smallest offending
    index, with its serialized reproducer.

    The plain census hands settle only the Kahler matrices, so sabotage
    on that path targets two Kahler n = 4 matrices, listed largest first:
    full indices 40 and 30.  Both are Kahler, so both reach settle, which
    takes the plain walk's leaves as the kernel takes the full walk's.
    The bottom-up walk visits 40 before 30, so the reproducer must be the
    smallest offender, not the first one found.
    """

    bad = (5, 2)
    bad_orientable = (40, 30)

    def sabotage(self, monkeypatch, wrap):
        """Route settle and the kernel through wrap(real, n, rows, *state)
        on the bad orientable matrices."""
        bad_masks = {matrix_at(4, i).row_masks for i in self.bad_orientable}
        assert all(not any(r.bit_count() & 1 for r in rows) for rows in bad_masks)
        for name in ("settle", "bott_verdicts"):
            real = getattr(census_mod, name)

            def sabotaged(n, rows, *state, real=real):
                if tuple(rows) in bad_masks:
                    return wrap(real, n, rows, *state)
                return real(n, rows, *state)

            monkeypatch.setattr(census_mod, name, sabotaged)

    @staticmethod
    def injected(real, n, rows, *state):
        raise InconsistencyError("injected disagreement")

    def assert_aborts_at(self, cfg, index, detail):
        with pytest.raises(OracleDisagreementError) as excinfo:
            run_census(cfg)
        assert excinfo.value.index == index
        assert excinfo.value.line == matrix_at(cfg.n, index).to_line()
        assert detail in excinfo.value.detail

    def test_reproducer_carries_smallest_index(self, monkeypatch):
        # analyze runs only under check_oracles
        bad_lines = {matrix_at(3, i).to_line() for i in self.bad}
        real_analyze = census_mod.analyze

        def sabotaged(a):
            if a.to_line() in bad_lines:
                raise InconsistencyError("injected disagreement")
            return real_analyze(a)

        monkeypatch.setattr(census_mod, "analyze", sabotaged)
        assert run_census(CensusConfig(n=3))[0].total == 8
        self.assert_aborts_at(CensusConfig(n=3, check_oracles=True), 2, "injected")

    def test_kernel_sabotage_on_plain_path(self, monkeypatch):
        self.sabotage(monkeypatch, self.injected)
        self.assert_aborts_at(CensusConfig(n=4), 30, "injected")
        # the full walk of --check-oracles names the same index
        self.assert_aborts_at(CensusConfig(n=4, check_oracles=True), 30, "injected")

    def test_smallest_offender_wins_in_any_visit_order(self, monkeypatch):
        # a spy in front of the sabotage records the order settle sees the
        # two offenders in: the larger index first.  The census still names
        # the smaller one, with its matrix_at reproducer
        self.sabotage(monkeypatch, self.injected)
        order = []
        sabotaged = census_mod.settle

        def spy(n, rows, *state):
            index = census_mod._index_of(n, rows)
            if index in self.bad_orientable:
                order.append(index)
            return sabotaged(n, rows, *state)

        monkeypatch.setattr(census_mod, "settle", spy)
        self.assert_aborts_at(CensusConfig(n=4), 30, "injected")
        assert order == [40, 30]

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_same_offender_at_every_split(self, monkeypatch, pool_sizes, cpus):
        # one matrix per worker at least: eight chunks of the full walk put
        # the two offenders in different chunks, three put both in one; the
        # plain census builds no pool at any CPU count
        monkeypatch.setattr(census_mod, "SHARE_BITS", 0)
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        self.sabotage(monkeypatch, self.injected)
        self.assert_aborts_at(CensusConfig(n=4), 30, "injected")
        self.assert_aborts_at(CensusConfig(n=4, check_oracles=True), 30, "injected")
        assert pool_sizes == ([cpus] if cpus > 1 else [])

    def test_check_oracles_catches_wrong_kernel_verdict(self, monkeypatch):
        # a settle and a kernel that miscount without raising pass the plain
        # path; under check_oracles analyze disagrees with the kernel
        def flipped(real, n, rows, *state):
            orientable, kahler, spin = real(n, rows, *state)
            return orientable, kahler, not spin

        self.sabotage(monkeypatch, flipped)
        row, _ = run_census(CensusConfig(n=4))
        assert row.spin == 8 - len(self.bad_orientable)  # both are Kahler and Spin
        self.assert_aborts_at(
            CensusConfig(n=4, check_oracles=True), 30, "kernel and analyze disagree"
        )

    def test_check_oracles_runs_orientability_route(self, monkeypatch):
        # the generators' sign products are a second route to orientability
        bad_gens = {generators(matrix_at(3, i)) for i in self.bad}
        real_route = census_mod._orientable

        def flipped(gens):
            return real_route(gens) ^ (gens in bad_gens)

        monkeypatch.setattr(census_mod, "_orientable", flipped)
        assert run_census(CensusConfig(n=3))[0].total == 8
        self.assert_aborts_at(
            CensusConfig(n=3, check_oracles=True), 2, "kernel and motions disagree"
        )


class TestCrossCheck:
    """cross_check on README's six-dimensional fixture, which is orientable,
    Kahler and not Spin: findings come back in a fixed order, analyze's
    first, then the motions' orientability, then the motion oracle's."""

    line = "001111/001111/000011/000011/000000/000000"
    wrong = (False, True, False)
    analyze_msg = (
        f"kernel and analyze disagree on {line}: "
        "(orientable, kahler, spin) = (False, True, False) against (True, True, False)"
    )
    motions_msg = f"kernel and motions disagree on {line}: orientable = False against True"

    def test_kernel_verdicts_agree(self, sixdim_bott):
        verdicts = census_mod.bott_verdicts(sixdim_bott.n, sixdim_bott.row_masks)
        assert verdicts == (True, True, False)
        assert census_mod.cross_check(sixdim_bott, verdicts) == []

    def test_wrong_verdicts_in_order(self, sixdim_bott):
        assert census_mod.cross_check(sixdim_bott, self.wrong) == [
            self.analyze_msg,
            self.motions_msg,
        ]

    def test_analyze_error_comes_first(self, sixdim_bott, monkeypatch):
        def raising(a):
            raise InconsistencyError("injected analyze fault")

        monkeypatch.setattr(census_mod, "analyze", raising)
        assert census_mod.cross_check(sixdim_bott, self.wrong) == [
            "injected analyze fault",
            self.motions_msg,
        ]

    def test_oracle_finding_comes_last(self, sixdim_bott, monkeypatch):
        monkeypatch.setattr(census_mod, "_check_motions", lambda a: (["oracle finding"], generators(a)))
        assert census_mod.cross_check(sixdim_bott, self.wrong) == [
            self.analyze_msg,
            self.motions_msg,
            "oracle finding",
        ]


class TestWorkerCap:
    """With --check-oracles run_census takes max(1, min(usable CPUs,
    walked >> SHARE_BITS)) workers, so never more than usable CPUs or
    shares of the walk; the plain census always runs in process.

    The pool is faked and runs its jobs in process, so no test here starts
    a process.  Shares are 2^7 matrices: --check-oracles n = 5 (2^10) has
    room for 8 workers, while n = 4 (2^6) stays in process.
    """

    def test_cap_applies(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        row, _ = run_census(CensusConfig(n=5, check_oracles=True))
        assert pool_sizes == [3]
        assert row.to_csv() == "5,1024,64,0,30,0,0"

    def test_no_cap(self, monkeypatch, pool_sizes):
        # without CPU affinity the rule falls back to os.cpu_count(), and
        # to one CPU when that is unknown
        monkeypatch.delattr(census_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(census_mod.os, "cpu_count", lambda: 4)
        run_census(CensusConfig(n=5, check_oracles=True))
        monkeypatch.setattr(census_mod.os, "cpu_count", lambda: None)
        run_census(CensusConfig(n=5, check_oracles=True))
        assert pool_sizes == [4]

    def test_one_cpu(self, monkeypatch, pool_sizes):
        # a single usable CPU runs in process, however large the walk
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: {0})
        run_census(CensusConfig(n=7))
        run_census(CensusConfig(n=5, check_oracles=True))
        assert pool_sizes == []

    def test_walk_caps_many_cpus(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: set(range(64)))
        run_census(CensusConfig(n=6))
        run_census(CensusConfig(n=7))
        run_census(CensusConfig(n=6, emit_matrices=True))
        run_census(CensusConfig(n=4, check_oracles=True))
        assert pool_sizes == []
        # an oracle matrix costs some fifty plain ones: 2^10 of them split
        assert run_census(CensusConfig(n=5, check_oracles=True))[0].total == 1024
        assert pool_sizes == [8]

    def test_plain_shares_past_n7(self, monkeypatch, pool_sizes):
        # the plain census has no shares: n = 7, 8 and 9 run in process on
        # 64 CPUs, each in well under a second
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: set(range(64)))
        run_census(CensusConfig(n=7))
        run_census(CensusConfig(n=8))
        assert run_census(CensusConfig(n=9))[0].to_csv() == "9,68719476736,268435456,0,295010,0,0"
        assert pool_sizes == []

    def test_share_boundary(self, monkeypatch, pool_sizes):
        # --check-oracles n = 4 walks 2^6: one share stays in process, two
        # or four shares take as many workers
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: set(range(64)))
        for bits in (6, 5, 4):
            monkeypatch.setattr(census_mod, "SHARE_BITS", bits)
            cfg = CensusConfig(n=4, check_oracles=True)
            assert run_census(cfg)[0].to_csv() == "4,64,8,6,8,6,0"
        assert pool_sizes == [2, 4]

    @pytest.mark.parametrize(
        "cfg",
        [
            CensusConfig(n=6),
            CensusConfig(n=4, check_oracles=True),
            CensusConfig(n=6, emit_matrices=True),
        ],
    )
    def test_small_walks_never_build_a_pool(self, monkeypatch, cfg):
        # the benchmark times plain n = 6 in one process, whatever the CPUs
        # (the plain census never builds a pool); the listing adds no walk
        # of its own, and n = 4 is the largest oracle walk kept in process
        def no_pool(*args, **kwargs):
            raise AssertionError("run_census built a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: set(range(64)))
        row, _ = run_census(cfg)
        assert row.total == 1 << cell_count(cfg.n)
