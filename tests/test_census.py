"""Tests for the exhaustive census layer."""

import concurrent.futures
import inspect
import multiprocessing
import time
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
    """Kernel verdicts over a range of the full space: the orientable walk's twin."""
    layout, table = census_mod._row_layout(n, False)
    tally = Counter()
    for index in range(start, stop):
        tally[bott_verdicts(n, [table[(index >> shift) & mask] for shift, mask in layout])] += 1
    return tally


def plain_walk_matches(n, full):
    """Whether the plain walk, with every matrix it skips as non-orientable,
    tallies the kernel's verdicts as the full walk does (full)."""
    walked = 1 << cell_count(n - 1)
    part, offender = _classify_range(n, 0, walked, False)
    skipped = Counter({(False, False, False): (1 << cell_count(n)) - walked})
    return (
        offender is None
        and all(orientable for orientable, _, _ in part)
        and Counter(part) + skipped == full
    )


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
        assert emitted == []

    def test_n3_counts(self):
        row, _ = run_census(CensusConfig(n=3))
        assert (row.total, row.kahler) == (8, 0)  # odd dimension: no pairings

    def test_count_invariants_n4(self):
        row, _ = run_census(CensusConfig(n=4))
        assert row.total == 64
        assert row.spin <= row.orientable <= row.total
        assert row.kahler_and_spin + row.kahler_not_spin == row.kahler

    def test_worker_independence(self, census_split):
        rows = {}
        for workers in (1, 2, 8):
            pools = census_split(workers)
            rows[workers], _ = run_census(CensusConfig(n=4))
        assert pools == [2, 8]
        assert rows[1] == rows[2] == rows[8]

    def test_emit_roundtrip(self):
        _, emitted = run_census(CensusConfig(n=3, emit_matrices=True))
        assert len(emitted) == 8
        for index, line in enumerate(emitted):
            assert parse_bott(line) == matrix_at(3, index)

    def test_emit_filtered(self):
        # the caller filters the full listing; the filtered count must
        # match the census count
        row, emitted = run_census(CensusConfig(n=4, emit_matrices=True))
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
                part, offender = _classify_range(n, start, stop, True)
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
        assert emitted == [matrix_at(4, i).to_line() for i in range(total)]

    def test_emit_guard_allows_n7(self, monkeypatch):
        # the guard refuses n >= 8 (see test_cli); n = 7 still classifies,
        # here on one CPU so that the stub runs in process, and lists the
        # product of its seven row tables (stubbed: 2^21 lines take 0.5 s)
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: {0})
        one = (Counter({(True, False, True): 1}), None)
        monkeypatch.setattr(census_mod, "_classify_range", lambda *args: one)
        sizes = []

        def listing(*texts):
            sizes.extend(len(text) for text in texts)
            return [("line",)]

        monkeypatch.setattr(census_mod, "product", listing)
        row, emitted = run_census(CensusConfig(n=7, emit_matrices=True))
        # the stub's one matrix, and the 2^21 - 2^15 the plain walk skips
        assert (row.total, row.orientable, row.spin) == (1 + 2**21 - 2**15, 1, 1)
        assert emitted == ["line"]
        assert sizes == [64, 32, 16, 8, 4, 2, 1]

    def test_plain_guard_allows_n9(self, monkeypatch):
        # 2^28 orientable matrices of 2^36; the walk itself is stubbed, and
        # one CPU keeps it in process
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: {0})
        calls = []

        def stub(*args):
            calls.append(args)
            return {(True, False, True): 1 << 28}, None

        monkeypatch.setattr(census_mod, "_classify_range", stub)
        row, _ = run_census(CensusConfig(n=9))
        assert calls == [(9, 0, 1 << 28, False)]
        assert (row.total, row.orientable, row.spin) == (1 << 36, 1 << 28, 1 << 28)

    @pytest.mark.parametrize(
        "cfg", [CensusConfig(n=10), CensusConfig(n=9, check_oracles=True)]
    )
    def test_guard_refuses_before_any_walk(self, monkeypatch, cfg):
        # the orientable walk stops at n = 9, the full walk at n = 8
        def never(*args):
            raise AssertionError("_classify_range ran past the size guard")

        monkeypatch.setattr(census_mod, "_classify_range", never)
        with pytest.raises(ValueError, match="size guard"):
            run_census(cfg)

    def test_emit_order_stable_across_workers(self, census_split):
        census_split(1)
        _, serial = run_census(CensusConfig(n=4, emit_matrices=True))
        pools = census_split(4)
        _, parallel = run_census(CensusConfig(n=4, emit_matrices=True))
        assert pools == [4]
        assert serial == parallel

    def test_check_oracles_clean_small_n(self):
        for n in (1, 2, 3, 4):
            row, _ = run_census(CensusConfig(n=n, check_oracles=True))
            assert row.total == 1 << cell_count(n)

    def test_index_decodes_to_matrix_at_rows(self):
        # the full walk reads row masks straight from the index
        for n in range(1, 7):
            layout, table = census_mod._row_layout(n, False)
            for index in range(1 << cell_count(n)):
                rows = tuple(table[(index >> shift) & mask] for shift, mask in layout)
                assert rows == matrix_at(n, index).row_masks

    def test_orientable_index_map(self):
        # spelled out from the definition: row i <= n-2 takes its first
        # n-2-i cells from the orientable index and its last cell is
        # their parity; the map must decode like matrix_at, increase
        # strictly and hit exactly the orientable full-space indices;
        # _index_of, which names offenders, must invert it
        for n in range(1, 7):
            widths = [n - 2 - i for i in range(n - 1)]
            bits = sum(widths)
            layout, table = census_mod._row_layout(n, True)
            images = []
            for index in range(1 << bits):
                digits = format(index, f"0{bits}b") if bits else ""
                full = ""
                for width in widths:
                    field, digits = digits[:width], digits[width:]
                    full += field + str(field.count("1") % 2)
                images.append(int(full or "0", 2))
                rows = tuple(table[(index >> shift) & mask] for shift, mask in layout)
                assert rows == matrix_at(n, images[-1]).row_masks
                assert census_mod._index_of(n, rows) == images[-1]
            assert all(a < b for a, b in zip(images, images[1:]))
            full_layout, full_table = census_mod._row_layout(n, False)
            orientable = [
                index
                for index in range(1 << cell_count(n))
                if not any(
                    full_table[(index >> shift) & mask].bit_count() & 1
                    for shift, mask in full_layout
                )
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
        # on the plain walk settle sees each orientable matrix that is
        # Kahler or Spin once, in index order, and nothing else: the walk
        # counts the other orientable matrices without decoding them, and
        # never calls the kernel
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
        for n in range(1, 6):
            seen.clear()
            row, _ = run_census(CensusConfig(n=n))
            orientable = [
                a.row_masks
                for a in enumerate_bott(n)
                if not any(r.bit_count() & 1 for r in a.row_masks)
            ]
            reached[n] = [rows for rows in orientable if any(real_kernel(n, rows)[1:])]
            assert seen == reached[n]
            assert row.orientable == len(orientable) == 1 << cell_count(n - 1)
        # the listing takes the plain walk as it is; only the oracle
        # cross-checks see every matrix, through the kernel
        seen.clear()
        run_census(CensusConfig(n=4, emit_matrices=True))
        assert seen == reached[4]
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
            assert listing == []
            assert run_census(CensusConfig(n=n, emit_matrices=True)) == (plain, expected)
            if n <= 4:
                monkeypatch.setattr(census_mod, "bott_verdicts", real_kernel)
                cfg = CensusConfig(n=n, emit_matrices=True, check_oracles=True)
                assert run_census(cfg) == (plain, expected)

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


def decoded_rows(n, orientable_only, index):
    """Row masks of one walk index, read field by field as matrix_at does."""
    layout, table = census_mod._row_layout(n, orientable_only)
    return tuple(table[(index >> shift) & mask] for shift, mask in layout)


class TestRangeWalk:
    """_classify_range reads its rows block by block from the row tables;
    a range cut anywhere, even inside a row's field, must walk the same
    matrices in the same order as the index decode."""

    @staticmethod
    def walk(n, bounds, check_oracles):
        """(tally, first offender) of the ranges between bounds, merged."""
        tally, offenders = Counter(), []
        for lo, hi in zip(bounds, bounds[1:]):
            part, offender = _classify_range(n, lo, hi, check_oracles)
            tally.update(part)
            offenders += [offender] if offender else []
        return tally, min(offenders, default=None)

    @pytest.mark.parametrize("kind", ["plain", "oracles"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_cut_points_inside_fields(self, monkeypatch, n, kind):
        # cuts at total * c // 7 fall inside row fields; the oracle walk's
        # cross_check is a stub that flags planted matrices, so only the
        # walk is under test.  The kernel sees every matrix of the full
        # walk once, and settle on the plain walk every matrix that is
        # Kahler or Spin, the only ones it decodes; planted offenders are
        # among those
        check_oracles = kind == "oracles"
        orientable_only = not check_oracles
        total = 1 << cell_count(n - 1 if orientable_only else n)
        cuts = [total * c // 7 for c in range(8)]
        seen = []
        planted = set()
        real_kernel, real_settle = census_mod.bott_verdicts, census_mod.settle
        reached = [
            i
            for i in range(total)
            if not orientable_only or any(real_kernel(n, decoded_rows(n, True, i))[1:])
        ]

        def spy(n, rows, *state):
            rows = tuple(rows)
            seen.append(rows)
            if rows in planted and not check_oracles:
                raise InconsistencyError("planted")
            return (real_settle if state else real_kernel)(n, rows, *state)

        def stub(a, verdicts):
            return ["planted"] if a.row_masks in planted else []

        monkeypatch.setattr(census_mod, "settle" if orientable_only else "bott_verdicts", spy)
        monkeypatch.setattr(census_mod, "cross_check", stub)
        whole = self.walk(n, [0, total], check_oracles)
        decoded = [decoded_rows(n, orientable_only, i) for i in range(total)]
        assert seen == [decoded[i] for i in reached]
        seen.clear()
        assert self.walk(n, cuts, check_oracles) == whole
        assert seen == [decoded[i] for i in reached]
        assert whole[1] is None and sum(whole[0].values()) == total
        # two planted offenders in different pieces, then one just past a cut
        past_cut = next((i for i in reached if i > total * 3 // 7), reached[-1])
        for picks in ({reached[-1], reached[len(reached) // 2]}, {past_cut}):
            planted = {decoded_rows(n, orientable_only, i) for i in picks}
            first = min(picks)
            offender = self.walk(n, [0, total], check_oracles)[1]
            full_index = census_mod._index_of(n, decoded_rows(n, orientable_only, first))
            assert offender == (full_index, matrix_at(n, full_index).to_line(), "planted")
            assert self.walk(n, cuts, check_oracles)[1] == offender

    def test_start_near_the_end_of_n9(self):
        # the last four of the 2^28 orientable n = 9 matrices: the walk
        # descends to them along one path of subtrees instead of walking
        # from index 0, which would take seconds
        start, stop = 2**28 - 4, 2**28
        expected = Counter(bott_verdicts(9, decoded_rows(9, True, i)) for i in range(start, stop))
        began = time.perf_counter()
        tally, offender = _classify_range(9, start, stop, False)
        assert time.perf_counter() - began < 0.5
        assert (Counter(tally), offender) == (expected, None)


@pytest.fixture(scope="module")
def plain_census():
    """n -> (row, settle calls) of the plain census for n = 1..8, in one
    process (one usable CPU) with a counting settle."""
    results = {}
    calls = Counter()
    real_settle = census_mod.settle

    def counting(n, rows, classes, spin):
        calls[n] += 1
        return real_settle(n, rows, classes, spin)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(census_mod.os, "sched_getaffinity", lambda pid: {0})
        patch.setattr(census_mod, "settle", counting)
        for n in range(1, 9):
            row, _ = run_census(CensusConfig(n=n))
            results[n] = (row, calls[n])
    return results


class TestSkipRule:
    """The plain walk counts a subtree without decoding it once its leading
    rows rule out both Kahler and Spin, so settle sees exactly the
    orientable matrices that are Kahler or Spin."""

    def test_kernel_calls(self, plain_census):
        # settle, the closed-form check, on 292 of the 1,024 orientable
        # matrices at n = 6
        for n, (row, calls) in plain_census.items():
            assert calls == row.kahler + row.spin - row.kahler_and_spin
        assert plain_census[6][1] == 292

    @pytest.mark.parametrize(
        "original, mutant, twin, cuts, census6",
        [
            # a subtree skipped once Kahler alone fails, losing its Spin matrices
            ("if refined is None and not even:", "if refined is None:", [1, 3, 4, 5, 6], [], None),
            # a skipped subtree that crosses a cut counted whole
            ("min(stop, first + size) - max(start, first)", "size", [], [5, 6], None),
            # every subtree walked as if it lay inside [start, stop)
            (
                "inside = start <= base and base + (len(cells) << shift) <= stop",
                "inside = True",
                [],
                [1, 2, 3, 4, 5, 6],
                None,
            ),
            # a Spin prefix test without column l for r_l = 2 mod 4
            ("r | ((r.bit_count() & 2) << i >> 1)", "r", [4, 5, 6], [6], "Spin deciders disagree"),
            # the Kahler refinement of bott_verdicts' drops_complement mutant
            (
                "if part != c:\n                        refined.append(c ^ part)\n"
                "                    if part:\n                        refined.append(part)",
                "refined.append(part or c)",
                [4, 6],
                [4, 6],
                "Spin deciders disagree",
            ),
            # the Kahler refinement of bott_verdicts' first_class_parity mutant
            (
                "if part.bit_count() & 1:",
                "if part.bit_count() & 1 and c == classes[0]:",
                [6],
                [6],
                "Spin deciders disagree",
            ),
        ],
        ids=[
            "kahler_alone",
            "whole_interval",
            "all_inside",
            "spin_without_column_l",
            "drops_complement",
            "first_class_parity",
        ],
    )
    def test_twins_catch_walk_mutants(self, monkeypatch, original, mutant, twin, cuts, census6):
        # n <= 6 where the full-walk twin (test_orientable_walk_matches_full_walk)
        # and the cut-point test (test_cut_points_inside_fields) fail.  The
        # walk's own Kahler and Spin verdicts reach the census with no second
        # run of the kernel, so census6 names the mutants whose n = 6 census
        # settle's closed-form check aborts, and None where it runs through.
        # The mutant replaces the one function of the walk whose source
        # holds the original: _plain_walk or its cached levels
        sources = {
            name: inspect.getsource(getattr(census_mod, name))
            for name in ("_plain_walk", "_plain_levels")
        }
        (target,) = [name for name, source in sources.items() if original in source]
        assert sources[target].count(original) == 1
        namespace = dict(vars(census_mod))
        exec(sources[target].replace(original, mutant), namespace)
        monkeypatch.setattr(census_mod, target, namespace[target])
        caught_by_twin, caught_by_cuts = [], []
        for n in range(1, 7):
            if not plain_walk_matches(n, full_tally(n, 0, 1 << cell_count(n))):
                caught_by_twin.append(n)
            total = 1 << cell_count(n - 1)
            whole = TestRangeWalk.walk(n, [0, total], False)
            if TestRangeWalk.walk(n, [total * c // 7 for c in range(8)], False) != whole:
                caught_by_cuts.append(n)
        assert (caught_by_twin, caught_by_cuts) == (twin, cuts)
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

    The plain census walks only the orientable matrices, so sabotage on
    that path targets two orientable n = 4 matrices, listed largest
    first: full indices 40 and 30 (orientable indices 4 and 3), so the
    reproducer must carry the full index, not the walk's own.  Every
    orientable n = 4 matrix is Spin, so both reach settle, which takes
    the plain walk's leaves as the kernel takes the full walk's.
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

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_same_offender_at_every_split(self, monkeypatch, pool_sizes, cpus):
        # one matrix per worker at least: eight chunks put the two offenders
        # in different chunks, three put both in one
        monkeypatch.setattr(census_mod, "SHARE_BITS", dict.fromkeys(census_mod.SHARE_BITS, 0))
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        self.sabotage(monkeypatch, self.injected)
        self.assert_aborts_at(CensusConfig(n=4), 30, "injected")
        self.assert_aborts_at(CensusConfig(n=4, check_oracles=True), 30, "injected")
        assert pool_sizes == ([cpus, cpus] if cpus > 1 else [])

    def test_check_oracles_catches_wrong_kernel_verdict(self, monkeypatch):
        # a settle and a kernel that miscount without raising pass the plain
        # path; under check_oracles analyze disagrees with the kernel
        def flipped(real, n, rows, *state):
            orientable, kahler, spin = real(n, rows, *state)
            return orientable, kahler, not spin

        self.sabotage(monkeypatch, flipped)
        row, _ = run_census(CensusConfig(n=4))
        assert row.spin == 8 - len(self.bad_orientable)  # both are Spin
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
    """run_census takes max(1, min(usable CPUs, walked >> SHARE_BITS[kind]))
    workers, so never more than usable CPUs or shares of the walk.

    The pool is faked and runs its jobs in process, so no test here starts
    a process.  Shares are 2^21 matrices on the plain walk, which --emit
    takes too, and 2^7 with --check-oracles: plain n = 9 (2^28 walked)
    has room for 128 workers and --check-oracles n = 5 (2^10) for 8, while
    plain n = 8 (2^21), --emit n = 6 and --check-oracles n = 4 (2^6) stay
    in process.
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
        # the walk itself is stubbed: plain n = 8 is one share and stays in
        # process, n = 9 has more shares than CPUs
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: set(range(64)))
        monkeypatch.setattr(census_mod, "_classify_range", lambda *args: ({}, None))
        run_census(CensusConfig(n=7))
        run_census(CensusConfig(n=8))
        run_census(CensusConfig(n=9))
        assert pool_sizes == [64]

    def test_share_boundary(self, monkeypatch, pool_sizes):
        # plain n = 6 walks 2^10: one share stays in process, two or four
        # shares take as many workers
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: set(range(64)))
        for bits in (10, 9, 8):
            monkeypatch.setitem(census_mod.SHARE_BITS, "plain", bits)
            assert run_census(CensusConfig(n=6))[0].to_csv() == "6,32768,1024,192,176,76,116"
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
        # the benchmark times plain n = 6 in one process, whatever the CPUs;
        # the listing adds no walk of its own, and n = 4 is the largest
        # oracle walk kept in process
        def no_pool(*args, **kwargs):
            raise AssertionError("run_census built a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: set(range(64)))
        row, _ = run_census(cfg)
        assert row.total == 1 << cell_count(cfg.n)
