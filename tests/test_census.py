"""Tests for the exhaustive census layer."""

from collections import Counter

import pytest

from realbott import (
    CensusConfig,
    CensusRow,
    CSV_HEADER,
    InconsistencyError,
    OracleDisagreementError,
    analyze,
    enumerate_bott,
    matrix_at,
    parse_bott,
    run_census,
)
import realbott.census as census_mod
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

    def test_worker_independence(self):
        rows = {}
        for workers in (1, 2, 8):
            row, _ = run_census(CensusConfig(n=4, workers=workers))
            rows[workers] = row
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
        # run_census adds per-chunk verdict tallies and concatenates
        # per-chunk listings; any contiguous split must give the same
        # tally and order
        n, total = 4, 1 << cell_count(4)
        results = {}
        for chunks in (1, 3, 8):
            bounds = [(total * c) // chunks for c in range(chunks + 1)]
            tally = Counter()
            emitted = []
            for start, stop in zip(bounds, bounds[1:]):
                part, lines, offender = _classify_range(n, start, stop, False, True)
                assert offender is None
                tally.update(part)
                emitted.extend(lines)
            results[chunks] = (tally, emitted)
        assert results[1] == results[3] == results[8]
        reports = [analyze(a) for a in enumerate_bott(n)]
        assert results[1][0] == Counter(
            (r.orientable, r.kahler is not None, r.spin) for r in reports
        )
        assert sum(results[1][0].values()) == run_census(CensusConfig(n=4))[0].total
        assert results[1][1] == [matrix_at(4, i).to_line() for i in range(total)]

    def test_emit_guard_allows_n7(self, monkeypatch):
        # the guard refuses n >= 8 (see test_cli); n = 7 still classifies
        one = (Counter({(True, False, True): 1}), ["line"], None)
        monkeypatch.setattr(census_mod, "_classify_range", lambda *args: one)
        row, emitted = run_census(CensusConfig(n=7, emit_matrices=True))
        assert (row.total, row.spin, emitted) == (1, 1, ["line"])

    def test_emit_order_stable_across_workers(self):
        _, serial = run_census(CensusConfig(n=4, emit_matrices=True))
        _, parallel = run_census(CensusConfig(n=4, emit_matrices=True, workers=4))
        assert serial == parallel

    def test_check_oracles_clean_small_n(self):
        for n in (1, 2, 3, 4):
            row, _ = run_census(CensusConfig(n=n, check_oracles=True))
            assert row.total == 1 << cell_count(n)

    def test_index_decodes_to_matrix_at_rows(self):
        # the plain path reads row masks straight from the index
        for n in range(1, 7):
            layout, table = census_mod._row_layout(n)
            for index in range(1 << cell_count(n)):
                rows = tuple(table[(index >> shift) & mask] for shift, mask in layout)
                assert rows == matrix_at(n, index).row_masks

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
        row, _ = run_census(CensusConfig(n=n, workers=2))
        assert row.to_csv() == csv

    def test_csv_row(self):
        row, _ = run_census(CensusConfig(n=2))
        assert CSV_HEADER == "n,total,orientable,kahler,spin,kahler_and_spin,kahler_not_spin"
        assert row.to_csv() == "2,2,1,1,1,1,0"


class TestDisagreementAbort:
    """A sabotaged route must abort the census at the smallest offending
    index, with its serialized reproducer."""

    bad = (5, 2)

    def assert_aborts_at_2(self, cfg, detail):
        with pytest.raises(OracleDisagreementError) as excinfo:
            run_census(cfg)
        assert excinfo.value.index == 2
        assert excinfo.value.line == matrix_at(3, 2).to_line()
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
        self.assert_aborts_at_2(CensusConfig(n=3, check_oracles=True), "injected")

    def test_kernel_sabotage_on_plain_path(self, monkeypatch):
        bad_masks = {matrix_at(3, i).row_masks for i in self.bad}
        real_kernel = census_mod.bott_verdicts

        def sabotaged(n, rows):
            if tuple(rows) in bad_masks:
                raise InconsistencyError("injected disagreement")
            return real_kernel(n, rows)

        monkeypatch.setattr(census_mod, "bott_verdicts", sabotaged)
        self.assert_aborts_at_2(CensusConfig(n=3), "injected")

    def test_check_oracles_catches_wrong_kernel_verdict(self, monkeypatch):
        # a kernel that miscounts without raising passes the plain path;
        # under check_oracles analyze disagrees with it
        bad_masks = {matrix_at(3, i).row_masks for i in self.bad}
        real_kernel = census_mod.bott_verdicts

        def flipped(n, rows):
            orientable, kahler, spin = real_kernel(n, rows)
            return orientable, kahler, spin ^ (tuple(rows) in bad_masks)

        monkeypatch.setattr(census_mod, "bott_verdicts", flipped)
        row, _ = run_census(CensusConfig(n=3))
        assert row.spin == 2 + len(self.bad)
        self.assert_aborts_at_2(
            CensusConfig(n=3, check_oracles=True), "kernel and analyze disagree"
        )

    def test_check_oracles_runs_orientability_route(self, monkeypatch):
        # the generators' sign products are a second route to orientability
        bad_lines = {matrix_at(3, i).to_line() for i in self.bad}
        real_route = census_mod.orientable_by_motions

        def flipped(a):
            return real_route(a) ^ (a.to_line() in bad_lines)

        monkeypatch.setattr(census_mod, "orientable_by_motions", flipped)
        assert run_census(CensusConfig(n=3))[0].total == 8
        self.assert_aborts_at_2(
            CensusConfig(n=3, check_oracles=True), "kernel and motions disagree"
        )


class TestWorkerCap:
    """run_census never asks for more workers than usable CPUs or matrices.

    The pool is faked, so no test here starts a process.
    """

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
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

        monkeypatch.setattr(census_mod, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_cap_applies(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        row, _ = run_census(CensusConfig(n=4, workers=10_000))
        assert pool_sizes == [3]
        assert row == run_census(CensusConfig(n=4))[0]
        run_census(CensusConfig(n=2, workers=10_000))  # 2 matrices
        assert pool_sizes == [3, 2]

    def test_no_cap(self, monkeypatch, pool_sizes):
        # without CPU affinity the clamp falls back to os.cpu_count()
        monkeypatch.delattr(census_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(census_mod.os, "cpu_count", lambda: 4)
        run_census(CensusConfig(n=4, workers=2))
        run_census(CensusConfig(n=4, workers=64))
        assert pool_sizes == [2, 4]

    def test_bad_cap(self, monkeypatch, pool_sizes):
        # a nonpositive request, or a single usable CPU, runs in-process
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: {0})
        run_census(CensusConfig(n=4, workers=8))
        run_census(CensusConfig(n=4, workers=0))
        assert pool_sizes == []
