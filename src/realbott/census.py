"""Exhaustive census of Bott matrices at small dimension.

The n*(n-1)/2 free cells of a strictly upper-triangular matrix, read
row-major, form a binary counter (first cell = most significant bit), so
matrices are addressable by index and the whole space streams without
materialization.  Classification is embarrassingly parallel: the index
range splits into contiguous chunks, each chunk is classified on its
own, and counts combine by addition, which makes the totals independent
of chunking and worker count.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields
from functools import lru_cache
from typing import Iterator, Optional

from .bottcore import BottMatrix, InconsistencyError, analyze, bott_verdicts, mask_line
from .euclid import check_against_rows, orientable_by_motions

__all__ = [
    "CensusRow",
    "CensusConfig",
    "OracleDisagreementError",
    "CSV_HEADER",
    "cell_count",
    "cross_check",
    "matrix_at",
    "enumerate_bott",
    "run_census",
]

# Size guard: n = 8 has 28 free cells (2^28 = 268 million matrices), about
# half an hour on one core at the kernel's n = 8 rate of about 158,000
# matrices/s; n = 9 (2^36) would take at least five days, since the
# per-matrix cost grows with n.
MAX_CELLS = 28
# --emit holds every listed line in memory until the census ends: at
# n = 8 that is 2^28 lines of 71 characters, about 34 GB.
MAX_EMIT_N = 7


class OracleDisagreementError(RuntimeError):
    """An oracle cross-check failed during a census; carries a reproducer."""

    def __init__(self, index: int, line: str, detail: str) -> None:
        super().__init__(f"oracle disagreement at index {index} ({line}): {detail}")
        self.index = index
        self.line = line
        self.detail = detail


@dataclass(frozen=True)
class CensusRow:
    """Aggregated counts for one dimension."""

    n: int
    total: int
    orientable: int
    kahler: int
    spin: int
    kahler_and_spin: int
    kahler_not_spin: int

    def to_csv(self) -> str:
        return ",".join(str(v) for v in astuple(self))


CSV_HEADER = ",".join(f.name for f in fields(CensusRow))


@dataclass(frozen=True)
class CensusConfig:
    """What to enumerate and how.

    With emit_matrices set, every matrix is listed in index order.  With
    check_oracles set, every matrix also takes the slow routes of
    cross_check: analyze must match the kernel's verdicts, its two Spin
    deciders must agree on Kahler inputs, and the Euclidean-motion
    oracle must agree with the row calculus; the first disagreement
    (smallest index) aborts the run with a reproducer.  run_census
    clamps workers to the number of matrices and of usable CPUs, and
    refuses emit_matrices above n = MAX_EMIT_N.
    """

    n: int
    emit_matrices: bool = False
    check_oracles: bool = False
    workers: int = 1


def cell_count(n: int) -> int:
    return n * (n - 1) // 2


def _check_size(n: int) -> int:
    if n < 1:
        raise ValueError("dimension must be at least 1")
    m = cell_count(n)
    if m > MAX_CELLS:
        raise ValueError(
            f"size guard exceeded: n={n} has {m} free cells, limit is {MAX_CELLS}"
        )
    return m


@lru_cache(maxsize=None)
def _cells(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def matrix_at(n: int, index: int) -> BottMatrix:
    """The index-th Bott matrix: row-major cells as a binary numeral, MSB first."""
    m = _check_size(n)
    if not 0 <= index < (1 << m):
        raise ValueError(f"index {index} out of range for n={n}")
    rows = [[0] * n for _ in range(n)]
    for t, (i, j) in enumerate(_cells(n)):
        rows[i][j] = (index >> (m - 1 - t)) & 1
    return BottMatrix(tuple(tuple(r) for r in rows))


def enumerate_bott(n: int) -> Iterator[BottMatrix]:
    """Stream all 2^(n(n-1)/2) Bott matrices in index order."""
    m = _check_size(n)
    for index in range(1 << m):
        yield matrix_at(n, index)


@lru_cache(maxsize=None)
def _row_layout(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """How an index splits into row masks: ((shift, field mask) per row, table).

    Row i's n-1-i cells form one bit field of the index, its first cell
    (column i+1) most significant, so bit b of every field is column
    n-1-b.  One table, the n-bit reversal of each value below 2^(n-1),
    therefore maps the field of any row width to its row mask.
    """
    layout = []
    shift = cell_count(n)
    for i in range(n):
        width = n - 1 - i
        shift -= width
        layout.append((shift, (1 << width) - 1))
    table = tuple(int(format(v, f"0{n}b")[::-1], 2) for v in range(1 << (n - 1)))
    return tuple(layout), table


def cross_check(a: BottMatrix, verdicts: tuple[bool, bool, bool]) -> list[str]:
    """Disagreements of the slow routes on a with the kernel's verdicts.

    analyze (the polynomial route, which compares the two Spin deciders
    on Kahler inputs) must give the same (orientable, kahler, spin), the
    generators' sign products must give the same orientability, and the
    Euclidean-motion oracle must agree with the row calculus.
    """
    try:
        report = analyze(a)
    except InconsistencyError as exc:
        problems = [str(exc)]
    else:
        slow = (report.orientable, report.kahler is not None, report.spin)
        problems = []
        if slow != verdicts:
            problems.append(
                f"kernel and analyze disagree on {a.to_line()}: "
                f"(orientable, kahler, spin) = {verdicts} against {slow}"
            )
    by_motions = orientable_by_motions(a)
    if by_motions != verdicts[0]:
        problems.append(
            f"kernel and motions disagree on {a.to_line()}: "
            f"orientable = {verdicts[0]} against {by_motions}"
        )
    return problems + check_against_rows(a)


def _classify_range(
    n: int,
    start: int,
    stop: int,
    check_oracles: bool,
    emit: bool,
) -> tuple[dict[tuple[bool, bool, bool], int], list[str], Optional[tuple[int, str, str]]]:
    """Classify one contiguous index range with bott_verdicts.

    With check_oracles, every matrix also goes through cross_check.
    Returns (tally of (orientable, kahler, spin) verdicts, emitted lines,
    first offender or None); on an offender the range stops early.
    """
    layout, table = _row_layout(n)
    # a plain dict: a Counter's += here made the n = 6 census about 9% slower
    tally: dict[tuple[bool, bool, bool], int] = {}
    emitted: list[str] = []
    offender = None
    for index in range(start, stop):
        rows = [table[(index >> shift) & mask] for shift, mask in layout]
        try:
            verdicts = bott_verdicts(n, rows)
        except InconsistencyError as exc:
            offender = (index, mask_line(n, rows), str(exc))
            break
        if check_oracles:
            a = matrix_at(n, index)
            problems = cross_check(a, verdicts)
            if problems:
                offender = (index, a.to_line(), problems[0])
                break
        tally[verdicts] = tally.get(verdicts, 0) + 1
        if emit:
            emitted.append(mask_line(n, rows))
    return tally, emitted, offender


def run_census(cfg: CensusConfig) -> tuple[CensusRow, list[str]]:
    """Classify the whole space for cfg.n; returns (counts, emitted lines).

    Chunk boundaries and worker count never change the counts: chunks
    are contiguous index ranges and results combine by addition, in
    index order for the emitted listing.
    """
    m = _check_size(cfg.n)
    if cfg.emit_matrices and cfg.n > MAX_EMIT_N:
        raise ValueError(f"size guard exceeded: --emit is limited to n <= {MAX_EMIT_N}")
    total = 1 << m
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    workers = max(1, min(cfg.workers, total, cpus))
    bounds = [(total * w) // workers for w in range(workers + 1)]
    jobs = [
        (cfg.n, bounds[w], bounds[w + 1], cfg.check_oracles, cfg.emit_matrices)
        for w in range(workers)
        if bounds[w] < bounds[w + 1]
    ]
    if workers == 1:
        results = [_classify_range(*jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_classify_range, *zip(*jobs)))

    offenders = [off for _, _, off in results if off is not None]
    if offenders:
        index, line, detail = min(offenders)
        raise OracleDisagreementError(index, line, detail)

    tally = sum((Counter(part) for part, _, _ in results), Counter())
    emitted = [line for _, lines, _ in results for line in lines]
    count = [0] * 6  # the CensusRow fields after n, in order
    for (orientable, kahler, spin), matrices in tally.items():
        flags = (True, orientable, kahler, spin, kahler and spin, kahler and not spin)
        count = [c + f * matrices for c, f in zip(count, flags)]
    return CensusRow(cfg.n, *count), emitted
