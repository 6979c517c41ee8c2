"""Exhaustive census of Bott matrices at small dimension.

The m = n*(n-1)/2 free cells of a strictly upper-triangular matrix, read
row-major, form a binary counter (first cell = most significant bit), so
matrices are addressable by index and the whole space streams without
materialization.

Spin needs w1 = 0, and Kahler implies orientable (paired equal columns
make every row weight even), so a non-orientable matrix only ever adds
to the total.  The plain census therefore walks the orientable space
alone: row i <= n-2 contributes its first n-2-i cells as free bits, and
its cell in column n-1 is the parity of those bits.  That space has
2^(m-(n-1)) matrices, and the other 2^m - 2^(m-(n-1)) are counted as
non-orientable without being decoded.  Listing (emit) and the oracle
cross-checks must see every matrix, so they walk the full space, which
is also the twin the tests compare the orientable walk against.

Classification is embarrassingly parallel in either space: the index
range splits into contiguous chunks, each chunk is classified on its
own, and counts combine by addition, which makes the totals independent
of how the walk is split.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import astuple, dataclass, fields
from functools import lru_cache
from typing import Iterator, Optional, Sequence

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

# Size guard: a walk enumerates at most 2^28 (268 million) matrices.  The
# orientable walk of n = 8 (2^21 matrices) takes 8.4 s on one core of a
# 2-vCPU host, so n = 9 (2^28 of its 2^36) should take at least 18 minutes
# there, as the per-matrix cost grows with n; n = 10 (2^36) is refused.
# The full walk, and with it matrix_at, enumerate_bott, --emit and
# --check-oracles, stops at n = 8 (28 free cells).
MAX_WALK_BITS = 28
# --emit holds every listed line in memory until the census ends: at
# n = 8 that is 2^28 lines of 71 characters, about 34 GB.
MAX_EMIT_N = 7
# One worker per 2^MIN_SHARE_BITS matrices walked, at most one per usable
# CPU; a single worker runs in process.  In process against a pool of two
# (2 vCPUs, Python 3.11.7, best of 3): plain n = 6 (2^10 walked) 3.9 vs 5.5
# ms, n = 7 (2^15) 71 vs 40 ms; --emit n = 6 (2^15) 163 vs 88 ms;
# --check-oracles n = 4 (2^6) 3.5 vs 5.5 ms, n = 5 (2^10, so in process)
# 66 vs 36 ms, n = 6 (2^15) 2.98 vs 1.48 s.
MIN_SHARE_BITS = 12


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
    (smallest index) aborts the run with a reproducer.  Either flag
    makes run_census walk the full space, else it walks the orientable
    space alone.  run_census picks its own worker count (see
    MIN_SHARE_BITS), and refuses emit_matrices above n = MAX_EMIT_N.
    """

    n: int
    emit_matrices: bool = False
    check_oracles: bool = False


def cell_count(n: int) -> int:
    return n * (n - 1) // 2


def _check_size(n: int, orientable_only: bool = False) -> int:
    """Index bits of the full space of n, or of its orientable space."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    bits = cell_count(n - 1) if orientable_only else cell_count(n)
    if bits > MAX_WALK_BITS:
        space = " in its orientable space" if orientable_only else ""
        raise ValueError(
            f"size guard exceeded: n={n} has {bits} free cells{space}, "
            f"limit is {MAX_WALK_BITS}"
        )
    return bits


def matrix_at(n: int, index: int) -> BottMatrix:
    """The index-th Bott matrix: row-major cells as a binary numeral, MSB first."""
    m = _check_size(n)
    if not 0 <= index < (1 << m):
        raise ValueError(f"index {index} out of range for n={n}")
    layout, table = _row_layout(n, False)
    return BottMatrix._make(n, tuple([table[(index >> shift) & mask] for shift, mask in layout]))


def enumerate_bott(n: int) -> Iterator[BottMatrix]:
    """Stream all 2^(n(n-1)/2) Bott matrices in index order."""
    m = _check_size(n)
    for index in range(1 << m):
        yield matrix_at(n, index)


@lru_cache(maxsize=None)
def _row_layout(
    n: int, orientable_only: bool
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """How an index splits into row masks: ((shift, field mask) per row, table).

    In the full space row i's n-1-i cells form one bit field of the
    index, its first cell (column i+1) most significant, so bit b of
    every field is column n-1-b.  One table, the n-bit reversal of each
    value below 2^(n-1), therefore maps the field of any row width to its
    row mask.  In the orientable space row i's field holds only its first
    n-2-i cells, v, and the table maps v to the row mask of the full
    field (v << 1) | parity(v): column n-1 completes an even row weight.
    """
    drop = 1 if orientable_only else 0
    layout = []
    shift = cell_count(n - drop)
    for i in range(n):
        width = max(0, n - 1 - i - drop)
        shift -= width
        layout.append((shift, (1 << width) - 1))
    table = tuple(int(format(v, f"0{n}b")[::-1], 2) for v in range(1 << (n - 1)))
    if orientable_only:
        table = tuple(
            table[(v << 1) | (v.bit_count() & 1)] for v in range(1 << max(0, n - 2))
        )
    return tuple(layout), table


def _index_of(n: int, rows: Sequence[int]) -> int:
    """The full-space index of the matrix with these row masks: matrix_at's inverse."""
    layout, _ = _row_layout(n, False)
    return sum(
        int(format(r, f"0{n}b")[::-1], 2) << shift for r, (shift, _) in zip(rows, layout)
    )


def cross_check(a: BottMatrix, verdicts: tuple[bool, bool, bool]) -> list[str]:
    """Disagreements of the slow routes on a with the kernel's verdicts.

    analyze (the P-matrix route, which compares the two Spin deciders
    on Kahler inputs) must give the same (orientable, kahler, spin), the
    generators' sign products must give the same orientability, and the
    Euclidean-motion oracle must agree with the row calculus.  The oracle
    runs first, so its size guard fires before any route; its findings come last.
    """
    motion_problems = check_against_rows(a)
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
    return problems + motion_problems


def _classify_range(
    n: int,
    start: int,
    stop: int,
    check_oracles: bool,
    emit: bool,
) -> tuple[dict[tuple[bool, bool, bool], int], list[str], Optional[tuple[int, str, str]]]:
    """Classify one contiguous index range with bott_verdicts.

    The range indexes the full space with check_oracles or emit, else the
    orientable space.  With check_oracles, every matrix also goes through
    cross_check.
    Returns (tally of (orientable, kahler, spin) verdicts, emitted lines,
    first offender or None); on an offender the range stops early.  The
    offender carries its full-space index in either space, so matrix_at
    reproduces it; the orientable-to-full index map is increasing, so the
    first offender of a range is the one with the smallest index.
    """
    layout, table = _row_layout(n, not (check_oracles or emit))
    # a plain dict: a Counter's += here made the n = 6 census about 9% slower
    tally: dict[tuple[bool, bool, bool], int] = {}
    emitted: list[str] = []
    for index in range(start, stop):
        rows = [table[(index >> shift) & mask] for shift, mask in layout]
        try:
            verdicts = bott_verdicts(n, rows)
        except InconsistencyError as exc:
            return tally, emitted, (_index_of(n, rows), mask_line(n, rows), str(exc))
        if check_oracles:  # the full walk: index is already the full-space one
            problems = cross_check(BottMatrix._make(n, tuple(rows)), verdicts)
            if problems:
                return tally, emitted, (index, mask_line(n, rows), problems[0])
        tally[verdicts] = tally.get(verdicts, 0) + 1
        if emit:
            emitted.append(mask_line(n, rows))
    return tally, emitted, None


def run_census(cfg: CensusConfig) -> tuple[CensusRow, list[str]]:
    """Classify the whole space for cfg.n; returns (counts, emitted lines).

    Without emit_matrices and check_oracles only the orientable space is
    walked, and every other matrix counts as non-orientable (neither
    Kahler nor Spin).  Chunk boundaries never change the counts: chunks
    are contiguous index ranges and results combine by addition, in index
    order for the emitted listing.  To use fewer CPUs, limit the process's
    CPU set (for example with taskset), which the worker count follows.
    """
    orientable_only = not (cfg.emit_matrices or cfg.check_oracles)
    bits = _check_size(cfg.n, orientable_only)
    if cfg.emit_matrices and cfg.n > MAX_EMIT_N:
        raise ValueError(f"size guard exceeded: --emit is limited to n <= {MAX_EMIT_N}")
    walked = 1 << bits
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    workers = max(1, min(cpus, walked >> MIN_SHARE_BITS))
    bounds = [(walked * w) // workers for w in range(workers + 1)]
    modes = (cfg.check_oracles, cfg.emit_matrices)
    jobs = [(cfg.n, lo, hi, *modes) for lo, hi in zip(bounds, bounds[1:])]
    if workers == 1:
        results = [_classify_range(*jobs[0])]
    else:
        import concurrent.futures  # only a walk that splits pays for it and logging
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_classify_range, *zip(*jobs)))

    offenders = [off for _, _, off in results if off is not None]
    if offenders:
        index, line, detail = min(offenders)
        raise OracleDisagreementError(index, line, detail)

    tally = sum((Counter(part) for part, _, _ in results), Counter())
    # what the orientable walk skipped has an odd row: neither Kahler nor Spin
    tally[(False, False, False)] += (1 << cell_count(cfg.n)) - walked
    emitted = [line for _, lines, _ in results for line in lines]
    count = [0] * 6  # the CensusRow fields after n, in order
    for (orientable, kahler, spin), matrices in tally.items():
        flags = (True, orientable, kahler, spin, kahler and spin, kahler and not spin)
        count = [c + f * matrices for c, f in zip(count, flags)]
    return CensusRow(cfg.n, *count), emitted
