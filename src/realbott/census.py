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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields
from functools import lru_cache
from typing import Iterator, Optional

from .bottcore import BottMatrix, InconsistencyError, analyze
from .euclid import check_against_rows

__all__ = [
    "CensusRow",
    "CensusConfig",
    "OracleDisagreementError",
    "CSV_HEADER",
    "cell_count",
    "matrix_at",
    "enumerate_bott",
    "run_census",
]

# Size guard: n = 8 has 28 free cells (2^28 = 268 million matrices), most
# of a day on one core at the n = 6 rate of about 4,000 matrices/s; n = 9
# (2^36) would take over six months.  Per-matrix cost grows with n, so
# both figures are lower bounds.
MAX_CELLS = 28


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
_COUNT_FIELDS = tuple(f.name for f in fields(CensusRow) if f.name != "n")


@dataclass(frozen=True)
class CensusConfig:
    """What to enumerate and how.

    With emit_matrices set, every matrix is listed in index order.  With
    check_oracles set, every matrix is cross-checked against the
    Euclidean-motion oracle and the two Spin deciders must agree on
    Kahler inputs; the first disagreement (smallest index) aborts the
    run with a reproducer.  run_census clamps workers to the number of
    matrices and of usable CPUs.
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


def _classify_range(
    n: int,
    start: int,
    stop: int,
    check_oracles: bool,
    emit: bool,
) -> tuple[dict[str, int], list[str], Optional[tuple[int, str, str]]]:
    """Classify one contiguous index range.

    Returns (counts, emitted lines, first offender or None); on an
    offender the range stops early, since the census aborts anyway.
    """
    counts = dict.fromkeys(_COUNT_FIELDS, 0)
    emitted: list[str] = []
    for index in range(start, stop):
        a = matrix_at(n, index)
        try:
            report = analyze(a)
        except InconsistencyError as exc:
            return counts, emitted, (index, a.to_line(), str(exc))
        if check_oracles:
            problems = check_against_rows(a)
            if problems:
                return counts, emitted, (index, a.to_line(), problems[0])
        kahler = report.kahler is not None
        counts["total"] += 1
        counts["orientable"] += report.orientable
        counts["kahler"] += kahler
        counts["spin"] += report.spin
        counts["kahler_and_spin"] += kahler and report.spin
        counts["kahler_not_spin"] += kahler and not report.spin
        if emit:
            emitted.append(a.to_line())
    return counts, emitted, None


def run_census(cfg: CensusConfig) -> tuple[CensusRow, list[str]]:
    """Classify the whole space for cfg.n; returns (counts, emitted lines).

    Chunk boundaries and worker count never change the counts: chunks
    are contiguous index ranges and results combine by addition, in
    index order for the emitted listing.
    """
    m = _check_size(cfg.n)
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
            results = list(pool.map(_classify_range_star, jobs))

    offenders = [off for _, _, off in results if off is not None]
    if offenders:
        index, line, detail = min(offenders)
        raise OracleDisagreementError(index, line, detail)

    counts = dict.fromkeys(_COUNT_FIELDS, 0)
    emitted: list[str] = []
    for part_counts, part_emitted, _ in results:
        for key in _COUNT_FIELDS:
            counts[key] += part_counts[key]
        emitted.extend(part_emitted)
    return CensusRow(n=cfg.n, **counts), emitted


def _classify_range_star(args):
    return _classify_range(*args)
