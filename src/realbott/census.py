"""Exhaustive census of Bott matrices at small dimension.

The m = n*(n-1)/2 free cells of a strictly upper-triangular matrix, read
row-major, form a binary counter (first cell = most significant bit), so
matrices are addressable by index and the whole space streams without
materialization.

Spin needs w1 = 0, and Kahler implies orientable (paired equal columns
make every row weight even), so a non-orientable matrix only ever adds
to the total.  The census therefore walks the orientable space alone:
row i <= n-2 contributes its first n-2-i cells as free bits, and its
cell in column n-1 is the parity of those bits.  That space has
2^(m-(n-1)) matrices, and the other 2^m - 2^(m-(n-1)) are counted as
non-orientable without being decoded.  Within it the walk goes depth
first, one row at a time, and counts a subtree as orientable, neither
Kahler nor Spin without decoding it once its leading rows rule out both
(see _plain_walk).  The walk carries the kernel's Kahler refinement and
Spin pair tests down the rows, so the orientable matrices that are
Kahler or Spin, the only ones it decodes, go to settle with the verdicts
it already holds, and the Kahler ones take the closed-form check there.
The oracle cross-checks must see every matrix, so --check-oracles walks
the full space through the kernel, bott_verdicts, which is also the twin
the tests compare the plain walk against.  The --emit listing depends
on no verdict: run_census spells it out from per-row text tables.

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
from itertools import islice, product
from typing import Iterator, Optional, Sequence

from .bottcore import BottMatrix, InconsistencyError, analyze, bott_verdicts, mask_line, settle
from .euclid import _check_motions, _orientable

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

# Size guard: a walk indexes at most 2^28 (268 million) matrices.  The
# plain walk skips what its leading rows rule out, so n = 9 (2^28
# orientable matrices of 2^36) takes about 1.2 s on one core of a
# 2-vCPU host; n = 10 (2^36) is refused.
# The full walk, and with it matrix_at, enumerate_bott and
# --check-oracles, stops at n = 8 (28 free cells).
MAX_WALK_BITS = 28
# run_census returns the --emit listing whole, held in memory: at
# n = 8 that is 2^28 lines of 71 characters, about 34 GB.
MAX_EMIT_N = 7
# One worker per share of the walk, at most one per usable CPU; a single
# worker runs in process.  A share is 2^SHARE_BITS[kind] matrices, enough
# work to pay for starting a worker: the plain walk costs about 0.07 us
# per walked matrix at n = 8 and 0.004 us at n = 9 (it skips more of
# the larger space, and more of some subtrees than of others), one
# matrix cross-checked with --check-oracles 75-170 us.  A pool of two
# costs 30-45 ms more than the walk in process: plain n = 7 (2^15
# walked) took 6 ms in process against 44-56 ms on two workers, n = 8
# (2^21) 0.13-0.24 s against 0.16-0.30 s, and n = 9 (2^28) 1.1-1.9 s
# against 0.65-1.16 s, six to ten alternating pairs of fresh processes
# each (2 vCPUs, Python 3.11.7), so a plain share is all of n = 8, about
# 0.15 s of walk.  Best of 9, before the kernel's Kahler refinement:
# --check-oracles n = 4 (2^6) 5.3 vs 12 ms, n = 5 (2^10) 89 vs 53 ms,
# n = 6 (2^15, best of 3) 5.5 vs 3.0 s.
SHARE_BITS = {"plain": 21, "oracles": 7}


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

    With emit_matrices set, every matrix is listed in index order; the
    listing changes neither the walk nor the counts.  With check_oracles
    set, every matrix takes the kernel and the slow routes of
    cross_check: analyze must match the kernel's verdicts, its two Spin
    deciders must agree on Kahler inputs, and the Euclidean-motion
    oracle must agree with the row calculus; the first disagreement
    (smallest index) aborts the run with a reproducer.  That flag makes
    run_census walk the full space, else it walks the orientable space
    alone.  run_census picks its own worker count (see SHARE_BITS), and
    refuses emit_matrices above n = MAX_EMIT_N.
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
    Euclidean-motion oracle must agree with the row calculus.  The
    generators are built once for both motion routes.  The oracle runs
    first, so its size guard fires before any route; its findings come last.
    """
    motion_problems, gens = _check_motions(a)
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
    by_motions = _orientable(gens)
    if by_motions != verdicts[0]:
        problems.append(
            f"kernel and motions disagree on {a.to_line()}: "
            f"orientable = {verdicts[0]} against {by_motions}"
        )
    return problems + motion_problems


@lru_cache(maxsize=None)
def _plain_levels(n: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The plain walk's levels: (shift, (row mask, T_i) per field value) for
    each orientable row that has a field, T_i as in bott_verdicts."""
    layout, table = _row_layout(n, True)
    return tuple(
        (shift, tuple((r, r | ((r.bit_count() & 2) << i >> 1)) for r in table[: mask + 1]))
        for i, (shift, mask) in enumerate(layout[: max(1, n - 2)])
    )


def _plain_walk(
    n: int, start: int, stop: int
) -> tuple[dict[tuple[bool, bool, bool], int], Optional[tuple[int, str, str]]]:
    """_classify_range on the orientable space.

    A depth-first walk over the orientable row tables, in index order,
    that carries the state of the rows chosen so far: bott_verdicts'
    Kahler refinement (None once a part is odd) and whether every Spin
    pair (i, l) with both rows chosen is even.  Neither verdict comes
    back as rows are added: an odd part never heals, and a pair depends
    on rows i and l alone (see bott_verdicts).  So once both fail, the
    subtree's index interval, clipped to [start, stop), counts as
    orientable, neither Kahler nor Spin.  Every other leaf, exactly the
    orientable matrices that are Kahler or Spin, goes to settle with the
    walk's own classes and Spin verdict, which runs the closed-form check
    on the Kahler ones.  A subtree inside [start, stop) walks all its
    cells with no clipping.  Rows n-2 and n-1 of an orientable matrix are
    zero and add nothing.

    The kernel's one check that this walk skips, Kahler columns on a
    matrix with an odd row, can never fire: the classes partition the n
    columns, so an odd row R_i meets some class in an odd part, and the
    refinement fails at row i at the latest.
    """
    levels = _plain_levels(n)
    rows = [0] * n
    tally: dict[tuple[bool, bool, bool], int] = {}
    ruled_out = 0

    def descend(i: int, base: int, classes: Optional[list[int]], spin: bool) -> None:
        nonlocal ruled_out
        shift, cells = levels[i]
        size = 1 << shift
        deeper = i + 1 < len(levels)
        inside = start <= base and base + (len(cells) << shift) <= stop
        if inside:
            first = base
        else:
            lo = max(0, (start - base) >> shift)
            first = base + (lo << shift)
            cells = cells[lo : (stop - base + size - 1) >> shift]
        for r, t in cells:
            refined = classes
            if classes is not None and r:
                refined = []
                for c in classes:
                    part = c & r
                    if part.bit_count() & 1:
                        refined = None
                        break
                    if part != c:
                        refined.append(c ^ part)
                    if part:
                        refined.append(part)
            even = spin
            if spin and t:
                for q in rows[:i]:
                    if (q & t).bit_count() & 1:
                        even = False
                        break
            if refined is None and not even:
                if inside:
                    ruled_out += size
                else:
                    ruled_out += min(stop, first + size) - max(start, first)
            else:
                rows[i] = r
                if deeper:
                    descend(i + 1, first, refined, even)
                else:
                    verdicts = settle(n, rows, refined, even)
                    tally[verdicts] = tally.get(verdicts, 0) + 1
            first += size

    try:
        descend(0, 0, None if n & 1 else [(1 << n) - 1], True)
    except InconsistencyError as exc:
        return tally, (_index_of(n, rows), mask_line(n, rows), str(exc))
    if ruled_out:
        tally[(True, False, False)] = tally.get((True, False, False), 0) + ruled_out
    return tally, None


def _classify_range(
    n: int, start: int, stop: int, check_oracles: bool
) -> tuple[dict[tuple[bool, bool, bool], int], Optional[tuple[int, str, str]]]:
    """Classify one contiguous index range.

    With check_oracles the range indexes the full space, and every matrix
    goes through bott_verdicts and cross_check.  Else it indexes the
    orientable space, which _plain_walk walks, handing its Kahler or Spin
    leaves to settle.  Returns (tally of (orientable, kahler, spin)
    verdicts, first offender or None); on an offender the range stops
    early.  The offender carries its full-space index in either space, so
    matrix_at reproduces it; the orientable-to-full index map is
    increasing, so the first offender of a range is the one with the
    smallest index.
    """
    if not check_oracles:
        return _plain_walk(n, start, stop)
    layout, table = _row_layout(n, False)
    # product over the row tables yields the rows in index order; skipping
    # to start costs about 2.4 s at the end of n = 8, where one share of
    # this walk takes hours
    walk = islice(product(*[table[: mask + 1] for _, mask in layout]), start, stop)
    # a plain dict: a Counter's += here made the n = 6 census about 9% slower
    tally: dict[tuple[bool, bool, bool], int] = {}
    for index, rows in enumerate(walk, start):
        try:
            verdicts = bott_verdicts(n, rows)
        except InconsistencyError as exc:
            return tally, (index, mask_line(n, rows), str(exc))
        problems = cross_check(BottMatrix._make(n, rows), verdicts)
        if problems:
            return tally, (index, mask_line(n, rows), problems[0])
        tally[verdicts] = tally.get(verdicts, 0) + 1
    return tally, None


def run_census(cfg: CensusConfig) -> tuple[CensusRow, list[str]]:
    """Classify the whole space for cfg.n; returns (counts, emitted lines).

    Without check_oracles only the orientable space is walked, and every
    other matrix counts as non-orientable (neither Kahler nor Spin);
    within it, _plain_walk decodes only the Kahler or Spin matrices, and
    settle takes each with the walk's own verdicts.  Chunk boundaries
    never change the counts: chunks are contiguous index ranges and
    results combine by addition.  The emit_matrices listing takes no part
    in the walk: one product over the text of each row's full-space table
    spells out every index in order, about 0.45 s for the 2^21 lines of
    n = 7.  To use fewer CPUs, limit the process's CPU set (for example
    with taskset), which the worker count follows.
    """
    bits = _check_size(cfg.n, not cfg.check_oracles)
    if cfg.emit_matrices and cfg.n > MAX_EMIT_N:
        raise ValueError(f"size guard exceeded: --emit is limited to n <= {MAX_EMIT_N}")
    walked = 1 << bits
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    workers = max(1, min(cpus, walked >> SHARE_BITS["oracles" if cfg.check_oracles else "plain"]))
    bounds = [(walked * w) // workers for w in range(workers + 1)]
    jobs = [(cfg.n, lo, hi, cfg.check_oracles) for lo, hi in zip(bounds, bounds[1:])]
    if workers == 1:
        results = [_classify_range(*jobs[0])]
    else:
        import concurrent.futures  # only a walk that splits pays for it and logging
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_classify_range, *zip(*jobs)))

    offenders = [off for _, off in results if off is not None]
    if offenders:
        index, line, detail = min(offenders)
        raise OracleDisagreementError(index, line, detail)

    tally = sum((Counter(part) for part, _ in results), Counter())
    # what the orientable walk skipped has an odd row: neither Kahler nor Spin
    tally[(False, False, False)] += (1 << cell_count(cfg.n)) - walked
    count = [0] * 6  # the CensusRow fields after n, in order
    for (orientable, kahler, spin), matrices in tally.items():
        flags = (True, orientable, kahler, spin, kahler and spin, kahler and not spin)
        count = [c + f * matrices for c, f in zip(count, flags)]
    emitted: list[str] = []
    if cfg.emit_matrices:
        layout, table = _row_layout(cfg.n, False)
        texts = [[mask_line(cfg.n, (r,)) for r in table[: mask + 1]] for _, mask in layout]
        emitted = ["/".join(rows) for rows in product(*texts)]
    return CensusRow(cfg.n, *count), emitted
