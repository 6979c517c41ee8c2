"""Exhaustive census of Bott matrices at small dimension.

The m = n*(n-1)/2 free cells of a strictly upper-triangular matrix, read
row-major, form a binary counter (first cell = most significant bit), so
matrices are addressable by index and the whole space streams without
materialization.

Spin needs w1 = 0, and Kahler implies orientable (paired equal columns
make every row weight even), so only the orientable matrices, 2^(m-(n-1))
of them (every row but the last takes its cells freely except one that
makes its weight even), can be Kahler or Spin; the rest only add to the
total.  The plain census therefore walks the Kahler or Spin matrices
alone, bottom up (see _bottom_up_walk): read from the last row up, "still
Spin" and "still Kahler" are linear conditions on the next row, so it
sets each row only from the rows that keep one of them alive.  Each
Kahler matrix takes the closed-form check of settle, which checks all
the Kahler completions of one set of rows 1..n-1 at once, since row 0
cannot change their S-vector, and the Spin ones that are not Kahler are
counted by rank.  The oracle cross-checks must see every matrix, so
--check-oracles walks the full space and takes each matrix through
cross_check, the one per-matrix step it shares with verify: the kernel,
bott_verdicts (also the twin the tests compare the plain walk against),
then analyze and the motion routes.  The --emit listing depends on no
verdict: run_census spells it out lazily from per-row text tables.

The full walk is embarrassingly parallel: the index range splits into
contiguous chunks, each chunk is classified on its own, and counts
combine by addition, which makes the totals independent of how the walk
is split.
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

# Size guards.  The full walk, and with it matrix_at, enumerate_bott and
# --check-oracles, indexes at most 2^28 matrices: n = 8 (28 free cells).
# The plain census visits only the matrices that are Kahler or Spin, and
# the rows on the way to them: in process on a 2-vCPU host n = 9 takes
# about 0.08 s and n = 10 (18 million Kahler matrices, settled a row-1
# node at a time) 11-14 s.  n = 11, with 2^45 orientable matrices
# and its time not measured, is refused.
MAX_WALK_BITS = 28
MAX_CENSUS_N = 10
# run_census streams the --emit listing, so its limit bounds output, not
# memory: at n = 8 it would be 2^28 lines of 71 characters, about 19 GB.
MAX_EMIT_N = 7
# The --check-oracles walk takes one worker per share, at most one per
# usable CPU; a single worker runs in process.  A share is 2^SHARE_BITS
# matrices, enough work to pay for starting a worker: one matrix
# cross-checked costs 75-170 us, and a pool of two 30-45 ms more than the
# walk in process.  Best of 9, before the kernel's Kahler refinement:
# n = 4 (2^6) 5.3 vs 12 ms, n = 5 (2^10) 89 vs 53 ms, n = 6 (2^15, best
# of 3) 5.5 vs 3.0 s (2 vCPUs, Python 3.11.7).
SHARE_BITS = 7


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
    set, every matrix takes cross_check: the kernel's verdicts are
    counted, analyze must match them, its two Spin deciders must agree
    on Kahler inputs, and the Euclidean-motion oracle must agree with
    the row calculus; the first disagreement
    (smallest index) aborts the run with a reproducer.  That flag makes
    run_census walk the full space, split over its own worker count (see
    SHARE_BITS); else it walks the Kahler or Spin matrices bottom up, in
    process.  run_census refuses n above MAX_CENSUS_N, check_oracles
    past 2^MAX_WALK_BITS matrices and emit_matrices above MAX_EMIT_N.
    """

    n: int
    emit_matrices: bool = False
    check_oracles: bool = False


def cell_count(n: int) -> int:
    return n * (n - 1) // 2


def _check_size(n: int) -> int:
    """Index bits of the full space of n."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    bits = cell_count(n)
    if bits > MAX_WALK_BITS:
        raise ValueError(
            f"size guard exceeded: n={n} has {bits} free cells, limit is {MAX_WALK_BITS}"
        )
    return bits


def matrix_at(n: int, index: int) -> BottMatrix:
    """The index-th Bott matrix: row-major cells as a binary numeral, MSB first."""
    m = _check_size(n)
    if not 0 <= index < (1 << m):
        raise ValueError(f"index {index} out of range for n={n}")
    layout, table = _row_layout(n)
    return BottMatrix._make(n, tuple([table[(index >> shift) & mask] for shift, mask in layout]))


def enumerate_bott(n: int) -> Iterator[BottMatrix]:
    """Stream all 2^(n(n-1)/2) Bott matrices in index order."""
    _check_size(n)
    for rows in _full_walk(n):
        yield BottMatrix._make(n, rows)


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


def _full_walk(n: int) -> Iterator[tuple[int, ...]]:
    """The row masks of every n-matrix in index order: the product over the
    row tables."""
    layout, table = _row_layout(n)
    return product(*[table[: mask + 1] for _, mask in layout])


def _index_of(n: int, rows: Sequence[int]) -> int:
    """The full-space index of the matrix with these row masks: matrix_at's inverse."""
    layout, _ = _row_layout(n)
    return sum(
        int(format(r, f"0{n}b")[::-1], 2) << shift for r, (shift, _) in zip(rows, layout)
    )


def cross_check(a: BottMatrix) -> tuple[Optional[tuple[bool, bool, bool]], list[str]]:
    """(kernel verdicts, disagreements of every route) on a: the one
    per-matrix step of census --check-oracles and verify.

    The Euclidean-motion oracle runs first, so its size guard fires
    before any route.  Then bott_verdicts gives (orientable, kahler,
    spin); when its own closed-form check raises, that message is the
    only problem and the verdicts are None.  Then analyze (the P-matrix
    route, which compares the two Spin deciders on Kahler inputs and
    checks that a Kahler matrix is orientable) must give the same
    verdicts, and the generators' sign products the same orientability;
    the oracle's findings come last.  The generators are built once for
    both motion routes.
    """
    motion_problems, gens = _check_motions(a)
    try:
        verdicts = bott_verdicts(a.n, a.row_masks)
    except InconsistencyError as exc:
        return None, [str(exc)]
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
    return verdicts, problems + motion_problems


def _bottom_up_walk(n: int) -> tuple[int, int, int, Optional[tuple[int, str, str]]]:
    """(Kahler matrices, Spin ones among them, Spin matrices that are not
    Kahler, smallest offender or None) of the orientable n-matrices.

    Depth first, rows n-1 (always zero) down to 0; row i is a subset of
    D_i = columns i+1..n-1.  With T_l as in bott_verdicts, the pair test
    of rows i < l, |R_i & T_l| even, is linear in R_i once the rows below
    are set, as is orientability, |R_i| even.  So column x maps to
    cols[x], bit 0 for |R_i| and bit l for each set row l >= 1 with x in
    T_l, and V_S, the rows that keep Spin alive, is the kernel of that
    map.  The classes of the set rows are bott_verdicts' own, as its
    refinement does not depend on row order, with column 0 (in no row)
    in classes[0].  V_K, the rows that meet every class evenly, has the
    basis low(c) | x for the members x of c & D_i above its lowest, and
    each carries its syndrome (image under the map) through the span.
    A node's children are V_K and the rest of V_S while each is alive.
    On row 0 the rows of V_K, each with its Spin verdict, go to settle
    together with the classes of rows 1..n-1, which it needs to refine
    for no leaf, and are counted; the Spin rows that are not Kahler are
    counted too: 2^dim(V_S) less the Spin rows of V_K.  Matrices
    are not visited in index order, so the offender with the smallest
    full-space index is kept and the walk goes on.  At odd n no matrix is
    Kahler, and the walk carries no classes.
    """
    rows = [0] * n
    cols = {1 << x: 1 for x in range(n)}
    kahler_leaves = kahler_spin = spin_only = 0
    offenders = []

    def mark(t: int, bit: int) -> None:
        """Toggle bit in the image of every column of t."""
        while t:
            low = t & -t
            cols[low] ^= bit
            t ^= low

    def descend(i: int, classes: Optional[list[int]], spin: bool) -> None:
        nonlocal kahler_leaves, kahler_spin, spin_only
        domain = (1 << n) - (2 << i)
        kahler = []  # (row, syndrome) over V_K, while Kahler is alive
        if classes is not None:
            kahler.append((0, 0))
            for c in classes:
                c &= domain
                if c:
                    low = c & -c
                    image = cols[low]
                    c ^= low
                    while c:
                        x = c & -c
                        c ^= x
                        b, s = low | x, image ^ cols[x]
                        kahler += [(u ^ b, t ^ s) for u, t in kahler]
        spin_rows = [0]  # V_S, once Spin is alive
        if spin:
            pivots = []
            x = 2 << i
            while x <= domain:
                image, row = cols[x], x
                for low, p_image, p_row in pivots:
                    if image & low:
                        image ^= p_image
                        row ^= p_row
                if image:
                    pivots.append((image & -image, image, row))
                elif i:
                    spin_rows += [u ^ row for u in spin_rows]
                x <<= 1
        if not i:  # row 0: the Kahler leaves settled, the Spin-only ones counted
            leaves = [(u, spin and not t) for u, t in kahler]
            if leaves:
                for u, message in settle(n, rows, classes, leaves):
                    rows[0] = u
                    offenders.append((_index_of(n, rows), mask_line(n, rows), message))
            spin_leaves = sum([leaf_spin for _, leaf_spin in leaves])
            kahler_leaves += len(leaves)
            kahler_spin += spin_leaves
            if spin:  # 2^dim(V_S) less the Spin rows of V_K
                spin_only += (1 << (n - 1 - len(pivots))) - spin_leaves
            return
        if spin:
            both = {u for u, t in kahler if not t}
            spin_rows = [u for u in spin_rows if u not in both]
        for u, t in kahler:
            refined = classes
            if u:
                refined = []
                for c in classes:
                    part = c & u
                    if part != c:
                        refined.append(c ^ part)
                    if part:
                        refined.append(part)
            down(i, u, refined, spin and not t)
        if spin:
            for u in spin_rows:
                down(i, u, None, True)

    def down(i: int, u: int, classes: Optional[list[int]], spin: bool) -> None:
        """Set row i to u and walk the rows above it, with T_i marked while
        Spin is alive."""
        rows[i] = u
        t = u | ((u.bit_count() & 2) << (i - 1)) if spin else 0
        mark(t, 1 << i)
        descend(i - 1, classes, spin)
        mark(t, 1 << i)

    descend(n - 1, None if n & 1 else [(1 << n) - 1], True)
    return kahler_leaves, kahler_spin, spin_only, min(offenders, default=None)


def _classify_range(
    n: int, start: int, stop: int
) -> tuple[Counter[tuple[bool, bool, bool]], Optional[tuple[int, str, str]]]:
    """Cross-check one contiguous range of the full index space.

    Every matrix takes one cross_check.  Returns (tally of the kernel's
    (orientable, kahler, spin) verdicts, first offender or None); on an
    offender the range stops early, so the first offender of a range is
    the one with the smallest index.
    """
    # skipping to start costs about 2.4 s at the end of n = 8, where one
    # share of this walk takes hours
    walk = islice(_full_walk(n), start, stop)
    tally: Counter[tuple[bool, bool, bool]] = Counter()
    for index, rows in enumerate(walk, start):
        verdicts, problems = cross_check(BottMatrix._make(n, rows))
        if problems:
            return tally, (index, mask_line(n, rows), problems[0])
        tally[verdicts] += 1
    return tally, None


def run_census(cfg: CensusConfig) -> tuple[CensusRow, Iterator[str]]:
    """Classify the whole space for cfg.n; returns (counts, emitted lines).

    Without check_oracles, _bottom_up_walk visits the Kahler or Spin
    matrices in process and counts them with its own verdicts (settle
    checks each Kahler one's Spin verdict against the closed form), and
    every other orientable matrix is counted as neither,
    every non-orientable one as nothing at all.  With check_oracles the
    full index space splits into contiguous chunks, one per worker, whose
    results combine by addition, so the split never changes the counts;
    to use fewer CPUs, limit the process's CPU set (for example with
    taskset), which the worker count follows.  The emitted lines take no
    part in the walk: an iterator over the product of the text of each
    row's possible values spells out every index in order (empty unless
    emit_matrices is set).
    """
    if cfg.n > MAX_CENSUS_N:
        raise ValueError(f"size guard exceeded: the census is limited to n <= {MAX_CENSUS_N}")
    if cfg.check_oracles or cfg.n < 1:
        _check_size(cfg.n)
    if cfg.emit_matrices and cfg.n > MAX_EMIT_N:
        raise ValueError(f"size guard exceeded: --emit is limited to n <= {MAX_EMIT_N}")
    if cfg.check_oracles:
        walked = 1 << cell_count(cfg.n)
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no CPU affinity on this platform
            cpus = os.cpu_count() or 1
        workers = max(1, min(cpus, walked >> SHARE_BITS))
        bounds = [(walked * w) // workers for w in range(workers + 1)]
        jobs = [(cfg.n, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        if workers == 1:
            results = [_classify_range(*jobs[0])]
        else:
            import concurrent.futures  # only a walk that splits pays for it and logging
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_classify_range, *zip(*jobs)))
        offender = min((off for _, off in results if off is not None), default=None)
        tally = sum((part for part, _ in results), Counter())
    else:
        kahler_total, kahler_spin, spin_only, offender = _bottom_up_walk(cfg.n)
        walked = 1 << cell_count(cfg.n - 1)  # the orientable matrices
        tally = Counter(
            {
                (True, True, True): kahler_spin,
                (True, True, False): kahler_total - kahler_spin,
                (True, False, True): spin_only,
                (True, False, False): walked - kahler_total - spin_only,
                (False, False, False): (1 << cell_count(cfg.n)) - walked,
            }
        )
    if offender is not None:
        raise OracleDisagreementError(*offender)

    count = [0] * 6  # the CensusRow fields after n, in order
    for (orientable, kahler, spin), matrices in tally.items():
        flags = (True, orientable, kahler, spin, kahler and spin, kahler and not spin)
        count = [c + f * matrices for c, f in zip(count, flags)]
    emitted: Iterator[str] = iter(())
    if cfg.emit_matrices:
        layout, table = _row_layout(cfg.n)
        texts = [[mask_line(cfg.n, (r,)) for r in table[: mask + 1]] for _, mask in layout]
        emitted = map("/".join, product(*texts))
    return CensusRow(cfg.n, *count), emitted
