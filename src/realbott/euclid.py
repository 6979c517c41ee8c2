"""Exact Euclidean motions realizing the defining generators of a Bott group.

Each generator s_i acts on R^n as a diagonal sign matrix followed by a
half-step translation along coordinate i.  All translations live in
(1/2)Z, so they are stored doubled as integers and every composition is
exact; fixed-point questions on the torus reduce to sign patterns and
translation parities, with no floating point anywhere.

This module is the independent oracle against which the combinatorial
row-subset freeness test, the cocycle holonomy prediction and the row
parity test for orientability are cross-checked.  check_against_rows
reads the motions of all 2^n generator subsets from subset_columns, one
list per coordinate of exact sorted products, predicts their signs
column by column by linearity of the cocycles, and reads the row side's
freeness from bottcore.free_chunks, the bit-sliced kernel behind is_free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul
from typing import Iterable

from .bottcore import BottMatrix, bott_to_p, cocycles, free_chunks

__all__ = [
    "EuclideanMotion",
    "generators",
    "element_of",
    "acts_freely",
    "orientable_by_motions",
    "subset_columns",
    "check_against_rows",
]

# Size guard: check_against_rows keeps 3n columns of 2^n ints (signs, doubled
# translations, predicted signs), so time and memory double with each +1 in n
# (`realbott verify` at n = 16: about 0.25 s and 44 MB peak RSS; n = 18: 0.7 s
# and 130 MB); n = 20 extrapolates to about 3 s and 0.5 GB, n = 24 to gigabytes.
MAX_MOTION_DIM = 20


@dataclass(frozen=True)
class EuclideanMotion:
    """Affine map x -> D x + t with D = diag(signs) and t = trans2 / 2."""

    signs: tuple[int, ...]
    trans2: tuple[int, ...]

    @classmethod
    def _make(cls, signs: tuple[int, ...], trans2: tuple[int, ...]) -> EuclideanMotion:
        """A motion from entries already known valid; __post_init__ is not run."""
        g = object.__new__(cls)
        g.__dict__.update(signs=signs, trans2=trans2)  # frozen blocks only setattr
        return g

    def __post_init__(self) -> None:
        if len(self.signs) != len(self.trans2):
            raise ValueError("signs and translation must have the same length")
        if any(not isinstance(s, int) or s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")
        if not all(isinstance(t2, int) for t2 in self.trans2):
            raise ValueError("doubled translations must be ints")

    @property
    def dim(self) -> int:
        return len(self.signs)

    @classmethod
    def identity(cls, n: int) -> EuclideanMotion:
        return cls((1,) * n, (0,) * n)

    def compose(self, other: EuclideanMotion) -> EuclideanMotion:
        """(self . other)(x) = self(other(x)), exact on doubled integers.  A
        product of valid motions is valid, so it is built with _make."""
        if len(self.signs) != len(other.signs):
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        trans2 = map(add, map(mul, self.signs, other.trans2), self.trans2)
        return EuclideanMotion._make(tuple(map(mul, self.signs, other.signs)), tuple(trans2))

    def has_no_fixed_point(self) -> bool:
        """Whether the induced torus map x -> D x + t has no fixed point.

        That happens exactly when some coordinate keeps sign +1 but is
        shifted by an odd half-step: then D x + t + z = x has no integer
        solution z.
        """
        for s, t2 in zip(self.signs, self.trans2):
            if s == 1 and t2 & 1:
                return True
        return False


def generators(a: BottMatrix) -> tuple[EuclideanMotion, ...]:
    """The motions s_1..s_n: s_i flips coordinate j > i iff a_ij = 1 and
    translates coordinate i by one half; s_n is the pure half-step."""
    n = a.n
    out = []
    for i, row in enumerate(a.row_masks):
        signs = tuple([-1 if row >> j & 1 else 1 for j in range(n)])
        trans2 = tuple([1 if j == i else 0 for j in range(n)])
        out.append(EuclideanMotion._make(signs, trans2))
    return tuple(out)


def element_of(a: BottMatrix, subset: Iterable[int]) -> EuclideanMotion:
    """Product of the selected generators (0-based indices) in increasing order.

    The freeness and holonomy verdicts below depend only on signs and on
    translation parities, which are order-independent.
    """
    gens = generators(a)
    g = EuclideanMotion.identity(a.n)
    for i in sorted(set(subset)):
        if not 0 <= i < a.n:
            raise ValueError(f"generator index {i} out of range for n={a.n}")
        g = g.compose(gens[i])
    return g


def acts_freely(a: BottMatrix, subset: Iterable[int]) -> bool:
    """Fixed-point oracle for one nonempty generator subset."""
    chosen = sorted(set(subset))
    if not chosen:
        raise ValueError("subset must be nonempty")
    return element_of(a, chosen).has_no_fixed_point()


def orientable_by_motions(a: BottMatrix) -> bool:
    """Orientability read off the motions, with no Stiefel-Whitney algebra.

    The linear part of s_i has determinant (-1)^(weight of row i), and the
    group preserves orientation iff every generator does.
    """
    return _orientable(generators(a))


def _orientable(gens: tuple[EuclideanMotion, ...]) -> bool:
    return all(math.prod(s.signs) == 1 for s in gens)


def subset_columns(gens: tuple[EuclideanMotion, ...]) -> tuple[list[list[int]], list[list[int]]]:
    """The motion of every generator subset, stored column by column.

    Returns (signs, trans2): signs[j][mask] and trans2[j][mask] are the
    sign and the doubled translation at coordinate j of the motion of the
    subset mask.  Each column starts as the identity's entry (1, 0) at
    mask 0, and each generator s_h in index order doubles it: the entry
    (x, y) at a mask without s_h gives the entry at that mask plus s_h,
    the motion composed with s_h on the right, (x sigma, x tau + y) for
    s_h's own sign sigma and doubled translation tau at j.  So every
    entry is exactly that of the sorted product element_of(a, subset).
    """
    signs: list[list[int]] = []
    trans2: list[list[int]] = []
    for j in range(gens[0].dim if gens else 0):
        s, t = [1], [0]
        for g in gens:
            sigma, tau = g.signs[j], g.trans2[j]
            # x * 1 = x and x * 0 + y = y: those halves are copies
            t += t if tau == 0 else [x * tau + y for x, y in zip(s, t)]
            s += s if sigma == 1 else [x * sigma for x in s]
        signs.append(s)
        trans2.append(t)
    return signs, trans2


def _free_flags(signs: list[list[int]], trans2: list[list[int]]) -> list[bool]:
    """has_no_fixed_point of each subset motion, read off one or more
    columns: some coordinate keeps sign +1 under an odd half-step."""
    free = [False] * len(signs[0])
    for s_col, t_col in zip(signs, trans2):
        free = [f or (s == 1 and t & 1 == 1) for f, s, t in zip(free, s_col, t_col)]
    return free


def check_against_rows(a: BottMatrix) -> list[str]:
    """Cross-check the motion oracle against the row-calculus layer.

    For every nonempty generator subset the fixed-point verdict must
    equal the row-subset freeness that free_chunks gives, 2^12 subsets per
    int, and for every subset the sign pattern must match the cocycle
    prediction diag((-1)^(alpha_j + beta_j)).  The motions come from
    subset_columns; each form is linear, so its column of predicted signs
    doubles the way a sign column does.
    Whole columns are compared at once, and only on a disagreement are
    the masks walked to name it.  Returns the disagreements in ascending
    subset order, holonomy before freeness (empty = all agree);
    n > MAX_MOTION_DIM is refused.
    """
    return _check_motions(a)[0]


def _check_motions(a: BottMatrix) -> tuple[list[str], tuple[EuclideanMotion, ...]]:
    """(check_against_rows(a), the generators it built), so that a caller
    with a second motion route need not build them again."""
    n = a.n
    if n > MAX_MOTION_DIM:
        raise ValueError(
            f"size guard exceeded: n={n} needs 2^{n} motions, limit is n={MAX_MOTION_DIM}"
        )
    gens = generators(a)
    p = bott_to_p(a)
    signs, trans2 = subset_columns(gens)
    predicted = []
    for alpha, beta in zip(*cocycles(p)):
        column = [1]
        for i in range(n):
            column += [-x for x in column] if (alpha ^ beta) >> i & 1 else column
        predicted.append(column)
    free = _free_flags(signs, trans2)
    chunks = list(free_chunks(p))  # lane m of chunk c is subset c * width + m
    width = (1 << n) // len(chunks)
    rows = [lane == "1" for chunk in chunks for lane in reversed(f"{chunk:0{width}b}")]
    if signs == predicted and free == rows:
        return [], gens
    problems: list[str] = []
    for mask, (motion, cocycle) in enumerate(zip(zip(*signs), zip(*predicted))):
        if motion != cocycle:
            problems.append(
                f"holonomy mismatch on {a.to_line()} subset {mask:#x}: "
                f"motion {motion}, cocycle {cocycle}"
            )
        if free[mask] != rows[mask]:
            problems.append(
                f"freeness mismatch on {a.to_line()} subset {mask:#x}: "
                f"motion {free[mask]}, rows {rows[mask]}"
            )
    return problems, gens
