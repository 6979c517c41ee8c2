"""Exact Euclidean motions realizing the defining generators of a Bott group.

Each generator s_i acts on R^n as a diagonal sign matrix followed by a
half-step translation along coordinate i.  All translations live in
(1/2)Z, so they are stored doubled as integers and every composition is
exact; fixed-point questions on the torus reduce to sign patterns and
translation parities, with no floating point anywhere.

This module is the independent oracle against which the combinatorial
row-subset freeness test, the cocycle holonomy prediction and the row
parity test for orientability are cross-checked.  check_against_rows
builds the motion of each of the 2^n generator subsets as its sorted
product, with one exact composition per subset, and predicts their
signs by linearity of the cocycles along the lowest generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul
from typing import Iterable

from .bottcore import BottMatrix, bott_to_p, cocycles, free_at_subset

__all__ = [
    "EuclideanMotion",
    "generators",
    "element_of",
    "acts_freely",
    "orientable_by_motions",
    "subset_motions",
    "check_against_rows",
]

# Size guard: subset_motions keeps all 2^n motions, so time and memory double
# with each +1 in n (n = 16: about 0.6 s and 46 MB peak RSS); n = 20
# extrapolates to about 11 s and 0.6 GB, and n = 24 to gigabytes.
MAX_MOTION_DIM = 20


@dataclass(frozen=True)
class EuclideanMotion:
    """Affine map x -> D x + t with D = diag(signs) and t = trans2 / 2."""

    signs: tuple[int, ...]
    trans2: tuple[int, ...]

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
        product of valid motions is valid, so __post_init__ is not rerun."""
        if len(self.signs) != len(other.signs):
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        g = object.__new__(EuclideanMotion)
        object.__setattr__(g, "signs", tuple(map(mul, self.signs, other.signs)))
        trans2 = map(add, map(mul, self.signs, other.trans2), self.trans2)
        object.__setattr__(g, "trans2", tuple(trans2))
        return g

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

    def inverse(self) -> EuclideanMotion:
        # D^-1 = D for diagonal signs, so g^-1 = (D, -D t)
        return EuclideanMotion(
            self.signs, tuple(-s * t2 for s, t2 in zip(self.signs, self.trans2))
        )


def generators(a: BottMatrix) -> tuple[EuclideanMotion, ...]:
    """The motions s_1..s_n: s_i flips coordinate j > i iff a_ij = 1 and
    translates coordinate i by one half; s_n is the pure half-step."""
    n = a.n
    out = []
    for i, row in enumerate(a.row_masks):
        signs = tuple(-1 if row >> j & 1 else 1 for j in range(n))
        trans2 = tuple(1 if j == i else 0 for j in range(n))
        out.append(EuclideanMotion(signs, trans2))
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
    return all(math.prod(s.signs) == 1 for s in generators(a))


def subset_motions(gens: tuple[EuclideanMotion, ...]) -> list[EuclideanMotion]:
    """The motion of every generator subset, indexed by mask, one compose each.

    The masks are visited in ascending order.  A mask's motion is the
    motion of the mask without its highest generator s_h, built earlier,
    composed with s_h on the right, so it is exactly the sorted product
    element_of(a, subset).
    """
    out = [EuclideanMotion.identity(len(gens))] * (1 << len(gens))
    for mask in range(1, len(out)):
        h = mask.bit_length() - 1
        out[mask] = out[mask ^ (1 << h)].compose(gens[h])
    return out


def check_against_rows(a: BottMatrix) -> list[str]:
    """Cross-check the motion oracle against the row-calculus layer.

    For every nonempty generator subset the fixed-point verdict must
    equal the row-subset freeness predicate, and for every subset the
    sign pattern must match the cocycle prediction diag((-1)^(alpha_j +
    beta_j)).  The forms are linear, so a mask's prediction is that of the
    mask without its lowest generator times that generator's pattern
    (subset_motions drops the highest).  Returns the disagreements in
    ascending subset order (empty = all agree); n > MAX_MOTION_DIM is refused.
    """
    n = a.n
    if n > MAX_MOTION_DIM:
        raise ValueError(
            f"size guard exceeded: n={n} needs 2^{n} motions, limit is n={MAX_MOTION_DIM}"
        )
    p = bott_to_p(a)
    sign_forms = [al ^ be for al, be in zip(*cocycles(p))]
    one_generator = [tuple(-1 if f >> i & 1 else 1 for f in sign_forms) for i in range(n)]
    # latest[t]: prediction at the last mask visited with lowest bit t, which
    # is the mask without its lowest bit for every later mask that needs it;
    # mask 0 has lowest bit -1 and reads the identity in latest[n].
    latest = [(1,) * n] * (n + 1)
    problems: list[str] = []
    for mask, g in enumerate(subset_motions(generators(a))):
        low = (mask & -mask).bit_length() - 1
        if mask:
            rest = mask & (mask - 1)
            base = latest[(rest & -rest).bit_length() - 1]
            latest[low] = tuple(map(mul, base, one_generator[low]))
        if g.signs != latest[low]:
            problems.append(
                f"holonomy mismatch on {a.to_line()} subset {mask:#x}: "
                f"motion {g.signs}, cocycle {latest[low]}"
            )
        if mask and (free := g.has_no_fixed_point()) != (rows := free_at_subset(p, mask)):
            problems.append(
                f"freeness mismatch on {a.to_line()} subset {mask:#x}: "
                f"motion {free}, rows {rows}"
            )
    return problems
