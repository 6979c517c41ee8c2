"""Exact polynomial arithmetic over GF(2), graded by total degree.

Coefficients live in the two-element field, so a polynomial is a finite
set of monomials: adding a monomial twice cancels it, and the zero
polynomial is the empty set.  A monomial is the sorted tuple of its
0-based variable indices, one entry per factor (x1*x3^2 is (0, 2, 2),
the unit is ()), so its size is its degree, not the variable count.
Monomials sort in graded lexicographic order, degree first.

The module also carries the GF(2) linear algebra needed on graded
pieces: row reduction of bitmask matrices, row-space membership, and a
fixed coordinate system for homogeneous quadratics (x_i*x_j, i <= j, in
lex order, so block i holds the x_i*x_j with j >= i), in which
mul_linear multiplies two linear-form masks and decode_degree2 reads a
mask back block by block, with no table of monomials.

Bit conventions: an ``F2Matrix`` row is an int whose bit ``c`` is the
entry in column ``c``.  A linear form is an int mask whose bit ``i`` is
the coefficient of ``x_{i+1}``; ``GradedPolyF2.linear`` turns one into a
polynomial.  A homogeneous quadratic is an int mask whose bit
``degree2_index(d, i, j)`` is the coefficient of ``x_{i+1}*x_{j+1}``
(``encode_degree2``, ``decode_degree2``, ``mul_linear``).  Everything is
immutable, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "GradedPolyF2",
    "F2Matrix",
    "truncated_product",
    "degree2_count",
    "degree2_index",
    "encode_degree2",
    "decode_degree2",
]

Monomial = tuple[int, ...]


def format_monomial(m: Monomial) -> str:
    """Render as juxtaposed powers, e.g. ``x1x3^2``; the unit is ``1``.
    One pass: each run of equal sorted indices is a variable and its power."""
    out, k = "", 0
    while k < len(m):
        j = k + 1
        while j < len(m) and m[j] == m[k]:
            j += 1
        out += f"x{m[k] + 1}^{j - k}" if j - k > 1 else f"x{m[k] + 1}"
        k = j
    return out or "1"


@dataclass(frozen=True, init=False, repr=False, eq=False, slots=True)
class GradedPolyF2:
    """Multivariate polynomial over GF(2) as a frozen set of monomials."""

    num_vars: int
    terms: frozenset[Monomial]

    def __init__(self, num_vars: int, terms: Iterable[Monomial] = ()) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        acc: set[Monomial] = set()
        for m in terms:
            t = tuple(m)
            if not all(isinstance(i, int) for i in t):
                raise ValueError(f"non-int variable index in monomial {t}")
            t = tuple(sorted(map(int, t)))  # a bool index becomes 0 or 1
            if t and not (t[0] >= 0 and t[-1] < num_vars):
                raise ValueError(f"monomial {t} has a variable index outside 0..{num_vars - 1}")
            acc ^= {t}  # characteristic 2: repeated monomials cancel
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", frozenset(acc))

    @classmethod
    def _make(cls, num_vars: int, terms: frozenset[Monomial]) -> GradedPolyF2:
        p = object.__new__(cls)
        object.__setattr__(p, "num_vars", num_vars)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls, num_vars: int) -> GradedPolyF2:
        return cls._make(num_vars, frozenset())

    @classmethod
    def one(cls, num_vars: int) -> GradedPolyF2:
        return cls._make(num_vars, frozenset({()}))

    @classmethod
    def linear(cls, num_vars: int, mask: int) -> GradedPolyF2:
        """The linear form whose x_{i+1} coefficient is bit i of mask."""
        if not 0 <= mask < (1 << num_vars):
            raise ValueError(f"coefficient mask {mask:#x} out of range for {num_vars} variables")
        return cls._make(num_vars, frozenset((i,) for i in range(num_vars) if mask >> i & 1))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_vars(self, other: GradedPolyF2) -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"polynomials over different variable counts: {self.num_vars} vs {other.num_vars}"
            )

    def __add__(self, other: GradedPolyF2) -> GradedPolyF2:
        self._check_vars(other)
        return GradedPolyF2._make(self.num_vars, self.terms ^ other.terms)

    def __mul__(self, other: GradedPolyF2) -> GradedPolyF2:
        return self.mul_truncated(other, math.inf)

    def mul_truncated(self, other: GradedPolyF2, max_degree: float) -> GradedPolyF2:
        """Product with every monomial of total degree > max_degree dropped (none at math.inf)."""
        self._check_vars(other)
        acc: set[Monomial] = set()
        for m1 in self.terms:
            d1 = len(m1)
            if d1 > max_degree:
                continue
            for m2 in other.terms:
                if d1 + len(m2) > max_degree:
                    continue
                acc ^= {tuple(sorted(m1 + m2))}
        return GradedPolyF2._make(self.num_vars, frozenset(acc))

    def graded_component(self, k: int) -> GradedPolyF2:
        """The homogeneous piece of total degree k."""
        if k < 0:
            raise ValueError("degree must be non-negative")
        return GradedPolyF2._make(self.num_vars, frozenset(m for m in self.terms if len(m) == k))

    def sorted_terms(self) -> list[Monomial]:
        """Graded lex: by degree, then earlier variables first."""
        return sorted(sorted(self.terms), key=len)  # stable, so lex within a degree

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPolyF2):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.num_vars, self.terms))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(map(format_monomial, self.sorted_terms()))

    def __repr__(self) -> str:
        return f"GradedPolyF2({self.num_vars}, {self.sorted_terms()!r})"


# Size guard on the running product of truncated_product.  Its term count
# depends on the factors, so it is checked after each factor: a random 12x14
# P-matrix at degree 14 would build 2,918,928 terms, and is stopped after
# factor 11 of 14, about 1.1 s in (2 vCPUs).
MAX_PRODUCT_TERMS = 1 << 18


def truncated_product(
    factors: Sequence[GradedPolyF2], max_degree: int
) -> GradedPolyF2:
    """Product of the factors, truncated to total degree <= max_degree.

    Truncation is applied after each pairwise multiplication, so the
    intermediate term count never exceeds the number of monomials of
    degree <= max_degree.  Since degrees only grow under multiplication,
    this equals the full product truncated once at the end.  A running
    product of more than MAX_PRODUCT_TERMS terms is refused.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    if not factors:
        raise ValueError("empty product: at least one factor required")
    acc = GradedPolyF2.one(factors[0].num_vars)
    for k, f in enumerate(factors, start=1):
        acc = acc.mul_truncated(f, max_degree)
        if len(acc.terms) > MAX_PRODUCT_TERMS:
            raise ValueError(
                f"size guard exceeded: {len(acc.terms)} terms after factor {k} "
                f"of {len(factors)}, limit is {MAX_PRODUCT_TERMS}"
            )
    return acc


@dataclass(frozen=True, init=False, repr=False, eq=False, slots=True)
class F2Matrix:
    """GF(2) matrix with rows stored as int bitmasks (bit c = column c)."""

    ncols: int
    rows: tuple[int, ...]

    def __init__(self, rows: Iterable[int], ncols: int) -> None:
        if ncols < 0:
            raise ValueError("ncols must be non-negative")
        clean = []
        for r in rows:
            if not isinstance(r, int):
                raise ValueError(f"row {r!r} is not an int")
            r = int(r)
            if r < 0 or r >> ncols:
                raise ValueError(f"row {r:#x} has bits beyond column {ncols - 1}")
            clean.append(r)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", tuple(clean))

    @classmethod
    def _make(cls, rows: tuple[int, ...], ncols: int) -> F2Matrix:
        m = object.__new__(cls)
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "rows", rows)
        return m

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def rref(self) -> F2Matrix:
        """Row-reduced echelon form; zero rows are dropped.

        Each row is reduced by the basis so far; if anything is left, its
        lowest bit becomes a new pivot, cleared from the other rows.
        Sorted by pivot this is the canonical reduced basis of the row
        space, and its row count is the rank.
        """
        basis: dict[int, int] = {}  # pivot bit -> row
        for r in self.rows:
            for bit, row in basis.items():
                if r & bit:
                    r ^= row
            if r:
                low = r & -r
                for bit, row in basis.items():
                    if row & low:
                        basis[bit] = row ^ r
                basis[low] = r
        return F2Matrix._make(tuple([basis[bit] for bit in sorted(basis)]), self.ncols)

    def in_row_space(self, v: int) -> bool:
        """Whether v (bitmask) is a GF(2) combination of the rows."""
        if v < 0 or v >> self.ncols:
            raise ValueError(f"vector {v:#x} has bits beyond column {self.ncols - 1}")
        for row in self.rref().rows:
            if v & (row & -row):
                v ^= row
        return v == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, F2Matrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"F2Matrix({list(self.rows)!r}, ncols={self.ncols})"


def degree2_count(num_vars: int) -> int:
    """Number of degree-2 monomials in num_vars variables."""
    return num_vars * (num_vars + 1) // 2


def degree2_index(num_vars: int, i: int, j: int) -> int:
    """Column index of x_{i+1}*x_{j+1} (0-based, i <= j) in the fixed enumeration.

    Pairs (i, j) with i <= j are ordered lexicographically, giving
    d*(d+1)/2 stable coordinates for homogeneous quadratics.
    """
    if not 0 <= i <= j < num_vars:
        raise ValueError(f"bad variable pair ({i}, {j}) for {num_vars} variables")
    return i * num_vars - i * (i + 1) // 2 + j


def encode_degree2(p: GradedPolyF2) -> int:
    """Coordinates of a homogeneous degree-2 polynomial as a bitmask."""
    mask = 0
    for m in p.terms:
        if len(m) != 2:
            raise ValueError(f"monomial {m} is not of degree 2")
        i, j = m
        mask |= 1 << degree2_index(p.num_vars, i, j)
    return mask


def decode_degree2(num_vars: int, mask: int) -> GradedPolyF2:
    """Inverse of encode_degree2, read block by block as mul_linear writes:
    block i, the next d - i bits, holds x_{i+1}*x_{j+1} for j = i..d-1."""
    if mask < 0 or mask >> degree2_count(num_vars):
        raise ValueError(f"mask {mask:#x} out of range for {num_vars} variables")
    terms = []
    i = 0
    while mask:
        width = num_vars - i
        block, mask = mask & ((1 << width) - 1), mask >> width
        while block:
            low = block & -block
            block ^= low
            terms.append((i, i + low.bit_length() - 1))
        i += 1
    return GradedPolyF2._make(num_vars, frozenset(terms))


def mul_linear(num_vars: int, f: int, g: int) -> int:
    """encode_degree2 of the product of two linear forms given as masks.

    In d = num_vars variables x_i^2 sits at column s_i = i*d - i*(i-1)/2
    and x_i*x_j at s_i + j - i, so x_i times the part of a form at j >= i
    is one shifted block.  Each x_i*x_j (i <= j) comes from f_i g_j, or
    from g_i f_j with i < j.
    """
    out = 0
    for a, b, strict in ((f, g, 0), (g, f, 1)):
        while a:
            i = (a & -a).bit_length() - 1
            out ^= (b >> (i + strict)) << (i * num_vars - i * (i - 1) // 2 + strict)
            a &= a - 1
    return out
