"""Real Bott manifolds from their defining matrices.

A Bott matrix is a strictly upper-triangular 0/1 matrix A of size n.  It
determines a flat closed n-manifold M(A), the quotient of the n-torus by
a free (Z_2)^n action that acts on each circle coordinate through one of
the four automorphisms

    0: z -> z,    1: z -> -z,    2: z -> conj(z),    3: z -> -conj(z),

which form a Klein four-group under composition.  More generally a d x n
matrix with entries in {0, 1, 2, 3} (a "P-matrix") encodes a diagonal
action of (Z_2)^d on T^n.

Two coordinate functionals alpha, beta on the four-group (alpha is 1 on
{1, 2}, beta is 1 on {1, 3}) turn each column j of a P-matrix into
linear forms alpha_j, beta_j in GF(2)[x_1..x_d].  The quadratics
theta_j = alpha_j * beta_j span the degree-2 piece of the characteristic
ideal of the action, and the product of all (1 + alpha_j + beta_j) is a
lift of the total Stiefel-Whitney class of the quotient manifold.  Its
degree-1 part decides orientability and, together with ideal membership
of the degree-2 part, the existence of a Spin structure.  Matrices and
forms are int masks: a BottMatrix stores the rows R_i of A, a PMatrix
the alpha and beta bitplanes of its rows, and the deciders keep forms as
masks (bit i for x_{i+1}, quadratics in encode_degree2 coordinates) and
expand the product only to degree 2; GradedPolyF2 renders results and
serves sw_class at higher degree.

A real Bott manifold carries a Kahler structure exactly when the columns
of A partition into equal pairs (Ishida's criterion); in that case Spin
also has a closed form in terms of the row parities S_i over one
representative column per pair: M(A) is Spin iff for every row i either
S_i is even or column i of A is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, or_, xor
from typing import Iterator, Optional, Sequence

from .f2poly import (
    F2Matrix,
    GradedPolyF2,
    decode_degree2,
    degree2_count,
    encode_degree2,
    mul_linear,
    truncated_product,
)

__all__ = [
    "BottMatrix",
    "PMatrix",
    "IdealDegree2Basis",
    "KahlerPairing",
    "ManifoldReport",
    "MatrixParseError",
    "InconsistencyError",
    "parse_bott",
    "parse_pmatrix",
    "bott_to_p",
    "pmatrix_to_bott",
    "is_free",
    "free_at_subset",
    "free_chunks",
    "has_full_holonomy",
    "cocycles",
    "characteristic_ideal",
    "sw_class",
    "is_kahler",
    "spin_membership",
    "spin_kahler_closed_form",
    "analyze",
    "bott_verdicts",
    "settle",
    "mask_line",
]


class MatrixParseError(ValueError):
    """Raised for malformed matrix text or invalid entries."""


class InconsistencyError(RuntimeError):
    """Two routes that must agree disagreed; always an implementation bug."""


# digit -> its alpha and its beta bit: alpha is 1 on entries 1, 2 and beta on 1, 3
_ALPHA_DIGITS, _BETA_DIGITS = str.maketrans("0123", "0110"), str.maketrans("0123", "0101")


def _grid_masks(rows: Sequence, bott: bool, text: bool = False) -> tuple[int, list, list]:
    """Check a grid row-major and return (width, alphas, betas).

    Bits j of alphas[i] and betas[i] are alpha and beta of entry (i, j); a
    0/1 entry is its own alpha and beta, so a Bott matrix keeps alphas.  Per
    row it checks the length (the row count for a Bott matrix, row 1's
    width otherwise), then that each entry is an int in 0..1 (Bott) or
    0..3, then, for a Bott matrix, that nothing sits on or below the
    diagonal; the first fault raises MatrixParseError.  text=True takes
    the reader's checked digit strings, one base-2 int per plane.
    """
    if not rows:
        raise MatrixParseError("empty matrix")
    width = len(rows) if bott else len(rows[0])
    if width == 0:
        raise MatrixParseError("empty matrix row")
    top, why = (1, "is not 0 or 1") if bott else (3, "is not in 0..3")
    alphas: list[int] = []
    betas: list[int] = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise MatrixParseError(
                f"row {i + 1} has {len(row)} entries, expected {width}"
                + (" (matrix must be square)" if bott else "")
            )
        if text:
            row = row[::-1]  # column j is bit j
            alpha = int(row if bott else row.translate(_ALPHA_DIGITS), 2)
            beta = alpha if bott else int(row.translate(_BETA_DIGITS), 2)
        else:
            alpha = beta = 0
            for j, e in enumerate(row):
                if not isinstance(e, int) or not 0 <= e <= top:
                    raise MatrixParseError(f"entry {e!r} at row {i + 1}, column {j + 1} {why}")
                alpha |= ((e ^ e >> 1) & 1) << j  # bit 0 XOR bit 1
                beta |= (e & 1) << j
        below = alpha & ((2 << i) - 1)
        if bott and below:
            raise MatrixParseError(
                f"entry at row {i + 1}, column {(below & -below).bit_length()} must be 0 "
                "(matrix must be strictly upper triangular)"
            )
        alphas.append(alpha)
        betas.append(beta)
    return width, alphas, betas


def _render(m: BottMatrix | PMatrix) -> str:
    """Rows of entries joined by spaces, one row a line."""
    return "\n".join(" ".join(map(str, row)) for row in m.rows)


@dataclass(frozen=True, init=False)
class BottMatrix:
    """Strictly upper-triangular 0/1 matrix defining a real Bott manifold.

    Stored as row masks: bit j of row_masks[i] is a_ij.  BottMatrix(rows)
    validates a grid of 0/1 rows; _make, for masks the library built or
    parse_bott checked, does not.  .rows and .column(j) read the masks.
    """

    n: int
    row_masks: tuple[int, ...]

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        n, masks, _ = _grid_masks(rows, bott=True)
        self.__dict__.update(n=n, row_masks=tuple(masks))  # frozen blocks only setattr

    @classmethod
    def _make(cls, n: int, row_masks: tuple[int, ...]) -> BottMatrix:
        a = object.__new__(cls)
        a.__dict__.update(n=n, row_masks=row_masks)
        return a

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple([tuple([(r >> j) & 1 for j in range(self.n)]) for r in self.row_masks])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple([(r >> j) & 1 for r in self.row_masks])

    def to_line(self) -> str:
        """Serialize row-major as 0/1 digits with rows joined by '/'."""
        return mask_line(self.n, self.row_masks)

    __str__ = _render


def mask_line(n: int, rows: Sequence[int]) -> str:
    """BottMatrix.to_line of the matrix whose row i has bit j = a_ij."""
    return "/".join(format(r, f"0{n}b")[::-1] for r in rows)


@dataclass(frozen=True, init=False)
class PMatrix:
    """d x n matrix over {0,1,2,3} encoding a diagonal (Z_2)^d action on T^n.

    Stored as two bitplanes: bit j of alpha_masks[i] and of beta_masks[i]
    are alpha and beta of entry (i, j).  PMatrix(rows) validates a grid
    of rows over 0..3; _make, for planes the library built or
    parse_pmatrix checked, does not.  .rows reads the bitplanes.
    """

    d: int
    n: int
    alpha_masks: tuple[int, ...]
    beta_masks: tuple[int, ...]

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        n, alphas, betas = _grid_masks(rows, bott=False)
        self.__dict__.update(d=len(rows), n=n, alpha_masks=tuple(alphas), beta_masks=tuple(betas))

    @classmethod
    def _make(cls, d: int, n: int, alphas: tuple[int, ...], betas: tuple[int, ...]) -> PMatrix:
        p = object.__new__(cls)
        p.__dict__.update(d=d, n=n, alpha_masks=alphas, beta_masks=betas)
        return p

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        # (alpha, beta) = (1, 1), (1, 0), (0, 1) are the entries 1, 2, 3
        return tuple([
            tuple([2 * ((a ^ b) >> j & 1) + (b >> j & 1) for j in range(self.n)])
            for a, b in zip(self.alpha_masks, self.beta_masks)
        ])

    __str__ = _render


def _parse_matrix_text(text: str, alphabet: str) -> list[str]:
    """Shared digit-grid reader: '/' or newline ends a row, '#' starts a comment.

    It checks only characters and returns each row's digit string; the
    parsers check the shape and build the masks with _grid_masks.
    """
    rows: list[str] = []
    for line in text.splitlines():
        for chunk in line.split("#", 1)[0].split("/"):
            row = "".join(chunk.split())
            bad = row.lstrip(alphabet)  # from the first character not in the alphabet
            if bad:
                raise MatrixParseError(
                    f"invalid entry {bad[0]!r} at row {len(rows) + 1}, column "
                    f"{len(row) - len(bad) + 1} (expected one of {','.join(alphabet)})"
                )
            if row:
                rows.append(row)
    return rows


def parse_bott(text: str) -> BottMatrix:
    """Parse a Bott matrix from a 0/1 digit grid.

    Rows sit on separate lines or are separated by '/'; whitespace
    between digits is optional and '#' comments run to end of line.
    """
    n, masks, _ = _grid_masks(_parse_matrix_text(text, "01"), bott=True, text=True)
    return BottMatrix._make(n, tuple(masks))


def parse_pmatrix(text: str) -> PMatrix:
    """Parse a P-matrix from a digit grid over the alphabet 0..3."""
    rows = _parse_matrix_text(text, "0123")
    n, alphas, betas = _grid_masks(rows, bott=False, text=True)
    return PMatrix._make(len(rows), n, tuple(alphas), tuple(betas))


def bott_to_p(a: BottMatrix) -> PMatrix:
    """P-matrix of a Bott matrix: 1 on the diagonal, 2 where a_ij = 1, so
    row i has alpha R_i | 2^i and beta 2^i."""
    diagonal = tuple([1 << i for i in range(a.n)])
    alphas = tuple(map(or_, a.row_masks, diagonal))
    return PMatrix._make(a.n, a.n, alphas, diagonal)


def pmatrix_to_bott(p: PMatrix) -> Optional[BottMatrix]:
    """The Bott matrix a with bott_to_p(a) == p, or None if there is none.

    Row i needs beta 2^i (1 or 3 only on the diagonal) and lowest alpha
    bit 2^i (1 on the diagonal, 0 left of it); its other alpha bits are R_i.
    """
    diagonal = tuple([1 << i for i in range(p.n)])
    if p.beta_masks != diagonal or any(a & -a != b for a, b in zip(p.alpha_masks, diagonal)):
        return None
    return BottMatrix._make(p.n, tuple(map(xor, p.alpha_masks, diagonal)))


def free_at_subset(p: PMatrix, subset_mask: int) -> bool:
    """Whether the group element of one nonempty row subset acts freely.

    The XOR of the selected rows, read as (alpha, beta) pairs, must carry
    the pair (1, 1) somewhere: the element then shifts that circle
    coordinate by a half turn it cannot undo, so it has no fixed point.
    This is the per-subset twin of free_chunks, which tests compare it to.
    """
    alphas, betas = p.alpha_masks, p.beta_masks
    if subset_mask <= 0 or subset_mask >> len(alphas):
        raise ValueError(f"subset mask {subset_mask:#x} out of range for {p.d} rows")
    a = b = 0
    while subset_mask:
        i = (subset_mask & -subset_mask).bit_length() - 1
        a ^= alphas[i]
        b ^= betas[i]
        subset_mask &= subset_mask - 1
    return (a & b) != 0


# Chunk width of free_chunks: each int holds 2^FREE_CHUNK_BITS row subsets.
FREE_CHUNK_BITS = 12


@lru_cache(maxsize=None)
def _lanes(k: int) -> tuple[int, ...]:
    """Row lanes over 2^k subsets: lane m of the i-th int is bit i of m,
    so it has 2^i clear lanes, then 2^i set ones, repeated."""
    full = (1 << (1 << k)) - 1
    widths = [1 << i for i in range(k)]
    return tuple([full // ((1 << 2 * w) - 1) * ((1 << 2 * w) - (1 << w)) for w in widths])


def free_chunks(p: PMatrix) -> Iterator[int]:
    """free_at_subset of every row subset, 2^k subsets per int, k = min(d, FREE_CHUNK_BITS).

    Chunk c, yielded in ascending order, has lane m set iff subset c * 2^k + m
    acts freely (lane 0 of chunk 0, the empty subset, is clear).  Column forms
    are XORs of row lanes, free where some column's alpha and beta both hold;
    rows k and up are fixed within a chunk, so they only flip whole columns.
    """
    k, n = min(p.d, FREE_CHUNK_BITS), p.n
    full = (1 << (1 << k)) - 1
    rows = [a | b << n for a, b in zip(p.alpha_masks, p.beta_masks)]  # alpha bits, then beta
    forms = [0] * (2 * n)
    for lane, m in zip(_lanes(k), rows):
        while m:
            low = m & -m
            forms[low.bit_length() - 1] ^= lane
            m ^= low
    flips = [0]  # flips[c]: the forms that chunk c's rows k and up flip
    for m in rows[k:]:
        flips += [x ^ m for x in flips]
    for h in flips:
        f = [form ^ full if h >> j & 1 else form for j, form in enumerate(forms)]
        yield reduce(or_, map(and_, f[:n], f[n:]), 0)


# Size guard: is_free reads 2^(d - 12) chunks of 2^12 row subsets, so its time doubles
# with each row past 12.  On 2 vCPUs, `check --json --pmat` on a free d x (d + 2) matrix
# takes 0.05 s and 16 MB peak RSS at d = 20, 0.08 s and 16 MB at d = 24 (is_free: 1.6 and
# 30 ms); it stops halfway if only the last row alone fails.  d = 30: about 2 s of scan.
MAX_FREE_ROWS = 24


def is_free(p: PMatrix) -> bool:
    """Whether the encoded (Z_2)^d action on T^n is free.

    Reads free_chunks and stops at the first chunk that holds a subset
    which is not free; only the empty subset, lane 0 of chunk 0, is
    excused.  d above MAX_FREE_ROWS is refused before any work.
    """
    d = p.d
    if d > MAX_FREE_ROWS:
        raise ValueError(
            f"size guard exceeded: d={d} rows need 2^{d} - 1 row subsets, "
            f"limit is d={MAX_FREE_ROWS}"
        )
    full = (1 << (1 << min(d, FREE_CHUNK_BITS))) - 1
    chunks = free_chunks(p)
    return next(chunks) | 1 == full and all(chunk == full for chunk in chunks)


def has_full_holonomy(p: PMatrix) -> bool:
    """Whether every row acts with a sign flip somewhere (entry 2 or 3)."""
    return all(am ^ bm for am, bm in zip(p.alpha_masks, p.beta_masks))


def cocycles(p: PMatrix) -> tuple[list[int], list[int]]:
    """Column-wise linear forms (alpha_j, beta_j) over x_1..x_d as int masks.

    Bit i of each mask is the coefficient of x_{i+1}; GradedPolyF2.linear
    renders one.
    """
    return _transpose(p.alpha_masks, p.n), _transpose(p.beta_masks, p.n)


def _transpose(masks: Sequence[int], width: int) -> list[int]:
    """Bit i of out[j] is bit j of masks[i], walking only the set bits."""
    out = [0] * width
    bit = 1
    for m in masks:
        while m:
            low = m & -m
            out[low.bit_length() - 1] |= bit
            m ^= low
        bit <<= 1
    return out


def _theta_matrix(d: int, alphas: list[int], betas: list[int]) -> F2Matrix:
    """The encode_degree2 masks of theta_j = alpha_j * beta_j, one row each."""
    rows = tuple([mul_linear(d, a, b) for a, b in zip(alphas, betas)])
    return F2Matrix._make(rows, degree2_count(d))


@dataclass(frozen=True)
class IdealDegree2Basis:
    """Degree-2 generators theta_j = alpha_j * beta_j and their reduced span."""

    thetas: tuple[GradedPolyF2, ...]
    reduced: F2Matrix

    @property
    def rank(self) -> int:
        return self.reduced.nrows

    def contains(self, quadratic: GradedPolyF2) -> bool:
        """Membership of a homogeneous degree-2 polynomial in the span."""
        return self.reduced.in_row_space(encode_degree2(quadratic))


def characteristic_ideal(p: PMatrix) -> IdealDegree2Basis:
    """The quadratics theta_j with the reduced basis of their GF(2) span.

    For a Bott-shaped P the formula collapses to
    theta_j = x_j^2 + sum_{i<j} a_ij * x_i * x_j.
    """
    m = _theta_matrix(p.d, *cocycles(p))
    thetas = tuple(decode_degree2(p.d, t) for t in m.rows)
    return IdealDegree2Basis(thetas=thetas, reduced=m.rref())


def sw_class(p: PMatrix, max_degree: int = 2) -> GradedPolyF2:
    """Total Stiefel-Whitney class lift: product of (1 + alpha_j + beta_j).

    Truncated to total degree <= max_degree and NOT reduced modulo the
    characteristic ideal; degrees 1 and 2 are what the orientability and
    Spin tests consume.
    """
    one = GradedPolyF2.one(p.d)
    factors = [one + GradedPolyF2.linear(p.d, a ^ b) for a, b in zip(*cocycles(p))]
    return truncated_product(factors, max_degree)


@dataclass(frozen=True)
class KahlerPairing:
    """Column indices (0-based) partitioned into equal pairs, representative first."""

    pairs: tuple[tuple[int, int], ...]


def is_kahler(a: BottMatrix) -> Optional[KahlerPairing]:
    """Kahler decider: columns of A must partition into equal pairs.

    Absent for odd n.  The pairing returned is deterministic: equality
    classes sorted by their smallest member, consecutive indices paired
    within each class, so the smaller index of each pair comes first.
    Any other pairing of equal columns is equivalent.
    """
    if a.n % 2:
        return None
    groups: dict[int, list[int]] = {}
    for j, column in enumerate(_transpose(a.row_masks, a.n)):
        groups.setdefault(column, []).append(j)
    classes = sorted(groups.values(), key=lambda g: g[0])
    if any(len(g) % 2 for g in classes):
        return None
    pairs = tuple((g[k], g[k + 1]) for g in classes for k in range(0, len(g), 2))
    return KahlerPairing(pairs=pairs)


def spin_membership(m: BottMatrix | PMatrix) -> tuple[bool, GradedPolyF2, GradedPolyF2]:
    """General Spin test for any Bott matrix or P-matrix: (verdict, w1, raw w2).

    Spin requires w1 = 0 (orientability) and the raw degree-2 part of
    the Stiefel-Whitney product to lie in the span of the theta_j.  On
    masks, factor 1 + c_j (c_j = alpha_j + beta_j) adds c_j to w1 and
    (w1 so far) * c_j to w2; membership row-reduces the theta_j masks.
    """
    p = bott_to_p(m) if isinstance(m, BottMatrix) else m
    d = p.d
    alphas, betas = cocycles(p)
    w1 = w2 = 0
    for a, b in zip(alphas, betas):
        w2 ^= mul_linear(d, w1, a ^ b)
        w1 ^= a ^ b
    spin = not w1 and _theta_matrix(d, alphas, betas).in_row_space(w2)
    return spin, GradedPolyF2.linear(d, w1), decode_degree2(d, w2)


def spin_kahler_closed_form(a: BottMatrix, pairing: KahlerPairing) -> tuple[bool, tuple[int, ...]]:
    """Closed-form Spin test for a Kahler Bott matrix: (verdict, S-vector).

    S_i is the parity of row i summed over the first column of each pair;
    the manifold is Spin iff every row has S_i even or column i of A
    entirely zero (the latter puts x_i^2 in the characteristic ideal).
    Paired columns are equal, so listing a pair the other way round
    picks the other representative and gives the same verdict.  A
    pairing that does not cover the columns with equal pairs raises ValueError.
    """
    n = a.n
    cols = _transpose(a.row_masks, n)
    seen = reps = 0
    for i, j in pairing.pairs:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"pair ({i}, {j}) is not a pair of distinct column indices")
        pair = (1 << i) | (1 << j)
        if seen & pair:
            raise ValueError(f"column index reused in pairing at pair ({i}, {j})")
        seen |= pair
        if cols[i] != cols[j]:
            raise ValueError(
                f"pairing inconsistent with matrix: columns {i + 1} and {j + 1} differ"
            )
        reps |= 1 << i
    if seen != (1 << n) - 1:
        raise ValueError("pairing does not cover every column exactly once")
    s_vector = tuple([(r & reps).bit_count() & 1 for r in a.row_masks])
    spin = all(not s or not c for s, c in zip(s_vector, cols))
    return spin, s_vector


@dataclass(frozen=True)
class ManifoldReport:
    """All verdicts for one Bott matrix, with the w1/w2 witnesses."""

    n: int
    free: bool
    holonomy_full: bool
    w1: GradedPolyF2
    orientable: bool
    kahler: Optional[KahlerPairing]
    w2raw: GradedPolyF2
    spin: bool
    s_vector: Optional[tuple[int, ...]]


def analyze(a: BottMatrix) -> ManifoldReport:
    """Run every decider on one Bott matrix by the P-matrix route.

    This is the reference twin of bott_verdicts: spin_membership decides
    Spin on masks read off the P-matrix, building polynomials only to
    render w1 and w2.  On Kahler inputs the closed-form Spin verdict is
    cross-checked against it; a mismatch can only mean an implementation
    bug and raises InconsistencyError.
    """
    p = bott_to_p(a)
    spin, w1, w2raw = spin_membership(p)
    orientable = w1.is_zero
    pairing = is_kahler(a)
    s_vector: Optional[tuple[int, ...]] = None
    if pairing is not None:
        if not orientable:
            raise InconsistencyError(
                f"Kahler pairing found on a non-orientable matrix {a.to_line()}"
            )
        spin_cf, s_vector = spin_kahler_closed_form(a, pairing)
        if spin_cf != spin:
            raise InconsistencyError(
                f"Spin deciders disagree on {a.to_line()}: "
                f"closed-form={spin_cf}, membership={spin}"
            )
    return ManifoldReport(
        n=a.n,
        # Free, so is_free need not scan: in any nonempty row subset of the
        # P-matrix, the smallest-index row i keeps its diagonal half turn
        # (entry 1) in column i, where every later row has entry 0.
        free=True,
        # Never full: the last row has only its diagonal entry 1, a half
        # turn with no sign flip.
        holonomy_full=False,
        w1=w1,
        orientable=orientable,
        kahler=pairing,
        w2raw=w2raw,
        spin=spin,
        s_vector=s_vector,
    )


def bott_verdicts(n: int, rows: Sequence[int]) -> tuple[bool, bool, bool]:
    """(orientable, kahler, spin) of a Bott matrix given as row masks.

    Bit j of rows[i] is a_ij, so rows[i] has bits only at columns
    i < j < n; BottMatrix.row_masks gives them.  R_i is row i as a set of
    columns and r_i = |R_i|.  This is the fast twin of analyze, with the
    same cross-checks and no polynomials.

    Column j of the Bott P-matrix has alpha_j + beta_j = c_j, the column
    form sum_i a_ij x_i, and theta_j = alpha_j * beta_j
    = x_j^2 + sum_{i<j} a_ij x_i x_j.  So

    * w1 = c_1 + ... + c_n = sum_i r_i x_i: orientable iff every r_i is even;
    * w2 = e2(c_1..c_n) has x_i^2 coefficient C(r_i, 2) and x_i x_l
      coefficient r_i r_l + |R_i & R_l| (i < l), all mod 2;
    * theta_l is the only generator that carries x_l^2, so w2 lies in the
      span of the theta exactly when w2 - sum_l C(r_l, 2) theta_l = 0.
      Subtracting theta_l adds a_il to the x_i x_l coefficient when
      C(r_l, 2) is odd.  With w1 = 0 every r_i is even, r_i r_l vanishes
      and C(r_l, 2) is odd iff r_l = 2 mod 4.  So M(A) is Spin iff w1 = 0
      and |R_i & R_l| + a_il [r_l = 2 mod 4] is even for every i < l,
      that is |R_i & T_l| is even for T_l = R_l plus column l when
      r_l = 2 mod 4 (R_l has no column l itself).

    Kahler (Ishida): n is even and every class of equal columns has even
    size.  Refining {all n columns} by each nonzero row R_i, which splits
    a class c into c & R_i and the rest, ends at those classes.  An odd
    class always splits off an odd part and so never heals: the test
    stops at the first odd c & R_i.  is_kahler, which groups the
    transposed columns in a dict, is the independent twin.  An orientable
    input returns through settle, which on Kahler inputs checks the
    membership verdict against the closed form; Kahler columns on a
    matrix with an odd row raise InconsistencyError.  Spin starts as the
    orientability verdict and is only ever cleared, so it never holds
    without it.
    """
    orientable = True
    for r in rows:
        if r.bit_count() & 1:
            orientable = False
            break
    kahler = not n & 1
    if kahler:
        classes = [(1 << n) - 1]  # rest first: column 0, in no R_i, stays in classes[0]
        for r in rows:
            if not r:
                continue
            split = []
            for c in classes:
                part = c & r
                if part.bit_count() & 1:
                    kahler = False
                    break
                if part != c:
                    split.append(c ^ part)
                if part:
                    split.append(part)
            if not kahler:
                break
            classes = split
    spin = orientable
    if orientable:
        for l in range(1, n):
            t = rows[l] | ((rows[l].bit_count() & 2) << (l - 1))
            if not t:
                continue
            for r in rows[:l]:
                if (r & t).bit_count() & 1:
                    spin = False
                    break
            if not spin:
                break
    if not orientable:
        if kahler:
            raise InconsistencyError(
                f"Kahler columns on the non-orientable matrix {mask_line(n, rows)}"
            )
        return False, False, False
    return settle(n, rows, classes if kahler else None, spin)


def settle(
    n: int, rows: Sequence[int], classes: Optional[list[int]], spin: bool
) -> tuple[bool, bool, bool]:
    """(orientable, kahler, spin) of an orientable Bott matrix, from its deciders.

    classes are the final classes of bott_verdicts' Kahler refinement of
    rows, the class of column 0 (the zero columns) first, or None when
    the matrix is not Kahler; spin is the pair-test verdict.  On Kahler
    input the closed form of spin_kahler_closed_form is evaluated (every
    other member of a class, in index order, starts a pair), and
    InconsistencyError is raised when it differs from spin.  bott_verdicts
    returns through here, and the census's bottom-up walk hands it every
    Kahler matrix with the classes and the Spin verdict it carries.
    """
    if classes is not None:
        reps = 0
        for c in classes:
            while c:  # every other member, in index order, starts a pair
                reps |= c & -c
                c &= c - 1
                c &= c - 1
        zero = classes[0]
        spin_cf = True
        for i, r in enumerate(rows):  # S_i even, or column i zero
            if (r & reps).bit_count() & 1 and not zero >> i & 1:
                spin_cf = False
                break
        if spin_cf != spin:
            raise InconsistencyError(
                f"Spin deciders disagree on {mask_line(n, rows)}: "
                f"closed-form={spin_cf}, membership={spin}"
            )
    return True, classes is not None, spin
