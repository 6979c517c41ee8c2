"""Unit and property tests for the GF(2) polynomial layer."""

import copy
import functools
import itertools
import pickle
import random
import tracemalloc
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realbott.f2poly as f2poly_mod
from realbott.f2poly import (
    F2Matrix,
    GradedPolyF2,
    decode_degree2,
    degree2_count,
    degree2_index,
    encode_degree2,
    mul_linear,
    truncated_product,
)

from conftest import from_exponents, indices


def poly(num_vars, *terms):
    """A polynomial spelled as exponent vectors: poly(3, (1, 0, 2)) is x1x3^2."""
    return from_exponents(num_vars, terms)


def exponents(m, num_vars: int) -> tuple[int, ...]:
    """The exponent vector of a monomial, the inverse of indices."""
    return tuple(m.count(i) for i in range(num_vars))


def one_plus(num_vars: int, mask: int) -> GradedPolyF2:
    """1 + L for the linear form L with mask bit i as its x_{i+1} coefficient."""
    return GradedPolyF2.one(num_vars) + GradedPolyF2.linear(num_vars, mask)


def truncate(p: GradedPolyF2, max_degree: int) -> GradedPolyF2:
    """Reference for truncated_product: p with every term above max_degree dropped."""
    return GradedPolyF2(p.num_vars, [m for m in p.terms if len(m) <= max_degree])


def monomial_key(m):
    """Reference graded-lex key: total degree first, earlier variables first."""
    return (sum(m), tuple(-e for e in m))


def format_monomial(m):
    """Reference monomial text: juxtaposed powers such as ``x1x3^2``, ``1`` for the unit."""
    if not any(m):
        return "1"
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "".join(parts)


def groupby_monomial(m) -> str:
    """Reference monomial text on index tuples: one itertools.groupby run per variable."""
    parts = []
    for i, run in itertools.groupby(m):
        e = len(list(run))
        parts.append(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}")
    return "".join(parts) or "1"


def reference_product(p: GradedPolyF2, q: GradedPolyF2) -> GradedPolyF2:
    """p * q by the plain double loop over term pairs, cancelling in pairs,
    on exponent vectors."""
    acc = set()
    for m1 in p.terms:
        for m2 in q.terms:
            e1, e2 = exponents(m1, p.num_vars), exponents(m2, q.num_vars)
            acc ^= {tuple(a + b for a, b in zip(e1, e2))}
    return from_exponents(p.num_vars, acc)


@st.composite
def rendering_polys(draw, num_vars=None):
    """Polynomials in d <= 6 variables with exponents 0..3 and 0-12 terms."""
    d = draw(st.integers(0, 6)) if num_vars is None else num_vars
    monomials = st.tuples(*([st.integers(0, 3)] * d))
    return from_exponents(d, draw(st.lists(monomials, max_size=12)))


# The six truncated-product factors of the six-dimensional reference
# manifold: 1 + alpha_j + beta_j with sign forms 0, 0, x1+x2, x1+x2,
# x1+x2+x3+x4, x1+x2+x3+x4, as masks over six variables.
SIXDIM_FORMS = [0b000000, 0b000000, 0b000011, 0b000011, 0b001111, 0b001111]

# theta encodings of the same manifold in the 21 degree-2 coordinates.
SIXDIM_THETAS = [
    poly(6, (2, 0, 0, 0, 0, 0)),
    poly(6, (0, 2, 0, 0, 0, 0)),
    poly(6, (0, 0, 2, 0, 0, 0), (1, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 0)),
    poly(6, (0, 0, 0, 2, 0, 0), (1, 0, 0, 1, 0, 0), (0, 1, 0, 1, 0, 0)),
    poly(
        6,
        (0, 0, 0, 0, 2, 0),
        (1, 0, 0, 0, 1, 0),
        (0, 1, 0, 0, 1, 0),
        (0, 0, 1, 0, 1, 0),
        (0, 0, 0, 1, 1, 0),
    ),
    poly(
        6,
        (0, 0, 0, 0, 0, 2),
        (1, 0, 0, 0, 0, 1),
        (0, 1, 0, 0, 0, 1),
        (0, 0, 1, 0, 0, 1),
        (0, 0, 0, 1, 0, 1),
    ),
]


class TestGradedPolyF2:
    def test_duplicate_terms_cancel(self):
        p = GradedPolyF2(2, [(1, 0), (1, 0)])
        assert p.is_zero
        assert p == GradedPolyF2.zero(2)

    def test_add_is_symmetric_difference(self):
        p = poly(2, (1, 0), (0, 1))
        q = poly(2, (0, 1), (1, 1))
        assert p + q == poly(2, (1, 0), (1, 1))
        assert p + p == GradedPolyF2.zero(2)

    def test_mul_cancels_cross_terms(self):
        x1 = GradedPolyF2.linear(2, 0b01)
        x2 = GradedPolyF2.linear(2, 0b10)
        # (x1 + x2)^2 = x1^2 + x2^2 over GF(2)
        s = x1 + x2
        assert s * s == poly(2, (2, 0), (0, 2))

    def test_mismatched_num_vars(self):
        with pytest.raises(ValueError):
            poly(2, (1, 0)) + poly(3, (1, 0, 0))
        with pytest.raises(ValueError):
            poly(2, (1, 0)) * poly(3, (1, 0, 0))

    def test_bad_monomials_rejected(self):
        # a monomial lists variable indices, each in 0..num_vars - 1
        for num_vars, monomial in ((2, (2,)), (2, (-1, 0)), (3, (3,)), (3, (-1,))):
            with pytest.raises(ValueError, match="variable index outside"):
                GradedPolyF2(num_vars, [monomial])
        # an unsorted monomial is normalized, not rejected; a repeat is a power
        assert GradedPolyF2(3, [(2, 0)]) == GradedPolyF2(3, [(0, 2)])
        assert GradedPolyF2(2, [(1, 1)]) == poly(2, (0, 2))

    @pytest.mark.parametrize("monomial", [(1.5, 0), ("1", 0), (1, 1.0)])
    def test_non_int_exponents_rejected(self, monomial):
        with pytest.raises(ValueError, match="non-int variable index"):
            GradedPolyF2(2, [monomial])

    def test_bool_exponents_become_ints(self):
        p = GradedPolyF2(2, [(True, False)])
        assert p == poly(2, (1, 1))
        assert repr(p) == "GradedPolyF2(2, [(0, 1)])"
        assert GradedPolyF2(2, [(True,)]) == poly(2, (0, 1))
        assert eval(repr(p)) == p

    def test_graded_component(self):
        p = poly(2, (0, 0), (1, 0), (1, 1))
        assert p.graded_component(2) == poly(2, (1, 1))
        assert p.graded_component(0) == GradedPolyF2.one(2)
        assert p.graded_component(5).is_zero
        assert GradedPolyF2.zero(3).graded_component(2).is_zero
        with pytest.raises(ValueError):
            p.graded_component(-1)

    def test_rendering_contract(self):
        assert str(GradedPolyF2.zero(4)) == "0"
        assert str(GradedPolyF2.one(4)) == "1"
        w = poly(6, (0,) * 6, (0, 0, 2, 0, 0, 0), (0, 0, 0, 2, 0, 0))
        assert str(w) == "1 + x3^2 + x4^2"
        # degree ascending, then earlier variables first within a degree
        p = poly(3, (0, 2, 0), (1, 1, 0), (0, 0, 1), (0, 0, 0))
        assert str(p) == "1 + x3 + x1x2 + x2^2"

    @given(rendering_polys())
    def test_rendering_matches_reference(self, p):
        order = sorted((exponents(m, p.num_vars) for m in p.terms), key=monomial_key)
        assert [exponents(m, p.num_vars) for m in p.sorted_terms()] == order
        expected = " + ".join(format_monomial(m) for m in order) if order else "0"
        assert str(p) == expected
        assert repr(p) == f"GradedPolyF2({p.num_vars}, {[indices(e) for e in order]!r})"
        assert eval(repr(p)) == p

    def test_rendering_matches_groupby_reference(self):
        """Every monomial of degree <= 4 in 5 variables, alone and in shuffled
        term sets, renders as the groupby reference in graded lex order."""
        monomials = [
            m for k in range(5) for m in itertools.combinations_with_replacement(range(5), k)
        ]
        assert len(monomials) == 126
        for m in monomials:
            assert f2poly_mod.format_monomial(m) == groupby_monomial(m)
        rng = random.Random(5)
        for _ in range(300):
            terms = rng.sample(monomials, rng.randint(1, 40))
            order = sorted(terms, key=lambda m: (len(m), m))
            rng.shuffle(terms)
            p = GradedPolyF2(5, terms)
            assert p.sorted_terms() == order
            assert str(p) == " + ".join(map(groupby_monomial, order))

    @given(st.data())
    def test_product_matches_reference(self, data):
        d = data.draw(st.integers(0, 6), label="num_vars")
        p = data.draw(rendering_polys(d), label="p")
        q = data.draw(rendering_polys(d), label="q")
        assert p * q == reference_product(p, q)


class TestTruncatedProduct:
    def test_single_factor(self):
        f = one_plus(1, 0b1)
        assert truncated_product([f], 2) == f

    def test_square_of_binomial(self):
        f = one_plus(1, 0b1)
        assert truncated_product([f, f], 2) == poly(1, (0,), (2,))

    def test_sixdim_reference(self):
        factors = [one_plus(6, f) for f in SIXDIM_FORMS]
        w = truncated_product(factors, 2)
        assert w == poly(6, (0,) * 6, (0, 0, 2, 0, 0, 0), (0, 0, 0, 2, 0, 0))
        assert str(w) == "1 + x3^2 + x4^2"

    def test_truncation_drops_high_degree(self):
        f = one_plus(2, 0b11)
        full = truncated_product([f, f, f], 6)
        assert truncated_product([f, f, f], 2) == truncate(full, 2)

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError):
            truncated_product([], 2)
        with pytest.raises(ValueError):
            truncated_product([GradedPolyF2.one(2)], -1)

    def test_mismatched_factors_rejected(self):
        with pytest.raises(ValueError):
            truncated_product([GradedPolyF2.one(2), GradedPolyF2.one(3)], 2)

    def test_size_guard_is_inclusive(self, monkeypatch):
        # (1 + x1)(1 + x2)(1 + x3) has 2, 4, then 8 terms
        factors = [one_plus(3, 1 << i) for i in range(3)]
        monkeypatch.setattr(f2poly_mod, "MAX_PRODUCT_TERMS", 8)
        assert len(truncated_product(factors, 3).terms) == 8
        monkeypatch.setattr(f2poly_mod, "MAX_PRODUCT_TERMS", 7)
        with pytest.raises(ValueError, match="size guard exceeded: 8 terms after factor 3 of 3"):
            truncated_product(factors, 3)

    def test_size_guard_stops_mid_product(self, monkeypatch):
        factors = [one_plus(3, 1 << i) for i in range(3)]
        monkeypatch.setattr(f2poly_mod, "MAX_PRODUCT_TERMS", 3)
        with pytest.raises(ValueError, match="4 terms after factor 2 of 3, limit is 3"):
            truncated_product(factors, 3)
        # the guard counts the truncated product: 1 + x1 + x2 passes factor 2
        with pytest.raises(ValueError, match="4 terms after factor 3 of 3"):
            truncated_product(factors, 1)


@st.composite
def linear_forms(draw, max_vars=16):
    d = draw(st.integers(min_value=1, max_value=max_vars))
    mask = draw(st.integers(min_value=0, max_value=(1 << d) - 1))
    return d, mask


@st.composite
def small_polys(draw, num_vars):
    monomials = st.tuples(*([st.integers(0, 2)] * num_vars))
    terms = draw(st.lists(monomials, max_size=4))
    return from_exponents(num_vars, terms)


class TestPolynomialProperties:
    @given(linear_forms())
    def test_frobenius_square(self, form):
        # (1 + L)^2 = 1 + L^2 with all cross terms cancelled
        d, mask = form
        f = one_plus(d, mask)
        lin = GradedPolyF2.linear(d, mask)
        expected = GradedPolyF2.one(d) + (lin * lin).graded_component(2)
        assert truncated_product([f, f], 2) == expected
        squares = from_exponents(
            d,
            [tuple(2 if k == i else 0 for k in range(d)) for i in range(d) if (mask >> i) & 1],
        )
        assert lin * lin == squares

    @settings(max_examples=60)
    @given(st.data())
    def test_truncation_associativity(self, data):
        d = data.draw(st.integers(1, 3), label="num_vars")
        count = data.draw(st.integers(1, 4), label="factors")
        factors = [data.draw(small_polys(d), label=f"f{i}") for i in range(count)]
        max_degree = data.draw(st.integers(0, 4), label="max_degree")
        direct = truncated_product(factors, max_degree)
        split = data.draw(st.integers(1, count), label="split")
        staged_head = truncated_product(factors[:split], max_degree)
        staged = truncated_product([staged_head] + factors[split:], max_degree)
        assert staged == direct
        full = factors[0]
        for f in factors[1:]:
            full = full * f
        assert direct == truncate(full, max_degree)


class TestF2Matrix:
    def test_rref_duplicate_rows(self):
        m = F2Matrix([0b11, 0b11], 2)
        r = m.rref()
        assert r.rows == (0b11,)  # zero rows dropped

    def test_rref_identity(self):
        m = F2Matrix([0b01, 0b10], 2)
        assert m.rref() == m

    def test_rref_deterministic_leftmost_pivot(self):
        m = F2Matrix([0b110, 0b011], 3)
        r = m.rref()
        assert r.rows[0] & 1  # pivot in column 0
        assert r == r.rref()

    def test_row_out_of_range(self):
        with pytest.raises(ValueError):
            F2Matrix([0b100], 2)

    @pytest.mark.parametrize("rows", [["3", 2], [3, 2.9], [2.0]])
    def test_non_int_rows_rejected(self, rows):
        with pytest.raises(ValueError, match="is not an int"):
            F2Matrix(rows, 2)

    def test_bool_rows_become_ints(self):
        m = F2Matrix([True, False], 1)
        assert m.rows == (1, 0)
        assert repr(m) == "F2Matrix([1, 0], ncols=1)"

    def test_sixdim_theta_rank_against_subset_sums(self):
        encodings = [encode_degree2(t) for t in SIXDIM_THETAS]
        # independent oracle: the span size is the number of distinct
        # XOR subset sums, and rank = log2 of that
        sums = {0}
        for enc in encodings:
            sums |= {s ^ enc for s in sums}
        assert len(sums) == 64
        reduced = F2Matrix(encodings, degree2_count(6)).rref()
        assert reduced.nrows == 6

    def test_in_row_space_reference_values(self):
        encodings = [encode_degree2(t) for t in SIXDIM_THETAS]
        reduced = F2Matrix(encodings, degree2_count(6)).rref()
        x1sq = encode_degree2(poly(6, (2, 0, 0, 0, 0, 0)))
        assert reduced.in_row_space(x1sq)
        w2 = encode_degree2(poly(6, (0, 0, 2, 0, 0, 0), (0, 0, 0, 2, 0, 0)))
        assert not reduced.in_row_space(w2)

    def test_in_row_space_trivial(self):
        empty = F2Matrix([], 4)
        assert empty.in_row_space(0)
        assert not empty.in_row_space(0b1)
        with pytest.raises(ValueError):
            empty.in_row_space(1 << 4)

    @settings(max_examples=80)
    @given(st.data())
    def test_rref_preserves_row_space(self, data):
        ncols = data.draw(st.integers(1, 8), label="ncols")
        rows = data.draw(
            st.lists(st.integers(0, (1 << ncols) - 1), max_size=6), label="rows"
        )
        m = F2Matrix(rows, ncols)
        r = m.rref()
        assert r.rref() == r  # idempotent
        for row in rows:
            assert r.in_row_space(row)
        # rank via distinct subset sums of the original rows
        sums = {0}
        for row in rows:
            sums |= {s ^ row for s in sums}
        assert 1 << r.nrows == len(sums)

    @settings(max_examples=80)
    @given(st.data())
    def test_in_row_space_matches_bruteforce(self, data):
        ncols = data.draw(st.integers(1, 7), label="ncols")
        rows = data.draw(
            st.lists(st.integers(0, (1 << ncols) - 1), max_size=5), label="rows"
        )
        v = data.draw(st.integers(0, (1 << ncols) - 1), label="v")
        reduced = F2Matrix(rows, ncols).rref()
        assert reduced.nrows <= 12
        brute = any(
            v == functools.reduce(lambda x, y: x ^ y, combo, 0)
            for size in range(len(reduced.rows) + 1)
            for combo in itertools.combinations(reduced.rows, size)
        )
        assert reduced.in_row_space(v) == brute


class TestReadOnly:
    """Both values are hashable, so no field may change once built, as on
    BottMatrix; pickle and copy still rebuild them."""

    values = [
        (GradedPolyF2(2, [(0,), (0, 1)]), "terms", frozenset()),
        (GradedPolyF2._make(2, frozenset({()})), "num_vars", 3),
        (F2Matrix([1, 2], 2), "rows", (3,)),
        (F2Matrix._make((1,), 1), "ncols", 5),
    ]

    @pytest.mark.parametrize("value, name, new", values)
    def test_assignment_raises(self, value, name, new):
        old, digest = getattr(value, name), hash(value)
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, new)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        # nor may a new name appear; CPython 3.11 raises TypeError here, as its
        # frozen __setattr__ names the class that slots=True replaced
        with pytest.raises((AttributeError, TypeError)):
            value.extra = 1
        assert (getattr(value, name), hash(value)) == (old, digest)

    @pytest.mark.parametrize("value, name, new", values)
    def test_pickle_and_copy_rebuild(self, value, name, new):
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert (twin, hash(twin), repr(twin)) == (value, hash(value), repr(value))


class TestDegree2Coordinates:
    def test_index_enumeration(self):
        d = 6
        assert degree2_count(d) == 21
        seen = [
            degree2_index(d, i, j) for i in range(d) for j in range(i, d)
        ]
        assert seen == list(range(21))

    def test_monomial_order_matches_index(self):
        d = 4
        for i in range(d):
            for j in range(i, d):
                col = degree2_index(d, i, j)
                (m,) = decode_degree2(d, 1 << col).terms
                assert exponents(m, d) == tuple((k == i) + (k == j) for k in range(d))
                assert encode_degree2(GradedPolyF2(d, [m])) == 1 << col

    def test_decode_keeps_no_table(self):
        # one monomial of d = 300 decodes in far less than a full table of
        # the 45,150 degree-2 monomials (about 5 MB as index pairs)
        d = 300
        tracemalloc.start()
        try:
            for col in (0, 1000, degree2_count(d) - 1):
                assert encode_degree2(decode_degree2(d, 1 << col)) == 1 << col
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_encode_decode_roundtrip(self):
        p = poly(4, (2, 0, 0, 0), (0, 1, 0, 1))
        assert decode_degree2(4, encode_degree2(p)) == p
        assert encode_degree2(GradedPolyF2.zero(4)) == 0

    def test_encode_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            encode_degree2(poly(3, (1, 0, 0)))
        with pytest.raises(ValueError):
            degree2_index(3, 2, 1)

    def test_decode_rejects_out_of_range_mask(self):
        # d = 3 has 6 columns, all of them set in the largest valid mask
        every = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
        assert decode_degree2(3, (1 << 6) - 1) == from_exponents(3, every)
        for mask in (-1, 1 << 6):
            with pytest.raises(ValueError, match="out of range for 3 variables"):
                decode_degree2(3, mask)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mul_linear_matches_frozenset_product(self, data):
        d, f = data.draw(linear_forms())
        g = data.draw(st.integers(0, (1 << d) - 1))
        product = GradedPolyF2.linear(d, f) * GradedPolyF2.linear(d, g)
        mask = mul_linear(d, f, g)
        assert mask == encode_degree2(product)
        assert decode_degree2(d, mask) == product


class TestLinearMasks:
    """GradedPolyF2.linear, the one way from a linear-form mask to a polynomial."""

    def test_linear_and_str(self):
        f = GradedPolyF2.linear(3, 0b101)
        assert f == poly(3, (1, 0, 0), (0, 0, 1))
        assert str(f) == "x1 + x3"
        assert str(GradedPolyF2.linear(3, 0)) == "0"

    def test_out_of_range_coeffs(self):
        with pytest.raises(ValueError):
            GradedPolyF2.linear(2, 0b100)
        with pytest.raises(ValueError):
            GradedPolyF2.linear(2, -1)
