"""Tests for the exact Euclidean-motion oracle."""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realbott.bottcore as bottcore_mod
import realbott.euclid as euclid_mod
from realbott import (
    EuclideanMotion,
    acts_freely,
    bott_to_p,
    bott_verdicts,
    check_against_rows,
    cocycles,
    element_of,
    enumerate_bott,
    free_at_subset,
    generators,
    matrix_at,
    orientable_by_motions,
    parse_bott,
    subset_columns,
)
from realbott.census import cell_count

from conftest import SIXDIM_BOTT_TEXT, zero_bott


class TestEuclideanMotion:
    def test_validation(self):
        with pytest.raises(ValueError):
            EuclideanMotion((1, 2), (0, 0))
        with pytest.raises(ValueError):
            EuclideanMotion((1,), (0, 0))

    @pytest.mark.parametrize(
        "signs, trans2, message",
        [
            ((1.0,), (0,), "signs must be"),
            ((-1.0, 1), (0, 1), "signs must be"),
            (("1",), (0,), "signs must be"),
            ((1,), (0.5,), "doubled translations must be ints"),
            ((1, 1), (1, 2.0), "doubled translations must be ints"),
        ],
    )
    def test_non_int_entries_rejected(self, signs, trans2, message):
        with pytest.raises(ValueError, match=message):
            EuclideanMotion(signs, trans2)

    def test_bool_entries_are_ints(self):
        g = EuclideanMotion((True,), (True,))
        assert g == EuclideanMotion((1,), (1,))
        assert g.has_no_fixed_point()

    def test_compose_with_identity(self):
        g = EuclideanMotion((1, -1), (1, 3))
        e = EuclideanMotion.identity(2)
        assert g.compose(e) == g
        assert e.compose(g) == g

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ValueError):
            EuclideanMotion.identity(2).compose(EuclideanMotion.identity(3))

    def test_square_of_glide(self):
        # half-step along coordinate 1 with a flip of coordinate 2
        g = EuclideanMotion((1, -1), (1, 0))
        assert g.compose(g) == EuclideanMotion((1, 1), (2, 0))

    def test_fixed_point_parity(self):
        # free iff some coordinate keeps sign +1 under an odd half-step
        assert EuclideanMotion((1, -1), (1, 0)).has_no_fixed_point()
        assert not EuclideanMotion((-1, 1), (1, 2)).has_no_fixed_point()
        assert not EuclideanMotion.identity(3).has_no_fixed_point()


class TestGenerators:
    def test_zero_matrix(self):
        s1, s2 = generators(zero_bott(2))
        assert s1 == EuclideanMotion((1, 1), (1, 0))
        assert s2 == EuclideanMotion((1, 1), (0, 1))

    def test_klein_bottle(self, klein_bottle):
        s1, s2 = generators(klein_bottle)
        assert s1 == EuclideanMotion((1, -1), (1, 0))
        assert s2 == EuclideanMotion((1, 1), (0, 1))

    def test_squares_are_unit_translations(self, sixdim_bott):
        for i, s in enumerate(generators(sixdim_bott)):
            expected = EuclideanMotion(
                (1,) * 6, tuple(2 if j == i else 0 for j in range(6))
            )
            assert s.compose(s) == expected

    def test_squares_exhaustive_small_n(self):
        for n in (1, 2, 3):
            for a in enumerate_bott(n):
                for i, s in enumerate(generators(a)):
                    sq = s.compose(s)
                    assert sq.signs == (1,) * n
                    assert sq.trans2 == tuple(2 if j == i else 0 for j in range(n))

    def test_matches_tuple_grid_exhaustive_small_n(self):
        # s_i flips coordinate j exactly where row i of the 0/1 grid has a 1
        for n in (1, 2, 3, 4, 5):
            for a in enumerate_bott(n):
                for i, (s, row) in enumerate(zip(generators(a), a.rows)):
                    assert s.signs == tuple(-1 if e else 1 for e in row)
                    assert s.trans2 == tuple(int(j == i) for j in range(n))


class TestElementOf:
    def test_empty_subset(self, klein_bottle):
        assert element_of(klein_bottle, ()) == EuclideanMotion.identity(2)

    def test_singleton(self, klein_bottle):
        assert element_of(klein_bottle, [0]) == generators(klein_bottle)[0]

    def test_pair_exact_value(self, klein_bottle):
        # s1 . s2 on the Klein bottle: the flip of coordinate 2 carries
        # the half-step of s2 to -1/2
        g = element_of(klein_bottle, [0, 1])
        assert g == EuclideanMotion((1, -1), (1, -1))

    def test_index_validation(self, klein_bottle):
        with pytest.raises(ValueError):
            element_of(klein_bottle, [2])


class TestActsFreely:
    def test_requires_nonempty(self, klein_bottle):
        with pytest.raises(ValueError):
            acts_freely(klein_bottle, ())

    def test_pure_half_translation(self, sixdim_bott):
        assert acts_freely(sixdim_bott, [sixdim_bott.n - 1])

    def test_exhaustive_agreement_small_n(self):
        for n in (1, 2, 3, 4):
            for a in enumerate_bott(n):
                p = bott_to_p(a)
                for mask in range(1, 1 << n):
                    subset = [i for i in range(n) if (mask >> i) & 1]
                    assert acts_freely(a, subset) == free_at_subset(p, mask)
                    assert acts_freely(a, subset)  # Bott actions are free


class TestHolonomyMatrix:
    def test_empty_subset(self, sixdim_bott):
        assert element_of(sixdim_bott, ()).signs == (1,) * 6

    def test_klein_bottle(self, klein_bottle):
        assert element_of(klein_bottle, [0]).signs == (1, -1)

    def test_sixdim_first_row(self, sixdim_bott):
        assert element_of(sixdim_bott, [0]).signs == (1, 1, -1, -1, -1, -1)

    def test_matches_cocycle_prediction(self):
        for n in (1, 2, 3):
            for a in enumerate_bott(n):
                alphas, betas = cocycles(bott_to_p(a))
                for mask in range(1 << n):
                    subset = [i for i in range(n) if (mask >> i) & 1]
                    predicted = tuple(
                        -1 if ((alphas[j] ^ betas[j]) & mask).bit_count() & 1 else 1
                        for j in range(n)
                    )
                    assert element_of(a, subset).signs == predicted


def subset_of(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if (mask >> i) & 1]


class TestSubsetMotions:
    def test_matches_element_of_exhaustive_n_le_4(self):
        # exactly the sorted product, translations included
        for n in (1, 2, 3, 4):
            for a in enumerate_bott(n):
                signs, trans2 = subset_columns(generators(a))
                assert [len(col) for col in signs + trans2] == [1 << n] * (2 * n)
                for mask in range(1 << n):
                    g = element_of(a, subset_of(mask, n))
                    assert tuple(col[mask] for col in signs) == g.signs
                    assert tuple(col[mask] for col in trans2) == g.trans2

    def test_check_visits_each_subset_once(self, sixdim_bott, monkeypatch):
        # at 4 subsets per chunk the oracle reads the kernel once, and its
        # 16 chunks cover every mask once, in ascending order
        monkeypatch.setattr(bottcore_mod, "FREE_CHUNK_BITS", 2)
        calls, seen = [], []
        real = euclid_mod.free_chunks

        def spy(p):
            calls.append(p.d)
            for c, chunk in enumerate(real(p)):
                seen.extend(range(4 * c, 4 * c + 4))
                yield chunk

        monkeypatch.setattr(euclid_mod, "free_chunks", spy)
        assert check_against_rows(sixdim_bott) == []
        assert calls == [6]
        assert seen == list(range(64))

    @staticmethod
    def flip_at(monkeypatch, bad_masks):
        # the kernel's lane for each bad mask flipped, at whatever chunk width
        real = euclid_mod.free_chunks

        def flipped(p):
            width = 1 << min(p.d, bottcore_mod.FREE_CHUNK_BITS)
            for c, chunk in enumerate(real(p)):
                yield chunk ^ sum(1 << (m - c * width) for m in bad_masks if m // width == c)

        monkeypatch.setattr(euclid_mod, "free_chunks", flipped)

    def test_sabotage_names_the_mask(self, sixdim_bott, monkeypatch):
        self.flip_at(monkeypatch, {0x2A})
        assert check_against_rows(sixdim_bott) == [
            f"freeness mismatch on {sixdim_bott.to_line()} subset 0x2a: "
            "motion True, rows False"
        ]

    def test_messages_in_ascending_mask_order(self, sixdim_bott, monkeypatch):
        # reported in mask order, whatever order a walk builds the motions in;
        # at 8 subsets per chunk the two masks sit in chunks 4 and 7
        monkeypatch.setattr(bottcore_mod, "FREE_CHUNK_BITS", 3)
        self.flip_at(monkeypatch, {0x20, 0x3F})
        problems = check_against_rows(sixdim_bott)
        assert len(problems) == 2
        assert "subset 0x20:" in problems[0]
        assert "subset 0x3f:" in problems[1]

    @pytest.mark.parametrize("row, col", [(0, 2), (2, 4), (3, 5), (5, 0)])
    def test_holonomy_sabotage_names_each_mask(self, sixdim_bott, monkeypatch, row, col):
        # flipping bit `row` of the alpha form of column `col` changes the
        # predicted sign of that column exactly at the masks holding `row`
        real = euclid_mod.cocycles

        def flipped(p):
            alphas, betas = real(p)
            alphas[col] ^= 1 << row
            return alphas, betas

        monkeypatch.setattr(euclid_mod, "cocycles", flipped)
        expected = []
        for mask in range(64):
            if (mask >> row) & 1:
                signs = element_of(sixdim_bott, subset_of(mask, 6)).signs
                cocycle = tuple(-s if j == col else s for j, s in enumerate(signs))
                expected.append(
                    f"holonomy mismatch on {sixdim_bott.to_line()} subset {mask:#x}: "
                    f"motion {signs}, cocycle {cocycle}"
                )
        assert check_against_rows(sixdim_bott) == expected

    def test_even_translations_are_freeness_mismatches(self, sixdim_bott, monkeypatch):
        # s_i translating by 2 e_i (a whole step) leaves every motion a fixed
        # point, while the rows still call every subset free
        real = euclid_mod.generators

        def whole_steps(a):
            return tuple(
                EuclideanMotion(g.signs, tuple(2 * t for t in g.trans2)) for g in real(a)
            )

        monkeypatch.setattr(euclid_mod, "generators", whole_steps)
        assert check_against_rows(sixdim_bott) == [
            f"freeness mismatch on {sixdim_bott.to_line()} subset {mask:#x}: "
            "motion False, rows True"
            for mask in range(1, 64)
        ]

    def test_flipped_generator_sign_is_holonomy_mismatches(self, sixdim_bott, monkeypatch):
        # s_1 also flipping coordinate 2 changes the motion's sign there at
        # every mask holding s_1; coordinate 1 keeps each such motion free
        real = euclid_mod.generators

        def flipped(a):
            s1, *rest = real(a)
            signs = (s1.signs[0], -s1.signs[1], *s1.signs[2:])
            return (EuclideanMotion(signs, s1.trans2), *rest)

        expected = []  # element_of also reads euclid.generators: built before the patch
        for mask in range(1, 64, 2):
            cocycle = element_of(sixdim_bott, subset_of(mask, 6)).signs
            motion = (cocycle[0], -cocycle[1], *cocycle[2:])
            expected.append(
                f"holonomy mismatch on {sixdim_bott.to_line()} subset {mask:#x}: "
                f"motion {motion}, cocycle {cocycle}"
            )
        monkeypatch.setattr(euclid_mod, "generators", flipped)
        assert check_against_rows(sixdim_bott) == expected


class TestSizeGuard:
    def test_limit_is_inclusive(self, monkeypatch):
        # subset_columns is stubbed, so no 2^n motions are ever built
        class Reached(Exception):
            pass

        def spy(gens):
            raise Reached(len(gens))

        monkeypatch.setattr(euclid_mod, "subset_columns", spy)
        with pytest.raises(Reached):
            check_against_rows(zero_bott(euclid_mod.MAX_MOTION_DIM))
        with pytest.raises(ValueError, match="size guard"):
            check_against_rows(zero_bott(euclid_mod.MAX_MOTION_DIM + 1))


class TestOrientableByMotions:
    def test_klein_bottle_and_sixdim(self, klein_bottle, sixdim_bott):
        assert not orientable_by_motions(klein_bottle)
        assert orientable_by_motions(sixdim_bott)

    def test_matches_kernel_exhaustive_n_le_6(self):
        for n in range(1, 7):
            for a in enumerate_bott(n):
                assert orientable_by_motions(a) == bott_verdicts(n, a.row_masks)[0]


class TestCrossCheck:
    def test_sixdim_all_subsets_agree(self, sixdim_bott):
        assert check_against_rows(sixdim_bott) == []

    def test_exhaustive_small_n(self):
        for n in (1, 2, 3, 4, 5):
            for a in enumerate_bott(n):
                assert check_against_rows(a) == []

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.integers(0, (1 << cell_count(n)) - 1).map(
                lambda index: matrix_at(n, index)
            )
        )
    )
    def test_random_up_to_n8(self, a):
        assert check_against_rows(a) == []


@st.composite
def motions(draw, dim=None):
    n = dim if dim is not None else draw(st.integers(1, 5))
    signs = draw(st.tuples(*([st.sampled_from((1, -1))] * n)))
    trans2 = draw(st.tuples(*([st.integers(-4, 4)] * n)))
    return EuclideanMotion(signs, trans2)


@st.composite
def motion_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(motions(dim=n)), draw(motions(dim=n))


@st.composite
def motion_triples(draw):
    n = draw(st.integers(1, 5))
    return tuple(draw(motions(dim=n)) for _ in range(3))


@st.composite
def motion_lists(draw):
    n = draw(st.integers(1, 5))
    return tuple(draw(st.lists(motions(dim=n), min_size=1, max_size=5)))


class TestSubsetColumns:
    @given(motion_lists())
    def test_any_motions_match_sorted_compose(self, gens):
        # arbitrary signs and translations, so both halves of each step are
        # built by the general rule as well as by the x * 1 and x * 0 copies
        signs, trans2 = subset_columns(gens)
        free = euclid_mod._free_flags(signs, trans2)
        assert len(free) == 1 << len(gens)
        for mask, is_free in enumerate(free):
            g = EuclideanMotion.identity(gens[0].dim)
            for i in subset_of(mask, len(gens)):
                g = g.compose(gens[i])
            assert tuple(column[mask] for column in signs) == g.signs
            assert tuple(column[mask] for column in trans2) == g.trans2
            assert is_free is g.has_no_fixed_point()


class TestGroupLaws:
    @given(motion_triples())
    def test_associative(self, triple):
        g, h, k = triple
        assert g.compose(h).compose(k) == g.compose(h.compose(k))

    @given(motions())
    def test_identity_neutral(self, g):
        e = EuclideanMotion.identity(g.dim)
        assert g.compose(e) == g
        assert e.compose(g) == g

    @given(motion_pairs())
    def test_composed_motion_is_ordinary(self, pair):
        # compose skips __post_init__, yet its result is a valid, frozen
        # motion that equals and hashes like a freshly constructed one
        g, h = pair
        r = g.compose(h)
        fresh = EuclideanMotion(r.signs, r.trans2)
        assert r == fresh
        assert hash(r) == hash(fresh)
        assert type(r.signs) is tuple and type(r.trans2) is tuple
        with pytest.raises(FrozenInstanceError):
            r.signs = g.signs
