"""Shared fixtures: the six-dimensional reference manifold used throughout.

SIXDIM_BOTT is a Bott matrix whose columns pair up as (1,2), (3,4),
(5,6); SIXDIM_P is its P-matrix.  The manifold is orientable and Kahler
but carries no Spin structure, which exercises every decider at once.
"""

import concurrent.futures

import pytest

import realbott.census as census_mod
from realbott import BottMatrix, GradedPolyF2, PMatrix, parse_bott, parse_pmatrix

SIXDIM_BOTT_TEXT = """\
0 0 1 1 1 1
0 0 1 1 1 1
0 0 0 0 1 1
0 0 0 0 1 1
0 0 0 0 0 0
0 0 0 0 0 0
"""

SIXDIM_P_TEXT = """\
1 0 2 2 2 2
0 1 2 2 2 2
0 0 1 0 2 2
0 0 0 1 2 2
0 0 0 0 1 0
0 0 0 0 0 1
"""

KLEIN_TEXT = "0 1 / 0 0"


@pytest.fixture
def sixdim_bott() -> BottMatrix:
    return parse_bott(SIXDIM_BOTT_TEXT)


@pytest.fixture
def sixdim_p() -> PMatrix:
    return parse_pmatrix(SIXDIM_P_TEXT)


@pytest.fixture
def klein_bottle() -> BottMatrix:
    return parse_bott(KLEIN_TEXT)


@pytest.fixture
def census_split(monkeypatch):
    """census_split(k) makes every later run_census with check_oracles split
    its walk k ways: k faked CPUs, and one matrix per worker at least.  The
    pool is real, so k > 1 starts k processes; it returns the sizes of the
    pools built so far."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(census_mod, "SHARE_BITS", 0)

    def split(k: int) -> list[int]:
        monkeypatch.setattr(census_mod.os, "sched_getaffinity", lambda pid: set(range(k)))
        return sizes

    return split


def zero_bott(n: int) -> BottMatrix:
    return BottMatrix(tuple((0,) * n for _ in range(n)))


def identical_columns_matrix(n: int, k: int) -> BottMatrix:
    """Bott matrix with 2k equal nonzero columns and all others zero.

    The last 2k columns carry a single 1 in the first row, so the
    construction needs 2k <= n - 1.
    """
    if k < 1 or 2 * k >= n:
        raise ValueError(
            f"cannot place {2 * k} equal nonzero columns in an "
            f"n={n} strictly upper-triangular matrix"
        )
    return BottMatrix(((0,) * (n - 2 * k) + (1,) * (2 * k),) + ((0,) * n,) * (n - 1))


def indices(exponents) -> tuple[int, ...]:
    """The monomial of an exponent vector: (1, 0, 2), x1x3^2, is (0, 2, 2)."""
    return tuple(i for i, e in enumerate(exponents) for _ in range(e))


def from_exponents(num_vars: int, exponent_vectors) -> GradedPolyF2:
    """A polynomial spelled as exponent vectors, one slot per variable."""
    return GradedPolyF2(num_vars, [indices(v) for v in exponent_vectors])
