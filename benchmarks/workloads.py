"""Seeded inputs and correctness checks for the realbott benchmark.

Nothing here measures time.  Inputs come from ``random.Random(seed)`` as
plain digit grids; realbott receives only those matrices.  The checks
lean on facts the harness derives from the entries alone: row parities
(w1), column classes (the Kahler pairing and the closed-form Spin
verdict), and the two verdicts every Bott matrix shares (free, no full
holonomy).  A wrong verdict therefore shows even when two routes inside
realbott agree with each other.
"""

from __future__ import annotations

import random

# Census counts pinned in the README, one CSV row per dimension.
REFERENCE_ROWS = {
    1: "1,1,1,0,1,0,0",
    2: "2,2,1,1,1,1,0",
    3: "3,8,2,0,2,0,0",
    4: "4,64,8,6,8,6,0",
    5: "5,1024,64,0,30,0,0",
    6: "6,32768,1024,192,176,76,116",
}

Rows = tuple[tuple[int, ...], ...]


def census_row_ok(row) -> bool:
    """Whether a CensusRow matches the pinned reference counts."""
    return REFERENCE_ROWS.get(row.n) == row.to_csv()


def to_text(rows: Rows) -> str:
    return "\n".join(" ".join(str(e) for e in row) for row in rows) + "\n"


def index_of(rows: Rows) -> int:
    """Census index of a Bott matrix: row-major upper cells, first cell the MSB."""
    n = len(rows)
    index = 0
    for i in range(n):
        for j in range(i + 1, n):
            index = (index << 1) | rows[i][j]
    return index


def rows_at(n: int, index: int) -> Rows:
    """Inverse of index_of, so the checks never depend on census.matrix_at."""
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    grid = [[0] * n for _ in range(n)]
    for t, (i, j) in enumerate(reversed(cells)):
        grid[i][j] = (index >> t) & 1
    return tuple(tuple(r) for r in grid)


def random_bott(rng: random.Random, n: int) -> Rows:
    return tuple(
        tuple(rng.getrandbits(1) if j > i else 0 for j in range(n)) for i in range(n)
    )


def planted_kahler(rng: random.Random, n: int) -> Rows:
    """Random Bott matrix whose columns split into equal pairs (n even).

    Columns are matched at random; both columns of a pair (j, k), j < k,
    get the same random bits in the rows above j, which keeps the matrix
    strictly upper triangular.
    """
    order = list(range(n))
    rng.shuffle(order)
    grid = [[0] * n for _ in range(n)]
    for m in range(0, n, 2):
        j, k = sorted(order[m : m + 2])
        for i in range(j):
            grid[i][j] = grid[i][k] = rng.getrandbits(1)
    return tuple(tuple(r) for r in grid)


def random_pmatrix(rng: random.Random, d: int, n: int) -> Rows:
    return tuple(tuple(rng.randrange(4) for _ in range(n)) for _ in range(d))


def planted_free_pmatrix(rng: random.Random, d: int, n: int) -> Rows:
    """d x n P-matrix (n > d) that acts freely: a Bott-shaped d x d block
    (1 on the diagonal, 0/2 above, 0 below) followed by random columns.

    In any row subset the smallest row keeps its diagonal half-turn, so
    every subset acts freely and the freeness scan runs all 2^d - 1 steps.
    """
    return tuple(
        tuple(1 if j == i else (2 * rng.getrandbits(1) if j > i else 0) for j in range(d))
        + tuple(rng.randrange(4) for _ in range(n - d))
        for i in range(d)
    )


def _w1_text(odd_rows: list[int]) -> str:
    return " + ".join(f"x{i + 1}" for i in odd_rows) or "0"


def bott_facts(rows: Rows) -> dict:
    """Verdicts of one Bott matrix that follow from its entries directly.

    The keys are those of ``realbott check --json``.  ``spin`` is present
    only on Kahler inputs, where the closed form in the row parities over
    one representative column per pair decides it.
    """
    n = len(rows)
    odd = [i for i in range(n) if sum(rows[i]) % 2]
    cols = [tuple(rows[i][j] for i in range(n)) for j in range(n)]
    classes: dict[tuple[int, ...], list[int]] = {}
    for j, col in enumerate(cols):
        classes.setdefault(col, []).append(j)
    kahler = n % 2 == 0 and all(len(g) % 2 == 0 for g in classes.values())
    facts = {
        "dimension": n,
        "free": True,
        "holonomyFull": False,
        "orientable": not odd,
        "w1": _w1_text(odd),
        "kahler": kahler,
        "pairing": None,
        "sVector": None,
    }
    if kahler:
        groups = sorted(classes.values(), key=lambda g: g[0])
        pairs = [(g[k], g[k + 1]) for g in groups for k in range(0, len(g), 2)]
        s_vector = [sum(rows[i][j] for j, _ in pairs) % 2 for i in range(n)]
        facts["pairing"] = [[j + 1, k + 1] for j, k in pairs]
        facts["sVector"] = s_vector
        facts["spin"] = all(s == 0 or not any(cols[i]) for i, s in enumerate(s_vector))
    return facts


def pmatrix_facts(rows: Rows, planted_free: bool) -> dict:
    """Entry-level verdicts of a general P-matrix (entries 2 and 3 flip a sign)."""
    odd = [i for i, row in enumerate(rows) if sum(e >= 2 for e in row) % 2]
    facts = {
        "dimension": len(rows[0]),
        "holonomyFull": all(any(e >= 2 for e in row) for row in rows),
        "orientable": not odd,
        "w1": _w1_text(odd),
        "kahler": None,
        "pairing": None,
        "sVector": None,
        "spinMethod": "general",
    }
    if planted_free:
        facts["free"] = True
    return facts


def facts_hold(report: dict, facts: dict) -> bool:
    return all(report.get(key) == value for key, value in facts.items())


def bott_report(rep) -> dict:
    """A ManifoldReport in the field set and order of ``check --json``."""
    kahler = rep.kahler is not None
    return {
        "dimension": rep.n,
        "free": rep.free,
        "holonomyFull": rep.holonomy_full,
        "orientable": rep.orientable,
        "w1": str(rep.w1),
        "w2": str(rep.w2raw),
        "kahler": kahler,
        "pairing": [[i + 1, j + 1] for i, j in rep.kahler.pairs] if kahler else None,
        "sVector": list(rep.s_vector) if kahler else None,
        "spin": rep.spin,
        "spinMethod": "both-agree" if kahler else "general",
    }


def verify_sample_inputs(seed: int, blocks: int = 64) -> list[tuple[int, int]]:
    """(n, census index) pairs: per block of 16, nine uniform n = 6 indices,
    one planted Kahler n = 6 matrix (so the closed-form Spin route and the
    ideal basis run on every seed) and six uniform n = 7 indices.  An n = 7
    request costs about twice an n = 6 one; the uneven split keeps the
    median latency inside the n = 6 cluster instead of on the gap between
    the two."""
    rng = random.Random(seed)
    out: list[tuple[int, int]] = []
    for _ in range(blocks):
        out += [(6, rng.getrandbits(15)) for _ in range(9)]
        out.append((6, index_of(planted_kahler(rng, 6))))
        out += [(7, rng.getrandbits(21)) for _ in range(6)]
    rng.shuffle(out)
    return out


def check_mixed_inputs(seed: int, blocks: int = 12) -> list[tuple[str, Rows, bool]]:
    """(kind, rows, planted_free) triples for the ``check`` stream.

    Per block: two uniform Bott matrices for each n in 2..14, two planted
    Kahler ones for each even n, and for each d in 2..11 two general
    P-matrices with n != d (a random one with n < d, a planted free one
    with n > d).  The composition is fixed; the seed picks the entries
    and the order.
    """
    rng = random.Random(seed)
    out: list[tuple[str, Rows, bool]] = []
    for _ in range(blocks):
        for n in range(2, 15):
            out += [("bott", random_bott(rng, n), False) for _ in range(2)]
            if n % 2 == 0:
                out += [("bott", planted_kahler(rng, n), False) for _ in range(2)]
        for d in range(2, 12):
            out.append(("pmat", random_pmatrix(rng, d, max(1, d - rng.randint(1, 2))), False))
            out.append(("pmat", planted_free_pmatrix(rng, d, d + rng.randint(1, 2)), True))
    rng.shuffle(out)
    return out
