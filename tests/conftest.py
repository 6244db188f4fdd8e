"""Shared builders for the test suite."""

import itertools
import random

import pytest

from schurcx import FreeComplex, PolyMatrix, PolyRing, RATIONALS, koszul_complex
from schurcx.complexes import random_prime
from schurcx.tableaux import Partition, normalize_column


@pytest.fixture
def koszul_xy():
    ring = PolyRing(RATIONALS, ("x", "y"))
    return koszul_complex(ring.gens())


def partitions(r, cap=None):
    """All partitions of r with parts bounded by cap, largest part first."""
    if r == 0:
        yield ()
        return
    cap = cap or r
    for first in range(min(r, cap), 0, -1):
        for rest in partitions(r - first, first):
            yield (first,) + rest


def trial_primes(seed, nvars):
    """The primes of the draws of generic_ranks(f, seed=seed) over QQ
    (`complexes._draws`), in order, while none divides a denominator of f,
    for a ring of nvars variables."""
    rng = random.Random(seed)
    while True:
        for _ in range(nvars):
            rng.randint(1, 1 << 20)
        yield random_prime(rng)


def random_canonical_column(rng, length, m, n):
    """A canonical column of the given length over {-m..-1, 1..n}, drawn by
    rng from the words that do not vanish."""
    while True:
        entries = []
        for _ in range(length):
            v = rng.randint(1, m + n)
            entries.append(-v if v <= m else v - m)
        norm = normalize_column(entries)
        if norm is not None:
            return norm[0]


def count_semistandard(shape, n):
    """Fillings of the shape by 1..n, strict down columns and weak along
    rows: the standard tableaux with even entries only, counted without
    the package's own standardness test."""
    shape = Partition(shape)
    boxes = [(i, j) for i, c in enumerate(shape.column_lengths())
             for j in range(c)]
    count = 0
    for fill in itertools.product(range(1, n + 1), repeat=len(boxes)):
        grid = {}
        for (i, j), v in zip(boxes, fill):
            grid[i, j] = v
        ok = True
        for (i, j), v in grid.items():
            if (i, j + 1) in grid and grid[i, j + 1] <= v:
                ok = False  # strict down columns
            if (i + 1, j) in grid and grid[i + 1, j] < v:
                ok = False  # weak along rows
        count += ok
    return count


def generic_matrix_complex(nrows, ncols, field=RATIONALS):
    """Two-term complex whose differential is a matrix of indeterminates."""
    names = tuple("x%d%d" % (i, j)
                  for i in range(1, nrows + 1) for j in range(1, ncols + 1))
    ring = PolyRing(field, names)
    rows = [[ring.variable("x%d%d" % (i, j)) for j in range(1, ncols + 1)]
            for i in range(1, nrows + 1)]
    return FreeComplex(ring, 0, (nrows, ncols), (PolyMatrix(ring, rows),))


def signed_permutations(n):
    """Every signed permutation of n items, as (perm, signs)."""
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield perm, signs


def apply_change(d, row_change, col_change):
    """P_row^{-1} d P_col for signed permutation matrices."""
    rperm, rsigns = row_change
    cperm, csigns = col_change
    ring = d.ring
    out = [[None] * d.cols for _ in range(d.rows)]
    for i in range(d.rows):
        for j in range(d.cols):
            p = d[rperm[i], cperm[j]]
            if rsigns[i] * csigns[j] < 0:
                p = ring.zero() - p
            out[i][j] = p
    return PolyMatrix(ring, out, shape=d.shape)


def signed_perm_match(ours, reference):
    """Whether (d2, d3) equals the reference pair up to signed permutations
    of the three bases, the middle one shared."""
    d2, d3 = ours
    r2, r3 = reference
    for ch1 in signed_permutations(2):
        for ch2 in signed_permutations(4):
            if apply_change(d2, ch1, ch2) != r2:
                continue
            for ch3 in signed_permutations(2):
                if apply_change(d3, ch2, ch3) == r3:
                    return True
    return False


def _random_poly(ring, rng):
    p = ring.zero()
    for _ in range(rng.randint(0, 2)):
        exps = tuple(rng.randint(0, 1) for _ in ring.variables)
        c = rng.choice([-2, -1, 1, 2, 3])
        p = p + ring.polynomial({exps: ring.field.coerce(c)})
    return p


def random_three_term(seed, field=RATIONALS, max_rank=3):
    """Random complex F0 <- F1 <- F2 with d1.d2 = 0 by construction.

    d2 hits only the first k coordinates of F1 and d1 kills them, then both
    are sheared by a unimodular change of basis of F1 to hide the block
    structure.
    """
    rng = random.Random(seed)
    ring = PolyRing(field, ("s", "t"))
    r0 = rng.randint(1, max_rank)
    r1 = rng.randint(1, max_rank)
    r2 = rng.randint(1, max_rank)
    k = rng.randint(0, r1)
    d2 = [[_random_poly(ring, rng) if i < k else ring.zero()
           for _ in range(r2)] for i in range(r1)]
    d1 = [[_random_poly(ring, rng) if j >= k else ring.zero()
           for j in range(r1)] for _ in range(r0)]
    for _ in range(2 * r1):
        i, j = rng.randrange(r1), rng.randrange(r1)
        if i == j:
            continue
        c = ring.constant(ring.field.coerce(rng.choice([-1, 1, 2])))
        # d2 <- U d2 and d1 <- d1 U^{-1} with U = I + c E_{ij}
        for col in range(r2):
            d2[i][col] = d2[i][col] + c * d2[j][col]
        for row in range(r0):
            d1[row][j] = d1[row][j] + (ring.zero() - c) * d1[row][i]
    return FreeComplex(
        ring, 0, (r0, r1, r2),
        (PolyMatrix(ring, d1, shape=(r0, r1)),
         PolyMatrix(ring, d2, shape=(r1, r2))))
