"""Polynomial and matrix arithmetic over QQ and GF(p)."""

import itertools
import random
import time
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from conftest import generic_matrix_complex, trial_primes
from schurcx import (GF, RATIONALS, PolyMatrix, PolyRing, mat_generic_rank,
                     mat_rank_exact, schur_complex)
import schurcx.complexes
from schurcx.complexes import random_prime
import schurcx.ring
from schurcx.ring import (Polynomial, SparseEchelon, exact_quotient,
                          format_polynomial, is_prime, mat_mul, parse_polynomial,
                          reduce_terms, scalar_rank)


@pytest.fixture
def qq_xy():
    return PolyRing(RATIONALS, ("x", "y"))


# The elimination kernel's own tests come first: `tests/mutants.py` runs this
# file first, so a kernel mutant that would only slow the later tests down
# fails here, in seconds.

def _random_sparse_rows(rng, field, nrows, ncols):
    rows = [[field.coerce(rng.choice((-3, -1, 1, 2, 5)))
             if rng.random() < 0.3 else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows and ncols and rng.random() < 0.5:
        rows[rng.randrange(nrows)] = [0] * ncols
    if nrows and ncols and rng.random() < 0.5:
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = 0
    if nrows > 1 and rng.random() < 0.5:
        # a combination of two rows, so that elimination must cancel
        a, b = rng.sample(range(nrows), 2)
        rows[a] = [field.coerce(x + 2 * y) for x, y in zip(rows[a], rows[b])]
    return rows


# row i of a matrix as a column key of each order the kernel must accept
_KEYS = {"int": lambda i: i, "negative int": lambda i: -1 - i,
         "tuple": lambda i: (i % 3, -i)}


@pytest.mark.parametrize("key", _KEYS.values(), ids=_KEYS.keys())
@pytest.mark.parametrize("field", [RATIONALS, GF(7)], ids=repr)
def test_elimination_takes_any_ordered_keys(field, key):
    # the kernel compares keys and nothing else: ranks with rows deleted and
    # an early stop agree with Bareiss on the submatrix, and the vectors
    # listed in raised are independent, whichever way the rows are keyed
    rng = random.Random(11)
    ring = PolyRing(field, ("x",))
    for _ in range(40):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = _random_sparse_rows(rng, field, nrows, ncols)
        skip = set(rng.sample(range(nrows), rng.randint(0, nrows - 1)))
        kept = [i for i in range(nrows) if i not in skip]

        def bareiss(cols):
            return mat_rank_exact(PolyMatrix(
                ring, [[ring.constant(rows[i][j]) for j in cols] for i in kept],
                shape=(len(kept), len(cols))))

        full = bareiss(range(ncols))
        stop = rng.choice([None, rng.randint(0, full + 1)])
        vectors = [{key(i): row[j] for i, row in enumerate(rows)}
                   for j in range(ncols)]
        raised = []
        rank = scalar_rank(field, vectors, {key(i) for i in skip}, stop, raised)
        assert rank == (full if stop is None else min(stop, full))
        assert len(raised) == rank == bareiss(raised)
        echelon = SparseEchelon(field)
        kept_vectors = [{key(i): vec[key(i)] for i in kept} for vec in vectors]
        for vec in kept_vectors:
            echelon.insert(vec)
        assert echelon.rank == full
        assert all(max(row) == piv and row[piv] == 1
                   for piv, row in echelon.rows.items())
        assert not any(echelon.reduce(vec) for vec in kept_vectors)


def test_scalar_rank_matches_bareiss():
    rng = random.Random(5)
    for field in (RATIONALS, GF(7)):
        ring = PolyRing(field, ("x",))
        for nrows, ncols in [(0, 4), (4, 0), (0, 0)] + [
                (rng.randint(1, 7), rng.randint(1, 7)) for _ in range(40)]:
            rows = _random_sparse_rows(rng, field, nrows, ncols)
            a = PolyMatrix(ring, [[ring.constant(c) for c in row] for row in rows],
                           shape=(nrows, ncols))
            vectors = [dict(enumerate(row)) for row in rows]
            assert scalar_rank(field, vectors) == mat_rank_exact(a)
            assert scalar_rank(field, a.evaluate((3,))) == mat_rank_exact(a)


def test_add_inverse(qq_xy):
    x = qq_xy.variable("x")
    assert x + -x == qq_xy.zero()


def test_add_collects_like_terms(qq_xy):
    x, y = qq_xy.gens()
    assert (x * y + qq_xy.one()) + x * y == qq_xy.parse("2*x*y + 1")


def test_char_two_addition():
    ring = PolyRing(GF(2), ("x",))
    x = ring.variable("x")
    assert x + x == ring.zero()


def test_difference_of_squares(qq_xy):
    x, y = qq_xy.gens()
    assert (x + y) * (x - y) == x * x - y * y


def test_mul_absorbs_zero(qq_xy):
    p = qq_xy.parse("3*x^2*y - y + 7")
    assert p * qq_xy.zero() == qq_xy.zero()


def test_rational_scalar_cancellation(qq_xy):
    half_x = qq_xy.parse("1/2*x")
    assert half_x * qq_xy.constant(2) == qq_xy.variable("x")


def _typed(terms):
    return {e: (type(c), c) for e, c in terms.items()}


def test_qq_scalars_are_ints_when_integral(qq_xy):
    assert _typed(qq_xy.parse("3*x - 4/2*y + 1/2").terms) == {
        (1, 0): (int, 3), (0, 1): (int, -2), (0, 0): (Fraction, Fraction(1, 2))}
    assert _typed({0: RATIONALS.coerce(Fraction(6, 3))}) == {0: (int, 2)}
    assert _typed({0: RATIONALS.invert(-1)}) == {0: (int, -1)}
    assert _typed({0: RATIONALS.invert(Fraction(1, 3))}) == {0: (int, 3)}
    assert _typed(qq_xy.constant(True).terms) == {(0, 0): (int, 1)}
    assert _typed(qq_xy.constant(0.5).terms) == {(0, 0): (Fraction, Fraction(1, 2))}
    # arithmetic may leave an integral Fraction; it prints as the int
    for terms in ({(1, 0): 2, (0, 1): -1, (0, 0): 1},
                  {(1, 0): Fraction(2), (0, 1): Fraction(-1), (0, 0): Fraction(1)}):
        assert format_polynomial(qq_xy, terms) == "2*x - y + 1"


def test_eval_direct(qq_xy):
    p = qq_xy.parse("x^2 - y^2")
    assert p.evaluate((3, 2)) == 5


def test_eval_zero(qq_xy):
    assert qq_xy.zero().evaluate((11, -4)) == 0


def test_eval_fraction_point(qq_xy):
    p = qq_xy.parse("x*y")
    assert p.evaluate((Fraction(1, 2), 4)) == 2


def test_eval_is_hom():
    rng = random.Random(3)
    for field in (RATIONALS, GF(5)):
        ring = PolyRing(field, ("x", "y", "z"))
        for _ in range(25):
            a, b, c = (_random(ring, rng) for _ in range(3))
            pt = [rng.randint(-4, 4) for _ in range(3)]
            lhs = (a * b + c).evaluate(pt)
            rhs = field.coerce(a.evaluate(pt) * b.evaluate(pt) + c.evaluate(pt))
            assert lhs == rhs


def _random(ring, rng):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(0, 2) for _ in ring.variables)
        terms[exps] = terms.get(exps, 0) + rng.randint(-5, 5)
    return ring.polynomial(terms)


def test_ring_axioms_random():
    rng = random.Random(14)
    for field in (RATIONALS, GF(2), GF(7)):
        ring = PolyRing(field, ("x", "y"))
        for _ in range(20):
            a, b, c = (_random(ring, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_parse_round_trip(qq_xy):
    for text in ("2*x", "-y", "1/2*x^2*y - 1", "x^3 - 2*x*y + y^2 - 5"):
        p = parse_polynomial(qq_xy, text)
        assert parse_polynomial(qq_xy, format_polynomial(qq_xy, p.terms)) == p


def test_format_round_trip_random():
    rng = random.Random(70)
    for field in (RATIONALS, GF(3)):
        ring = PolyRing(field, ("x", "y", "z"))
        for _ in range(40):
            p = _random(ring, rng)
            assert ring.parse(format_polynomial(ring, p.terms)) == p


def test_parse_whitespace(qq_xy):
    assert qq_xy.parse(" x +  2* y ") == qq_xy.parse("x+2*y")


def test_parse_non_canonical_text():
    for field in (RATIONALS, GF(3)):
        ring = PolyRing(field, ("x", "y"))
        x, y = ring.gens()
        cases = {
            "2*3*x": 6 * x,
            "x*x^2*y": x ** 3 * y,
            "1/2*2*x": Fraction(1, 2) * 2 * x,
            "x^0": ring.one(),
            " x+x ": x + x,
            "0*x + y": 0 * x + y,
            "+x - 2": x - 2,
        }
        for text, value in cases.items():
            assert ring.parse(text) == value, (field, text)


def test_parse_rejects_garbage(qq_xy):
    for bad in ("x +", "2**x", "w", "x^-1", "1/0", "", "  ", "x^", "*x", "x y",
                "2 x", "1/", "/2", "+", "- -x", "x^2^3"):
        with pytest.raises(ValueError):
            qq_xy.parse(bad)
    with pytest.raises(ValueError):  # 1/3 is not in GF(3), even times 3
        PolyRing(GF(3), ("x",)).parse("3*1/3")


def test_ring_rejects_unreadable_names():
    for bad in ("a-b", "x y", "x^2", "2x", "", "x*y", " x"):
        with pytest.raises(ValueError):
            PolyRing(RATIONALS, (bad,))
    for good in ("x1", "_y", "alpha_2", "X"):
        assert PolyRing(RATIONALS, (good,)).variables == (good,)
    with pytest.raises(ValueError, match="^duplicate variable names$"):
        PolyRing(RATIONALS, ("x", "y", "x"))


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for n in range(10 ** 4):
        trial = n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        assert is_prime(n) == trial, n
    with pytest.raises(ValueError):
        GF(6)
    # strong pseudoprimes to the bases 2..37 and 2..41
    for composite, factor in ((318665857834031151167461, 399165290221),
                              (3317044064679887385961981, 1287836182261)):
        assert composite % factor == 0
        with pytest.raises(ValueError):
            GF(composite)
    assert GF(2 ** 61 - 1).p == 2 ** 61 - 1


def test_polynomial_refuses_bad_exponents():
    ring = PolyRing(RATIONALS, ("x",))
    for exps in ((-1,), (1.5,), (True,), ("a",)):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            ring.polynomial({exps: 1})
    assert ring.polynomial({(2,): 1}) == ring.parse("x^2")


def test_gf_arithmetic():
    f = GF(7)
    assert f.coerce(5 + 4) == 2
    assert f.coerce(3 * 5) == 1
    assert f.invert(3) == 5
    with pytest.raises(ZeroDivisionError):
        f.invert(0)
    assert RATIONALS.invert(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
        RATIONALS.invert(0)


def test_koszul_d1_d2_composes_to_zero(qq_xy):
    x, y = qq_xy.gens()
    d1 = PolyMatrix(qq_xy, [[x, y]])
    d2 = PolyMatrix(qq_xy, [[-y], [x]])
    assert mat_mul(d1, d2).is_zero()


def test_identity_times_a(qq_xy):
    a = PolyMatrix.from_strings(qq_xy, [["x", "y^2"], ["0", "x*y - 1"]])
    assert mat_mul(PolyMatrix.identity(qq_xy, 2), a) == a


def test_a_times_zero(qq_xy):
    a = PolyMatrix.from_strings(qq_xy, [["x", "y^2"], ["0", "x*y - 1"]])
    z = PolyMatrix.zero(qq_xy, 2, 3)
    assert mat_mul(a, z) == PolyMatrix.zero(qq_xy, 2, 3)


def test_empty_matrix_shapes(qq_xy):
    z = PolyMatrix.zero(qq_xy, 0, 3)
    assert z.shape == (0, 3)
    assert mat_mul(z, PolyMatrix.zero(qq_xy, 3, 2)).shape == (0, 2)


def test_rank_at_point_identity_block():
    names = tuple("x%d%d" % (i, j) for i in (1, 2) for j in (1, 2, 3, 4))
    ring = PolyRing(RATIONALS, names)
    rows = [[ring.variable("x%d%d" % (i, j)) for j in (1, 2, 3, 4)]
            for i in (1, 2)]
    a = PolyMatrix(ring, rows)
    pt = [0] * 8
    pt[0] = 1   # x11
    pt[5] = 1   # x22
    assert scalar_rank(RATIONALS, a.evaluate(pt)) == 2


def test_rank_at_point_zero_matrix(qq_xy):
    a = PolyMatrix.zero(qq_xy, 3, 2)
    assert scalar_rank(qq_xy.field, a.evaluate((5, 6))) == 0


def test_rank_at_point_koszul_row(qq_xy):
    x, y = qq_xy.gens()
    a = PolyMatrix(qq_xy, [[x, y]])
    assert scalar_rank(qq_xy.field, a.evaluate((1, 0))) == 1


def test_generic_rank_full():
    names = tuple("x%d%d" % (i, j) for i in (1, 2) for j in (1, 2, 3, 4))
    ring = PolyRing(RATIONALS, names)
    rows = [[ring.variable("x%d%d" % (i, j)) for j in (1, 2, 3, 4)]
            for i in (1, 2)]
    assert mat_generic_rank(PolyMatrix(ring, rows)) == 2


def test_generic_rank_zero(qq_xy):
    assert mat_generic_rank(PolyMatrix.zero(qq_xy, 4, 4)) == 0


def test_specialization_only_drops_rank(qq_xy):
    rng = random.Random(4)
    for _ in range(10):
        rows = [[_random(qq_xy, rng) for _ in range(3)] for _ in range(3)]
        a = PolyMatrix(qq_xy, rows)
        g = mat_generic_rank(a)
        for _ in range(5):
            pt = [rng.randint(-3, 3) for _ in range(2)]
            assert scalar_rank(qq_xy.field, a.evaluate(pt)) <= g


def test_generic_rank_permutation_invariant(qq_xy):
    rng = random.Random(9)
    rows = [[_random(qq_xy, rng) for _ in range(4)] for _ in range(3)]
    a = PolyMatrix(qq_xy, rows)
    base = mat_generic_rank(a)
    perm_rows = PolyMatrix(qq_xy, [rows[2], rows[0], rows[1]])
    shuffled = PolyMatrix(
        qq_xy, [[r[3], r[1], r[0], r[2]] for r in rows])
    assert mat_generic_rank(perm_rows) == base
    assert mat_generic_rank(shuffled) == base
    assert mat_generic_rank(a.transpose()) == base


def test_random_prime_range():
    rng = random.Random(3)
    for _ in range(20):
        q = random_prime(rng)
        assert 1 << 30 <= q < 1 << 31 and is_prime(q)


def test_generic_rank_coefficient_divisible_by_prime():
    ring = PolyRing(RATIONALS, ("x",))
    q = next(trial_primes(0, 1))
    a = PolyMatrix(ring, [[ring.constant(q) * ring.variable("x")]])
    # q*x vanishes mod q: the first trial is a lower bound, a fresh q lifts it
    assert mat_generic_rank(a, trials=1) == 0
    assert mat_generic_rank(a, trials=2) == 1


def test_generic_rank_denominator_equal_to_prime():
    ring = PolyRing(RATIONALS, ("x",))
    q = next(trial_primes(0, 1))
    a = PolyMatrix(ring, [[ring.constant(Fraction(1, q)) * ring.variable("x")]])
    assert mat_generic_rank(a, trials=1) == 1


def test_generic_rank_small_field_stays_below():
    ring = PolyRing(GF(2), ("x",))
    x = ring.variable("x")
    assert mat_generic_rank(PolyMatrix(ring, [[x * x + x]]), trials=5) == 0


def test_generic_rank_stops_at_full_rank(monkeypatch, qq_xy):
    calls = []
    rank = schurcx.complexes.scalar_rank
    monkeypatch.setattr(schurcx.complexes, "scalar_rank",
                        lambda *args: calls.append(1) or rank(*args))
    x, y = qq_xy.gens()
    assert mat_generic_rank(PolyMatrix(qq_xy, [[x, y], [y, x]]), trials=3) == 2
    assert len(calls) == 1
    assert mat_generic_rank(PolyMatrix(qq_xy, [[x, y], [x, y]]), trials=3) == 1
    assert len(calls) == 4


@pytest.mark.parametrize("trials", [True, 2.5, "3", None])
def test_generic_rank_trials_must_be_int(qq_xy, trials):
    with pytest.raises(ValueError, match="trials must be an integer"):
        mat_generic_rank(PolyMatrix.zero(qq_xy, 1, 1), trials=trials)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        mat_generic_rank(PolyMatrix.zero(qq_xy, 1, 1), trials=0)


def test_generic_ranks_of_schur_of_generic_two_by_five():
    s = schur_complex((2, 2, 1), generic_matrix_complex(2, 5))
    assert [mat_generic_rank(d, trials=1) for d in s.differentials] == [
        5, 45, 150, 160]


# integers past the prime range and fractions with large denominators
_SCALARS = st.one_of(
    st.integers(-5, 5),
    st.integers(1 << 31, 1 << 80),
    st.integers(-(1 << 80), -(1 << 31)),
    st.fractions(min_value=-(1 << 40), max_value=1 << 40,
                 max_denominator=1 << 40))
_TERMS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         _SCALARS, max_size=3)


@st.composite
def _qq_matrices(draw):
    """Small matrices over QQ[x, y]; a column may combine the two before it."""
    ring = PolyRing(RATIONALS, ("x", "y"))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cols = [[ring.polynomial(draw(_TERMS)) for _ in range(nrows)]
            for _ in range(ncols)]
    for j in range(2, ncols):
        if draw(st.booleans()):
            c = ring.polynomial(draw(_TERMS))
            cols[j] = [p + c * q for p, q in zip(cols[j - 2], cols[j - 1])]
    return PolyMatrix(ring, zip(*cols), shape=(nrows, ncols))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_qq_matrices())
def test_generic_rank_mod_prime_matches_bareiss(a):
    assert mat_generic_rank(a, trials=2) == mat_rank_exact(a)


def _minor_rank(a):
    """Largest k with a nonzero k x k minor, minors by Laplace expansion."""
    memo = {}

    def minor(rows, cols):
        if not rows:
            return a.ring.one()
        if (rows, cols) not in memo:
            total = a.ring.zero()
            for k, c in enumerate(cols):
                term = a[rows[0], c] * minor(rows[1:], cols[:k] + cols[k + 1:])
                total = total + (term if k % 2 == 0 else -term)
            memo[rows, cols] = total
        return memo[rows, cols]

    return max(k for k in range(min(a.shape) + 1)
               for rows in itertools.combinations(range(a.rows), k)
               for cols in itertools.combinations(range(a.cols), k)
               if not minor(rows, cols).is_zero())


def _random_dependent(ring, rng, nrows, ncols):
    """Random rows whose columns often repeat, vanish or combine others."""
    rows = [[_random(ring, rng) for _ in range(ncols)] for _ in range(nrows)]
    for j in range(ncols):
        kind = rng.random()
        if kind < 0.15:
            for row in rows:
                row[j] = ring.zero()
        elif kind < 0.45 and ncols > 2:
            a, b = rng.sample([k for k in range(ncols) if k != j], 2)
            c = _random(ring, rng)
            for row in rows:
                row[j] = row[a] - c * row[b]
    return PolyMatrix(ring, rows, shape=(nrows, ncols))


def test_exact_rank_agrees_with_generic(qq_xy):
    rng = random.Random(21)
    for _ in range(8):
        rows = [[_random(qq_xy, rng) for _ in range(3)] for _ in range(4)]
        a = PolyMatrix(qq_xy, rows)
        assert mat_rank_exact(a) == mat_generic_rank(a)
    for field in (RATIONALS, GF(2), GF(7)):
        for variables in (("x", "y"), ()):
            ring = PolyRing(field, variables)
            for _ in range(12):
                a = _random_dependent(ring, rng, rng.randint(1, 6),
                                      rng.randint(1, 6))
                rank = mat_rank_exact(a)
                assert rank == _minor_rank(a)
                assert rank == mat_rank_exact(a.transpose())
                # a random point may lose rank only over a finite field
                generic = mat_generic_rank(a)
                assert (generic == rank if field.is_rational or not variables
                        else generic <= rank)


def test_exact_rank_catches_hidden_dependency(qq_xy):
    x, y = qq_xy.gens()
    # second row is x times the first: generic rank 1, never 2
    a = PolyMatrix(qq_xy, [[x, y], [x * x, x * y]])
    assert mat_rank_exact(a) == 1
    assert mat_generic_rank(a) == 1


def test_exact_rank_size_guard(qq_xy):
    big = PolyMatrix.zero(qq_xy, 70, 70)
    with pytest.raises(ValueError):
        mat_rank_exact(big)
    assert mat_rank_exact(PolyMatrix.zero(qq_xy, 64, 64)) == 0
    with pytest.raises(ValueError, match=r"size guard \(64\)"):
        mat_rank_exact(PolyMatrix.zero(qq_xy, 65, 65))


def test_exact_quotient():
    for field in (RATIONALS, GF(7)):
        ring = PolyRing(field, ("x", "y"))

        def quotient(num, den):
            terms = exact_quotient(field, ring.parse(num).terms,
                                   ring.parse(den).terms)
            return Polynomial(ring, terms)

        assert quotient("x^2 - y^2", "x - y") == ring.parse("x + y")
        assert quotient("6*x^2*y + 4*x", "2*x") == ring.parse("3*x*y + 2")
        assert quotient("0", "2*x") == ring.zero()
        for num, den in (("x", "y"), ("x + 1", "x"), ("x^2", "2*x*y")):
            with pytest.raises(ValueError, match="inexact"):
                quotient(num, den)


def test_scalar_rank_gf():
    f = GF(2)
    assert scalar_rank(f, [{0: 1, 1: 1}, {0: 1, 1: 1}]) == 1
    assert scalar_rank(f, [{0: 1}, {0: 1, 1: 1}]) == 2


def test_matrix_to_strings_round_trip(qq_xy):
    rows = [["x - y", "2*y^2"], ["0", "1/3*x"]]
    a = PolyMatrix.from_strings(qq_xy, rows)
    assert PolyMatrix.from_strings(qq_xy, a.to_strings()) == a


def test_power_of_variable_builds_one_monomial():
    ring = PolyRing(GF(32003), ("x", "y"))
    p = ring.parse("x^99999999999*y")
    assert p.terms == {(99999999999, 1): 1}
    assert ring.variable("y") ** 5 == ring.parse("y^5")
    assert (ring.parse("x + 1") ** 3) == ring.parse("x^3 + 3*x^2 + 3*x + 1")


def test_power_must_be_an_int(qq_xy):
    x, _ = qq_xy.gens()
    for k in (True, 1.5, 2.0):
        with pytest.raises(ValueError):
            x ** k
    with pytest.raises(ValueError, match="^negative power$"):
        x ** -1
    assert x ** 0 == 1 and x ** 1 == x


def test_evaluate_huge_exponent_mod_p():
    start = time.monotonic()
    p = 32003
    ring = PolyRing(GF(p), ("x",))
    poly = ring.parse("x^%d + 2" % 10 ** 11)
    for a in (0, 1, 5, 31999):
        # Fermat: a^(10^11) = a^(10^11 mod (p-1)) for a != 0
        want = (pow(a, 10 ** 11 % (p - 1), p) if a else 0) + 2
        assert poly.evaluate((a,)) == want % p
    assert time.monotonic() - start < 1.0


def test_generic_rank_pivots_keep_stored_rows_short(monkeypatch):
    # the 310 x 175 differential of S_(2,2,1) of the generic 2 x 5 matrix,
    # counted in the entries of the stored rows, not in seconds; pivoting on
    # the smallest row stored 8,906
    d = schur_complex((2, 2, 1), generic_matrix_complex(2, 5)).differentials[3]
    echelons = {}
    insert = schurcx.ring.SparseEchelon.insert

    def recording(echelon, vec):
        echelons[id(echelon)] = echelon
        return insert(echelon, vec)

    monkeypatch.setattr(schurcx.ring.SparseEchelon, "insert", recording)
    assert d.shape == (310, 175)
    assert mat_generic_rank(d, trials=1, seed=0) == 160
    stored = sum(len(row) for e in echelons.values() for row in e.rows.values())
    assert stored == 3293 < 8906 / 2


def _quotient_terms(monkeypatch):
    """The term count of each exact quotient computed from now on."""
    terms = []
    quotient = schurcx.ring.exact_quotient

    def counting(*args):
        q = quotient(*args)
        terms.append(len(q))
        return q

    monkeypatch.setattr(schurcx.ring, "exact_quotient", counting)
    return terms


def test_bareiss_pivots_keep_quotients_small(monkeypatch):
    # every differential of S_(2,2) of the generic 2 x 4 matrix, counted in
    # the terms of the exact quotients; updating every column at every step
    # computed 7,173, and pivoting on the smallest row as well 10,633
    s = schur_complex((2, 2), generic_matrix_complex(2, 4))
    terms = _quotient_terms(monkeypatch)
    assert [mat_rank_exact(d) for d in s.differentials] == [1, 7, 21, 19]
    assert len(terms) == 1349
    assert sum(terms) == 2663 < 7173 < 10633


def test_bareiss_leaves_columns_off_the_pivot_row(monkeypatch):
    # no column of a diagonal matrix meets another's pivot row: each is
    # brought up to date once, as its pivot, and never updated; dividing
    # every column at every step took 28 quotients
    ring = PolyRing(RATIONALS, ["x%d" % i for i in range(8)])
    diagonal = PolyMatrix(ring, [[v if i == j else ring.zero()
                                  for j in range(8)]
                                 for i, v in enumerate(ring.gens())])
    terms = _quotient_terms(monkeypatch)
    assert mat_rank_exact(diagonal) == 8
    assert len(terms) == 7 < 28


def test_matrix_stores_only_nonzeros(qq_xy):
    x, y = qq_xy.gens()
    a = PolyMatrix(qq_xy, [[x, qq_xy.zero()], [qq_xy.zero(), x - x]])
    assert a.columns == [{0: x.terms}, {}]
    assert a[0, 1] == qq_xy.zero() and a[1, 1] == qq_xy.zero()
    assert a.entries == [[x, qq_xy.zero()], [qq_xy.zero(), qq_xy.zero()]]
    b = PolyMatrix(qq_xy, [[y, x], [qq_xy.zero(), y]])
    c = mat_mul(PolyMatrix(qq_xy, [[x, y]]), PolyMatrix(qq_xy, [[y], [-x]]))
    assert c.is_zero() and c.columns == [{}]
    assert all(t for m in (a, b, mat_mul(a, b)) for col in m.columns
               for t in col.values())


def test_products_reduce_mod_p_and_drop_zeros():
    ring = PolyRing(GF(3), ("x",))
    x = ring.variable("x")
    a = PolyMatrix(ring, [[x, 2 * x], [2 * x, 2 * x]])
    c = mat_mul(a, PolyMatrix(ring, [[ring.one()], [ring.one()]]))
    # row 0 sums to 3x, zero only mod 3; row 1 sums to 4x = x
    assert c.columns == [{1: x.terms}]
    assert all(0 <= s < 3 for col in c.columns for t in col.values()
               for s in t.values())
    # (x + 1)(x + 2) = x^2 + 3x + 2
    assert ((x + 1) * (x + 2)).terms == {(2,): 1, (0,): 2}


def test_products_drop_cancelled_fractions():
    ring = PolyRing(RATIONALS, ("x",))
    x = ring.variable("x")
    a = PolyMatrix(ring, [[x * Fraction(1, 2), x * Fraction(1, 3)]])
    b = PolyMatrix(ring, [[ring.constant(Fraction(2, 3))], [ring.constant(-1)]])
    c = mat_mul(a, b)
    assert c.columns == [{}] and c.is_zero()
    p = (x + Fraction(1, 2)) * (x - Fraction(1, 2))
    assert p.terms == {(2,): 1, (0,): Fraction(-1, 4)}


def _entry_by_entry_mat_mul(a, b):
    """The oracle: every pair of stored entries multiplied term by term, one
    unreduced term map per output entry."""
    out = PolyMatrix.zero(a.ring, a.rows, b.cols)
    for bcol, ocol in zip(b.columns, out.columns):
        sums = {}
        for k, q in bcol.items():
            for i, p in a.columns[k].items():
                acc = sums.setdefault(i, {})
                for e1, c1 in p.items():
                    for e2, c2 in q.items():
                        e = tuple(map(add, e1, e2))
                        acc[e] = acc.get(e, 0) + c1 * c2
        for i, acc in sums.items():
            terms = reduce_terms(a.ring.field, acc)
            if terms:
                ocol[i] = terms
    return out


def _random_matrix(ring, rng, rows, cols, monomials):
    """Sparse entries of up to three terms from a few monomials, so that
    products often cancel; over QQ a third of the scalars are fractions."""
    def entry():
        if rng.random() < 0.3:
            return ring.zero()
        terms = {}
        for e in rng.sample(monomials, rng.randint(1, min(3, len(monomials)))):
            c = rng.randint(-3, 3)
            if ring.field.is_rational and rng.random() < 0.3:
                c = Fraction(c, rng.randint(2, 5))
            terms[e] = c
        return ring.polynomial(terms)
    return PolyMatrix(ring, [[entry() for _ in range(cols)] for _ in range(rows)],
                      shape=(rows, cols))


def _snapshot(m):
    return [{i: dict(t) for i, t in col.items()} for col in m.columns]


def test_mat_mul_matches_entry_by_entry_oracle():
    rng = random.Random(13)
    nonzero = 0
    for field in (RATIONALS, GF(2), GF(3), GF(32003)):
        for nvars in range(4):
            ring = PolyRing(field, ("x", "y", "z")[:nvars])
            pool = list(itertools.product(range(2), repeat=nvars))
            for _ in range(40):
                monomials = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
                n, k, m = (rng.randint(0, 4) for _ in range(3))
                a = _random_matrix(ring, rng, n, k, monomials)
                b = _random_matrix(ring, rng, k, m, monomials)
                before = _snapshot(a), _snapshot(b)
                c = mat_mul(a, b)
                assert c == _entry_by_entry_mat_mul(a, b)
                assert c.shape == (n, m)
                assert (_snapshot(a), _snapshot(b)) == before
                inputs = {id(t) for x in (a, b) for col in x.columns
                          for t in col.values()}
                for col in c.columns:
                    for t in col.values():
                        assert t and id(t) not in inputs
                        assert all(s and (field.p is None or 0 <= s < field.p)
                                   for s in t.values())
                nonzero += not c.is_zero()
    assert nonzero > 200  # the check is not only on zero products


def test_mat_mul_cancels_only_mod_p():
    # x*x + x*x is 2x^2: zero over GF(2), not over GF(3) or QQ
    for field, want in ((GF(2), {}), (GF(3), {(2,): 2}), (RATIONALS, {(2,): 2})):
        ring = PolyRing(field, ("x",))
        x = ring.variable("x")
        c = mat_mul(PolyMatrix(ring, [[x, x]]), PolyMatrix(ring, [[x], [x]]))
        assert c.columns == ([{}] if not want else [{0: want}])


def test_matrix_round_trips():
    rng = random.Random(12)
    for field in (RATIONALS, GF(5)):
        ring = PolyRing(field, ("x", "y"))
        for nrows, ncols in ((1, 1), (2, 3), (4, 2), (3, 5)):
            a = PolyMatrix(ring, [[_random(ring, rng) for _ in range(ncols)]
                                  for _ in range(nrows)])
            assert PolyMatrix.from_strings(ring, a.to_strings()) == a
            assert a.transpose().transpose() == a
            assert a.transpose().shape == (ncols, nrows)
            assert all(a.transpose()[j, i] == a[i, j]
                       for i in range(nrows) for j in range(ncols))


def test_matrix_constructor_rejects_bad_entries(qq_xy):
    x, y = qq_xy.gens()
    with pytest.raises(ValueError):
        PolyMatrix(qq_xy, [[x, y], [x]])
    other = PolyRing(GF(3), ("x", "y"))
    with pytest.raises(ValueError):
        PolyMatrix(qq_xy, [[x, other.variable("x")]])
    with pytest.raises(ValueError):
        PolyMatrix(qq_xy, [[x, 1]])
    for entries in ([[x, y]], [[x], [y]], []):
        with pytest.raises(ValueError, match=r"^entries do not match shape \(2, 2\)$"):
            PolyMatrix(qq_xy, entries, shape=(2, 2))


def test_polynomials_and_products_refuse_a_ring_mismatch(qq_xy):
    x, y = qq_xy.gens()
    z = PolyRing(GF(3), ("x", "y")).variable("x")
    for op in (lambda: x + z, lambda: x * z, lambda: z - y):
        with pytest.raises(ValueError, match="^ring mismatch$"):
            op()
    a = PolyMatrix(qq_xy, [[x, y]])
    with pytest.raises(ValueError, match="^ring mismatch$"):
        mat_mul(a, PolyMatrix(z.ring, [[z], [z]]))
    with pytest.raises(ValueError, match="^shape mismatch: 1x2 times 1x2$"):
        mat_mul(a, a)


def test_entry_index_out_of_range_raises(qq_xy):
    x, y = qq_xy.gens()
    a = PolyMatrix(qq_xy, [[x, y]])
    assert a[0, 0] == x and a[0, 1] == y
    for ij in ((0, -1), (-1, 0), (0, 2), (1, 0)):
        with pytest.raises(IndexError):
            a[ij]


def test_entry_index_must_be_an_int(qq_xy):
    # the package's integer rule: not float, not bool
    x, y = qq_xy.gens()
    a = PolyMatrix(qq_xy, [[x, y]])
    for ij in ((0.5, 0), (True, 1), (0, True), (0, 0.9)):
        with pytest.raises(TypeError):
            a[ij]


@pytest.mark.parametrize("field", [RATIONALS, GF(7)])
def test_shared_entries_are_never_mutated(field):
    ring = PolyRing(field, ("x", "y"))
    texts = [["x - y", "x - y", "0", "1/3*x^2"],
             ["1/3*x^2", "x - y", "y", "0"],
             ["y", "1/3*x^2", "x - y", "y + 2"]]
    a = PolyMatrix.from_strings(ring, texts)
    cols = a.columns
    assert cols[0][0] is cols[1][0] is cols[1][1] is cols[2][2]
    b = a.transpose()
    mat_mul(a, b)
    mat_mul(b, a)
    a.evaluate((2, Fraction(1, 3)))
    b.evaluate((0, 5))
    mat_rank_exact(a)
    mat_rank_exact(b)
    mat_generic_rank(a, trials=2)
    mat_generic_rank(b, trials=2)
    p, q = a[0, 0], a[0, 3]
    for r in (p + q, p - q, p * q, -p, p ** 3, p + 1, 2 * q, 1 - p, p * p - q):
        assert r.ring == ring
    assert p != q and hash(p) == hash(a[2, 2])
    for i, row in enumerate(texts):
        for j, text in enumerate(row):
            assert a[i, j].terms == parse_polynomial(ring, text).terms
            assert b[j, i].terms == parse_polynomial(ring, text).terms
