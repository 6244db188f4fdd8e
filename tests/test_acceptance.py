"""Full-system checks, each with an explicit wall-clock budget.

These are the heaviest tests in the suite.  Every one pins an exact
expected value: golden outputs for the worked examples, oracle-certified
ranks for the bigger builds, and exhaustive sweeps for the structural laws.
"""

import random
import time
from math import comb

from conftest import (count_semistandard, generic_matrix_complex, partitions,
                      random_three_term, signed_perm_match)
from schurcx import (GF, RATIONALS, FreeComplex, PolyMatrix, PolyRing,
                     Tableau, homology_ranks_at_point, koszul_complex,
                     mat_generic_rank, mat_rank_exact, schur_complex,
                     straighten, validate_complex)
from schurcx.oracles import is_standard
from schurcx.tableaux import _exchange


def test_straightening_golden():
    start = time.monotonic()
    t = Tableau.from_entries(
        (3, 3, 2),
        [[1, 1, -3], [1, 2, -2], [1, 3, -2], [2, 1, 2], [2, 2, 1],
         [2, 3, 3], [3, 1, -1], [3, 2, 3]])
    result = straighten(t)
    t_plus = Tableau(((-3, -2, -2), (-1, 1, 3), (2, 3)))
    t_minus = Tableau(((-3, -2, -2), (-1, 2, 3), (1, 3)))
    assert result == {t_plus: 1, t_minus: -1}
    for key in result:
        assert is_standard(key)
    assert time.monotonic() - start < 1.0


def test_exchange_relation_signs():
    start = time.monotonic()
    # the relation at the first violation of the pair is -pair - a + b, so
    # pair = -a + b: each term comes back times the lead -1
    a = ((-1, 1, 3), (2, 3))
    b = ((-1, 2, 3), (1, 3))
    assert _exchange((1, 2, 3), (-1, 3)) == ((a, 1), (b, -1))
    assert time.monotonic() - start < 1.0


def test_wedge_square_of_koszul_presentation():
    start = time.monotonic()
    ring = PolyRing(RATIONALS, ("x", "y"))
    f = koszul_complex(ring.gens())
    s = schur_complex((1, 1), f)
    assert s.min_degree == 1
    assert s.ranks == (2, 4, 2)

    ref_d2 = PolyMatrix.from_strings(
        ring, [["y", "x", "0", "x"], ["0", "y", "x", "-y"]])
    ref_d3 = PolyMatrix.from_strings(
        ring, [["2*x", "0"], ["-y", "x"], ["0", "-2*y"], ["-y", "-x"]])
    d2, d3 = s.differential_from(2), s.differential_from(3)

    matched = signed_perm_match((d2, d3), (ref_d2, ref_d3))

    # the fallback facts hold regardless of the search result
    assert validate_complex(s) == []
    reference = FreeComplex(ring, 1, (2, 4, 2), (ref_d2, ref_d3))
    assert validate_complex(reference) == []
    rng = random.Random(101)
    for _ in range(5):
        point = [rng.randint(-9, 9) for _ in range(2)]
        assert homology_ranks_at_point(s, point) == \
            homology_ranks_at_point(reference, point)

    assert matched
    assert time.monotonic() - start < 10.0


def test_cubic_power_of_generic_two_by_four():
    start = time.monotonic()
    s = schur_complex((3,), generic_matrix_complex(2, 4))
    assert s.min_degree == 0
    assert s.ranks == (4, 12, 12, 4)
    assert validate_complex(s) == []

    generic = [mat_generic_rank(d, trials=3, seed=0)
               for d in s.differentials]
    assert generic == [4, 8, 4]
    # certify the probabilistic answer by fraction-free elimination
    assert [mat_rank_exact(d) for d in s.differentials] == [4, 8, 4]

    d_rank = {s.min_degree + i + 1: r for i, r in enumerate(generic)}
    homology = [s.ranks[k] - d_rank.get(k, 0) - d_rank.get(k + 1, 0)
                for k in s.degrees()]
    assert homology == [0, 0, 0, 0]
    assert time.monotonic() - start < 60.0


def test_differentials_square_to_zero_all_fields():
    start = time.monotonic()
    shapes = [s for r in range(1, 5) for s in partitions(r)]
    for field in (RATIONALS, GF(2), GF(3)):
        ring2 = PolyRing(field, ("x", "y"))
        ring3 = PolyRing(field, ("x", "y", "z"))
        complexes = [koszul_complex(ring2.gens()),
                     koszul_complex(ring3.gens()),
                     generic_matrix_complex(2, 3, field=field)]
        complexes += [random_three_term(seed, field=field)
                      for seed in range(10)]
        for f in complexes:
            for shape in shapes:
                assert validate_complex(schur_complex(shape, f)) == []
    assert time.monotonic() - start < 300.0


def test_classical_dimension_formulas():
    start = time.monotonic()
    ring = PolyRing(RATIONALS, ("x",))
    for n in range(1, 5):
        f = FreeComplex(ring, 0, (n,), ())
        for r in range(1, 5):
            for shape in partitions(r):
                s = schur_complex(shape, f)
                rank = sum(s.ranks)
                assert rank == count_semistandard(shape, n)
        for r in range(1, 6):
            assert sum(schur_complex((1,) * r, f).ranks) == comb(n, r)
            assert sum(schur_complex((r,), f).ranks) == comb(n + r - 1, r)
    assert time.monotonic() - start < 30.0
