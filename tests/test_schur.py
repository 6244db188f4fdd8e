"""Schur complex assembly: gradings, differentials, classical cases."""

from math import comb

import pytest

from conftest import (generic_matrix_complex, partitions, random_three_term,
                      signed_perm_match)
from schurcx import (GF, RATIONALS, FreeComplex, PolyMatrix, PolyRing,
                     SchurBasis, Tableau, enumerate_standard, exterior_power,
                     homology_ranks_at_point, koszul_complex, schur_complex,
                     symmetric_power, validate_complex)
from schurcx.oracles import column_basis
from schurcx.tableaux import Partition, column_product


def total_degree(basis, t):
    """Sum of the degrees of a tableau's entries under the basis labeling."""
    return sum(basis.degree[v] for col in t for v in col)


def test_tableau_degree_koszul(koszul_xy):
    basis = SchurBasis((1,), koszul_xy)
    assert total_degree(basis, Tableau(((-1, 2),))) == 3
    assert total_degree(basis, Tableau(((1,), (1,)))) == 0
    assert total_degree(basis, Tableau(((-1,),))) == 1
    assert Tableau(((-1, 2),)) in SchurBasis((1, 1), koszul_xy).at(3)
    assert Tableau(((1,), (1,))) in SchurBasis((2,), koszul_xy).at(0)
    assert Tableau(((-1,),)) in basis.at(1)


def test_tableau_degree_range_error(koszul_xy):
    basis = SchurBasis((1,), koszul_xy)
    with pytest.raises(KeyError):
        total_degree(basis, Tableau(((7,),)))
    assert 0 not in basis.position and 0 not in basis.degree


def test_schur_basis_grading(koszul_xy):
    basis = SchurBasis((1, 1), koszul_xy)
    assert basis.min_degree == 1 and basis.max_degree == 3
    assert [len(basis.at(k)) for k in basis.degrees()] == [2, 4, 2]
    for k in basis.degrees():
        for t in basis.at(k):
            assert total_degree(basis, t) == k


def test_exterior_square_of_koszul(koszul_xy):
    s = schur_complex((1, 1), koszul_xy)
    assert s.min_degree == 1
    assert s.ranks == (2, 4, 2)
    assert validate_complex(s) == []


def test_exterior_square_matches_printed_matrices(koszul_xy):
    """The reference presentation of the same complex, up to signed
    permutations of the three bases."""
    s = schur_complex((1, 1), koszul_xy)
    ring = s.ring
    ref_d2 = PolyMatrix.from_strings(
        ring, [["y", "x", "0", "x"], ["0", "y", "x", "-y"]])
    ref_d3 = PolyMatrix.from_strings(
        ring, [["2*x", "0"], ["-y", "x"], ["0", "-2*y"], ["-y", "-x"]])
    assert signed_perm_match(
        (s.differential_from(2), s.differential_from(3)), (ref_d2, ref_d3))


def test_sym3_generic_2x4():
    f = generic_matrix_complex(2, 4)
    s = schur_complex((3,), f)
    assert s.min_degree == 0
    assert s.ranks == (4, 12, 12, 4)
    assert validate_complex(s) == []


def test_exterior_power_one_is_original(koszul_xy):
    assert exterior_power(1, koszul_xy) == koszul_xy
    f = random_three_term(3)
    assert exterior_power(1, f) == f


def test_wrappers_delegate(koszul_xy):
    assert exterior_power(2, koszul_xy) == schur_complex((1, 1), koszul_xy)
    f = generic_matrix_complex(2, 4)
    assert symmetric_power(3, f) == schur_complex((3,), f)
    for power in (exterior_power, symmetric_power):
        for r in (0, -1, True, 2.0):
            with pytest.raises(ValueError):
                power(r, koszul_xy)


def test_zero_differential_gives_empty_image():
    ring = PolyRing(RATIONALS, ("x",))
    f = FreeComplex(ring, 0, (2, 2), (PolyMatrix.zero(ring, 2, 2),))
    s = schur_complex((2,), f)
    for d in s.differentials:
        assert d.is_zero()


def test_single_column_differential_is_matrix_column(koszul_xy):
    basis = SchurBasis((1,), koszul_xy)
    s = schur_complex((1,), koszul_xy)
    for k in basis.degrees():
        if k == 0:
            continue
        d = koszul_xy.differential_from(k)
        image = s.differential_from(k)
        for j, t in enumerate(basis.at(k)):
            _, src = basis.position[t[0][0]]
            expect = {}
            for row, target in enumerate(basis.at(k - 1)):
                _, dst = basis.position[target[0][0]]
                p = d[dst, src]
                if not p.is_zero():
                    expect[row] = p.terms
            assert image.columns[j] == expect


def test_degree_bookkeeping():
    f = random_three_term(0)
    basis = SchurBasis((2, 1), f)
    s = schur_complex((2, 1), f)
    checked = 0
    for k in basis.degrees():
        d = s.differential_from(k)
        if d is None:
            continue
        targets = basis.at(k - 1)
        for j in range(len(basis.at(k))):
            for row, coeff in d.columns[j].items():
                assert coeff
                assert total_degree(basis, targets[row]) == k - 1
                checked += 1
    assert checked > 0  # a complex with zero differentials would check nothing


def test_divided_and_symmetric_coefficients():
    """Rank-1 complexes isolate the multiplicity rules.

    With the odd generator upstairs the squares live upstairs too and the
    differential picks up a factor 2, once from the symmetric row product
    and once from the divided column product.  With the odd generator
    downstairs each square maps out through a single slot.
    """
    ring = PolyRing(RATIONALS, ("x",))
    d = PolyMatrix.from_strings(ring, [["x"]])

    odd_up = FreeComplex(ring, 1, (1, 1), (d,))
    s = symmetric_power(2, odd_up)
    assert (s.min_degree, s.ranks) == (3, (1, 1))
    assert s.differentials[0].to_strings() == [["2*x"]]
    e = exterior_power(2, odd_up)
    assert (e.min_degree, e.ranks) == (2, (1, 1))
    assert e.differentials[0].to_strings() == [["-2*x"]]

    odd_down = FreeComplex(ring, 0, (1, 1), (d,))
    s = symmetric_power(2, odd_down)
    assert (s.min_degree, s.ranks) == (0, (1, 1))
    assert s.differentials[0].to_strings() == [["x"]]
    e = exterior_power(2, odd_down)
    assert (e.min_degree, e.ranks) == (1, (1, 1))
    assert e.differentials[0].to_strings() == [["-x"]]


def test_module_specialization_even():
    ring = PolyRing(RATIONALS, ("x",))
    for n in (1, 2, 3):
        f = FreeComplex(ring, 0, (n,), ())
        for r in range(1, 4):
            for shape in partitions(r):
                s = schur_complex(shape, f)
                count = len(enumerate_standard(shape, 0, n))
                if count == 0:
                    assert s.ranks == (0,)
                else:
                    assert s.min_degree == 0
                    assert s.ranks == (count,)


def test_module_specialization_odd():
    ring = PolyRing(RATIONALS, ("x",))
    for m in (1, 2, 3):
        f = FreeComplex(ring, 1, (m,), ())
        for r in range(1, 4):
            for shape in partitions(r):
                s = schur_complex(shape, f)
                count = len(enumerate_standard(shape, m, 0))
                conjugate_count = len(
                    enumerate_standard(Partition(shape).conjugate(), 0, m))
                assert count == conjugate_count
                total = sum(s.ranks)
                assert total == count


def test_sym_of_even_module_rank():
    ring = PolyRing(RATIONALS, ("x",))
    f = FreeComplex(ring, 0, (3,), ())
    s = schur_complex((4,), f)
    assert s.ranks == (comb(3 + 4 - 1, 4),)


def test_rank_stability_across_differentials():
    ring = PolyRing(RATIONALS, ("x", "y"))
    d_a = PolyMatrix.from_strings(ring, [["x", "y"], ["0", "x"]])
    d_b = PolyMatrix.from_strings(ring, [["y^2", "0"], ["x - y", "1"]])
    f_a = FreeComplex(ring, 0, (2, 2), (d_a,))
    f_b = FreeComplex(ring, 0, (2, 2), (d_b,))
    for shape in ((2,), (1, 1), (2, 1)):
        assert schur_complex(shape, f_a).ranks == \
            schur_complex(shape, f_b).ranks


def test_euler_characteristic_counts():
    f = random_three_term(5)
    labels = SchurBasis((1,), f)
    m = sum(1 for v in labels.position if v < 0)
    n = len(labels.position) - m
    for shape in ((2,), (1, 1), (2, 1), (3,)):
        s = schur_complex(shape, f)
        if s.ranks == (0,):
            continue
        counted = {}
        for t in enumerate_standard(shape, m, n):
            k = total_degree(labels, t)
            counted[k] = counted.get(k, 0) + 1
        chi_ranks = sum((-1) ** k * r
                        for k, r in zip(s.degrees(), s.ranks))
        chi_count = sum((-1) ** k * v for k, v in counted.items())
        assert chi_ranks == chi_count


def test_replace_terms_is_column_product():
    """Replacing a run's first letter, as prefix * (letter + suffix) in one
    product, equals prefix * (letter * suffix)."""
    cases = 0
    for m, n in ((3, 3), (2, 4), (4, 1)):
        for length in range(1, 6):
            for col in column_basis(length, m, n):
                for pos, v in enumerate(col):
                    if pos > 0 and col[pos - 1] == v:
                        continue  # only the first letter of a run is replaced
                    for label in (range(1, n + 1) if v < 0 else range(-m, 0)):
                        expect = None
                        inner = column_product((label,), col[pos + 1:])
                        if inner is not None:
                            outer = column_product(col[:pos], inner[0])
                            if outer is not None:
                                expect = (outer[0], inner[1] * outer[1])
                        got = column_product(col[:pos],
                                             (label,) + col[pos + 1:])
                        assert got == expect, (col, pos, label)
                        cases += 1
    assert cases == 3986


def test_empty_basis_yields_zero_complex():
    ring = PolyRing(RATIONALS, ("x",))
    # wedge^2 of a line, F = 0, and wedge^2 of a line in degree 4
    for shape, f in (((1, 1), FreeComplex(ring, 0, (1,), ())),
                     ((1,), FreeComplex(ring, 0, (0,), ())),
                     ((1, 1), FreeComplex(ring, 4, (1,), ()))):
        s = schur_complex(shape, f)
        assert s == FreeComplex(ring, 0, (0,), ())
        assert validate_complex(s) == []


def test_empty_shape_is_refused():
    # S_() of any F is R itself, which the tableau basis cannot represent;
    # nonzero and zero F alike get the same error
    ring = PolyRing(RATIONALS, ("x", "y"))
    for f in (koszul_complex(ring.gens()), FreeComplex(ring, 0, (0,), ())):
        with pytest.raises(ValueError, match=r"empty shape \(\)"):
            schur_complex((), f)


def test_basis_in_place_of_shape_is_refused():
    f = koszul_complex(PolyRing(RATIONALS, ("x", "y")).gens())
    with pytest.raises(TypeError):
        schur_complex(SchurBasis((2, 1), f), f)


def test_d_squared_zero_small_sweep():
    shapes = [s for r in range(1, 4) for s in partitions(r)]
    ring_q = PolyRing(RATIONALS, ("x", "y"))
    complexes = [koszul_complex(ring_q.gens()), random_three_term(9),
                 generic_matrix_complex(2, 3)]
    for f in complexes:
        for shape in shapes:
            assert validate_complex(schur_complex(shape, f)) == []


def test_d_squared_zero_prime_fields():
    for p in (2, 3):
        ring = PolyRing(GF(p), ("x", "y"))
        f = koszul_complex(ring.gens())
        for shape in ((2, 1), (2, 2), (1, 1, 1)):
            assert validate_complex(schur_complex(shape, f)) == []


def test_d_squared_zero_with_a_third_column_of_height_two():
    # S_(3,3) has three columns of height 2: the only d.d check whose
    # differential reaches an even letter in a tall third column.  A prime
    # field of odd characteristic, since a sign flip is invisible mod 2.
    for field in (RATIONALS, GF(3)):
        f = koszul_complex(PolyRing(field, ("x", "y", "z")).gens())
        assert validate_complex(schur_complex((3, 3), f)) == []


@pytest.mark.parametrize("shape, p, homology", [
    ((2,), 2, [0, 0, 0, 2, 2, 0]),
    ((2, 1), 3, [0, 0, 0, 2, 2, 0, 0, 0]),
])
def test_schur_is_not_homotopy_invariant_when_p_is_at_most_the_size(
        shape, p, homology):
    # Koszul(x,y,z) is split exact at (0,0,1), so over QQ every S_lambda of
    # it is exact there.  Over GF(p) with p <= |lambda| the functor L_lambda
    # need not preserve homotopy equivalence (Dold and Puppe, 1961): at that
    # point F splits into pieces k -> k, and S_(2) sends e^2, for a piece
    # with even source e and odd target o, to 2*e*o, which is 0 over GF(2).
    point = (0, 0, 1)
    for field, want in ((RATIONALS, [0] * len(homology)), (GF(p), homology)):
        k = koszul_complex(PolyRing(field, ("x", "y", "z")).gens())
        assert homology_ranks_at_point(k, point) == [0, 0, 0, 0]
        s = schur_complex(shape, k)
        assert s.min_degree == len(shape) - 1
        assert homology_ranks_at_point(s, point) == want
