"""The Künneth-Schur-Weyl identity: every shape of one size at once.

Over a field of characteristic 0 or p > n, F^⊗n is the sum over |λ| = n of
f^λ copies of S_λ(F) (Berele and Regev, Adv. Math. 64, 1987; k[S_n] is
semisimple), the Künneth formula gives H(F_p^⊗n) = H(F_p)^⊗n, and S_λ
commutes with specialising at a point p.  So, with
P(t) = sum_k dim H_k(F_p) t^k,

    sum_(|λ| = n) f^λ sum_k dim H_k(S_λ(F)_p) t^k = P(t)^n.

Both sides come from `homology_ranks_at_point`, the right one on F alone, so
no tensor power is built.  The identity cannot tell S_λ from S_λ', since
f^λ = f^λ', nor see a change that gives an isomorphic complex; it adds to
the ABW oracle of `tests/test_abw.py` and replaces nothing.
"""

from math import factorial

import pytest

from conftest import generic_matrix_complex
from schurcx import (GF, RATIONALS, FreeComplex, PolyRing,
                     homology_ranks_at_point, koszul_complex, schur_complex)
from schurcx.oracles import _add, degree_power, partitions, standard_count

FIELDS = [RATIONALS, GF(5), GF(7)]
RANK_ONE = (1, 2, 3, 2, 4, 6)  # the 2x3 matrix ((1, 2, 3), (2, 4, 6))


def _case(name, field):
    """(complex, point) of a named case over the field."""
    if name == "koszul":  # split exact at the point
        return koszul_complex(PolyRing(field, ("x", "y", "z")).gens()), (0, 0, 1)
    m = generic_matrix_complex(2, 3, field)  # degrees 1 -> 0
    low = {"matrix 1->0": 0, "matrix 2->1": 1}[name]
    return FreeComplex(m.ring, low, m.ranks, m.differentials), RANK_ONE


def _poincare(f, point):
    """{degree: homology rank} of f at the point, zeros dropped."""
    ranks = homology_ranks_at_point(f, point)
    return {k: h for k, h in zip(f.degrees(), ranks) if h}


def _sides(f, point, n):
    """(f^λ-weighted homology of every S_λ(F) with |λ| = n, P(t)^n)."""
    left = {}
    for shape in partitions(n):
        for k, h in _poincare(schur_complex(shape, f), point).items():
            _add(left, k, standard_count(shape) * h)
    return left, degree_power(_poincare(f, point), n)


def test_hook_lengths_count_standard_tableaux():
    # sum (f^λ)^2 = n!, the dimension of the regular representation of S_n
    for n in range(7):
        assert sum(standard_count(s) ** 2 for s in partitions(n)) == factorial(n)
    assert standard_count((3, 2)) == 5


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("case", ["matrix 1->0", "matrix 2->1", "koszul"])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_weighted_schur_homology_is_the_power_of_the_homology(field, case, n):
    left, right = _sides(*_case(case, field), n)
    assert left == right


def test_the_identity_needs_p_above_n():
    # over GF(2), S_(2) and S_(1,1) of the matrix in degrees 2 -> 1 both
    # have more homology at the point than over QQ, so the sum exceeds
    # P(t)^2; in degrees 1 -> 0 the identity still holds there
    left, right = _sides(*_case("matrix 2->1", GF(2)), 2)
    assert right == {2: 1, 3: 4, 4: 4}
    assert left == {2: 2, 3: 6, 4: 5}
