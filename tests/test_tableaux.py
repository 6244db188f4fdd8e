"""Tableau combinatorics: standardness, straightening, and its oracles."""

import itertools
import random
from fractions import Fraction
from math import comb, prod

import pytest

from conftest import count_semistandard, partitions, random_canonical_column
from schurcx import SchurBasis, Tableau, enumerate_standard, straighten
from schurcx.oracles import (RelationSpan, column_basis, is_standard,
                             relation_membership, shuffle_mul, tensor_embed)
from schurcx.tableaux import (Partition, _exchange, column_product,
                              normalize_column, theta_image, to_entries,
                              wedge_coproduct)


def test_conjugate_examples():
    assert Partition((3, 2, 2)).conjugate() == (3, 3, 1)
    assert Partition((3, 3, 2)).conjugate() == (3, 3, 2)
    assert Partition((1,)).conjugate() == (1,)


def test_conjugate_involution():
    for r in range(1, 7):
        for shape in partitions(r):
            p = Partition(shape)
            assert p.conjugate().conjugate() == p


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((3, 0))
    for parts in ((2.0, 1), (True,)):  # not float, not bool
        with pytest.raises(ValueError, match="must be integers"):
            Partition(parts)


def test_partition_is_its_tuple():
    p = Partition((2, 1))
    assert isinstance(p, tuple)
    assert p == (2, 1) and hash(p) == hash((2, 1))
    assert Partition(p) == p and type(Partition(p)) is Partition
    assert p.size == 3
    assert repr(p) == "Partition([2, 1])"


def test_column_lengths():
    assert Partition((3, 3, 2)).column_lengths() == (3, 3, 2)
    assert Partition((4, 1)).column_lengths() == (2, 1, 1, 1)


def test_tableau_shape_round_trip():
    t = Tableau(((-2, -2, 1), (-1, 1), (1, 2)))
    assert t.shape == (3, 3, 1)
    assert Tableau.from_entries(t.shape, to_entries(t)) == t


def test_a_tableau_is_its_tuple_of_columns(koszul_xy):
    cols = ((-2, -2, 1), (-1, 1), (1, 2))
    assert Tableau(cols) == cols and hash(Tableau(cols)) == hash(cols)
    assert all(type(t) is tuple for t in enumerate_standard((2, 1), 2, 2))
    assert Tableau(((-1, 2),)) in SchurBasis((1, 1), koszul_xy).at(3)
    assert straighten(((2, 1), (3,))) == straighten(Tableau(((2, 1), (3,))))
    # a plain tuple gets the checks of a tableau read from a file
    for bad, message in [(((1, 0), (2,)), "zero is not a valid entry"),
                         (((1,), ()), "empty column"),
                         (((1,), (2, 3)), "column lengths must weakly decrease")]:
        with pytest.raises(ValueError, match=message):
            straighten(bad)


def test_from_entries_rejects_bad_boxes():
    with pytest.raises(ValueError):
        Tableau.from_entries((2, 1), [[1, 1, 1], [1, 2, 2], [2, 1, 3],
                                      [2, 2, 4]])
    with pytest.raises(ValueError, match="2 records for a shape of 3 boxes"):
        Tableau.from_entries((2, 1), [[1, 1, 1], [1, 2, 2]])
    with pytest.raises(ValueError):
        Tableau.from_entries((2, 1), [[1, 1, 1], [1, 1, 2], [2, 1, 3]])


def test_standard_golden():
    assert is_standard(Tableau(((-2, -2, 1), (-1, 1), (1, 2))))


def test_nonstandard_counterexamples():
    # repeated negative along a row
    assert not is_standard(Tableau(((-2, -2, -3), (-1, -1), (1, 2))))
    # repeated positive down a column
    assert not is_standard(Tableau(((-2, 1, 1), (-1, 1), (1, 2))))
    # repeated negative along the first row
    assert not is_standard(Tableau(((-2, -2, 1), (-1, 1), (-1, 2))))


def test_single_box_standard():
    assert is_standard(Tableau(((1,),)))
    assert is_standard(Tableau(((-1,),)))


def test_normalize_column_swap():
    assert normalize_column((2, 1, 3)) == ((1, 2, 3), -1)


def test_normalize_column_repeated_positive():
    assert normalize_column((1, 1)) is None


def test_normalize_column_negatives_commute():
    assert normalize_column((-1, -2)) == ((-2, -1), 1)
    assert normalize_column((-1, -2, -3)) == ((-3, -2, -1), 1)


def test_normalize_column_mixed_anticommutes():
    assert normalize_column((1, -1)) == ((-1, 1), -1)
    assert normalize_column((-1, 1)) == ((-1, 1), 1)


def test_normalize_column_idempotent_on_canonical():
    rng = random.Random(5)
    for _ in range(50):
        col = random_canonical_column(rng, rng.randint(1, 4), 3, 3)
        assert normalize_column(col) == (col, 1)


def _inversion_sign(word):
    """Independent sign: -1 per crossed pair unless both entries are odd."""
    sign = 1
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j] and not (word[i] < 0 and word[j] < 0):
                sign = -sign
    return sign


def test_normalize_column_sign_matches_inversion_count():
    rng = random.Random(6)
    for _ in range(200):
        col = random_canonical_column(rng, rng.randint(2, 5), 3, 3)
        word = list(col)
        rng.shuffle(word)
        got = normalize_column(word)
        assert got == (col, _inversion_sign(word))


def test_column_is_canonical():
    # a single column is standard exactly when it is canonical
    assert is_standard(Tableau(((-2, -2, 1, 3),)))
    assert not is_standard(Tableau(((1, -2),)))
    assert not is_standard(Tableau(((2, 2),)))


def test_exchange_equal_negatives():
    # a repeated odd letter in a row violates (B) even though entries are equal
    assert _exchange((-1, 1), (-1,)) == ((((-1, -1), (1,)), -1),)


def test_exchange_split_takes_whole_right_column():
    # no entry of the right column is above the offending -1, so the middle
    # block takes all of it: every term refills both columns
    assert _exchange((1, 2), (-1, -1)) == (
        (((-1, -1), (1, 2)), 1), (((-1, 1), (-1, 2)), -1),
        (((-1, 2), (-1, 1)), 1))
    # a violation in the last row keeps the head of the left column
    assert _exchange((1, 3), (1, 2)) == ((((1, 2), (1, 3)), -1),)


def test_wedge_product_divided_square():
    assert column_product((-1,), (-1,)) == ((-1, -1), 2)


def test_wedge_product_repeated_positive_vanishes():
    assert column_product((1,), (1,)) is None


def test_wedge_product_anticommutes_evens():
    assert column_product((2,), (1,)) == ((1, 2), -1)
    assert column_product((1,), (2,)) == ((1, 2), 1)


def test_wedge_product_binomials():
    # e^(2) . e^(1) = 3 e^(3)
    assert column_product((-1, -1), (-1,)) == ((-1, -1, -1), 3)


def test_wedge_coproduct_trivial_split():
    col = (-2, -1, 1)
    assert wedge_coproduct(col, (0, 3)) == {((), col): 1}
    assert wedge_coproduct(col, (3, 0)) == {(col, ()): 1}


def test_wedge_coproduct_size_mismatch():
    with pytest.raises(ValueError):
        wedge_coproduct((-1, 1), (1, 2))


def test_wedge_coproduct_counit_shape():
    out = wedge_coproduct((1, 2, 3), (1, 2))
    assert out == {((1,), (2, 3)): 1, ((2,), (1, 3)): -1, ((3,), (1, 2)): 1}


def test_straighten_golden():
    t = Tableau.from_entries(
        (3, 3, 2),
        [[1, 1, -3], [1, 2, -2], [1, 3, -2], [2, 1, 2], [2, 2, 1],
         [2, 3, 3], [3, 1, -1], [3, 2, 3]])
    t_a = Tableau.from_entries(
        (3, 3, 2),
        [[1, 1, -3], [1, 2, -2], [1, 3, -2], [2, 1, -1], [2, 2, 1],
         [2, 3, 3], [3, 1, 2], [3, 2, 3]])
    t_b = Tableau.from_entries(
        (3, 3, 2),
        [[1, 1, -3], [1, 2, -2], [1, 3, -2], [2, 1, -1], [2, 2, 2],
         [2, 3, 3], [3, 1, 1], [3, 2, 3]])
    assert straighten(t) == {t_a: 1, t_b: -1}


def test_straighten_idempotent_on_standard():
    rng = random.Random(13)
    for r in range(1, 5):
        for shape in partitions(r):
            for t in enumerate_standard(shape, 2, 2):
                assert straighten(t) == {t: 1}
    for _ in range(30):
        shape = rng.choice([s for r in range(1, 6) for s in partitions(r)])
        choices = enumerate_standard(shape, 3, 3)
        if choices:
            t = rng.choice(choices)
            assert straighten(t) == {t: 1}


def test_straighten_zero_tableau():
    assert straighten(Tableau(((1, 1), (2,)))) == {}


def test_straighten_output_standard():
    rng = random.Random(17)
    for _ in range(150):
        t = _random_tableau(rng, 3, 3)
        for key, coeff in straighten(t).items():
            assert is_standard(key)
            assert coeff != 0


def _random_tableau(rng, m, n, max_r=6):
    shape = rng.choice([s for r in range(2, max_r + 1) for s in partitions(r)])
    lengths = Partition(shape).column_lengths()
    cols = []
    for c in lengths:
        cols.append(random_canonical_column(rng, c, m, n))
    return Tableau(cols)


def test_straighten_terminates_on_random_sample():
    rng = random.Random(23)
    for _ in range(1000):
        t = _random_tableau(rng, 3, 3)
        straighten(t)


def test_straighten_exhaustive_small():
    # every spanning-set filling of every shape with at most 4 boxes
    for r in range(1, 5):
        for shape in partitions(r):
            lengths = Partition(shape).column_lengths()
            spaces = [column_basis(c, 2, 2) for c in lengths]
            for cols in itertools.product(*spaces):
                result = straighten(Tableau(cols))
                for key in result:
                    assert is_standard(key)


def test_enumerate_count_golden():
    assert len(enumerate_standard((2, 1), 0, 3)) == 8


def test_enumerate_classical_dimensions():
    for n in range(1, 5):
        for r in range(1, 5):
            assert len(enumerate_standard((1,) * r, 0, n)) == comb(n, r)
            assert len(enumerate_standard((r,), 0, n)) == comb(n + r - 1, r)


def test_enumerate_shapes_of_1100_boxes():
    # a loop step per column and one itertools call per column length, with
    # no Python frame per box: a row holds at most one -1, a column at most
    # one 1
    for shape in ((1100,), (1,) * 1100):
        out = enumerate_standard(shape, 1, 1)
        assert len(out) == 2
        assert all(Tableau(t).shape == shape for t in out)


def test_enumerate_matches_semistandard_brute_force():
    # for even-only entries, standard means semistandard in the usual sense
    for n in (2, 3):
        for r in range(1, 5):
            for shape in partitions(r):
                count = count_semistandard(shape, n)
                assert len(enumerate_standard(shape, 0, n)) == count


def test_enumerate_matches_the_standardness_oracle():
    # every filling by canonical columns, odd letters included, in the
    # product order of sorted column lists, which is reading-word order
    cases = fillings = standard = 0
    for size in range(1, 6):
        for shape in partitions(size):
            lengths = Partition(shape).column_lengths()
            for m in range(4):
                for n in range(4):
                    spaces = [column_basis(c, m, n) for c in lengths]
                    want = [t for t in map(Tableau, itertools.product(*spaces))
                            if is_standard(t)]
                    assert enumerate_standard(shape, m, n) == want
                    fillings += prod(map(len, spaces))
                    standard += len(want)
                    cases += 1
    assert (cases, fillings, standard) == (288, 47156, 6624)


def test_enumerate_order_is_canonical():
    cases = 0
    for size in range(1, 7):
        for shape in partitions(size):
            for m in range(4):
                for n in range(4):
                    words = [sum(t, ())
                             for t in enumerate_standard(shape, m, n)]
                    assert all(a < b for a, b in zip(words, words[1:]))
                    cases += 1
    assert cases == 464


@pytest.mark.parametrize("m, n", [(1, 1), (0, 0)])
def test_enumerate_refuses_the_empty_shape(m, n):
    with pytest.raises(ValueError, match=r"empty shape \(\)"):
        enumerate_standard((), m, n)


def test_tensor_embed_mixed_column():
    assert tensor_embed((-1, 1)) == {(-1, 1): 1, (1, -1): -1}


def test_tensor_embed_divided_block():
    assert tensor_embed((-1, -1)) == {(-1, -1): 1}
    assert tensor_embed((-2, -1)) == {(-2, -1): 1, (-1, -2): 1}


def test_tensor_embed_exterior_block():
    assert tensor_embed((1, 2)) == {(1, 2): 1, (2, 1): -1}


def test_tensor_embed_product_identity():
    columns = [col for length in (1, 2, 3)
               for col in column_basis(length, 2, 3)]
    cases = 0
    for x in columns:
        for y in columns:
            if len(x) + len(y) > 5:
                continue
            lhs = shuffle_mul(tensor_embed(x), tensor_embed(y))
            product = column_product(x, y)
            if product is None:
                assert lhs == {}
            else:
                col, c = product
                assert lhs == {w: c * s for w, s in tensor_embed(col).items()}
            cases += 1
    assert cases == 969


def test_tensor_embed_coproduct_identity():
    cases = 0
    for size in range(1, 6):
        for x in column_basis(size, 2, 3):
            for p in range(size + 1):
                lhs = {}
                for (left, right), s in wedge_coproduct(x, (p, size - p)).items():
                    for wl, sl in tensor_embed(left).items():
                        for wr, sr in tensor_embed(right).items():
                            w = wl + wr
                            c = lhs.get(w, 0) + s * sl * sr
                            if c:
                                lhs[w] = c
                            else:
                                lhs.pop(w, None)
                assert lhs == tensor_embed(x)
                cases += 1
    assert cases == 482


def test_relation_membership_of_theta_images():
    # the relation that `_exchange((1, 2, 3), (-1, 3))` uses, beside (-3, -2, -2)
    result = theta_image((), (-1, 1, 2, 3), (3,), 3, 2)
    assert relation_membership(
        {Tableau(((-3, -2, -2),) + k): Fraction(c) for k, c in result.items()},
        3, 3)


def test_relation_membership_rejects_basis_vector():
    t = Tableau(((-1, 1), (1,)))
    assert is_standard(t)
    assert not relation_membership({t: Fraction(1)}, 1, 1)


def test_relation_membership_size_guard():
    t = Tableau(((1,) * 5, (2,) * 4))
    with pytest.raises(ValueError):
        relation_membership({t: Fraction(1)}, 0, 7)


def test_straighten_soundness_oracle():
    rng = random.Random(29)
    spans = {}
    for _ in range(120):
        t = _random_tableau(rng, 2, 2, max_r=5)
        shape = t.shape
        if shape not in spans:
            spans[shape] = RelationSpan(shape, 2, 2)
        difference = {t: Fraction(1)}
        for k, c in straighten(t).items():
            difference[k] = difference.get(k, Fraction(0)) - c
        assert spans[shape].contains(difference)


def test_standard_count_matches_quotient_small():
    for r in range(1, 5):
        for shape in partitions(r):
            for m in range(4):
                for n in range(4 - m):
                    span = RelationSpan(shape, m, n)
                    count = len(enumerate_standard(shape, m, n))
                    assert span.quotient_dimension == count
