"""The ABW map as an oracle: straightening, the standard basis and d.

`abw_image` sends a tableau to the tensor of its rows; the Schur module is
its image and the exchange relations span its kernel.  So a tableau and its
straightening have one image, the standard tableaux have independent images
that span the image of every filling, and the image of d on a tableau is
`row_derivation` of its image.  None of this depends on the size of a
shape.
"""

import itertools
import random

import pytest

from conftest import partitions, random_canonical_column
from schurcx import (GF, RATIONALS, PolyRing, SchurBasis, enumerate_standard,
                     koszul_complex, schur_complex, straighten)
from schurcx.oracles import _add, abw_image, column_basis, row_derivation
from schurcx.ring import SparseEchelon, scalar_rank
from schurcx.tableaux import Partition, _exchange

FIELDS = [RATIONALS, GF(2), GF(3)]


def _image_of(combination):
    """abw_image of {columns: coefficient}, summed."""
    out = {}
    for t, c in combination.items():
        for rows, k in abw_image(t).items():
            _add(out, rows, c * k)
    return out


def _over(field, vec):
    """The nonzero coefficients of vec, taken into the field."""
    vec = {k: field.coerce(c) for k, c in vec.items()}
    return {k: c for k, c in vec.items() if c}


def test_straightening_keeps_the_abw_image():
    rng = random.Random(31)
    shapes = [s for r in range(2, 7) for s in partitions(r)] + [
        (4, 3), (3, 3, 2), (4, 2, 1, 1), (5, 3, 2, 1)]
    images = []
    for shape in shapes:
        lengths = Partition(shape).column_lengths()
        for _ in range(6):
            t = tuple(random_canonical_column(rng, c, 3, 3) for c in lengths)
            images.append(abw_image(t))
            assert _image_of(straighten(t)) == images[-1], t
    # a zero image (an odd letter twice in one row) checks less
    assert (len(images), sum(map(bool, images))) == (192, 159)


def test_every_exchange_relation_lies_in_the_kernel():
    pairs = relations = 0
    for a in range(1, 4):
        for b in range(1, a + 1):
            for pair in itertools.product(column_basis(a, 3, 3),
                                          column_basis(b, 3, 3)):
                pairs += 1
                relation = _exchange(*pair)
                if relation is None:
                    continue
                relations += 1
                others = _image_of({other: -k for other, k in relation})
                assert abw_image(pair) == others, pair
    assert (pairs, relations) == (2824, 1934)


def test_standard_images_are_independent():
    # over GF(2) and GF(3) too, so the module built there is ABW's L_shape
    cases = 0
    for r in range(1, 6):
        for shape in partitions(r):
            for m in range(6):
                for n in range(6 - m):
                    standard = enumerate_standard(shape, m, n)
                    images = [abw_image(t) for t in standard]
                    for field in FIELDS:
                        vectors = [_over(field, v) for v in images]
                        assert scalar_rank(field, vectors) == len(standard)
                    cases += 1
    assert cases == 378


def test_standard_images_span_every_filling():
    fillings = 0
    for r in range(1, 6):
        for shape in partitions(r):
            lengths = Partition(shape).column_lengths()
            for m in range(5):
                for n in range(5 - m):
                    echelon = SparseEchelon(RATIONALS)
                    for t in enumerate_standard(shape, m, n):
                        echelon.insert(abw_image(t))
                    for t in itertools.product(
                            *(column_basis(c, m, n) for c in lengths)):
                        assert not echelon.reduce(abw_image(t)), t
                        fillings += 1
    assert fillings == 17687


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_differential_commutes_with_the_abw_map(field):
    # abw(d_S T) = d_rows(abw T) for every standard T, with d_S read from
    # the built complex.  Coefficients are kept per monomial: the entries of
    # d_F split as a sum of monomials times scalar matrices, one derivation
    # per monomial.
    f = koszul_complex(PolyRing(field, ("x", "y", "z")).gens())
    checked = []
    for shape in ((2, 1), (3, 2), (3, 3)):
        s = schur_complex(shape, f)
        basis = SchurBasis(shape, f)
        label_at = {pos: v for v, pos in basis.position.items()}
        d_by_monomial = {}  # monomial: {letter: {letter: scalar}}
        for v, (deg, idx) in basis.position.items():
            d = f.differential_from(deg)
            for row, terms in ({} if d is None else d.columns[idx]).items():
                for mono, c in terms.items():
                    d_by_monomial.setdefault(mono, {}).setdefault(
                        v, {})[label_at[deg - 1, row]] = c
        images = {t: abw_image(t)
                  for k in basis.degrees() for t in basis.at(k)}
        for k in basis.degrees():
            d = s.differential_from(k)
            targets = basis.at(k - 1)
            for j, t in enumerate(basis.at(k)):
                image_of_d = {}
                for i, terms in ({} if d is None else d.columns[j]).items():
                    for mono, c in terms.items():
                        for rows, a in images[targets[i]].items():
                            _add(image_of_d, (mono, rows), c * a)
                d_of_image = {}
                for mono, d_letter in d_by_monomial.items():
                    for rows, a in row_derivation(images[t], d_letter).items():
                        _add(d_of_image, (mono, rows), a)
                assert _over(field, image_of_d) == _over(field, d_of_image), t
        checked.append(len(images))
    assert checked == [168, 1280, 1600]
