"""Bounded free complexes: validation, parity labeling, persistence."""

import json
import random
import re

import pytest

from conftest import random_three_term
from schurcx import (GF, RATIONALS, FreeComplex, PolyMatrix, PolyRing,
                     homology_ranks_at_point, koszul_complex, save_complex,
                     validate_complex)
import schurcx.complexes
import schurcx.ring
from schurcx.complexes import complex_from_dict, complex_to_dict, load_complex
from schurcx.ring import _coerce_point
from schurcx.schur import SchurBasis, schur_complex


def test_koszul_two_elements(koszul_xy):
    f = koszul_xy
    assert f.min_degree == 0
    assert f.ranks == (1, 2, 1)
    assert f.differential_from(1).to_strings() == [["x", "y"]]
    assert f.differential_from(2).to_strings() == [["-y"], ["x"]]
    assert validate_complex(f) == []


def test_koszul_single_element():
    ring = PolyRing(RATIONALS, ("x",))
    f = koszul_complex(ring.gens())
    assert f.ranks == (1, 1)
    assert f.differential_from(1).to_strings() == [["x"]]


def test_koszul_three_elements_valid():
    ring = PolyRing(RATIONALS, ("x", "y", "z"))
    f = koszul_complex(ring.gens())
    assert f.ranks == (1, 3, 3, 1)
    assert validate_complex(f) == []


def test_koszul_random_entries_valid():
    rng = random.Random(8)
    for size in (1, 2, 3, 4, 5):
        ring = PolyRing(RATIONALS, tuple("abcde"[:5]))
        gens = ring.gens()
        elems = []
        for _ in range(size):
            p = ring.zero()
            for g in gens:
                p = p + ring.constant(rng.randint(-3, 3)) * g
            elems.append(p)
        assert validate_complex(koszul_complex(elems)) == []


def test_validate_catches_nonzero_square():
    ring = PolyRing(RATIONALS, ("x",))
    x = PolyMatrix(ring, [[ring.variable("x")]])
    f = FreeComplex(ring, 0, (1, 1, 1), (x, x))
    problems = validate_complex(f)
    assert len(problems) == 1
    assert problems[0] == "d_1 . d_2 != 0 at row 0, column 0"
    # the first nonzero entry is found by lowest column, then lowest row
    ring = PolyRing(RATIONALS, ("x", "y"))
    x, y = ring.gens()
    one, zero = ring.one(), ring.zero()
    identity = PolyMatrix(ring, [[one, zero], [zero, one]])
    antidiagonal = PolyMatrix(ring, [[zero, y], [x, zero]])
    f = FreeComplex(ring, 0, (2, 2, 2), (identity, antidiagonal))
    assert validate_complex(f) == ["d_1 . d_2 != 0 at row 1, column 0"]


def test_validate_names_lowest_column_then_row():
    # d.d is zero in column 0; column 1 is x^2 + y^2 at row 1 and x^2 + 2xy
    # at row 2; column 2 is nonzero in every row, row 0 included
    ring = PolyRing(RATIONALS, ("x", "y"))
    x, y = ring.gens()
    one, zero = ring.one(), ring.zero()
    d1 = PolyMatrix(ring, [[y, -x], [x, y], [x + y, x]])
    d2 = PolyMatrix(ring, [[zero, x, one], [zero, y, zero]])
    f = FreeComplex(ring, 0, (3, 2, 3), (d1, d2))
    assert validate_complex(f) == ["d_1 . d_2 != 0 at row 1, column 1"]


def test_validate_multiplies_through_complexes_mat_mul(monkeypatch):
    # the benchmark times the d.d check by wrapping this name
    calls = []
    real = schurcx.complexes.mat_mul

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(schurcx.complexes, "mat_mul", counting)
    f = koszul_complex(PolyRing(RATIONALS, ("x", "y", "z")).gens())
    assert validate_complex(f) == []
    d = f.differentials
    assert [(id(a), id(b)) for a, b in calls] == [(id(d[0]), id(d[1])),
                                                   (id(d[1]), id(d[2]))]


def test_validate_catches_bad_shape():
    ring = PolyRing(RATIONALS, ("x",))
    wide = PolyMatrix.zero(ring, 1, 3)
    with pytest.raises(ValueError, match="d_1 has shape 1x3, expected 1x2"):
        FreeComplex(ring, 0, (1, 2), (wide,))


def test_validate_single_term():
    ring = PolyRing(RATIONALS, ("x",))
    f = FreeComplex(ring, 0, (4,), ())
    assert validate_complex(f) == []


def test_two_term_complex_always_valid():
    ring = PolyRing(RATIONALS, ("x", "y"))
    d = PolyMatrix.from_strings(ring, [["x", "y"], ["y", "x"]])
    f = FreeComplex(ring, 0, (2, 2), (d,))
    assert validate_complex(f) == []


def test_parity_split_koszul(koszul_xy):
    basis = SchurBasis((1,), koszul_xy)
    assert sorted(basis.position) == [-2, -1, 1, 2]
    # degree-ascending labeling: f_1 from degree 0, f_2 from degree 2
    assert basis.degree[1] == 0
    assert basis.degree[2] == 2
    assert basis.degree[-1] == 1
    assert basis.degree[-2] == 1


def test_parity_split_concentrated_even():
    ring = PolyRing(RATIONALS, ("x",))
    f = FreeComplex(ring, 0, (3,), ())
    basis = SchurBasis((1,), f)
    assert sorted(basis.position) == [1, 2, 3]


def test_parity_split_concentrated_odd():
    ring = PolyRing(RATIONALS, ("x",))
    f = FreeComplex(ring, 1, (2,), ())
    basis = SchurBasis((1,), f)
    assert sorted(basis.position) == [-2, -1]


def test_parity_split_deterministic(koszul_xy):
    a = SchurBasis((1,), koszul_xy)
    b = SchurBasis((1,), koszul_xy)
    assert list(a.position.items()) == list(b.position.items())
    assert a.degree == b.degree


def test_homology_at_unit_point(koszul_xy):
    assert homology_ranks_at_point(koszul_xy, (1, 1)) == [0, 0, 0]


def test_homology_at_origin(koszul_xy):
    assert homology_ranks_at_point(koszul_xy, (0, 0)) == [1, 2, 1]


def test_homology_zero_differentials():
    ring = PolyRing(RATIONALS, ("x",))
    f = FreeComplex(ring, 0, (2, 5), (PolyMatrix.zero(ring, 2, 5),))
    assert homology_ranks_at_point(f, (3,)) == [2, 5]


@pytest.mark.parametrize("point", [[1], ["a", "b", "c"], ["a", "b"]])
def test_homology_checks_point_without_differentials(point):
    f = FreeComplex(PolyRing(RATIONALS, ("x", "y")), 0, (3,), ())
    with pytest.raises(ValueError) as want:
        _coerce_point(f.ring, point)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        homology_ranks_at_point(f, point)
    assert homology_ranks_at_point(f, (1, 2)) == [3]


def test_euler_characteristic_invariance():
    rng = random.Random(31)
    for seed in range(6):
        f = random_three_term(seed)
        chi = sum((-1) ** i * r for i, r in enumerate(f.ranks))
        for _ in range(4):
            pt = [rng.randint(-3, 3) for _ in range(f.ring.nvars)]
            hs = homology_ranks_at_point(f, pt)
            assert sum((-1) ** i * h for i, h in enumerate(hs)) == chi


def test_random_three_term_is_complex():
    for seed in range(12):
        for field in (RATIONALS, GF(2), GF(3)):
            assert validate_complex(random_three_term(seed, field)) == []


def test_json_round_trip(tmp_path, koszul_xy):
    path = tmp_path / "koszul.json"
    save_complex(koszul_xy, path)
    loaded = load_complex(path)
    assert loaded.ranks == koszul_xy.ranks
    assert loaded.min_degree == koszul_xy.min_degree
    assert loaded.differentials == koszul_xy.differentials
    assert loaded.ring == koszul_xy.ring


def test_json_round_trip_gf():
    ring = PolyRing(GF(5), ("u", "v"))
    f = koszul_complex(ring.gens())
    d = complex_to_dict(f)
    assert d["ring"]["coefficients"] == {"p": 5}
    g = complex_from_dict(d)
    assert g.ring == f.ring and g.differentials == f.differentials


def test_from_dict_parses_each_text_once(monkeypatch, koszul_xy):
    d = complex_to_dict(schur_complex((2, 1), koszul_xy))
    calls = []
    parse = schurcx.ring.parse_polynomial
    monkeypatch.setattr(schurcx.ring, "parse_polynomial",
                        lambda ring, text: calls.append(text) or parse(ring, text))
    f = complex_from_dict(d)
    distinct = sum(len({t for row in rows for t in row}) for rows in d["differentials"])
    entries = sum(len(row) for rows in d["differentials"] for row in rows)
    assert distinct < entries
    assert len(calls) <= distinct
    assert complex_to_dict(f) == d


def test_from_dict_validates_shapes():
    bad = {
        "ring": {"coefficients": "QQ", "variables": ["x"]},
        "min_degree": 0,
        "ranks": [1, 2],
        "differentials": [[["x"]]],
    }
    with pytest.raises(ValueError):
        complex_from_dict(bad)


def test_saved_file_is_stable(tmp_path, koszul_xy):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_complex(koszul_xy, p1)
    save_complex(koszul_xy, p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["ranks"] == [1, 2, 1]
