"""Bounded free complexes: validation, parity labeling, persistence."""

from fractions import Fraction
import itertools
import json
import random
import re

import pytest

from conftest import random_three_term, trial_primes
from schurcx import (GF, RATIONALS, FreeComplex, PolyMatrix, PolyRing,
                     homology_ranks_at_point, koszul_complex, save_complex,
                     validate_complex)
import schurcx.complexes
import schurcx.ring
from schurcx.complexes import (_draws, complex_from_dict, complex_to_dict,
                               generic_ranks, homology_from_ranks,
                               load_complex)
from schurcx.ring import _coerce_point, _values_at, scalar_rank
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


def _independent_homology(f, point):
    """Homology at the point from one elimination of each whole differential."""
    field = f.ring.field
    return homology_from_ranks(
        f, [scalar_rank(field, d.evaluate(point)) for d in f.differentials])


@pytest.mark.parametrize("field", [RATIONALS, GF(2), GF(3), GF(32003)],
                         ids=repr)
def test_homology_at_point_equals_independent_ranks(field):
    k = koszul_complex(PolyRing(field, ("x", "y", "z")).gens())
    xyz = ((0, 0, 0), (1, 0, 2), (0, 3, 0))
    cases = [(k, xyz)] + [(schur_complex(shape, k), xyz) for shape in
                          ((2, 1), (3, 2), (2, 2), (2, 2, 2))]
    cases += [(random_three_term(seed, field), ((0, 0), (1, 0), (0, 2), (2, -1)))
              for seed in range(3)]
    for f, points in cases:
        for point in points:
            h = homology_ranks_at_point(f, point)
            assert h == _independent_homology(f, point), (f, point)
            assert min(h) >= 0, (f, point)


def test_homology_at_point_ranks_whole_when_d_squared_is_not_zero():
    # d_1 . d_2 = x*y is 1 at (1, 1): refused there, in verify's format, and
    # ranked at (0, 1), where the specialized maps form a complex
    ring = PolyRing(RATIONALS, ("x", "y"))
    x, y = ring.gens()
    f = FreeComplex(ring, 0, (1, 1, 1),
                    (PolyMatrix(ring, [[x]]), PolyMatrix(ring, [[y]])))
    with pytest.raises(ValueError) as refusal:
        homology_ranks_at_point(f, (1, 1))
    assert str(refusal.value) == validate_complex(f)[0] + " at the point"
    assert homology_ranks_at_point(f, (0, 1)) == [1, 0, 0]
    assert _independent_homology(f, (0, 1)) == [1, 0, 0]
    # the pair and its first nonzero entry: lowest column, then lowest row
    one, zero = ring.one(), ring.zero()
    f = FreeComplex(ring, 1, (2, 2, 2, 2),
                    (PolyMatrix(ring, [[zero, zero], [zero, zero]]),
                     PolyMatrix(ring, [[one, zero], [zero, one]]),
                     PolyMatrix(ring, [[zero, x], [zero, y]])))
    with pytest.raises(ValueError) as refusal:
        homology_ranks_at_point(f, (0, 1))
    assert str(refusal.value) == "d_3 . d_4 != 0 at row 1, column 1 at the point"
    assert validate_complex(f) == ["d_3 . d_4 != 0 at row 0, column 1"]
    # two pairs fail: the ring check names both, the point check the first
    f = FreeComplex(ring, 1, (2, 2, 2, 2),
                    (PolyMatrix(ring, [[one, zero], [zero, x]]),
                     PolyMatrix(ring, [[one, zero], [zero, one]]),
                     PolyMatrix(ring, [[zero, x], [zero, y]])))
    assert validate_complex(f) == ["d_2 . d_3 != 0 at row 0, column 0",
                                   "d_3 . d_4 != 0 at row 0, column 1"]
    for point in ((1, 1), (0, 1)):
        with pytest.raises(ValueError) as refusal:
            homology_ranks_at_point(f, point)
        assert str(refusal.value) == "d_2 . d_3 != 0 at row 0, column 0 at the point"


def test_homology_at_point_deletes_pivot_rows(monkeypatch):
    # W1 = S_(3,2) of Koszul(x,y,z), split exact at a point with no zero
    # coordinate; counted in entries put into elimination, not in seconds
    ring = PolyRing(GF(32003), ("x", "y", "z"))
    f = schur_complex((3, 2), koszul_complex(ring.gens()))
    entries = []
    insert = schurcx.ring.SparseEchelon.insert

    def counting(echelon, vec):
        entries.append(len(vec))
        return insert(echelon, vec)

    monkeypatch.setattr(schurcx.ring.SparseEchelon, "insert", counting)
    zero = [0] * len(f.ranks)
    assert _independent_homology(f, (5, 11, 17)) == zero
    assert sum(entries) == 10153
    entries.clear()
    assert homology_ranks_at_point(f, (5, 11, 17)) == zero
    assert sum(entries) < 10153 / 2


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


def _each_on_its_own(f, trials, seed):
    """The best rank of each differential of f ranked alone over its own
    draws, each trial stopping at min(rows, cols): a second trial loop,
    kept apart from the package's."""
    out = []
    for d in f.differentials:
        full, best = min(d.rows, d.cols), 0
        for field, point in itertools.islice(_draws(d.ring, [d], seed), trials):
            values = _values_at(d.columns, point, field)
            best = max(best, scalar_rank(field, values, (), full))
            if best == full:
                break
        out.append(best)
    return out


def _stuck_complex():
    # over GF(2), x^2 + x vanishes at every point, so no trial of d_1 reaches
    # its generic rank 1 and its bound; d_2 is proven at once
    ring = PolyRing(GF(2), ("x",))
    x = ring.variable("x")
    d1 = PolyMatrix(ring, [[x * x + x, ring.zero()]])
    d2 = PolyMatrix(ring, [[ring.zero()], [ring.one()]])
    return FreeComplex(ring, 0, (1, 2, 1), (d1, d2))


def _rank_cases():
    for field in (RATIONALS, GF(2), GF(3), GF(32003)):
        k = koszul_complex(PolyRing(field, ("x", "y", "z")).gens())
        yield k
        for shape in ((2,), (1, 1), (2, 1)):
            yield schur_complex(shape, k)
        for seed in range(3):
            f = random_three_term(seed, field)
            yield f
            yield schur_complex((2, 1), f)
    yield _stuck_complex()


def test_generic_ranks_equal_each_differential_on_its_own():
    cases = 0
    for f in _rank_cases():
        assert validate_complex(f) == []
        for trials in (1, 2, 3):
            for seed in (0, 7, 99):
                ranks = generic_ranks(f, trials, seed)
                assert ranks == _each_on_its_own(f, trials, seed), (f, trials, seed)
                assert min(homology_from_ranks(f, ranks)) >= 0, (f, trials, seed)
                cases += 1
    assert cases == 9 * (4 * 10 + 1)


def _counting_trials(monkeypatch, f, plant=None):
    """Count the trials in which each differential of f is ranked;
    plant(d, j, rank) may change what trial j (from 0) of d reads."""
    drawn = {}
    real = schurcx.complexes._ranks_at_point

    def ranks_at_point(*args):
        ranks = real(*args)
        for i, (d, rank) in enumerate(zip(f.differentials, ranks)):
            if rank is not None:
                j = drawn.get(id(d), 0)
                drawn[id(d)] = j + 1
                ranks[i] = rank if plant is None else plant(d, j, rank)
        return ranks

    monkeypatch.setattr(schurcx.complexes, "_ranks_at_point", ranks_at_point)
    return drawn


def test_generic_ranks_run_every_trial_below_the_bound(monkeypatch):
    f = _stuck_complex()
    drawn = _counting_trials(monkeypatch, f)
    assert generic_ranks(f, 3, 0) == [0, 1]
    d1, d2 = f.differentials
    assert (drawn[id(d1)], drawn[id(d2)]) == (3, 1)


def test_generic_ranks_refuse_a_planted_low_rank(monkeypatch):
    ring = PolyRing(GF(32003), ("x", "y", "z"))
    f = schur_complex((2, 1), koszul_complex(ring.gens()))
    want = generic_ranks(f, 3, 0)
    target = f.differentials[2]
    assert want[2] > 0
    # the first trial of one differential reads one too low: that trial is
    # below the bound, so a second one runs and finds the true rank
    drawn = _counting_trials(
        monkeypatch, f, lambda d, j, rank: rank - (d is target and j == 0))
    assert generic_ranks(f, 3, 0) == want
    assert [drawn[id(d)] for d in f.differentials] == [
        2 if d is target else 1 for d in f.differentials]
    # when every trial reads low, no bound is met on it: all three run, and
    # the result is the best trial, as `mat_generic_rank` would return it
    drawn = _counting_trials(monkeypatch, f,
                             lambda d, j, rank: rank - (d is target))
    got = generic_ranks(f, 3, 0)
    assert got == want[:2] + [want[2] - 1] + want[3:]
    assert drawn[id(target)] == 3


def test_generic_ranks_fall_back_when_d_squared_is_not_zero(monkeypatch):
    # d_1 . d_2 = x*y and d_2 . d_3 = y*x: no fallback ranks a non-complex,
    # at any trial count; the refusal is the violation lines of verify
    ring = PolyRing(RATIONALS, ("x", "y"))
    x, y = ring.gens()
    f = FreeComplex(ring, 0, (1, 1, 1, 1),
                    (PolyMatrix(ring, [[x]]), PolyMatrix(ring, [[y]]),
                     PolyMatrix(ring, [[x]])))
    assert validate_complex(f) == ["d_1 . d_2 != 0 at row 0, column 0",
                                   "d_2 . d_3 != 0 at row 0, column 0"]
    ranked = []
    monkeypatch.setattr(schurcx.complexes, "scalar_rank",
                        lambda *args: ranked.append(1))
    for trials in (1, 3):
        with pytest.raises(ValueError) as refusal:
            generic_ranks(f, trials, 0)
        assert str(refusal.value) == "\n".join(validate_complex(f))
    assert ranked == []


def test_generic_ranks_delete_rows_only_at_the_same_draw(monkeypatch):
    # over GF(2) at seed 2, trial 0 draws (odd, even) and trial 1 (even, odd).
    # d_1 = [x, 1] meets its bound at trial 0, with pivot column 0, and
    # d_2 = [y; xy] is zero there, so d_2 alone draws trial 1, where its only
    # nonzero entry lies in row 0, the pivot row of d_1's trial 0: deleting
    # it there would read rank d_2 = 0
    ring = PolyRing(GF(2), ("x", "y"))
    x, y = ring.gens()
    f = FreeComplex(ring, 0, (1, 2, 1),
                    (PolyMatrix(ring, [[x, ring.one()]]),
                     PolyMatrix(ring, [[y], [x * y]])))
    assert validate_complex(f) == []
    want = _each_on_its_own(f, 2, 2)
    drawn = _counting_trials(monkeypatch, f)
    assert generic_ranks(f, 2, 2) == want == [1, 1]
    d1, d2 = f.differentials
    assert (drawn[id(d1)], drawn[id(d2)]) == (1, 2)


def test_generic_ranks_chain_at_one_trial(monkeypatch):
    # W1 at one trial: d.d = 0 is proved on the ring, as at every trial
    # count, and the pivot rows are deleted
    ring = PolyRing(GF(32003), ("x", "y", "z"))
    f = schur_complex((3, 2), koszul_complex(ring.gens()))
    entries = []
    insert = schurcx.ring.SparseEchelon.insert

    def counting(echelon, vec):
        entries.append(len(vec))
        return insert(echelon, vec)

    monkeypatch.setattr(schurcx.ring.SparseEchelon, "insert", counting)
    want = _each_on_its_own(f, 1, 5)
    assert sum(entries) == 10135
    entries.clear()
    assert generic_ranks(f, 1, 5) == want
    assert sum(entries) <= 2740 < 10135 / 2


def _prime_complex(vanish, denominator):
    """d_1 = [vanish*x, 0] and d_2 = [0; y/denominator] over QQ: d.d = 0 and
    the generic ranks are [1, 1]."""
    ring = PolyRing(RATIONALS, ("x", "y"))
    x, y = ring.gens()
    f = FreeComplex(ring, 0, (1, 2, 1),
                    (PolyMatrix(ring, [[x * vanish, ring.zero()]]),
                     PolyMatrix(ring, [[ring.zero()], [y * Fraction(1, denominator)]])))
    assert validate_complex(f) == []
    return f


def test_generic_ranks_draw_again_for_every_differential():
    q1, q2 = itertools.islice(trial_primes(0, 2), 2)
    # q1 divides a denominator of d_2, so the whole complex is drawn again,
    # where d_1 = q1*x on its own reads 0 mod q1
    f = _prime_complex(q1, q1)
    assert _each_on_its_own(f, 1, 0) == [0, 1]
    assert generic_ranks(f, 1, 0) == generic_ranks(f, 3, 0) == [1, 1]
    # d_1 = q1*q2*x reads 0 at both draws on its own, and d_2 is proven at
    # the first; its denominator q2 still sends the second draw to another
    # prime
    f = _prime_complex(q1 * q2, q2)
    assert _each_on_its_own(f, 2, 0) == [0, 1]
    assert generic_ranks(f, 2, 0) == [1, 1]


@pytest.mark.parametrize("trials", [0, 101, 2.5, True])
def test_generic_ranks_check_trials_first(monkeypatch, trials):
    calls = []
    monkeypatch.setattr(schurcx.complexes, "validate_complex", calls.append)
    ring = PolyRing(RATIONALS, ("x",))
    f = FreeComplex(ring, 0, (4,), ())  # no differential: nothing else to check
    with pytest.raises(ValueError, match="trials must be"):
        generic_ranks(f, trials)
    assert calls == []


def test_complexes_refuse_what_is_not_one(koszul_xy):
    ring = koszul_xy.ring
    x, y = ring.gens()
    d = PolyMatrix(ring, [[x]])
    gf3 = PolyRing(GF(3), ("x", "y"))
    for ranks, diffs, message in (
            ((), (), "a complex needs at least one term"),
            ((1, -1), (), "negative rank"),
            ((1, 1), (PolyMatrix(gf3, [[gf3.variable("y")]]),),
             "differential over wrong ring")):
        with pytest.raises(ValueError, match="^%s$" % message):
            FreeComplex(ring, 0, ranks, diffs)
    assert FreeComplex(ring, 0, (1, 1), (d,)).ranks == (1, 1)
    with pytest.raises(ValueError, match="^need at least one element$"):
        koszul_complex([])
    other = PolyRing(RATIONALS, ("z",)).variable("z")
    with pytest.raises(ValueError, match="^elements from different rings$"):
        koszul_complex([x, other])
    with pytest.raises(ValueError, match="^unknown coefficient field 'ZZ'$"):
        complex_from_dict({"ring": {"coefficients": "ZZ", "variables": ["x"]},
                           "min_degree": 0, "ranks": [1], "differentials": []})


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
