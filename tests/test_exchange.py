"""Straightening through exchange relations looked up by column pair."""

import itertools
from functools import lru_cache

import pytest

from conftest import canonical_columns, partitions
from schurcx import GF, PolyRing, Tableau, koszul_complex, schur_complex, straighten
import schurcx.schur
from schurcx import tableaux
from schurcx.tableaux import (Partition, _exchange, column_product, find_violation,
                              normalize_column, theta_expand, theta_image,
                              wedge_coproduct)


def _clear_caches():
    """Clear every lru_cache in `schurcx.tableaux`, found by its `cache_clear`.

    The caches found must be exactly the three the module documents, so a
    cache added or removed there cannot leave this helper stale.
    """
    caches = {name: value for name, value in vars(tableaux).items()
              if hasattr(value, "cache_clear")}
    assert set(caches) == {"column_product", "_exchange", "_straighten_columns"}
    for cache in caches.values():
        cache.cache_clear()


@pytest.fixture
def cold():
    """Start from empty straightening caches, and leave them empty."""
    _clear_caches()
    yield
    _clear_caches()


def _w1():
    """S_(3,2) of Koszul(x,y,z) over GF(32003): the `schur --shape 3,2` build."""
    f = koszul_complex(PolyRing(GF(32003), ("x", "y", "z")).gens())
    return f, (3, 2)


def _straighten_whole_tableau(columns):
    """Straightening as it ran before exchanges were cached by column pair.

    Rebuilds the relation of the whole tableau at every step through
    `tableaux.theta_expand`, looked up when called so that it can be counted.
    """
    sign = 1
    canon = []
    for col in columns:
        norm = normalize_column(col)
        if norm is None:
            return ()
        canon.append(norm[0])
        sign *= norm[1]
    result = {}
    pending = {tuple(canon): sign}
    while pending:
        t, coeff = pending.popitem()
        violation = find_violation(t)
        if violation is None:
            c = result.get(t, 0) + coeff
            if c:
                result[t] = c
            else:
                result.pop(t, None)
            continue
        relation = tableaux.theta_expand(t, violation)
        lead = relation.pop(t)
        assert lead in (1, -1)
        for other, k in relation.items():
            c = pending.get(other, 0) - coeff * lead * k
            if c:
                pending[other] = c
            else:
                pending.pop(other, None)
    return tuple(sorted(result.items()))


def test_exchange_of_every_pair_of_columns_up_to_three():
    # every pair over fewer letters is also a pair over -3..-1, 1..3
    violating = terms = 0
    for ca in range(1, 4):
        for cb in range(1, ca + 1):
            for left in canonical_columns(3, 3, ca):
                for right in canonical_columns(3, 3, cb):
                    relation = _exchange(left, right)
                    assert (relation is None) == (
                        find_violation((left, right)) is None)
                    if relation is None:
                        continue
                    violating += 1
                    for (new_left, _), _ in relation:
                        assert new_left < left
                        terms += 1
    assert (violating, terms) == (1934, 3637)


def test_straightening_finds_violations_through_exchange_only(cold, monkeypatch):
    calls = []

    def counting(columns):
        calls.append(columns)
        return find_violation(columns)

    f, shape = _w1()
    monkeypatch.setattr(tableaux, "find_violation", counting)
    schur_complex(shape, f)
    assert all(len(columns) == 2 for columns in calls)
    assert len(calls) == _exchange.cache_info().currsize == 981


def test_straighten_matches_whole_tableau_relations():
    cases = 0
    for letters in range(1, 4):
        for m in range(letters + 1):
            values = list(range(-m, 0)) + list(range(1, letters - m + 1))
            for size in range(1, 6):
                for shape in partitions(size):
                    lengths = Partition(shape).column_lengths()
                    for word in itertools.product(values, repeat=size):
                        it = iter(word)
                        columns = tuple(tuple(next(it) for _ in range(c))
                                        for c in lengths)
                        assert straighten(Tableau(columns)) == {
                            Tableau(cols): c
                            for cols, c in _straighten_whole_tableau(columns)}
                        cases += 1
    assert cases == 9882


def test_w1_expands_each_column_pair_once(cold, monkeypatch):
    f, shape = _w1()
    expanded = []

    def counting(columns, violation):
        expanded.append(columns)
        return theta_expand(columns, violation)

    monkeypatch.setattr(tableaux, "theta_expand", counting)
    s = schur_complex(shape, f)
    assert len(expanded) == 549
    assert len(set(expanded)) == 549
    assert all(len(columns) == 2 for columns in expanded)

    _clear_caches()
    expanded.clear()
    monkeypatch.setattr(schurcx.schur, "_straighten_columns",
                        lru_cache(maxsize=None)(_straighten_whole_tableau))
    old = schur_complex(shape, f)
    assert len(expanded) == 4884
    assert old.ranks == s.ranks
    assert old.differentials == s.differentials


def test_straighten_normalizes_before_the_cache(cold):
    t = Tableau(((-3, -2, -2), (1, 2, 3), (-1, 3)))
    # the odd letters of the first column swap with sign +1, the even
    # letters of the second with sign -1
    reordered = Tableau(((-2, -3, -2), (2, 1, 3), (-1, 3)))
    want = straighten(t)
    assert want
    assert straighten(reordered) == {s: -c for s, c in want.items()}
    assert tableaux._straighten_columns.cache_info().currsize == 1


def _frozen(value):
    """Whether value is built from tuples, ints and None alone."""
    if isinstance(value, tuple):
        return all(map(_frozen, value))
    return value is None or type(value) is int


def test_cached_results_are_safe_to_mutate():
    t = Tableau(((-3, -2, -2), (2, 1, 3), (-1, 3)))
    calls = [
        (straighten, (t,)),
        (theta_image, ((-3,), (-2, 1, 2), (3,), 3, 2)),
        (wedge_coproduct, ((-2, -2, 1), (1, 2))),
    ]
    for fn, args in calls:
        first = fn(*args)
        want = dict(first)
        assert want
        first[next(iter(first))] += 1
        assert fn(*args) == want
        first.clear()
        assert fn(*args) == want

    # column results are tuples all the way down, so a caller cannot change
    # a cached value; a list passed in is copied
    word = [2, 1, 3]
    assert normalize_column(word) == ((1, 2, 3), -1)
    word.reverse()
    assert normalize_column([2, 1, 3]) == ((1, 2, 3), -1)
    assert _frozen(normalize_column(word))
    assert column_product((-1,), (-1,)) == ((-1, -1), 2)
    assert column_product((2,), (1,)) == ((1, 2), -1)
    assert _frozen(column_product((2,), (1,)))
    assert _frozen(tableaux._straighten_columns(
        tuple(normalize_column(col)[0] for col in t.columns)))
    assert all(_frozen(_exchange(left, right))
               for left, right in [((-2, 2), (-2,)), ((1, 2, 3), (-1, 3))])
