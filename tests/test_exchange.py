"""Straightening through exchange relations looked up by column pair."""

import pytest

from schurcx import GF, PolyRing, Tableau, koszul_complex, schur_complex, straighten
from schurcx import tableaux
from schurcx.oracles import _first_violation, column_basis
from schurcx.tableaux import (_exchange, column_product, normalize_column,
                              theta_image, wedge_coproduct)


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


def _counting_theta_image(monkeypatch):
    """Count the calls to `theta_image` made inside `schurcx.tableaux`."""
    calls = []

    def counting(*args):
        calls.append(args)
        return theta_image(*args)

    monkeypatch.setattr(tableaux, "theta_image", counting)
    return calls


def test_exchange_of_every_pair_of_columns_up_to_three():
    # every pair over fewer letters is also a pair over -3..-1, 1..3
    violating = terms = 0
    for ca in range(1, 4):
        for cb in range(1, ca + 1):
            for left in column_basis(ca, 3, 3):
                for right in column_basis(cb, 3, 3):
                    relation = _exchange(left, right)
                    assert (relation is None) == (
                        _first_violation((left, right)) is None)
                    if relation is None:
                        continue
                    violating += 1
                    for (new_left, _), _ in relation:
                        assert new_left < left
                        terms += 1
    assert (violating, terms) == (1934, 3637)


def test_straightening_finds_violations_through_exchange_only(cold, monkeypatch):
    calls = []
    exchange = tableaux._exchange

    def counting(left, right):
        calls.append((left, right))
        return exchange(left, right)

    f, shape = _w1()
    monkeypatch.setattr(tableaux, "_exchange", counting)
    expanded = _counting_theta_image(monkeypatch)
    schur_complex(shape, f)
    assert exchange.cache_info().currsize == len(set(calls)) == 981
    # one relation per violating pair, each built inside `_exchange`
    assert len(expanded) == sum(exchange(*pair) is not None
                                for pair in set(calls)) == 549


def test_w1_expands_each_column_pair_once(cold, monkeypatch):
    f, shape = _w1()
    expanded = _counting_theta_image(monkeypatch)
    schur_complex(shape, f)
    assert len(expanded) == 549
    assert len(set(expanded)) == 549


def test_each_column_pair_is_looked_up_once(cold):
    # every row breaks the row order; taking the largest pending tableau
    # first rewrites each tableau once, so no pair is looked up twice
    t = Tableau((tuple(range(7, 13)), tuple(range(1, 7))))
    assert straighten(t) == {Tableau((tuple(range(1, 7)), tuple(range(7, 13)))): 1}
    info = _exchange.cache_info()
    assert (info.hits + info.misses, info.misses) == (172, 172)


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
        tuple(normalize_column(col)[0] for col in t)))
    assert all(_frozen(_exchange(left, right))
               for left, right in [((-2, 2), (-2,)), ((1, 2, 3), (-1, 3))])
