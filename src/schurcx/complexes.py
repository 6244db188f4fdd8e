"""Bounded complexes of finitely generated free modules, with JSON files.

A complex is stored as its minimum homological degree, a list of term ranks
in ascending degree, and one polynomial matrix per adjacent pair of degrees.
The matrix for degree k has shape rank(k-1) x rank(k): columns are indexed by
the source basis, rows by the target basis, i.e. d sends degree k to k-1.
"""

import itertools
import json

from .ring import (CoefficientField, PolyRing, PolyMatrix, RATIONALS,
                   _check_trials, _coerce_point, _trial_ranks,
                   mat_generic_rank, mat_mul, scalar_rank)


def _check_terms(min_degree, ranks, count):
    """Raise unless the degrees and ranks fit a complex with count maps."""
    if type(min_degree) is not int:  # not float, not bool
        raise ValueError("min_degree must be an integer, got %r" % (min_degree,))
    if not ranks:
        raise ValueError("a complex needs at least one term")
    if not all(type(r) is int for r in ranks):
        raise ValueError("ranks must be integers, got %r" % (list(ranks),))
    if any(r < 0 for r in ranks):
        raise ValueError("negative rank")
    if count != len(ranks) - 1:
        raise ValueError("expected %d differentials, got %d"
                         % (len(ranks) - 1, count))


class FreeComplex:
    """A bounded complex of free modules over a polynomial ring."""

    def __init__(self, ring, min_degree, ranks, differentials):
        ranks = tuple(ranks)
        differentials = tuple(differentials)
        _check_terms(min_degree, ranks, len(differentials))
        for i, d in enumerate(differentials):
            if d.ring != ring:
                raise ValueError("differential over wrong ring")
            want = ranks[i:i + 2]
            if d.shape != want:
                raise ValueError("d_%d has shape %dx%d, expected %dx%d"
                                 % ((min_degree + i + 1,) + d.shape + want))
        self.ring = ring
        self.min_degree = min_degree
        self.ranks = ranks
        self.differentials = differentials

    @property
    def max_degree(self):
        return self.min_degree + len(self.ranks) - 1

    def degrees(self):
        return range(self.min_degree, self.max_degree + 1)

    def rank_at(self, k):
        if self.min_degree <= k <= self.max_degree:
            return self.ranks[k - self.min_degree]
        return 0

    def differential_from(self, k):
        """The matrix of d: degree k -> degree k-1, or None off the range."""
        i = k - self.min_degree - 1
        if 0 <= i < len(self.differentials):
            return self.differentials[i]
        return None

    def __eq__(self, other):
        return (isinstance(other, FreeComplex) and self.ring == other.ring
                and self.min_degree == other.min_degree
                and self.ranks == other.ranks
                and list(self.differentials) == list(other.differentials))

    def __repr__(self):
        return "FreeComplex(degrees %d..%d, ranks %s)" % (
            self.min_degree, self.max_degree, list(self.ranks))


def validate_complex(f):
    """Return a list of violations; empty means d.d == 0.

    Reports every adjacent pair of differentials whose composition is
    nonzero, with the 0-based row and column of its first nonzero entry
    (lowest column, then lowest row).  Shapes need no check here:
    `FreeComplex` accepts only differentials that fit its ranks.
    """
    problems = []
    for i in range(len(f.differentials) - 1):
        a, b = f.differentials[i], f.differentials[i + 1]
        for col, entries in enumerate(mat_mul(a, b).columns):
            if entries:
                k = f.min_degree + i + 1
                problems.append("d_%d . d_%d != 0 at row %d, column %d"
                                % (k, k + 1, min(entries), col))
                break
    return problems


def koszul_complex(elements):
    """Koszul complex on a list of ring elements.

    Degree j has one basis vector per sorted j-subset S of the elements, in
    lexicographic order, and d(e_S) = sum_l (-1)^(l-1) p_(S_l) e_(S minus S_l).
    For two elements this gives d1 = (p1 p2) and d2 = (-p2, p1)^T.
    """
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one element")
    ring = elements[0].ring
    for p in elements:
        if p.ring != ring:
            raise ValueError("elements from different rings")
    n = len(elements)
    levels = [list(itertools.combinations(range(n), j)) for j in range(n + 1)]
    index = [{s: i for i, s in enumerate(lvl)} for lvl in levels]
    diffs = []
    for j in range(1, n + 1):
        mat = PolyMatrix.zero(ring, len(levels[j - 1]), len(levels[j]))
        for col, subset in enumerate(levels[j]):
            for l, elem in enumerate(subset):
                rest = subset[:l] + subset[l + 1:]
                row = index[j - 1][rest]
                sign = 1 if l % 2 == 0 else -1
                p = elements[elem] * sign
                if p.terms:
                    mat.columns[col][row] = p.terms
        diffs.append(mat)
    return FreeComplex(ring, 0, [len(lvl) for lvl in levels], diffs)


def homology_from_ranks(f, d_ranks):
    """rank F_k - rank d_k - rank d_(k+1) for each degree k, low degree first.

    d_ranks lists the ranks of the differentials of f in their order.
    """
    d_rank = dict(zip(range(f.min_degree + 1, f.max_degree + 1), d_ranks))
    return [f.rank_at(k) - d_rank.get(k, 0) - d_rank.get(k + 1, 0)
            for k in f.degrees()]


def generic_ranks(f, trials=3, seed=0):
    """The `mat_generic_rank(d, trials, seed)` of each differential d of f,
    with each trial that cannot raise it skipped.

    A trial rank is a lower bound on the rank over the fraction field.  When
    d.d = 0, the image of d_k lies in the kernel of d_(k-1) and holds the
    image of d_(k+1), so, with r the best trial rank of each neighbour,
    rank d_k <= min(rank F_(k-1) - r_(k-1), rank F_k - r_(k+1)).  A best
    trial rank that meets this bound is the generic rank, which no later
    trial exceeds, so the trials of d_k stop there.  The trials run in
    rounds, in ascending degree; a round gives one more trial, the next one
    `mat_generic_rank` would run, to each differential still below its
    bound.  Over a small GF(p) the bound may never be met, and then every
    trial runs.  `trials` is checked first.  When `validate_complex` finds
    d.d != 0, or with one trial, where the bound could stop nothing, each
    differential runs `mat_generic_rank` on its own.

    >>> from schurcx import PolyRing, RATIONALS, koszul_complex
    >>> f = koszul_complex(PolyRing(RATIONALS, ("x", "y")).gens())
    >>> generic_ranks(f)
    [1, 1]
    """
    _check_trials(trials)
    diffs = f.differentials
    if trials == 1 or validate_complex(f):
        return [mat_generic_rank(d, trials, seed) for d in diffs]
    streams = [_trial_ranks(d, seed) for d in diffs]
    # best[i] belongs to d_(min_degree + i); best[0] and best[-1] stay 0
    best = [0] * (len(diffs) + 2)
    for _ in range(trials):
        for i, d in enumerate(diffs, 1):
            if best[i] < min(d.rows - best[i - 1], d.cols - best[i + 1]):
                best[i] = max(best[i], next(streams[i - 1]))
    return best[1:-1]


def homology_ranks_at_point(f, point):
    """Homology ranks of the complex specialized at a point, low degree first.

    The point is checked once, before the differentials, so a complex with
    none still rejects a point that does not fit its ring.  Over QQ an entry
    whose value would exceed `ring.MAX_VALUE_BITS` raises ValueError.
    """
    point = _coerce_point(f.ring, point)
    field = f.ring.field
    return homology_from_ranks(
        f, [scalar_rank(field, d.evaluate(point)) for d in f.differentials])


# -- files -------------------------------------------------------------------

def ring_to_dict(ring):
    coeff = "QQ" if ring.field.is_rational else {"p": ring.field.p}
    return {"coefficients": coeff, "variables": list(ring.variables)}


def _array(value, what):
    """The value itself when it is a JSON array; TypeError otherwise."""
    if not isinstance(value, list):
        raise TypeError("%s must be an array, got %s" % (what, type(value).__name__))
    return value


def ring_from_dict(data):
    coeff = data["coefficients"]
    if coeff == "QQ":
        field = RATIONALS
    elif isinstance(coeff, dict) and "p" in coeff:
        field = CoefficientField(coeff["p"])
    else:
        raise ValueError("unknown coefficient field %r" % (coeff,))
    return PolyRing(field, _array(data["variables"], "variables"))


def complex_to_dict(f):
    return {
        "ring": ring_to_dict(f.ring),
        "min_degree": f.min_degree,
        "ranks": list(f.ranks),
        "differentials": [d.to_strings() for d in f.differentials],
    }


def complex_from_dict(data):
    ring = ring_from_dict(data["ring"])
    ranks = _array(data["ranks"], "ranks")
    differentials = _array(data["differentials"], "differentials")
    _check_terms(data["min_degree"], ranks, len(differentials))
    diffs = []
    for i, rows in enumerate(differentials):
        rows = [_array(r, "a row") for r in _array(rows, "a differential")]
        if len(rows) != ranks[i] or any(len(r) != ranks[i + 1] for r in rows):
            raise ValueError("differential %d has wrong shape" % (i + 1,))
        diffs.append(PolyMatrix.from_strings(ring, rows,
                                             shape=(ranks[i], ranks[i + 1])))
    return FreeComplex(ring, data["min_degree"], ranks, diffs)


def save_complex(f, path):
    with open(path, "w") as fh:
        json.dump(complex_to_dict(f), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_complex(path):
    with open(path) as fh:
        return complex_from_dict(json.load(fh))
