"""Bounded complexes of finitely generated free modules, with JSON files.

A complex is stored as its minimum homological degree, a list of term ranks
in ascending degree, and one polynomial matrix per adjacent pair of degrees.
The matrix for degree k has shape rank(k-1) x rank(k): columns are indexed by
the source basis, rows by the target basis, i.e. d sends degree k to k-1.

Generic ranks are Monte Carlo lower bounds.  `generic_ranks` ranks the
differentials at random points, over the rationals each modulo a random
prime in [2^30, 2^31), since the rank mod a prime is at most the rank over
QQ; at each draw it ranks them as `homology_ranks_at_point` does at its
point.  Both rank complexes only: `generic_ranks` proves d.d = 0 on the
ring and `homology_ranks_at_point` at its point, and each raises
ValueError where that fails.  `mat_generic_rank` is `generic_ranks` on a
complex with one map.
This module alone holds the trial policy: how a point is drawn (`_draws`),
how many trials may run (`MAX_TRIALS`) and when they stop.  It also writes
every JSON file, `save_complex` and the command line's `--out` alike
(`_save_json`): a write that fails part-way leaves the old file whole.
"""

import itertools
import json
import os
import random

from .ring import (GF, CoefficientField, PolyRing, PolyMatrix, RATIONALS,
                   _coerce_point, _values_at, add_scaled, is_prime, mat_mul,
                   reduce_terms, scalar_rank)

# The most trials, one random draw each, that `generic_ranks` runs.  They stop
# early only at proven ranks (the bounds in `generic_ranks`), so on an
# unproven rank every trial runs; past a few the bound hardly improves (see
# `mat_generic_rank`), while the time grows without end.
MAX_TRIALS = 100

# The largest term rank a complex file may claim.  A matrix holds one column
# per source basis element, and no array of the file need back the count.
MAX_FILE_RANK = 1 << 20


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


def _d_squared_failures(products, min_degree):
    """The violation line of each pair d_k, d_(k+1) whose product is not
    zero, naming its first nonzero entry (lowest column, then lowest row).
    products gives the columns, {row: entry} each, of the products from
    k = min_degree + 1 up, and is drawn only as far as the scan goes."""
    for k, columns in enumerate(products, min_degree + 1):
        for col, rows in enumerate(columns):
            if rows:
                yield ("d_%d . d_%d != 0 at row %d, column %d"
                       % (k, k + 1, min(rows), col))
                break


def validate_complex(f):
    """Every line `_d_squared_failures` gives on the `mat_mul` products of
    the adjacent pairs; empty means d.d == 0.  Shapes need no check here:
    `FreeComplex` accepts only differentials that fit its ranks."""
    diffs = f.differentials
    products = (mat_mul(a, b).columns for a, b in zip(diffs, diffs[1:]))
    return list(_d_squared_failures(products, f.min_degree))


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

    d_ranks lists the ranks of the differentials of f in their order, padded
    here with a zero at each end for the maps in and out of the range.
    """
    d = [0, *d_ranks, 0]
    return [r - d[i] - d[i + 1] for i, r in enumerate(f.ranks)]


def random_prime(rng):
    """A prime drawn from [2^30, 2^31) with the random.Random rng."""
    while True:
        q = rng.randrange(1 << 30, 1 << 31)
        if is_prime(q):
            return q


def _check_trials(trials):
    """Raise ValueError unless trials is an int in [1, MAX_TRIALS]."""
    if type(trials) is not int:  # not float, not bool
        raise ValueError("trials must be an integer, got %r" % (trials,))
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise ValueError("trials must be at most %d, got %d" % (MAX_TRIALS, trials))


def _draws(ring, matrices, seed):
    """(field, point) of each seeded random draw in turn, the point's
    coordinates in the field.

    A draw is a point with coordinates uniform in [1, 2^20] from an RNG
    seeded with `seed`, so the draws are reproducible.  Over GF(p) the field
    is the ring's.  Over QQ a prime q follows from `random_prime` with the
    same RNG, drawn again while it divides a coefficient denominator of any
    of the matrices, and the field is GF(q): `_values_at` then reduces the
    point and the coefficients mod q and evaluates with modular powers, so
    no exact value is ever formed.
    """
    rng = random.Random(seed)
    if ring.field.is_rational:
        denominators = {c.denominator for m in matrices for col in m.columns
                        for terms in col.values() for c in terms.values()}
    while True:
        point = [rng.randint(1, 1 << 20) for _ in range(ring.nvars)]
        field = ring.field
        if field.is_rational:
            q = random_prime(rng)
            while any(d % q == 0 for d in denominators):
                q = random_prime(rng)
            field = GF(q)
        yield field, [field.coerce(x) for x in point]


def generic_ranks(f, trials=3, seed=0):
    """The best rank of each differential of f over seeded random draws.

    `trials` is checked first; then `validate_complex` proves d.d = 0 on the
    ring, and a complex that fails raises ValueError whose text is its
    violation lines.  A trial is one draw for the whole complex (`_draws`),
    at which the differentials still below their bound are ranked in
    ascending degree by `_ranks_at_point`.  A trial rank is a lower bound on
    the rank over the fraction field.  Since d.d = 0, the image of d_k lies
    in the kernel of d_(k-1) and holds the image of d_(k+1), so, with r the
    best trial rank of each neighbour,
    rank d_k <= min(rank F_(k-1) - r_(k-1), rank F_k - r_(k+1)); a rank that
    meets this bound is the generic rank, and d_k is not ranked again.  No
    draw is made once every differential meets its bound; over a small GF(p)
    that may never happen, and then every trial runs.  The ranks are those
    of `mat_generic_rank(d, trials, seed)` on each d alone, but for one
    case: over QQ a prime that divides a coefficient denominator of any
    differential is drawn again for all of them.

    >>> from schurcx import PolyRing, RATIONALS, koszul_complex
    >>> f = koszul_complex(PolyRing(RATIONALS, ("x", "y")).gens())
    >>> generic_ranks(f), generic_ranks(f, trials=1)
    ([1, 1], [1, 1])
    """
    _check_trials(trials)
    problems = validate_complex(f)
    if problems:
        raise ValueError("\n".join(problems))
    diffs = f.differentials
    # best[i] belongs to d_(min_degree + i); best[0] and best[-1] stay 0
    best = [0] * (len(diffs) + 2)
    draws = _draws(f.ring, diffs, seed)
    for _ in range(trials):
        below = [best[i] < min(d.rows - best[i - 1], d.cols - best[i + 1])
                 for i, d in enumerate(diffs, 1)]
        if not any(below):
            break
        field, point = next(draws)
        values = [_values_at(d.columns, point, field) if b else None
                  for d, b in zip(diffs, below)]
        ranks = _ranks_at_point(field, values, f.ranks)
        for i, rank in enumerate(ranks, 1):
            best[i] = max(best[i], rank or 0)  # None: not ranked
    return best[1:-1]


def mat_generic_rank(a, trials=3, seed=0):
    """Monte Carlo generic rank: the largest rank over random specializations.

    This is `generic_ranks` on the complex whose one map is a, with its
    draws and its `trials` check: a trial ranks the matrix at a random
    point, over QQ modulo a random prime q.  The trials, and the elimination
    in each, stop once the rank is min(rows, cols), which no trial can
    exceed; a matrix alone proves no smaller rank.  More than MAX_TRIALS
    trials raises ValueError.

    The result is a lower bound on the generic rank: a minor that is
    nonzero mod q is nonzero at the point, and one that is nonzero at the
    point is a nonzero polynomial.  Over QQ the bound is reached unless
    every trial picks a root of a nonzero maximal minor (chance at most its
    degree over 2^20, by Schwartz-Zippel) or a q dividing its value (a value
    of b bits has at most b/30 of the ~5*10^7 primes in the range as
    factors).  Over a small prime field it can stay below: coordinates are
    taken mod p, so over GF(2) `[[x^2 + x]]` ranks 0 at every point.
    """
    return generic_ranks(FreeComplex(a.ring, 0, a.shape, (a,)), trials, seed)[0]


def _ranks_at_point(field, values, ranks):
    """The ranks of evaluated differentials d_1, d_2, ..., in ascending degree.

    values holds the columns of each differential at one point, or None for
    one left unranked (its rank reads None), and ranks the term ranks; the
    differentials compose to zero at the point.  The columns of d_k that
    raised its rank are independent, so their span meets ker d_k, which
    holds im d_(k+1), only in 0: deleting those rows from d_(k+1) keeps its
    rank (one pair step of Gaussian elimination on a chain complex).  An
    unranked d_k deletes no row.  Each elimination stops at
    min(cols, rows left).
    """
    out, skip = [], ()
    for i, cols in enumerate(values):
        rank, raised = None, []
        if cols is not None:
            rank = scalar_rank(field, cols, skip,
                               min(ranks[i + 1], ranks[i] - len(skip)), raised)
        out.append(rank)
        skip = set(raised)
    return out


def homology_ranks_at_point(f, point):
    """Homology ranks of the complex specialized at a point, low degree first.

    The point is checked once, before the differentials, so a complex with
    none still rejects a point that does not fit its ring.  Every
    differential is evaluated before any is ranked, and over QQ an entry
    whose value would exceed `ring.MAX_VALUE_BITS` raises ValueError.  Then
    d.d = 0 is proved at the point: `_d_squared_failures` scans the scalar
    products, each column an exact sum made only when the scan reaches it,
    so no polynomial is multiplied; its first line, followed by " at the
    point", is raised as ValueError.  The ranks are exact (`_ranks_at_point`).

    >>> from schurcx import PolyRing, RATIONALS, koszul_complex
    >>> f = koszul_complex(PolyRing(RATIONALS, ("x", "y")).gens())
    >>> homology_ranks_at_point(f, (1, 2))
    [0, 0, 0]
    """
    point = _coerce_point(f.ring, point)
    values = [d.evaluate(point) for d in f.differentials]

    def product(lower, upper):  # the columns of lower . upper, one at a time
        for entries in upper:
            acc = {}
            for j, c in entries.items():
                add_scaled(acc, lower[j], c)
            yield reduce_terms(f.ring.field, acc)

    for line in _d_squared_failures(map(product, values, values[1:]), f.min_degree):
        raise ValueError(line + " at the point")
    return homology_from_ranks(f, _ranks_at_point(f.ring.field, values, f.ranks))


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
    for i, r in enumerate(ranks):
        if r > MAX_FILE_RANK:
            raise ValueError("rank %d in degree %d exceeds %d"
                             % (r, data["min_degree"] + i, MAX_FILE_RANK))
    diffs = []
    for i, rows in enumerate(differentials):
        rows = [_array(r, "a row") for r in _array(rows, "a differential")]
        if len(rows) != ranks[i] or any(len(r) != ranks[i + 1] for r in rows):
            raise ValueError("differential %d has wrong shape" % (i + 1,))
        diffs.append(PolyMatrix.from_strings(ring, rows,
                                             shape=(ranks[i], ranks[i + 1])))
    return FreeComplex(ring, data["min_degree"], ranks, diffs)


def _write_json(data, fh):
    # streamed: the whole text of a large complex is never held at once
    json.dump(data, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _save_json(data, path):
    """Write the JSON of data to path; a failed write leaves path as it was.

    A regular or new file is replaced by a complete temporary file, created
    beside it as `open(path, "w")` would create it, with the old file's mode;
    a symlink is written through, a device, a pipe or a directory directly.
    """
    target = os.path.realpath(path)
    mode = None
    if os.path.exists(target):
        if not os.path.isfile(target):
            with open(path, "w") as fh:
                return _write_json(data, fh)
        open(target, "a").close()  # refused where open(path, "w") would be
        mode = os.stat(target).st_mode & 0o7777
    head, name = os.path.split(target)
    tmp = os.path.join(head, ".%s.%s.tmp" % (name, os.urandom(8).hex()))
    fh = open(tmp, "x")  # exclusive, 0o666 less the umask as for a new file
    try:
        with fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            _write_json(data, fh)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def save_complex(f, path):
    """Write f to path as `complex_to_dict` JSON, as `schur --out` does."""
    _save_json(complex_to_dict(f), path)


def load_complex(path):
    with open(path) as fh:
        return complex_from_dict(json.load(fh))
