"""Independent oracles that the tests check the tableau core against.

`tensor_embed` realizes the column sign rules inside the tensor algebra, and
`relation_membership` tests a tableau combination against the span of the
quadratic exchange relations.  Both are exponential in the number of boxes.
`is_standard` decides standardness from its definition.
`straighten_whole_tableau` is the reference straightener: it rebuilds the
relation of the whole tableau at each step instead of looking it up by a
pair of columns.  No core module imports this one.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

from .ring import RATIONALS, SparseEchelon
from .tableaux import Partition, Tableau, normalize_column, theta_image


def column_basis(length, m, n):
    """All canonical columns of a length, sorted; divided entries may repeat."""
    out = []
    for k in range(length + 1):
        for negs in itertools.combinations_with_replacement(range(-m, 0), k):
            for poss in itertools.combinations(range(1, n + 1), length - k):
                out.append(tuple(negs) + tuple(poss))
    out.sort()
    return out


def _add(out, key, c):
    """Add c to out[key], dropping the key when the sum is zero."""
    c += out.get(key, 0)
    if c:
        out[key] = c
    else:
        out.pop(key, None)


# -- tensor algebra oracle ---------------------------------------------------

def _pair_sign(x, y):
    """Sign for transposing adjacent letters: odd pairs commute."""
    return 1 if (x < 0 and y < 0) else -1


def tensor_embed(x):
    """Expand a canonical column in tensor coordinates.

    Returns {tuple of entry labels: integer coefficient}: the sum over
    interleavings of its divided word with each signed permutation of its
    exterior word.
    """
    col = tuple(x)
    negs = [v for v in col if v < 0]
    poss = [v for v in col if v > 0]
    r = len(col)
    out = {}
    # divided block: unsigned shuffle of repeated letters, so every distinct
    # rearrangement of the negative multiset appears once
    for word_neg in set(itertools.permutations(negs)):
        for perm in itertools.permutations(range(len(poss))):
            psign = 1
            for i in range(len(perm)):
                for j in range(i + 1, len(perm)):
                    if perm[i] > perm[j]:
                        psign = -psign
            word_pos = [poss[i] for i in perm]
            for slots in itertools.combinations(range(r), len(negs)):
                word = [None] * r
                chosen = set(slots)
                ni = iter(word_neg)
                pi = iter(word_pos)
                for k in range(r):
                    word[k] = next(ni) if k in chosen else next(pi)
                crossings = 0
                for k, s in enumerate(slots):
                    crossings += sum(1 for t in range(s) if t not in chosen)
                sign = psign * (-1 if crossings % 2 else 1)
                _add(out, tuple(word), sign)
    return out


def shuffle_mul(u, v):
    """Shuffle product on tensor coordinates with the letter sign rule."""
    out = {}
    for w1, c1 in u.items():
        for w2, c2 in v.items():
            p, q = len(w1), len(w2)
            for slots in itertools.combinations(range(p + q), p):
                chosen = set(slots)
                word = [None] * (p + q)
                i1 = iter(w1)
                i2 = iter(w2)
                for k in range(p + q):
                    word[k] = next(i1) if k in chosen else next(i2)
                # sign: one factor per crossed pair, i.e. per letter of w2
                # that ends up before a letter of w1
                sign = 1
                for a, s in enumerate(slots):
                    for t in range(s):
                        if t not in chosen:
                            sign *= _pair_sign(w1[a], word[t])
                _add(out, tuple(word), c1 * c2 * sign)
    return out


# -- whole-tableau straightening ---------------------------------------------

def _first_violation(columns):
    """(column index, row) of the topmost, leftmost row violation, or None.

    A row violation is a box whose entry is above its right neighbour's, or
    equal to it and odd.  Column index a names the pair a - 1, a.
    """
    for row in range(len(columns[0])):
        for a in range(1, len(columns)):
            if row >= len(columns[a]):
                break  # columns weakly shorten, so the rest are shorter too
            x, y = columns[a - 1][row], columns[a][row]
            if x > y or (x == y and x < 0):
                return a, row
    return None


def is_standard(t):
    """Whether a tableau, given by its columns, is standard, from the definition.

    Every column is canonical (weakly increasing, repeating only negative
    entries) and `_first_violation` finds no row violation.  It never calls
    `_row_violation`, the core's own row rule, nor `_exchange`.
    """
    return (all(a < b or a == b < 0 for col in t for a, b in zip(col, col[1:]))
            and _first_violation(t) is None)


def straighten_whole_tableau(columns):
    """Straighten a tableau given by its columns, one whole relation at a time.

    Returns ((standard columns, coefficient), ...) sorted, as
    `tableaux._straighten_columns` does, but takes any columns and
    normalizes them first.  At each step it finds the topmost, leftmost row
    violation, splits the two columns there, and expands the relation with
    `theta_image` over the whole tableau.  It never calls `_exchange`.
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
        found = _first_violation(t)
        if found is None:
            _add(result, t, coeff)
            continue
        a, row = found
        left, right = t[a - 1], t[a]
        split = row + 1
        while split < len(right) and right[split] <= right[row]:
            split += 1
        middle, _ = normalize_column(left[row:] + right[:split])
        relation = {t[:a - 1] + pair + t[a + 1:]: k for pair, k in theta_image(
            left[:row], middle, right[split:], len(left), len(right)).items()}
        lead = relation.pop(t)
        assert lead in (1, -1)
        for other, k in relation.items():
            _add(pending, other, -coeff * lead * k)
    return tuple(sorted(result.items()))


# -- relation span oracle ----------------------------------------------------

@lru_cache(maxsize=None)
def _theta_pair_rows(ca, cb, m, n):
    """Independent relation rows between one adjacent column pair.

    Rows are sparse vectors over pairs (left column, right column), one per
    relation generator that is independent of the ones before it.
    """
    ech = SparseEchelon(RATIONALS)
    rows = []
    for u in range(ca + 1):
        for v in range(cb - u):
            basis_u = column_basis(u, m, n)
            basis_mid = column_basis(ca - u + cb - v, m, n)
            basis_v = column_basis(v, m, n)
            for v1 in basis_u:
                for v3 in basis_v:
                    for v2 in basis_mid:
                        image = theta_image(v1, v2, v3, ca, cb)
                        if ech.insert(image):
                            rows.append(tuple(sorted(image.items())))
    return tuple(rows)


class RelationSpan:
    """Echelon basis of the quadratic relation span for one shape and range.

    Coordinates run over tuples of canonical columns of the shape's column
    lengths ('all fillings with sorted columns').  The quotient by this span
    is the Schur space, whose dimension must match the standard tableau count.
    """

    def __init__(self, shape, m, n):
        self.shape = shape = Partition(shape)
        self.m = m
        self.n = n
        lengths = shape.column_lengths()
        self.lengths = lengths
        self.bases = [column_basis(c, m, n) for c in lengths]
        self.index = {}
        for i, combo in enumerate(itertools.product(*self.bases)):
            self.index[combo] = i
        self.dimension = len(self.index)
        self.echelon = SparseEchelon(RATIONALS)
        self._build()

    def _build(self):
        lengths = self.lengths
        t = len(lengths)
        for a in range(t - 1):
            pair_rows = _theta_pair_rows(lengths[a], lengths[a + 1], self.m, self.n)
            if not pair_rows:
                continue
            sides = [self.bases[k] for k in range(t) if k not in (a, a + 1)]
            for bystander in itertools.product(*sides):
                pre = bystander[:a]
                post = bystander[a:]
                for row in pair_rows:
                    vec = {}
                    for (col_a, col_b), coeff in row:
                        combo = pre + (col_a, col_b) + post
                        vec[self.index[combo]] = coeff
                    self.echelon.insert(vec)

    @property
    def rank(self):
        return self.echelon.rank

    @property
    def quotient_dimension(self):
        return self.dimension - self.rank

    def vector_of(self, combination):
        """Coordinates of {tableau: coefficient} over the spanning fillings.

        Columns are normalized first; coefficients become Fractions.
        """
        vec = {}
        for t, coeff in combination.items():
            sign = 1
            cols = []
            for col in t:
                norm = normalize_column(col)
                if norm is None:
                    break
                cols.append(norm[0])
                sign *= norm[1]
            else:
                idx = self.index[tuple(cols)]
                vec[idx] = vec.get(idx, 0) + Fraction(coeff) * sign
        return vec

    def contains(self, combination):
        return self.echelon.contains(self.vector_of(combination))


def relation_membership(combination, m=None, n=None):
    """True when a tableau combination lies in the quadratic relation span.

    All tableaux must share one shape.  The entry range defaults to the
    smallest range covering the entries.  Guarded to small shapes: the
    spanning set is exponential in the number of boxes.
    """
    if not combination:
        return True
    shapes = {Tableau(t).shape for t in combination}
    if len(shapes) > 1:
        raise ValueError("mixed shapes in combination")
    shape = shapes.pop()
    if shape.size > 8:
        raise ValueError("size guard: shapes above 8 boxes are not supported")
    entries = [v for t in combination for col in t for v in col]
    if m is None:
        m = max((-v for v in entries if v < 0), default=0)
    if n is None:
        n = max((v for v in entries if v > 0), default=0)
    span = RelationSpan(shape, m, n)
    return span.contains(combination)
