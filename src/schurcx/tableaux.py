"""Z/2-graded Young tableaux, column normalization, and straightening.

Entries are nonzero integers: -i refers to the i-th odd basis vector (a
divided power generator, allowed to repeat inside a column) and +j to the
j-th even basis vector (an exterior generator, never repeated inside a
column).  Entries are ordered as integers, so every negative entry precedes
every positive one.

A tableau of shape lambda is stored by columns: column i is the tuple of
entries of the i-th column of the Young diagram, read top to bottom, and
stands for a vector in the c_i-th exterior power of the underlying complex
(c = conjugate shape).  A tableau is standard when

  (A) every column weakly increases top to bottom, repeats only negative, and
  (B) every row weakly increases left to right, repeats only positive.

(A) makes each column canonical (`normalize_column`) and (B) bars a
`_row_violation` between adjacent columns: `enumerate_standard` chains
canonical columns that keep (B), and `straighten` rewrites a non-standard
tableau by repeatedly rewriting the leftmost pair of adjacent columns that
breaks (B), using the quadratic relation between the two columns
(`theta_image`) at the pair's first violation.  That relation depends on the
pair alone, so it is built and looked up by the pair (`_exchange`).  Every
rewrite yields smaller tableaux, and the largest pending tableau is taken
first, so each tableau is rewritten at most once and the work is bounded by
the number of fillings of the input's content: the (2^k) tableau whose every
row breaks (B) takes 17, 56, 172 and 624 `_exchange` lookups for k = 4..7.

Sign conventions: every column sign is the sign of one signed sort
(`_signed_sort`, behind `normalize_column`), which sorts letters by adjacent
swaps: swapping two negative entries keeps the sign, because two odd letters
commute, and any other swap flips it.  This makes the column spaces divided
powers on the odd part and exterior powers on the even part.  In those terms
`column_product(x, y)` is the signed sort of the word x + y times a binomial
C(a + b, b) for each odd letter that x holds a times and y b times, and
`wedge_coproduct` splits a column into each distinct sub-multiset and its
complement, signed by sorting the two back into the column.

    >>> column_product((-1,), (-1,))
    ((-1, -1), 2)
    >>> column_product((2,), (1,))
    ((1, 2), -1)
    >>> normalize_column([1, 1]) is None
    True

Across the package a tableau is its tuple of column tuples.  `Tableau`,
that tuple validated and equal to it, is built only where a tableau comes in
from outside and for the keys that `straighten` returns.

Caches: three, process-wide.  `_straighten_columns` holds whole tableaux,
keyed by their canonical columns (`straighten` normalizes its input once,
before the lookup); beneath it `column_product` is keyed by a pair of
columns and `_exchange` by a pair of adjacent columns, in row order or not.
Those keys are words in the m + n letters no longer than two columns, so
their size depends on the column lengths and the number of letters, not on
the ring or the number of tableaux straightened: building S_(3,2) of
Koszul(x,y,z) leaves 150 and 981 entries, against 3,929 straightened
tableaux.  Every cached value is a tuple; the functions that return dicts
build a fresh one on each call.
"""

import itertools
from functools import lru_cache
from math import comb, prod


class Partition(tuple):
    """A weakly decreasing tuple of positive row lengths, validated on creation."""

    __slots__ = ()

    def __new__(cls, parts):
        self = super().__new__(cls, parts)
        if not all(type(p) is int for p in self):  # not float, not bool
            raise ValueError("partition parts must be integers")
        if any(p <= 0 for p in self):
            raise ValueError("partition parts must be positive")
        if any(a < b for a, b in zip(self, self[1:])):
            raise ValueError("partition parts must weakly decrease")
        return self

    @property
    def size(self):
        return sum(self)

    def column_lengths(self):
        """Lengths of the columns of the Young diagram."""
        if not self:
            return ()
        return tuple(sum(1 for p in self if p >= i)
                     for i in range(1, self[0] + 1))

    def conjugate(self):
        return Partition(self.column_lengths())

    def __repr__(self):
        return "Partition(%s)" % (list(self),)


class Tableau(tuple):
    """A filling of a Young diagram: its tuple of column tuples, validated."""

    __slots__ = ()

    def __new__(cls, columns):
        self = super().__new__(cls, (tuple(col) for col in columns))
        if not self or any(not col for col in self):
            raise ValueError("empty column")
        if any(len(a) < len(b) for a, b in zip(self, self[1:])):
            raise ValueError("column lengths must weakly decrease")
        if not all(type(v) is int for col in self for v in col):
            raise ValueError("entries must be integers")
        if any(v == 0 for col in self for v in col):
            raise ValueError("zero is not a valid entry")
        return self

    @classmethod
    def from_entries(cls, shape, entries):
        """Build from a shape (row lengths) and [column, row, value] records."""
        shape = Partition(shape)
        entries = list(entries)
        # checked before any per-box work, which a huge shape makes unbounded
        if len(entries) != shape.size:
            raise ValueError("%d records for a shape of %d boxes"
                             % (len(entries), shape.size))
        lengths = shape.column_lengths()
        cols = [[None] * c for c in lengths]
        for record in entries:
            if len(record) != 3:
                raise ValueError("record %r is not [column, row, value]" % (record,))
            i, j, v = record
            if type(i) is not int or type(j) is not int:
                raise ValueError("box position %r, %r is not a pair of integers"
                                 % (i, j))
            if not (1 <= i <= len(lengths)) or not (1 <= j <= lengths[i - 1]):
                raise ValueError("entry outside the diagram at (%d, %d)" % (i, j))
            if cols[i - 1][j - 1] is not None:
                raise ValueError("box (%d, %d) filled twice" % (i, j))
            cols[i - 1][j - 1] = v
        return cls(cols)  # one record per box, none twice: every box is filled

    @property
    def shape(self):
        """Row lengths, as a Partition."""
        return Partition([len(c) for c in self]).conjugate()

    def __repr__(self):
        return "Tableau(%s)" % (list(list(c) for c in self),)


def to_entries(columns):
    """The [column, row, value] records of a tableau given by its columns."""
    return [[i, j, v] for i, col in enumerate(columns, start=1)
            for j, v in enumerate(col, start=1)]


def _signed_sort(letters):
    """Sort letters by adjacent swaps; returns (sorted list, sign).

    Swapping two negative (odd) letters keeps the sign; any other swap flips it.
    """
    work = list(letters)
    sign = 1
    for i in range(len(work)):
        for j in range(len(work) - 1 - i):
            x, y = work[j], work[j + 1]
            if x > y:
                work[j], work[j + 1] = y, x
                if x > 0 or y > 0:
                    sign = -sign
    return work, sign


def normalize_column(entries):
    """Sort a column into canonical order, tracking the sign.

    Returns (canonical tuple, sign) or None when the column vanishes
    (a repeated positive entry).  Canonical order is weakly increasing:
    negatives first with repeats kept, then distinct positives.
    """
    work, sign = _signed_sort(entries)
    for a, b in zip(work, work[1:]):
        if a == b and a > 0:
            return None
    return tuple(work), sign


# -- column algebra ----------------------------------------------------------

@lru_cache(maxsize=None)
def column_product(x, y):
    """Multiply two column tuples; None when the product vanishes.

    An odd letter v that a column holds k times stands for the divided power
    v^(k).  Returns (canonical column, integer coefficient): the signed sort
    of the word x + y, times C(a + b, b) for each odd letter held a times by
    x and b times by y, since v^(a) v^(b) = C(a + b, b) v^(a + b).  Cached
    by (x, y), so both must be tuples.
    """
    norm = normalize_column(x + y)
    if norm is None:
        return None
    col, coeff = norm
    for v in set(x).intersection(y):  # only odd letters: even repeats vanished
        b = y.count(v)
        coeff *= comb(x.count(v) + b, b)
    return col, coeff


def wedge_coproduct(x, split):
    """Split a canonical column into two, summing over all ways.

    Returns {(left column, right column): sign} for the component of the
    comultiplication landing in box counts `split`: one term per distinct
    sub-multiset `left` of size p, with `right` its complement and the sign
    that of sorting left + right back into x.
    """
    p, q = split
    x = tuple(x)
    if p + q != len(x) or p < 0 or q < 0:
        raise ValueError("split %r does not match column size %d" % (split, len(x)))
    out = {}
    for chosen in itertools.combinations(range(len(x)), p):
        left = tuple(x[i] for i in chosen)
        right = tuple(v for i, v in enumerate(x) if i not in chosen)
        if (left, right) not in out:
            out[left, right] = _signed_sort(left + right)[1]
    return out


def theta_image(v1, v2, v3, ca, cb):
    """Expand one quadratic relation generator into column pairs.

    v1, v2, v3 are canonical column tuples, len(v1) + len(v2) + len(v3)
    equal to ca + cb; v2 is split into a (ca - len(v1), cb - len(v3)) piece,
    the left part multiplies v1 and the right part multiplies into v3.  Returns
    {(column of length ca, column of length cb): integer coefficient}, one
    term per split whose two products survive: a product's sorted column
    fixes its part of v2, so no two splits give one pair.
    """
    out = {}
    split = (ca - len(v1), cb - len(v3))
    for (left, right), sign in wedge_coproduct(v2, split).items():
        a = column_product(v1, left)
        b = a and column_product(right, v3)
        if b:  # (column, coefficient) of each product, None where it vanishes
            out[a[0], b[0]] = sign * a[1] * b[1]
    return out


def _row_violation(left, right):
    """First row i breaking (B): left[i] > right[i] or one odd letter; else None."""
    for i, (x, y) in enumerate(zip(left, right)):
        if x > y or (x == y and x < 0):
            return i
    return None


@lru_cache(maxsize=None)
def _exchange(left, right):
    """The relation that removes the first violation between two columns.

    left and right are canonical columns.  Returns None when the pair keeps
    the row order.  Otherwise let row i hold the pair's first violation (see
    `_row_violation`), and let split be the first index past i where right
    holds an entry above right[i], or len(right).  The relation is
    `theta_image` of left[:i], the middle block left[i:] + right[:split]
    sorted, and right[split:]; it contains the pair itself with a
    coefficient lead of +1 or -1.  Returns ((new left, new right), lead * k)
    for each of its other terms k: the pair equals minus their sum modulo
    the relations.  Every new left column sorts before left.

    Two invariants make every violation rewritable:
      * i + (len(right) - split) <= len(right) - 1, since split > i, so the
        relation is admissible;
      * every entry of left[i:] is >= left[i] >= right[i] >= every entry of
        right[:split], and an entry on both sides equals left[i] == right[i],
        which is then odd, so the middle block never repeats an even letter.
    """
    i = _row_violation(left, right)
    if i is None:
        return None
    split = next((j for j in range(i + 1, len(right)) if right[j] > right[i]),
                 len(right))
    middle = tuple(sorted(left[i:] + right[:split]))
    relation = theta_image(left[:i], middle, right[split:], len(left), len(right))
    lead = relation.pop((left, right))
    if lead not in (1, -1):
        raise AssertionError("leading coefficient %d is not a unit" % lead)
    return tuple((other, lead * k) for other, k in relation.items())


@lru_cache(maxsize=None)
def _straighten_columns(columns):
    """Straighten canonical columns; returns ((standard columns, coeff), ...).

    The columns must be canonical.  Each step takes the largest pending
    tableau and rewrites its leftmost adjacent pair whose `_exchange` is not
    None; with no such pair it is standard, its coefficient final.  Every
    term keeps the columns before the pair and a left column sorting before
    the old one, so it is smaller: each tableau is rewritten at most once,
    within the fillings of the input's content (module docstring).  Reversed,
    the result is sorted by column tuple: the column reading word order.
    """
    result = []
    pending = {columns: 1}
    while pending:
        t = max(pending)
        coeff = pending.pop(t)
        for a in range(1, len(t)):
            relation = _exchange(t[a - 1], t[a])
            if relation is not None:
                break
        else:
            result.append((t, coeff))
            continue
        head, tail = t[:a - 1], t[a + 1:]
        for pair, k in relation:
            other = head + pair + tail
            c = pending.get(other, 0) - coeff * k
            if c:
                pending[other] = c
            else:
                pending.pop(other, None)
    return tuple(reversed(result))


def straighten(t):
    """Rewrite a tableau as a combination of standard tableaux.

    Returns {standard Tableau: integer coefficient} in the order of the
    column reading word; the empty map when the tableau is zero (some column
    repeats a positive entry).  t, any tuple of columns, gets the checks of
    `Tableau`; its columns are normalized once, here, and the product of
    their signs multiplies the result.

    >>> straighten(Tableau(((2, 1), (3,))))
    {Tableau([[1, 2], [3]]): -1}
    >>> straighten(Tableau(((-1, -2), (-1,))))
    {Tableau([[-2, -1], [-1]]): 1}
    """
    norms = [normalize_column(col) for col in Tableau(t)]
    if None in norms:
        return {}
    sign = prod(s for _, s in norms)
    canon = tuple(col for col, _ in norms)
    return {Tableau(cols): sign * c for cols, c in _straighten_columns(canon)}


# -- enumeration -------------------------------------------------------------

def _canonical_columns(length, m, n):
    """Every canonical column of the length over {-m..-1, 1..n}, sorted.

    Each is k odd letters with repeats, then length - k distinct even letters.
    """
    return sorted(odd + even
                  for k in range(max(0, length - n), length + 1)
                  for odd in itertools.combinations_with_replacement(range(-m, 0), k)
                  for even in itertools.combinations(range(1, n + 1), length - k))


def enumerate_standard(shape, m, n):
    """All standard tableaux of the shape with entries in {-m..-1, 1..n}.

    Chains of canonical columns grow one column at a time, each by the
    sorted columns its last one may precede (no `_row_violation`), so they
    come out in column reading word order, each a plain tuple of column
    tuples.  The empty shape raises ValueError.

    >>> enumerate_standard((2,), 1, 1)
    [((-1,), (1,)), ((1,), (1,))]
    """
    lengths = Partition(shape).column_lengths()
    if not lengths:
        raise ValueError("the empty shape () has no boxes to fill")
    chains = [(col,) for col in _canonical_columns(lengths[0], m, n)]
    for length in lengths[1:]:
        columns = _canonical_columns(length, m, n)
        follow = {left: [col for col in columns if _row_violation(left, col) is None]
                  for left in {t[-1] for t in chains}}
        chains = [t + (col,) for t in chains for col in follow[t[-1]]]
    return chains
