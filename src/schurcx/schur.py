"""Schur complexes of free complexes, built on the standard tableau basis.

For a shape lambda and a complex F, the terms of the Schur complex are
spanned by the standard tableaux with entries labeling the odd and even
basis vectors of F, graded by the total homological degree of the entries.
The differential replaces one entry at a time by the image of its basis
vector under the differential of F, multiplies the new letter back into the
column, and straightens the result.
"""

from .complexes import FreeComplex, parity_split
from .ring import PolyMatrix, Polynomial, add_scaled, reduce_terms
from .tableaux import (Partition, column_product, enumerate_standard,
                       _straighten_columns)


def tableau_degree(t, parity):
    """Total homological degree of a tableau's entries."""
    return sum(parity.degree_of(v) for col in t.columns for v in col)


class SchurBasis:
    """Standard tableaux of one shape over a complex, grouped by degree."""

    def __init__(self, shape, f):
        if not isinstance(shape, Partition):
            shape = Partition(shape)
        self.shape = shape
        self.parity = parity_split(f)
        tabs = enumerate_standard(shape, self.parity.m, self.parity.n,
                                  entry_degree=self.parity.degree_of)
        self.by_degree = {}
        for t in tabs:
            self.by_degree.setdefault(tableau_degree(t, self.parity), []).append(t)
        if self.by_degree:
            self.min_degree = min(self.by_degree)
            self.max_degree = max(self.by_degree)
        else:
            self.min_degree = 0
            self.max_degree = 0

    def at(self, k):
        return self.by_degree.get(k, [])

    def degrees(self):
        return range(self.min_degree, self.max_degree + 1)

    def is_empty(self):
        return not self.by_degree

    def __repr__(self):
        return "SchurBasis(%r, degrees %d..%d)" % (
            list(self.shape.parts), self.min_degree, self.max_degree)


def _entry_differential_table(f, parity):
    """For every entry label, the terms of d on its basis vector.

    Returns {label: [(term map of the polynomial, target label), ...]};
    empty at the bottom degree.  Targets always sit one homological degree
    lower, so they flip parity.
    """
    table = {}
    for label in list(range(-parity.m, 0)) + list(range(1, parity.n + 1)):
        deg, idx = parity.info(label)
        terms = []
        d = f.differential_from(deg)
        if d is not None:
            for row, p in d.columns[idx].items():
                terms.append((p.terms, parity.label_of(deg - 1, row)))
        table[label] = terms
    return table


def _replace_terms(columns, ci, pos, new_label):
    """Substitute a letter into a column and renormalize.

    The letter at position pos of column ci is removed and new_label is
    multiplied back in at that spot; returns (column tuple, integer
    coefficient) or None when the product vanishes.
    """
    col = columns[ci]
    prefix = col[:pos]
    suffix = col[pos + 1:]
    inner = column_product((new_label,), suffix)
    if inner is None:
        return None
    merged, c1 = inner
    outer = column_product(prefix, merged)
    if outer is None:
        return None
    final, c2 = outer
    return final, c1 * c2


def _differential(columns, table, parity):
    """Image of a standard tableau, given by its columns, under d.

    Returns {standard column tuple: term map}, the term maps summed but not
    yet reduced (see `reduce_terms`).  Every entry (once per distinct
    negative value in a column, once per positive entry) is replaced by the
    terms of d on its basis vector, with the sign of the degrees of all
    earlier boxes in column order; divided powers step down a single time
    per value, which is exactly the divided-power chain rule.
    """
    result = {}
    prefix_degree = 0
    for ci, col in enumerate(columns):
        offset = 0
        for pos, v in enumerate(col):
            if pos > 0 and col[pos - 1] == v and v < 0:
                offset += parity.degree_of(v)
                continue
            sign = -1 if (prefix_degree + offset) % 2 else 1
            for terms, label in table[v]:
                replaced = _replace_terms(columns, ci, pos, label)
                if replaced is None:
                    continue
                new_col, k = replaced
                cols = columns[:ci] + (new_col,) + columns[ci + 1:]
                scale = sign * k
                for std, c in _straighten_columns(cols):
                    acc = result.get(std)
                    if acc is None:
                        acc = result[std] = {}
                    add_scaled(acc, terms, scale * c)
            offset += parity.degree_of(v)
        prefix_degree += offset
    return result


def schur_complex(shape, f):
    """The Schur complex of a free complex, on the standard tableau basis.

    Term ranks count standard tableaux per total degree (gaps get rank 0)
    and column j of the differential from degree k is the image of the j-th
    standard tableau of degree k, in the canonical tableau order.  The shape
    may also be given as its SchurBasis over f, already enumerated.
    """
    basis = shape if isinstance(shape, SchurBasis) else SchurBasis(shape, f)
    ring = f.ring
    if basis.is_empty():
        return FreeComplex(ring, 0, (0,), ())
    parity = basis.parity
    table = _entry_differential_table(f, parity)
    degrees = list(basis.degrees())
    ranks = [len(basis.at(k)) for k in degrees]
    diffs = []
    for k in degrees[1:]:
        sources = basis.at(k)
        targets = basis.at(k - 1)
        row_of = {t.columns: i for i, t in enumerate(targets)}
        mat = PolyMatrix.zero(ring, len(targets), len(sources))
        for t, col in zip(sources, mat.columns):
            for std, acc in _differential(t.columns, table, parity).items():
                terms = reduce_terms(ring.field, acc)
                if terms:
                    col[row_of[std]] = Polynomial(ring, terms)
        diffs.append(mat)
    return FreeComplex(ring, basis.min_degree, ranks, diffs)


def exterior_power(r, f):
    """Exterior power as the Schur complex of a single column."""
    if r < 1:
        raise ValueError("power must be positive")
    return schur_complex(Partition([1] * r), f)


def symmetric_power(r, f):
    """Symmetric power as the Schur complex of a single row."""
    if r < 1:
        raise ValueError("power must be positive")
    return schur_complex(Partition([r]), f)
