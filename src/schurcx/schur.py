"""Schur complexes of free complexes, built on the standard tableau basis.

For a shape lambda and a complex F, the terms of the Schur complex are
spanned by the standard tableaux with entries labeling the odd and even
basis vectors of F, graded by the total homological degree of the entries.
`SchurBasis` fixes that labeling and grading: the odd basis vectors are
-m..-1 and the even ones 1..n, each run in ascending (degree, index) order.
The differential replaces one entry at a time by the image of its basis
vector under the differential of F, sorts the new letter into the column,
and straightens the result.
"""

from .complexes import FreeComplex
from .ring import PolyMatrix, add_scaled, reduce_terms
from .tableaux import (Partition, column_product, enumerate_standard,
                       _straighten_columns)


class SchurBasis:
    """Standard tableaux of one shape over a complex, grouped by degree.

    `position` maps each entry label to the (degree, index) of its basis
    vector of F and `degree` maps it to that degree alone.  Labels -m..-1
    name the m basis vectors of odd degree and 1..n the n of even degree,
    ascending labels following ascending (degree, index), so single-box
    tableaux in canonical order list the basis of F in its own order.
    `at(k)` lists the standard tableaux of total degree k, as tuples of
    column tuples, in the order of their column reading words.
    """

    def __init__(self, shape, f):
        self.shape = shape = Partition(shape)
        odd, even = [], []
        for k in f.degrees():
            (odd if k % 2 else even).extend((k, i) for i in range(f.rank_at(k)))
        labels = list(range(-len(odd), 0)) + list(range(1, len(even) + 1))
        self.position = dict(zip(labels, odd + even))
        self.degree = {v: k for v, (k, _) in self.position.items()}
        by_degree = {}
        for t in enumerate_standard(shape, len(odd), len(even)):
            k = sum(self.degree[v] for col in t for v in col)
            by_degree.setdefault(k, []).append(t)
        self.by_degree = by_degree
        self.min_degree = min(by_degree, default=0)
        self.max_degree = max(by_degree, default=0)

    def at(self, k):
        return self.by_degree.get(k, [])

    def degrees(self):
        return range(self.min_degree, self.max_degree + 1)

    def __repr__(self):
        return "SchurBasis(%r, degrees %d..%d)" % (
            list(self.shape), self.min_degree, self.max_degree)


def _entry_differential_table(f, basis):
    """For every entry label, the terms of d on its basis vector.

    Returns {label: [(stored term map of the entry, target label), ...]};
    empty at the bottom degree.  Targets always sit one homological degree
    lower, so they flip parity.
    """
    label_at = {pos: v for v, pos in basis.position.items()}
    table = {}
    for label, (deg, idx) in basis.position.items():
        d = f.differential_from(deg)
        table[label] = [] if d is None else [
            (terms, label_at[deg - 1, row]) for row, terms in d.columns[idx].items()]
    return table


def _differential(columns, table):
    """Image of a standard tableau, given by its columns, under d.

    Returns {standard column tuple: term map}, the term maps summed but not
    yet reduced (see `reduce_terms`).  Every entry (once per distinct
    negative value in a column, once per positive entry) is replaced by the
    terms of d on its basis vector, with the sign (-1)^(odd letters in
    earlier boxes), repeats counted, boxes in column order, negative labels
    odd; divided powers step down a single time per value, which is exactly
    the divided-power chain rule.  The new letter goes in as the column
    product of the letters before the run and the letter followed by the
    rest of the column.
    """
    result = {}
    odd = False  # parity of the odd letters in the boxes before this one
    for ci, col in enumerate(columns):
        for pos, v in enumerate(col):
            sign = -1 if odd else 1
            odd ^= v < 0
            if pos > 0 and col[pos - 1] == v and v < 0:
                continue
            for terms, label in table[v]:
                replaced = column_product(col[:pos], (label,) + col[pos + 1:])
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
    return result


def schur_complex(shape, f):
    """The Schur complex of a free complex, on the standard tableau basis.

    Term ranks count standard tableaux per total degree (gaps get rank 0)
    and column j of the differential from degree k is the image of the j-th
    standard tableau of degree k, in the canonical tableau order.  A shape
    with no standard tableau over f gives the zero complex in degree 0.
    """
    return _assemble(SchurBasis(shape, f), f)


def _assemble(basis, f):
    """The Schur complex of f on basis, a `SchurBasis` over f."""
    ring = f.ring
    table = _entry_differential_table(f, basis)
    degrees = list(basis.degrees())
    ranks = [len(basis.at(k)) for k in degrees]
    diffs = []
    for k in degrees[1:]:
        sources = basis.at(k)
        targets = basis.at(k - 1)
        row_of = {t: i for i, t in enumerate(targets)}
        mat = PolyMatrix.zero(ring, len(targets), len(sources))
        for t, col in zip(sources, mat.columns):
            for std, acc in _differential(t, table).items():
                terms = reduce_terms(ring.field, acc)
                if terms:
                    col[row_of[std]] = terms
        diffs.append(mat)
    return FreeComplex(ring, basis.min_degree, ranks, diffs)


def exterior_power(r, f):
    """Exterior power as the Schur complex of a single column."""
    return schur_complex(Partition((r,)).conjugate(), f)


def symmetric_power(r, f):
    """Symmetric power as the Schur complex of a single row."""
    return schur_complex((r,), f)
