"""Counts that the theory of Schur complexes predicts, computed without schurcx.

A shape is a tuple of row lengths.  For a free complex F with Euler
characteristic chi(F) = sum_k (-1)^k rank F_k, the Euler characteristic of
S_shape(F) is the content product prod_b (chi(F) + c(b)) / h(b), where c(b)
is column minus row and h(b) the hook length of box b (Akin, Buchsbaum and
Weyman, Adv. Math. 1982; Berele and Regev, Adv. Math. 1987).  Over QQ the
generic homology of S_shape(F) is S_shape(H) for the generic homology H of F.
"""

from fractions import Fraction


def partitions(size, cap=None):
    """All partitions of size with parts at most cap, largest part first."""
    if size == 0:
        yield ()
        return
    cap = size if cap is None else cap
    for first in range(min(size, cap), 0, -1):
        for rest in partitions(size - first, first):
            yield (first,) + rest


def content_product(shape, x):
    """prod over the boxes of the shape of (x + content) / hook, an integer."""
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])] if shape else []
    value = Fraction(1)
    for i, row in enumerate(shape):
        for j in range(row):
            hook = (row - j - 1) + (columns[j] - i - 1) + 1
            value *= Fraction(x + j - i, hook)
    if value.denominator != 1:
        raise ArithmeticError("content product of %r at %d is not an integer" % (shape, x))
    return int(value)


def euler_characteristic(min_degree, ranks):
    return sum((-1) ** (min_degree + i) * r for i, r in enumerate(ranks))


def odd_schur_dimension(shape, rank):
    """dim S_shape(H) for H free of the given rank in homological degree 1."""
    return (-1) ** sum(shape) * content_product(shape, -rank)


def homology_from_ranks(min_degree, ranks, d_ranks):
    """{degree: rank F_k - rank d_k - rank d_(k+1)}; d_ranks[i] is d_(min_degree+i+1)."""
    d = {min_degree + i + 1: r for i, r in enumerate(d_ranks)}
    return {min_degree + i: r - d.get(min_degree + i, 0) - d.get(min_degree + i + 1, 0)
            for i, r in enumerate(ranks)}
