"""Independent oracles that the tests check the tableau core against.

`tensor_embed` realizes the column sign rules inside the tensor algebra.
`abw_image` is the map of Akin, Buchsbaum and Weyman from columns to rows,
whose image is the Schur module and whose kernel is the span of the
exchange relations: a straightened tableau must have the image of the
tableau, standard tableaux independent images, and `row_derivation` of an
image must be the image of d.  It is built from the definition alone and
has no size guard; its cost grows with the product of the column heights'
factorials, not with the number of fillings.  `is_standard` decides
standardness from its definition.  This module imports no module of the
package, and no core module imports it.
"""

import itertools
from math import prod


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


def _inversions(seq):
    """The number of pairs i < j with seq[i] > seq[j]."""
    return sum(a > b for a, b in itertools.combinations(seq, 2))


def tensor_embed(x):
    """Expand a canonical column in tensor coordinates.

    Returns {tuple of entry labels: integer coefficient}: one term per
    distinct rearrangement of the column, signed -1 per inverted pair that
    is not two odd letters, since the column is a divided power of its odd
    letters times an exterior power of its even ones.  A repeated even
    letter gives the empty map.
    """
    even = [v for v in x if v > 0]
    if len(set(even)) < len(even):
        return {}
    return {w: (-1) ** (_inversions(w) - _inversions([v for v in w if v < 0]))
            for w in sorted(set(itertools.permutations(x)))}


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


# -- the ABW map -------------------------------------------------------------

def _row_sort(row):
    """Sort a row in the super-symmetric algebra: (sorted tuple, sign) or None.

    Even letters commute and odd letters anticommute, so the sign is -1 per
    inverted pair of odd letters, and a repeated odd letter makes the row
    zero (None).
    """
    odd = [v for v in row if v < 0]
    if len(odd) < 2:
        return tuple(sorted(row)), 1
    if len(set(odd)) < len(odd):
        return None
    return tuple(sorted(row)), (-1) ** _inversions(odd)


def abw_image(columns):
    """Image of a tableau under the map that defines its Schur module.

    Akin, Buchsbaum and Weyman map the tensor of the column spaces to the
    tensor of the row spaces; the Schur module is the image, and the
    exchange relations span the kernel.  Each column, a canonical one,
    expands by `tensor_embed`, the words are concatenated in column order,
    the letters move into row-reading order with -1 per pair of odd letters
    that cross, and each row is sorted by `_row_sort`.  Returns {tuple of
    sorted rows: integer coefficient}.

    >>> abw_image(((1,), (2,)))    # even letters commute along a row
    {((1, 2),): 1}
    >>> abw_image(((1,), (1,)))    # and may repeat there
    {((1, 1),): 1}
    >>> abw_image(((-1,), (-1,)))  # a repeated odd letter gives zero
    {}
    >>> abw_image(((1, 2),))       # two even letters anticommute in a column
    {((1,), (2,)): 1, ((2,), (1,)): -1}
    """
    starts = list(itertools.accumulate(map(len, columns), initial=0))
    # each row as the positions of its boxes in the concatenated word
    rows = [[start + r for start, col in zip(starts, columns) if r < len(col)]
            for r in range(max(map(len, columns)))]
    out = {}
    for factors in itertools.product(*(tensor_embed(col).items()
                                       for col in columns)):
        word = sum((w for w, _ in factors), ())
        coeff = prod(k for _, k in factors)
        coeff *= (-1) ** _inversions(
            [i for row in rows for i in row if word[i] < 0])
        key = []
        for row in rows:
            sorted_row = _row_sort([word[i] for i in row])
            if sorted_row is None:
                break
            key.append(sorted_row[0])
            coeff *= sorted_row[1]
        else:
            _add(out, tuple(key), coeff)
    return out


def row_derivation(image, d):
    """Apply d, an odd derivation of the row algebra, to {rows: coefficient}.

    The rows are keyed as `abw_image` keys them, and d maps a letter to
    {letter: coefficient}, the image of its basis vector under d_F.  Every
    occurrence of a letter is replaced in turn (rows are symmetric, not
    divided, powers), with the sign (-1)^(odd letters before it in
    row-reading order), and its row is sorted again by `_row_sort`.
    """
    out = {}
    for rows, c in image.items():
        odd = 0  # odd letters before this one in row-reading order
        for r, row in enumerate(rows):
            for pos, v in enumerate(row):
                for w, k in d.get(v, {}).items():
                    sorted_row = _row_sort(row[:pos] + (w,) + row[pos + 1:])
                    if sorted_row is not None:
                        new, sign = sorted_row
                        _add(out, rows[:r] + (new,) + rows[r + 1:],
                             c * k * sign * (-1) ** odd)
                odd += v < 0
    return out


# -- standardness ------------------------------------------------------------

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
