"""Exact sparse multivariate polynomial arithmetic over QQ or GF(p).

Polynomials are maps from exponent tuples to nonzero field scalars; the
variable order is fixed by the ring and every operation is exact.  A field
scalar is a plain Python number: over the rationals an int, or a Fraction
when it is not an integer; over a prime field an int in [0, p).
`CoefficientField.coerce` is the one way into the field, and polynomial
arithmetic reduces its sums mod p and drops their zeros in one place,
`reduce_terms`.  A matrix stores each nonzero entry as its term map, read
back as a `Polynomial`.  Matrix products and Bareiss elimination work on
the stored columns: `mat_mul` groups each column's scalars by monomial,
and Bareiss uses `add_product`, `reduce_terms` and `exact_quotient`.
Ranks at a given point are exact; over the rationals a term whose size
estimate exceeds `MAX_VALUE_BITS` bits is refused just before it would be
computed.  Generic ranks (`mat_generic_rank`) are Monte Carlo lower
bounds; over the rationals each random specialization is evaluated modulo
a random prime in [2^30, 2^31) and ranked there, since the rank mod a
prime is at most the rank over QQ.
No floating point is used anywhere.

    >>> R = PolyRing(RATIONALS, ("x", "y"))
    >>> x, y = R.gens()
    >>> str((x + y) * (x - y))
    'x^2 - y^2'
"""

from fractions import Fraction
import heapq
import itertools
from operator import add, mul, sub
import random
import re

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least composite that passes every witness above: is_prime is proved
# correct below it (Sorenson and Webster, Math. Comp. 2017) and wrong on it.
_MR_BOUND = 3317044064679887385961981
_NAME = r"[^\W\d]\w*"  # a variable name: a word that does not start with a digit
# The largest size, in bits, that one term of an exact rational value may
# reach (8 KB); x^99999999999 at the point 2 would need 10^11 bits.
MAX_VALUE_BITS = 1 << 16
# The most trials `mat_generic_rank` and `complexes.generic_ranks` run on one
# matrix.  A trial stops them early only at a proven rank (a full one, or the
# d.d = 0 bound in `generic_ranks`), so on an unproven rank every trial runs;
# past a few the bound hardly improves (see `mat_generic_rank`), while the
# time grows without end.
MAX_TRIALS = 100
# The most rows or columns `mat_rank_exact` takes; Bareiss entries grow each step.
MAX_BAREISS_DIM = 64


def is_prime(n):
    """Deterministic Miller-Rabin, valid for every n below _MR_BOUND."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CoefficientField:
    """The rationals (p is None) or the prime field GF(p).

    Scalars are plain numbers: over the rationals an int, or a Fraction only
    when it is not an integer; over a prime field an int in [0, p).  The
    literals 0 and 1 are the zero and one of either field.  Arithmetic on
    rationals may yield an integral Fraction, such as 1/2 * 2; it compares,
    hashes and prints as the int.
    """

    def __init__(self, p=None):
        if p is not None:
            # the bound first: `is_prime` is proved only below it, and costs
            # seconds on an integer of thousands of digits
            if isinstance(p, int) and p >= _MR_BOUND:
                raise ValueError("field characteristic of %d bits is too large: "
                                 "primality is proved only below %d"
                                 % (p.bit_length(), _MR_BOUND))
            if not isinstance(p, int) or not is_prime(p):
                raise ValueError("field characteristic must be prime, got %r" % (p,))
        self.p = p

    @property
    def is_rational(self):
        return self.p is None

    def coerce(self, v):
        """Map a number into the field: an int stays an int over QQ."""
        if self.p is None:
            if type(v) is not int:  # a bool becomes an int too
                v = Fraction(v)
                if v.denominator == 1:
                    v = v.numerator
            return v
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise ValueError("denominator divisible by %d" % self.p)
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        return v % self.p

    def invert(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return self.coerce(1 / Fraction(a))
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def from_quotient(self, num, den):
        if den == 0:
            raise ValueError("zero denominator")
        return self.coerce(Fraction(num, den))

    def __eq__(self, other):
        return isinstance(other, CoefficientField) and self.p == other.p

    def __hash__(self):
        return hash(("CoefficientField", self.p))

    def __repr__(self):
        return "RATIONALS" if self.p is None else "GF(%d)" % self.p


RATIONALS = CoefficientField()


def GF(p):
    return CoefficientField(p)


class PolyRing:
    """A polynomial ring over a coefficient field with a fixed variable order."""

    def __init__(self, field, variables):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for name in variables:
            if not re.fullmatch(_NAME, name):
                raise ValueError("bad variable name %r" % (name,))
        self.field = field
        self.variables = variables

    @property
    def nvars(self):
        return len(self.variables)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        return self.polynomial({(0,) * self.nvars: c})

    def variable(self, name):
        i = self.variables.index(name)
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1})

    def gens(self):
        return tuple(self.variable(v) for v in self.variables)

    def polynomial(self, terms):
        """Build a polynomial from {exponent tuple: scalar}, dropping zeros;
        each tuple holds one non-negative int exponent per variable."""
        clean = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != self.nvars or not all(
                    type(e) is int and e >= 0 for e in exps):  # not float, not bool
                raise ValueError("bad exponent tuple %r" % (exps,))
            c = self.field.coerce(c)
            if c:
                clean[exps] = c
        return Polynomial(self, clean)

    def parse(self, text):
        return parse_polynomial(self, text)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.field == other.field
                and self.variables == other.variables)

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return "PolyRing(%r, %r)" % (self.field, list(self.variables))


class Polynomial:
    """Immutable sparse polynomial; term map never stores a zero scalar.

    No code mutates `.terms` in place after construction: every operation
    builds a new term map.  `PolyMatrix` stores the term maps of its entries
    and `from_strings` shares one among all entries with the same text.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        self._check_ring(other)
        acc = dict(self.terms)
        for exps, c in other.terms.items():
            acc[exps] = acc.get(exps, 0) + c
        return Polynomial(self.ring, reduce_terms(self.ring.field, acc))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        self._check_ring(other)
        acc = add_product({}, self.terms, other.terms)
        return Polynomial(self.ring, reduce_terms(self.ring.field, acc))

    __rmul__ = __mul__

    def __pow__(self, k):
        if type(k) is not int:  # not float, not bool
            raise ValueError("power must be an integer, got %r" % (k,))
        if k < 0:
            raise ValueError("negative power")
        result, square = self.ring.one(), self
        while k:
            if k & 1:
                result = result * square
            k >>= 1
            if k:
                square = square * square
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def evaluate(self, point):
        """Evaluate at a point (one scalar per ring variable), exactly.

        Over QQ a term that would exceed MAX_VALUE_BITS raises ValueError
        just before it is computed.
        """
        point = _coerce_point(self.ring, point)
        return _values_at([{0: self.terms}], point, self.ring.field)[0][0]

    def __str__(self):
        return format_polynomial(self.ring, self.terms)

    def __repr__(self):
        return "Polynomial(%s)" % self


def add_product(acc, s, t):
    """Add the product of term maps s and t into the term map acc.

    The scalars in acc are left unreduced, zeros included; `reduce_terms`
    turns the finished sum into the terms of a polynomial.  Returns acc.
    """
    for e1, c1 in s.items():
        for e2, c2 in t.items():
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return acc


def add_scaled(acc, s, c):
    """Add c times the term map s into the term map acc, left unreduced."""
    for e, v in s.items():
        acc[e] = acc.get(e, 0) + v * c


def reduce_terms(field, acc):
    """The terms of an accumulated sum: scalars in the field, zeros dropped."""
    p = field.p
    if p is None:
        return {e: c for e, c in acc.items() if c}
    return {e: c % p for e, c in acc.items() if c % p}


def exact_quotient(field, num, den):
    """The term map q with num == q * den, for term maps num and den != {}.

    Long division under descending lex order of exponents; raises ValueError
    when den does not divide num.
    """
    lead = max(den)
    inv = field.invert(den[lead])
    rem, q = dict(num), {}
    while rem:
        e = max(rem)
        diff = tuple(map(sub, e, lead))
        if any(d < 0 for d in diff):
            raise ValueError("inexact polynomial division")
        c = q[diff] = field.coerce(rem[e] * inv)
        rem = reduce_terms(field, add_product(rem, {diff: -c}, den))
    return q


def _values_at(columns, point, field):
    """The values of columns {row: term map} at a point of field scalars.

    field is the ring's field or, over QQ, a GF(q) that each coefficient is
    taken into first.  Over QQ a term whose value may exceed MAX_VALUE_BITS
    raises ValueError just before it would be computed: x^e adds e times the
    bit length of max(|num x|, den x), and 0 and +-1 add nothing.
    """
    p = field.p
    if p is None:
        sizes = [0 if x in (0, 1, -1)
                 else max(abs(x.numerator), x.denominator).bit_length()
                 for x in point]
    out = []
    for col in columns:
        values = {}
        for i, terms in col.items():
            total = 0
            for exps, c in terms.items():
                if p is not None:
                    c = field.coerce(c)
                elif sum(map(mul, exps, sizes)) > MAX_VALUE_BITS:
                    raise ValueError("the value at the point would exceed %d "
                                     "bits, the bound for exact evaluation"
                                     % MAX_VALUE_BITS)
                for x, e in zip(point, exps):
                    if e:
                        c = c * x ** e if p is None else c * pow(x, e, p) % p
                total += c
            values[i] = total if p is None else total % p
        out.append(values)
    return out


def _coerce_point(ring, point):
    if len(point) != ring.nvars:
        raise ValueError("point has %d coordinates, ring has %d variables"
                         % (len(point), ring.nvars))
    return [ring.field.coerce(v) for v in point]


# -- text grammar ------------------------------------------------------------
#
# poly   := [sign] term { ('+' | '-') term }
# term   := atom { '*' atom }
# atom   := INT [ '/' INT ] | NAME [ '^' INT ]
#
# Whitespace may stand around any symbol.  format_polynomial always
# emits parseable text and parse/format round-trip exactly.

# _TERM matches one term with its sign and the whitespace around it; _FACTOR
# then picks the atoms out of the matched term.
_ATOM = r"(?:\d+(?:\s*/\s*\d+)?|%s(?:\s*\^\s*\d+)?)" % _NAME
_TERM = re.compile(r"\s*(?:([+-])\s*)?(%s(?:\s*\*\s*%s)*)\s*" % (_ATOM, _ATOM))
_FACTOR = re.compile(r"(\d+)(?:\s*/\s*(\d+))?|(\w+)(?:\s*\^\s*(\d+))?")


def parse_polynomial(ring, text):
    """Parse polynomial text in the ring's variables.

    Each term becomes one (exponents, scalar) pair: exponents add up, and
    each coefficient atom is taken into the field on its own, so over GF(p)
    a denominator divisible by p is rejected wherever it stands.
    """
    field, variables = ring.field, ring.variables
    acc = {}
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        if m is None or (pos and not m.group(1)):
            raise ValueError("malformed polynomial %r" % (text,))
        c, exps = 1, [0] * ring.nvars
        for num, den, name, power in _FACTOR.findall(m.group(2)):
            if not name:
                c *= (field.from_quotient(int(num), int(den)) if den
                      else field.coerce(int(num)))
            elif name in variables:
                exps[variables.index(name)] += int(power) if power else 1
            else:
                raise ValueError("unknown variable %r" % (name,))
        e = tuple(exps)
        acc[e] = acc.get(e, 0) + (-c if m.group(1) == "-" else c)
        pos = m.end()
        if pos == len(text):
            return Polynomial(ring, reduce_terms(field, acc))


def _format_monomial(ring, exps):
    factors = []
    for name, e in zip(ring.variables, exps):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append("%s^%d" % (name, e))
    return "*".join(factors)


def format_polynomial(ring, terms):
    """Canonical text of a term map: terms in descending lex order of exponents."""
    if not terms:
        return "0"
    pieces = []
    for exps in sorted(terms, reverse=True):
        c = terms[exps]
        mono = _format_monomial(ring, exps)
        neg = c < 0  # never over GF(p), whose scalars lie in [0, p)
        mag = -c if neg else c
        body = "%s*%s" % (mag, mono) if mono and mag != 1 else (mono or str(mag))
        pieces.append(("-" if neg else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += " %s %s" % (sign, body)
    return out


# -- matrices ----------------------------------------------------------------

def _shape(rows, shape):
    """(rows, cols) of a list of rows; shape keeps the column count of 0 rows."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if shape is not None:
        if nrows != shape[0] or (nrows and ncols != shape[1]):
            raise ValueError("entries do not match shape %r" % (shape,))
        nrows, ncols = shape
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix")
    return nrows, ncols


class PolyMatrix:
    """Sparse matrix of polynomials from one ring.

    Column j is a dict {row: term map} of the nonzero entries; reading an
    entry wraps its term map in a `Polynomial`.  Assembling code may fill
    the columns of `PolyMatrix.zero` with reduced, nonempty term maps; a
    stored term map may be shared, so it is never mutated.
    """

    __slots__ = ("ring", "rows", "cols", "columns")

    def __init__(self, ring, entries, shape=None):
        entries = [list(row) for row in entries]
        self.ring = ring
        self.rows, self.cols = _shape(entries, shape)
        self.columns = [{} for _ in range(self.cols)]
        for i, row in enumerate(entries):
            for col, p in zip(self.columns, row):
                if not isinstance(p, Polynomial) or p.ring != ring:
                    raise ValueError("entry from wrong ring")
                if p.terms:
                    col[i] = p.terms

    @classmethod
    def zero(cls, ring, rows, cols):
        m = cls.__new__(cls)
        m.ring, m.rows, m.cols = ring, rows, cols
        m.columns = [{} for _ in range(cols)]
        return m

    @classmethod
    def identity(cls, ring, n):
        m = cls.zero(ring, n, n)
        for i, col in enumerate(m.columns):
            col[i] = {(0,) * ring.nvars: 1}
        return m

    @classmethod
    def from_strings(cls, ring, rows, shape=None):
        """Parse rows of polynomial text, storing only the nonzero entries.

        Each distinct str is parsed once and its entries share its term map;
        any other entry goes to `parse_polynomial` as it is, and fails there.
        """
        rows = list(rows)
        m = cls.zero(ring, *_shape(rows, shape))
        parsed = {}
        for i, row in enumerate(rows):
            for col, text in zip(m.columns, row):
                terms = parsed.get(text) if isinstance(text, str) else None
                if terms is None:
                    terms = parsed[text] = parse_polynomial(ring, text).terms
                if terms:
                    col[i] = terms
        return m

    def _dense(self, zero, value):
        """Dense rows: value(ring, t) at each stored term map t, 0 elsewhere."""
        out = [[zero] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, terms in col.items():
                out[i][j] = value(self.ring, terms)
        return out

    @property
    def entries(self):
        """Dense rows of polynomials, built on each read: a copy, not a view."""
        return self._dense(self.ring.zero(), Polynomial)

    def __getitem__(self, ij):
        i, j = ij
        if type(i) is not int or type(j) is not int:  # not float, not bool
            raise TypeError("entry index (%r, %r) is not a pair of ints" % (i, j))
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%d, %d) out of range" % (i, j))
        return Polynomial(self.ring, self.columns[j].get(i, {}))

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and self.ring == other.ring
                and self.shape == other.shape
                and self.columns == other.columns)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self):
        return not any(self.columns)

    def transpose(self):
        out = PolyMatrix.zero(self.ring, self.cols, self.rows)
        for j, col in enumerate(self.columns):
            for i, terms in col.items():
                out.columns[i][j] = terms
        return out

    def evaluate(self, point):
        """The matrix specialized at a point, as sparse columns.

        One dict {row: field scalar} per column, holding the value of each
        stored entry; a value may be zero.  Over QQ a term that would exceed
        MAX_VALUE_BITS raises ValueError just before it is computed.
        """
        point = _coerce_point(self.ring, point)
        return _values_at(self.columns, point, self.ring.field)

    def to_strings(self):
        return self._dense("0", format_polynomial)

    def __repr__(self):
        return "PolyMatrix(%dx%d over %r)" % (self.rows, self.cols, self.ring.field)


def mat_mul(a, b):
    """Exact matrix product; raises on shape or ring mismatch.

    Column j of the product sums column k of a times each stored entry
    (k, j) of b.  Column k of a is split once into {monomial: {row: scalar}},
    so the inner loop adds scalars, one {row: sum} per product monomial.

    >>> R = PolyRing(RATIONALS, ("x", "y"))
    >>> x, y = R.gens()
    >>> d1, d2 = PolyMatrix(R, [[x, y]]), PolyMatrix(R, [[-y], [x]])
    >>> c = mat_mul(d1, d2)
    >>> c.shape, c.is_zero()
    ((1, 1), True)
    """
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    if a.cols != b.rows:
        raise ValueError("shape mismatch: %dx%d times %dx%d"
                         % (a.rows, a.cols, b.rows, b.cols))
    p = a.ring.field.p
    out = PolyMatrix.zero(a.ring, a.rows, b.cols)
    split = [None] * a.cols
    monomials = {}  # (e1, e2) -> e1 + e2
    for bcol, ocol in zip(b.columns, out.columns):
        sums = {}  # product monomial -> {row: unreduced scalar}
        for k, q in bcol.items():
            pieces = split[k]
            if pieces is None:
                by_exp = {}
                for i, f in a.columns[k].items():
                    for e, c in f.items():
                        by_exp.setdefault(e, {})[i] = c
                pieces = split[k] = tuple(by_exp.items())
            for e2, c2 in q.items():
                for e1, rows in pieces:
                    e = monomials.get((e1, e2))
                    if e is None:
                        e = monomials[e1, e2] = tuple(map(add, e1, e2))
                    acc = sums.setdefault(e, {})
                    for i, c1 in rows.items():
                        acc[i] = acc.get(i, 0) + c1 * c2
        terms = {}
        for e, acc in sums.items():
            for i, c in acc.items():
                if p is not None:
                    c %= p
                if c:
                    terms.setdefault(i, {})[e] = c
        ocol.update(terms)
    return out


class SparseEchelon:
    """Incremental row echelon form over a CoefficientField.

    Vectors and rows are dicts {column: scalar} over any ordered column keys.
    Each stored row has its smallest column as pivot, scaled to one, and is
    kept under that pivot; no two rows share a pivot.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residual of a vector modulo the rows: a new dict with no zeros.

        Pivots are cleared in ascending column order; every column left in
        the residual has no row.
        """
        p = self.field.p
        rows = self.rows
        vec = {k: c for k, c in vec.items() if c}
        todo = sorted(vec)
        while todo:
            piv = heapq.heappop(todo)
            row = rows.get(piv)
            c = vec.get(piv)
            if row is None or c is None:
                continue
            del vec[piv]
            for k, r in row.items():
                if k == piv:
                    continue
                old = vec.get(k)
                s = (0 if old is None else old) - c * r
                if p is not None:
                    s %= p
                if s:
                    vec[k] = s
                    if old is None:
                        heapq.heappush(todo, k)
                elif old is not None:
                    del vec[k]
        return vec

    def insert(self, vec):
        """Reduce and install; returns True when the rank grew."""
        res = self.reduce(vec)
        if not res:
            return False
        piv = min(res)
        inv = self.field.invert(res[piv])
        self.rows[piv] = {k: self.field.coerce(c * inv) for k, c in res.items()}
        return True


def scalar_rank(field, vectors):
    """Rank of the span of sparse vectors {index: scalar}, by exact elimination.

    The columns of `PolyMatrix.evaluate` go in as they are: the rank of the
    column span is the rank of the matrix.
    """
    echelon = SparseEchelon(field)
    for vec in vectors:
        echelon.insert(vec)
    return echelon.rank


def mat_rank_at_point(a, point):
    """Rank of the matrix specialized at a point, by exact elimination."""
    return scalar_rank(a.ring.field, a.evaluate(point))


def random_prime(rng):
    """A prime drawn from [2^30, 2^31) with the random.Random rng."""
    while True:
        q = rng.randrange(1 << 30, 1 << 31)
        if is_prime(q):
            return q


def _values_mod_random_prime(a, point, rng):
    """(GF(q), the rational matrix a at point evaluated mod q) for the first
    prime q that rng draws and that divides no coefficient denominator."""
    while True:
        field = GF(random_prime(rng))
        try:
            return field, _values_at(a.columns, [field.coerce(x) for x in point],
                                     field)
        except ValueError:  # q divides a denominator
            continue


def _check_trials(trials):
    """Raise ValueError unless trials is an int in [1, MAX_TRIALS]."""
    if type(trials) is not int:  # not float, not bool
        raise ValueError("trials must be an integer, got %r" % (trials,))
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise ValueError("trials must be at most %d, got %d" % (MAX_TRIALS, trials))


def _trial_ranks(a, seed):
    """The rank of a at one seeded random specialization per item, without end.

    See `mat_generic_rank` for the draws: the items are its trials, in order.
    """
    rng = random.Random(seed)
    while True:
        point = [rng.randint(1, 1 << 20) for _ in range(a.ring.nvars)]
        if a.ring.field.is_rational:
            field, values = _values_mod_random_prime(a, point, rng)
        else:
            field, values = a.ring.field, a.evaluate(point)
        yield scalar_rank(field, values)


def mat_generic_rank(a, trials=3, seed=0):
    """Monte Carlo generic rank: the largest rank over random specializations.

    Each trial draws a point with coordinates uniform in [1, 2^20] from an
    RNG seeded with `seed`, so the result is reproducible.  Over GF(p) the
    trial ranks the matrix at that point.  Over QQ it draws a fresh prime q
    from `random_prime` with the same RNG, reduces the point and the
    coefficients mod q (drawing again if q divides a denominator), evaluates
    there with modular powers, so no exact value is ever formed, and ranks
    the values over GF(q).  The trials stop once the rank is
    min(rows, cols), which no trial can exceed; a matrix alone proves no
    smaller rank (`complexes.generic_ranks` proves more from d.d = 0).  More
    than MAX_TRIALS trials raises ValueError.

    The result is a lower bound on the generic rank: a minor that is
    nonzero mod q is nonzero at the point, and one that is nonzero at the
    point is a nonzero polynomial.  Over QQ the bound is reached unless
    every trial picks a root of a nonzero maximal minor (chance at most its
    degree over 2^20, by Schwartz-Zippel) or a q dividing its value (a value
    of b bits has at most b/30 of the ~5*10^7 primes in the range as
    factors).  Over a small prime field it can stay below: coordinates are
    taken mod p, so over GF(2) `[[x^2 + x]]` ranks 0 at every point.
    """
    _check_trials(trials)
    full = min(a.rows, a.cols)
    best = 0
    for rank in itertools.islice(_trial_ranks(a, seed), trials):
        best = max(best, rank)
        if best == full:
            break
    return best


def mat_rank_exact(a):
    """Symbolic rank by fraction-free (Bareiss) elimination on the stored columns.

    Each column is read as {row: term map}.  A step takes the last column
    and its lowest stored row as pivot, drops that column, and replaces every
    other column c by (piv * c - c[row] * column) / prev, where prev is the
    previous pivot: the division is exact (Bareiss, Math. Comp. 1968), and
    an entry zero in both columns is never stored.  Entry growth makes this
    expensive on large matrices, so a matrix with more than MAX_BAREISS_DIM
    rows or columns raises ValueError.
    """
    if max(a.rows, a.cols) > MAX_BAREISS_DIM:
        raise ValueError("matrix exceeds Bareiss size guard (%d)" % MAX_BAREISS_DIM)
    field = a.ring.field
    cols = [dict(col) for col in a.columns if col]
    prev = {(0,) * a.ring.nvars: 1}
    rank = 0
    while cols:
        column = cols.pop()
        row = min(column)
        piv = column.pop(row)
        rest = []
        for col in cols:
            neg = {e: -c for e, c in col.pop(row, {}).items()}
            out = {}
            for i in col.keys() | column.keys():
                acc = add_product({}, piv, col.get(i, {}))
                add_product(acc, neg, column.get(i, {}))
                terms = reduce_terms(field, acc)
                if terms:
                    out[i] = exact_quotient(field, terms, prev)
            if out:
                rest.append(out)
        cols, prev = rest, piv
        rank += 1
    return rank
