"""Packed monomials, the integer polynomials the pipeline computes on, and
the Polynomial its printed bases are written with.

Monomials are exponent tuples.  Variable precedence is x1 > x2 > ... >
x_nvars (variable i lives at tuple index i-1).  All values are immutable
after construction and safe to share.

A monomial order is its key function, and the key of an exponent tuple is
one int, its packed monomial.  The low fields of the int hold the
exponents, EXPONENT_BITS bits each with a guard bit above them; the high
fields hold the order's partial sums of the exponents, most significant
first.  Every field is nonnegative and linear in the exponents, so
key(a) + key(b) == key(a + b) while no exponent passes the field width,
key(a) < key(b) is the order, and x^a divides x^b iff
((key(b) | G) - key(a)) & G == G for the guard bits G (guard_bits).  The
Buchberger engine computes on these ints: a product is +, a comparison <,
a divisibility test one guard-bit test (the packed monomials of sparse
polynomial engines: Monagan-Pearce 2011, "Sparse polynomial division
using a heap").

A polynomial is a term dict keyed by packed monomials.  From the component
forms to gin every polynomial has one format: a primitive integer term
dict with a positive leading coefficient, keyed by DEGREVLEX packed
monomials.  Each nonzero rational polynomial has exactly one multiple in
that format, so no generator carries a denominator or a scale of its own.
cleared_substitute moves such dicts by an integer matrix, in exact
integers.  Polynomial, with exact rational coefficients keyed by exponent
tuples, only writes the bases that symbolic-power prints.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, compress
from operator import le, mul

from .linalg import ComputationLimitError, cleared, det

# bits of an exponent in a packed monomial, below its guard bit; read at
# call time, so that all keys of one computation share it
EXPONENT_BITS = 15

# monomial images one cleared_substitute call may hold, read at call time:
# the largest tables on the reach ladder, three generic lines in P^3 at m = 8,
# hold 12 651 (65 MB, conditions in degree 25) and 6 507 (68 MB, a gin draw)
IMAGE_CAP = 100_000


class DimensionError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class SingularMatrixError(ValueError):
    """A coordinate-change matrix is not invertible."""


def degree(alpha) -> int:
    return sum(alpha)


def divides(a, b) -> bool:
    """Componentwise a <= b, i.e. x^a divides x^b."""
    return all(map(le, a, b))


def check_exponent(e):
    """Raises ComputationLimitError when an exponent e does not fit in the
    exponent field of a packed monomial."""
    if e >> EXPONENT_BITS:
        raise ComputationLimitError(
            f"exponent {e} does not fit in the {EXPONENT_BITS}-bit exponent "
            "field of a packed monomial"
        )


def _pack(alpha, sums):
    """The packed key of alpha under the order whose high fields are sums,
    most significant first.  A high field is EXPONENT_BITS + 1 +
    bitlength(n) bits wide, so it holds the partial sums of a product of
    two packed monomials exactly even when an exponent of the product
    passes the field width: the guard bit shows that before the key is
    used."""
    bits = EXPONENT_BITS
    check_exponent(max(alpha, default=0))
    width = bits + 1 + len(alpha).bit_length()
    key = 0
    for s in sums:
        key = key << width | s
    for e in alpha:
        key = key << bits + 1 | e
    return key


def _descending_sums(block):
    """e1 + ... + eb, e1 + ... + e(b-1), ..., e1 for the block's exponents."""
    return reversed(list(accumulate(block)))


def DEGREVLEX(alpha):
    """degrevlex: higher total degree wins; on ties the last differing
    variable decides, smaller exponent there winning.  The high fields are
    deg, e1 + ... + e(n-1), ..., e1: with the degree fixed, a smaller last
    exponent is a larger sum of the others."""
    return _pack(alpha, _descending_sums(alpha))


def elimination_order(split):
    """The block order eliminating the first `split` variables, degrevlex
    inside each block: the high fields of the head block's degrevlex key,
    then those of the tail block's."""

    def key(alpha):
        return _pack(
            alpha,
            [*_descending_sums(alpha[:split]), *_descending_sums(alpha[split:])],
        )

    return key


def unit_keys(order, n):
    """order(e_j) for the unit vectors e_1, ..., e_n: a packed key is
    linear, so order(a) == sum(map(mul, a, unit_keys(order, n))).

    DEGREVLEX's are in closed form, since every substitution and gin draw
    asks for them: e_j sets its own exponent field and the high fields of
    the partial sums e_1 + ... + e_i with i >= j, which _pack stacks from
    e_1 upwards above the exponent fields."""
    if order is not DEGREVLEX:
        return [order(tuple(int(i == j) for j in range(n))) for i in range(n)]
    low = EXPONENT_BITS + 1
    width = low + n.bit_length()
    keys, high = [], 0
    for j in range(n - 1, -1, -1):
        high |= 1 << low * n + width * j
        keys.append(high | 1 << low * (n - 1 - j))
    return keys[::-1]


def packed_terms(terms, weights):
    """The term dict keyed by packed monomials, each the dot product of its
    exponent tuple with weights, the unit keys of an order."""
    check_exponent(max(map(max, terms), default=0))
    return {sum(map(mul, a, weights)): c for a, c in terms.items()}


def guard_bits(n) -> int:
    """The guard bit of each of the n exponent fields of a packed monomial."""
    bits = EXPONENT_BITS
    return sum(1 << bits << (bits + 1) * j for j in range(n))


def unpack(key, n):
    """The exponent tuple of a packed monomial in n variables."""
    bits = EXPONENT_BITS
    mask = (1 << bits) - 1
    return tuple(key >> (bits + 1) * j & mask for j in range(n - 1, -1, -1))


class Polynomial:
    """Sparse polynomial with exact rational coefficients, keyed by exponent
    tuples: the printed form of a basis.

    Treat instances as immutable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        clean = {}
        for alpha, c in (terms or {}).items():
            if len(alpha) != nvars:
                raise DimensionError("exponent length != nvars")
            if any(e < 0 for e in alpha):
                raise ValueError("negative exponent")
            c = Fraction(c)
            if c:
                clean[tuple(alpha)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def linear_substitute(self, matrix):
        """Replace x_i by sum_j matrix[i][j] * x_j (rows act on variables).

        The matrix must be square of size nvars and invertible.
        """
        return linear_substitute([self], matrix)[0]

    def __str__(self):
        """The terms from the biggest monomial down, as `3*x1^2*x2 - 1/2*x3`."""
        if not self.terms:
            return "0"
        parts = []
        for a in sorted(self.terms, key=DEGREVLEX, reverse=True):
            c = self.terms[a]
            factors = []
            for i, e in enumerate(a):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            mono = "*".join(factors)
            if not mono:
                chunk = str(c)
            elif c == 1:
                chunk = mono
            elif c == -1:
                chunk = "-" + mono
            else:
                chunk = f"{c}*{mono}"
            parts.append(chunk)
        out = parts[0]
        for chunk in parts[1:]:
            out += " - " + chunk[1:] if chunk.startswith("-") else " + " + chunk
        return out

    __repr__ = __str__


def linear_substitute(polys, matrix):
    """Each Polynomial with x_i replaced by sum_j matrix[i][j] * x_j.

    The rational form of cleared_substitute: each polynomial is cleared of
    its denominators, substituted and divided back.  Only
    Polynomial.linear_substitute, which the benchmark wraps, calls it.  The
    matrix must be square of size nvars and invertible, which only this
    path checks.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise DimensionError("matrix is not square")
    if any(f.nvars != n for f in polys):
        raise DimensionError("matrix rows != nvars")
    if det(matrix) == 0:
        raise SingularMatrixError("coordinate change matrix is singular")
    weights = unit_keys(DEGREVLEX, n)
    rows = [cleared(list(f.terms.values())) for f in polys]
    packed = [packed_terms(dict(zip(f.terms, ints)), weights)
              for f, (_, ints) in zip(polys, rows)]
    return [
        Polynomial(n, {unpack(b, n): Fraction(v, d) for b, v in terms.items()})
        for (d, _), terms in zip(rows, cleared_substitute(packed, matrix))
    ]


def cleared_substitute(polys, matrix, below=None):
    """The nonzero terms of f(matrix x), exact, for each term dict f keyed by
    DEGREVLEX packed monomials in nvars variables and an nvars x k matrix:
    term dicts keyed by DEGREVLEX packed monomials in k variables.  gin's
    draws pass the first nvars - 1 columns of their matrices: the
    substitution, then x_last = 0.

    With below = (j, m), only the terms of degree below m in the first j
    variables are kept: a component's conditions on I^(m) in a frame
    adapted to it (see configs._kernels).  That degree is the partial
    sum e1 + ... + ej, a high field of the DEGREVLEX key, and no factor of
    an image lowers it, so the table is truncated as it is built.

    The polynomials share one table of monomial images, each a dense row
    (Faugere 1999) of coefficients at its degree's kept monomials in
    decreasing order, which each degree lists once with the position of
    each monomial of the degree below times each x_j (a last slot if the
    cut drops it).  The image of x^a is that of x^a / x_i times row i, x_i
    the first variable of x^a.  Raises ComputationLimitError past IMAGE_CAP.
    """
    n = len(matrix)
    weights = unit_keys(DEGREVLEX, len(matrix[0]))
    rows = [[(x, c) for x, c in enumerate(row) if c] for row in matrix]
    j, m = below or (0, 0)  # j = 0 keeps every term
    if j:
        width = EXPONENT_BITS + 1 + len(weights).bit_length()
        shift = (EXPONENT_BITS + 1) * len(weights) + width * (j - 1)
        field = (1 << width) - 1
    cols, under = [[0]], [None]  # per degree: its monomials, their positions
    table = {(0,) * n: [1]}

    def image(alpha):
        img = table.get(alpha)
        if img is None:
            # an image of x^a has the degree of a, which bounds its exponents
            check_exponent(d := degree(alpha))
            if len(table) >= IMAGE_CAP:
                raise ComputationLimitError(f"image table cap {IMAGE_CAP} exhausted")
            i = next(i for i, e in enumerate(alpha) if e)
            lower = image(alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :])
            if len(cols) == d:
                kept = sorted({b + w for b in cols[-1] for w in weights
                               if not j or b + w >> shift & field < m}, reverse=True)
                at = {b: t for t, b in enumerate(kept)}
                under.append([[at.get(b + w, -1) for b in cols[-1]] for w in weights])
                cols.append(kept)
            img = table[alpha] = [0] * (len(cols[d]) + 1)
            for x, c in rows[i]:
                for t, v in compress(zip(under[d][x], lower), lower):
                    img[t] += v * c
        return img

    sums = []
    for f in polys:
        acc = {}  # degree -> the dense row of f's terms of that degree
        for key, c in f.items():
            img = image(alpha := unpack(key, n))
            row = acc.setdefault(degree(alpha), [0] * len(img))
            for t, v in compress(enumerate(img), img):
                row[t] += c * v
        sums.append({b: v for d, row in acc.items()
                     for b, v in compress(zip(cols[d], row), row)})
    # image is a closure over itself, so the table would wait for the
    # cycle collector; free the largest thing alive here now
    table.clear()
    return sums
