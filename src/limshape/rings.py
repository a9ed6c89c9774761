"""Exact multivariate polynomial arithmetic over the rationals, and packed
monomials.

Monomials are exponent tuples; polynomials map exponent tuples to nonzero
Fraction coefficients.  Variable precedence is x1 > x2 > ... > x_nvars
(variable i lives at tuple index i-1).  All values are immutable after
construction and safe to share.

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
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import lcm
from operator import add, le, mul

from .linalg import ComputationLimitError, det

# bits of an exponent in a packed monomial, below its guard bit; read at
# call time, so that all keys of one computation share it
EXPONENT_BITS = 15


class DimensionError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class SingularMatrixError(ValueError):
    """A coordinate-change matrix is not invertible."""


ExponentVector = tuple  # tuple[int, ...], all entries >= 0


def degree(alpha) -> int:
    return sum(alpha)


def mul_exp(a, b):
    return tuple(map(add, a, b))


def divides(a, b) -> bool:
    """Componentwise a <= b, i.e. x^a divides x^b."""
    return all(map(le, a, b))


def _exponent_overflow(e):
    return ComputationLimitError(
        f"exponent {e} does not fit in the {EXPONENT_BITS}-bit exponent field "
        "of a packed monomial"
    )


def _pack(alpha, sums):
    """The packed key of alpha under the order whose high fields are sums,
    most significant first.  A high field is EXPONENT_BITS + 1 +
    bitlength(n) bits wide, so it holds the partial sums of a product of
    two packed monomials exactly even when an exponent of the product
    passes the field width: the guard bit shows that before the key is
    used."""
    bits = EXPONENT_BITS
    top = max(alpha, default=0)
    if top >> bits:
        raise _exponent_overflow(top)
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
    linear, so order(a) == sum(map(mul, a, unit_keys(order, n)))."""
    return [order(tuple(int(i == j) for j in range(n))) for i in range(n)]


def packed_terms(terms, weights):
    """The term dict keyed by packed monomials, each the dot product of its
    exponent tuple with weights, the unit keys of an order."""
    top = max(map(max, terms), default=0)
    if top >> EXPONENT_BITS:
        raise _exponent_overflow(top)
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
    """Sparse polynomial with exact rational coefficients.

    Treat instances as immutable; operations return fresh polynomials.
    """

    __slots__ = ("nvars", "terms", "_hash")

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
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def linear_form(cls, coeffs):
        """sum_i coeffs[i] * x_{i+1}."""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = Fraction(c)
        return cls(n, terms)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_homogeneous(self):
        degs = {degree(a) for a in self.terms}
        return len(degs) <= 1

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise DimensionError(
                f"polynomials in {self.nvars} vs {other.nvars} variables"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for a, c in other.terms.items():
            s = terms.get(a, 0) + c
            if s:
                terms[a] = s
            else:
                terms.pop(a, None)
        return Polynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            return Polynomial(
                self.nvars, {a: k * c for a, k in self.terms.items()}
            )
        self._check(other)
        terms = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                ab = mul_exp(a, b)
                s = terms.get(ab, 0) + ca * cb
                if s:
                    terms[ab] = s
                else:
                    terms.pop(ab, None)
        return Polynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.nvars, frozenset(self.terms.items())))
            )
        return self._hash

    # -- ordered terms -----------------------------------------------------

    def sorted_terms(self, order=DEGREVLEX):
        """(exponent, coefficient) pairs, biggest monomial first."""
        return [(a, self.terms[a]) for a in sorted(self.terms, key=order, reverse=True)]

    # -- substitution ------------------------------------------------------

    def linear_substitute(self, matrix):
        """Replace x_i by sum_j matrix[i][j] * x_j (rows act on variables).

        The matrix must be square of size nvars and invertible.
        """
        return linear_substitute([self], matrix)[0]

    # -- text format -------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for a, c in self.sorted_terms():
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
    """Each polynomial with x_i replaced by sum_j matrix[i][j] * x_j.

    The rational result of cleared_substitute, whose packed integer dicts
    the engine takes as they are; only Polynomial.linear_substitute, which
    the benchmark wraps, calls it.  The matrix must be square of size nvars
    and invertible.
    """
    n = len(matrix)
    return [
        Polynomial(n, {unpack(b, n): Fraction(v, scale) for b, v in acc.items()})
        for scale, acc in cleared_substitute(polys, matrix)
    ]


def cleared_substitute(polys, matrix, p=0):
    """(d, term dict) per polynomial f: the nonzero terms of d * f(matrix x),
    keyed by DEGREVLEX packed monomials, where d is the lcm of the
    denominators of f's coefficients.  The coefficients are ints, or their
    residues mod p when a prime p is given with an integer matrix.

    The polynomials share one table of monomial images: the image of x^a is
    built once, as the image of x^a / x_i times row i, where x_i is the
    first variable of x^a; times x_j is + the key of x_j.  Integer entries
    stay Python ints in the table, so the inner products are integer
    products when the matrix is integral, and mod p every entry of the
    table is a residue.  The matrix must be square of size nvars and
    invertible.
    """
    polys = list(polys)
    n = polys[0].nvars if polys else len(matrix)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise DimensionError("matrix size != nvars")
    if any(f.nvars != n for f in polys):
        raise DimensionError("mixed variable counts in substituted polynomials")
    if det(matrix) == 0:
        raise SingularMatrixError("coordinate change matrix is singular")
    # an image of x^a has the degree of a, which bounds its exponents
    top = max((degree(a) for f in polys for a in f.terms), default=0)
    if top >> EXPONENT_BITS:
        raise _exponent_overflow(top)
    weights = unit_keys(DEGREVLEX, n)
    rows = [[(w, c) for w, c in zip(weights, row) if c] for row in matrix]

    def nonzero(acc):
        if p:
            return {b: r for b, v in acc.items() if (r := v % p)}
        return {b: v for b, v in acc.items() if v}

    table = {(0,) * n: {0: 1}}

    def image(alpha):
        img = table.get(alpha)
        if img is None:
            i = next(k for k, e in enumerate(alpha) if e)
            lower = image(alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :])
            img = {}
            for beta, v in lower.items():
                for w, c in rows[i]:
                    gamma = beta + w
                    img[gamma] = img.get(gamma, 0) + v * c
            img = table[alpha] = nonzero(img)
        return img

    sums = []
    for f in polys:
        scale = reduce(lcm, [c.denominator for c in f.terms.values()], 1)
        acc = {}
        for alpha, c in f.terms.items():
            c = c.numerator * (scale // c.denominator)
            if p:
                c %= p
            for beta, v in image(alpha).items():
                acc[beta] = acc.get(beta, 0) + c * v
        sums.append((scale, nonzero(acc)))
    # image is a closure over itself, so the table would wait for the
    # cycle collector; free the largest thing alive here now
    table.clear()
    return sums
