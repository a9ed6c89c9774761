"""Exact multivariate polynomial arithmetic over the rationals.

Monomials are exponent tuples; polynomials map exponent tuples to nonzero
Fraction coefficients.  Variable precedence is x1 > x2 > ... > x_nvars
(variable i lives at tuple index i-1).  All values are immutable after
construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add, le, sub


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


def exp_div(b, a):
    """Exponent of x^b / x^a; caller guarantees divisibility."""
    return tuple(map(sub, b, a))


def exp_lcm(a, b):
    return tuple(map(max, a, b))


# A monomial order is its key function: a flat tuple of ints, larger for the
# larger monomial.


def DEGREVLEX(alpha):
    """degrevlex: higher total degree wins; on ties the last differing
    variable decides, smaller exponent there winning."""
    return (sum(alpha), *(-e for e in reversed(alpha)))


def elimination_order(split):
    """The block order eliminating the first `split` variables, degrevlex
    inside each block: the two block keys concatenated, which compares
    block by block because the head block's key always has split + 1
    entries."""

    def key(alpha):
        return DEGREVLEX(alpha[:split]) + DEGREVLEX(alpha[split:])

    return key


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
    def variable(cls, i, nvars):
        """x_i, 1-based."""
        e = [0] * nvars
        e[i - 1] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

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

    The rational result of cleared_substitute.  The matrix must be square
    of size nvars and invertible.
    """
    n = len(matrix)
    return [
        Polynomial(n, {b: Fraction(v, scale) for b, v in acc.items()})
        for scale, acc in cleared_substitute(polys, matrix)
    ]


def cleared_substitute(polys, matrix):
    """(d, integer term dict) per polynomial p: the terms of d * p(matrix x),
    where d is the lcm of the denominators of p's coefficients; the dict
    may hold zero coefficients.

    The polynomials share one table of monomial images: the image of x^a is
    built once, as the image of x^a / x_i times row i, where x_i is the
    first variable of x^a.  Integer entries stay Python ints in the table,
    so the inner products are integer products when the matrix is integral.
    The matrix must be square of size nvars and invertible.
    """
    from .linalg import det

    polys = list(polys)
    n = polys[0].nvars if polys else len(matrix)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise DimensionError("matrix size != nvars")
    if any(p.nvars != n for p in polys):
        raise DimensionError("mixed variable counts in substituted polynomials")
    if det(matrix) == 0:
        raise SingularMatrixError("coordinate change matrix is singular")
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in matrix]
    table = {(0,) * n: {(0,) * n: 1}}

    def image(alpha):
        img = table.get(alpha)
        if img is None:
            i = next(k for k, e in enumerate(alpha) if e)
            lower = image(alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :])
            img = {}
            for beta, v in lower.items():
                for j, c in rows[i]:
                    gamma = beta[:j] + (beta[j] + 1,) + beta[j + 1 :]
                    s = img.get(gamma, 0) + v * c
                    if s:
                        img[gamma] = s
                    else:
                        del img[gamma]
            table[alpha] = img
        return img

    sums = []
    for p in polys:
        scale = reduce(lcm, [c.denominator for c in p.terms.values()], 1)
        acc = {}
        for alpha, c in p.terms.items():
            c = c.numerator * (scale // c.denominator)
            for beta, v in image(alpha).items():
                acc[beta] = acc.get(beta, 0) + c * v
        sums.append((scale, acc))
    # image is a closure over itself, so the table would wait for the
    # cycle collector; free the largest thing alive here now
    table.clear()
    return sums
