"""Exact multivariate polynomial arithmetic over the rationals.

Monomials are exponent tuples; polynomials map exponent tuples to nonzero
Fraction coefficients.  Variable precedence is x1 > x2 > ... > x_nvars
(variable i lives at tuple index i-1).  All values are immutable after
construction and safe to share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


class DimensionError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class SingularMatrixError(ValueError):
    """A coordinate-change matrix is not invertible."""


ExponentVector = tuple  # tuple[int, ...], all entries >= 0


def degree(alpha) -> int:
    return sum(alpha)


def mul_exp(a, b):
    return tuple(x + y for x, y in zip(a, b))


def divides(a, b) -> bool:
    """Componentwise a <= b, i.e. x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def exp_div(b, a):
    """Exponent of x^b / x^a; caller guarantees divisibility."""
    return tuple(y - x for x, y in zip(a, b))


def exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


@dataclass(frozen=True)
class MonomialOrder:
    """degrevlex, or an elimination-block order (block = first `split` vars,
    degrevlex inside each block).

    degrevlex: higher total degree wins; on ties the last differing variable
    decides, smaller exponent there winning.
    """

    kind: str = "degrevlex"  # "degrevlex" | "elim"
    split: int = 0

    def key(self, alpha):
        if self.kind == "degrevlex":
            return _grevlex_key(alpha)
        if self.kind == "elim":
            head, tail = alpha[: self.split], alpha[self.split :]
            return (_grevlex_key(head), _grevlex_key(tail))
        raise ValueError(f"unknown order kind {self.kind!r}")


def _grevlex_key(alpha):
    return (sum(alpha), tuple(-e for e in reversed(alpha)))


DEGREVLEX = MonomialOrder("degrevlex")


def compare(a, b, order: MonomialOrder = DEGREVLEX) -> int:
    """-1 / 0 / +1 as x^a is smaller / equal / bigger than x^b."""
    if len(a) != len(b):
        raise DimensionError(f"monomials in {len(a)} vs {len(b)} variables")
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


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
    def zero(cls, nvars):
        return cls(nvars)

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
    def monomial(cls, alpha, c=1):
        return cls(len(alpha), {tuple(alpha): Fraction(c)})

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

    def total_degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max((degree(a) for a in self.terms), default=-1)

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

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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

    # -- leading data ------------------------------------------------------

    def leading_monomial(self, order: MonomialOrder = DEGREVLEX):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order: MonomialOrder = DEGREVLEX):
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: MonomialOrder = DEGREVLEX):
        if self.is_zero():
            return self
        return self * (1 / self.leading_coeff(order))

    def sorted_terms(self, order: MonomialOrder = DEGREVLEX):
        """(exponent, coefficient) pairs, biggest monomial first."""
        return [
            (a, self.terms[a])
            for a in sorted(self.terms, key=order.key, reverse=True)
        ]

    # -- calculus / substitution ------------------------------------------

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise DimensionError("point length != nvars")
        total = Fraction(0)
        for a, c in self.terms.items():
            v = c
            for x, e in zip(point, a):
                if e:
                    v *= Fraction(x) ** e
            total += v
        return total

    def partial(self, i):
        """d/dx_i, 1-based."""
        terms = {}
        for a, c in self.terms.items():
            e = a[i - 1]
            if e:
                b = list(a)
                b[i - 1] -= 1
                terms[tuple(b)] = terms.get(tuple(b), 0) + c * e
        return Polynomial(self.nvars, terms)

    def linear_substitute(self, matrix):
        """Replace x_i by sum_j matrix[i][j] * x_j (rows act on variables).

        The matrix must be square of size nvars and invertible.
        """
        from .linalg import det

        n = self.nvars
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise DimensionError("matrix size != nvars")
        if det(matrix) == 0:
            raise SingularMatrixError("coordinate change matrix is singular")
        images = [
            Polynomial.linear_form([Fraction(c) for c in row]) for row in matrix
        ]
        result = Polynomial.zero(n)
        for a, c in self.terms.items():
            term = Polynomial.constant(n, c)
            for i, e in enumerate(a):
                if e:
                    term = term * images[i] ** e
            result = result + term
        return result

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


_TOKEN = re.compile(
    r"\s*(?:(?P<coeff>-?\d+(?:/\d+)?)|(?P<var>x\d+)(?:\^(?P<pow>\d+))?"
    r"|(?P<op>[+*-]))"
)


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse sums of terms like `3*x1^2*x2 - 1/2*x3 + 4`.

    Round-trips exactly with str(Polynomial).
    """
    pos = 0
    terms = {}
    sign = Fraction(1)
    coeff = None
    expo = None

    def flush():
        nonlocal sign, coeff, expo
        if coeff is None and expo is None:
            return
        c = sign * (coeff if coeff is not None else 1)
        a = tuple(expo) if expo is not None else (0,) * nvars
        if c:
            terms[a] = terms.get(a, 0) + c
        sign, coeff, expo = Fraction(1), None, None

    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("op") == "+":
            flush()
        elif m.group("op") == "-":
            flush()
            sign = Fraction(-1)
        elif m.group("op") == "*":
            pass
        elif m.group("coeff"):
            c = Fraction(m.group("coeff"))
            coeff = c if coeff is None else coeff * c
        else:
            i = int(m.group("var")[1:])
            if not 1 <= i <= nvars:
                raise DimensionError(f"variable x{i} outside 1..{nvars}")
            e = int(m.group("pow") or 1)
            if expo is None:
                expo = [0] * nvars
            expo[i - 1] += e
    flush()
    p = Polynomial(nvars, terms)
    return p
