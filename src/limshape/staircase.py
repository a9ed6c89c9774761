"""Monomial-ideal staircases: membership, lattice counts, Hilbert functions.

A staircase is the upward-closed exponent set of a monomial ideal in n
(dehomogenized) variables, stored by its antichain of minimal generators.
Every lattice count, Hilbert function and volume is a short sum over the
terms of one kernel, the K-polynomial (Hilbert-series numerator) of the
ideal, computed by slicing on the last variable down to two variables
(Roune 2010), which ends as each slice has one variable fewer; a call that
passes K_NODE_CAP nodes stops with ComputationLimitError.
A brute-force enumerator is kept as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import comb, factorial, floor
from operator import itemgetter, le

from .linalg import ComputationLimitError
from .rings import divides, degree

# nodes one k_polynomial call may visit, read at call time: the largest
# call on the reach ladder (6 generic points in P^4 at m = 4) visits 132
K_NODE_CAP = 100_000


def minimalize(gens):
    """Antichain of componentwise-minimal elements, canonically sorted.

    In the sorted distinct list a proper divisor comes before each of its
    multiples, so one pass keeps exactly the elements no kept one divides."""
    keep = []
    for g in sorted(set(map(tuple, gens))):
        for h in keep:
            if all(map(le, h, g)):
                break
        else:
            keep.append(g)
    return tuple(keep)


def simplex_count(bound: int, n: int) -> int:
    """#{a in Z^n_{>=0} : sum a_i <= bound}."""
    if bound < 0:
        return 0
    return comb(bound + n, n)


def k_polynomial(gens) -> dict:
    """Numerator of the Hilbert series of S/I, graded by total degree, for
    the monomial ideal I generated by the exponent vectors gens.

    Returns {degree: coefficient} without zero coefficients, keys in
    ascending degree: {0: 1} for the zero ideal, {} for the unit ideal.  As
    a polynomial it equals the subset sum over S of gens of
    (-1)^|S| t^deg(lcm S).  Computed by _k_slice.  Raises
    ComputationLimitError once the recursion passes K_NODE_CAP nodes.
    """
    return dict(sorted(_k_slice(list(map(tuple, gens)), [K_NODE_CAP]).items()))


def _k_slice(gens, budget) -> dict:
    """k_polynomial of gens, keys in no set order; budget is the
    one-element list of the nodes the call may still visit.

    In n >= 3 variables, with c_0 < ... < c_r the exponents of x_n and J_j
    the ideal in n - 1 variables of the gens with x_n-exponent at most c_j,
    x_n dropped, the x_n^k layer of S/I is S'/J_j for c_j <= k < c_(j+1).
    Summing the layers by parts gives N(I) =
    1 + sum_j t^(c_j) (N(J_j) - N(J_(j-1))), N(J_(-1)) = 1 (Roune 2010, "A
    slice algorithm for corners and Hilbert-Poincare series of monomial
    ideals"), up to the first unit J_j, the only slice with N = 0.  Slices
    of 3 or more variables are minimalized.  In two (fewer are padded with
    zeros), the gens sorted by x that lower the running minimum of y are
    the corners: N = 1 - sum t^(x_i + y_i) + sum t^(x_(i+1) + y_i).  Each
    slice has one variable fewer, so it ends.
    """
    budget[0] -= 1
    if budget[0] < 0:
        raise ComputationLimitError(f"K-polynomial node cap {K_NODE_CAP} exhausted")
    n = len(gens[0]) if gens else 2
    if n < 3:
        poly, last = {0: 1}, None
        for x, y in sorted(gens if n == 2 else [g + (0, 0)[n:] for g in gens]):
            if last is None or y < last:
                poly[x + y] = poly.get(x + y, 0) - 1
                if last is not None:
                    poly[x + last] = poly.get(x + last, 0) + 1
                last = y
        return {d: v for d, v in poly.items() if v}
    poly, prev, layer = {0: 1}, {0: 1}, []
    for c, group in groupby(sorted(gens, key=itemgetter(-1)), itemgetter(-1)):
        group = [g[:-1] for g in group]
        layer += group
        part = _k_slice(list(minimalize(layer)) if n > 3 else layer,
                        budget) if all(map(any, group)) else {}
        for d, v in part.items():
            poly[d + c] = poly.get(d + c, 0) + v
        for d, v in prev.items():
            poly[d + c] = poly.get(d + c, 0) - v
        if not part:
            break
        prev = part
    return {d: v for d, v in poly.items() if v}


def k_polynomial_plus(k, gens, a) -> dict:
    """K-polynomial of I + (x^a), from k, the K-polynomial of the monomial
    ideal I generated by gens.

    The exact sequence 0 -> S/(I : x^a)(-|a|) -> S/I -> S/(I + x^a) -> 0
    gives K(I + x^a) = K(I) - t^|a| K(I : x^a), and I : x^a is generated by
    lcm(g, a) / a over the generators g of I.  Keys in ascending degree.
    """
    d = degree(a)
    out = dict(k)
    colon = (tuple(max(x - y, 0) for x, y in zip(g, a)) for g in gens)
    for e, c in k_polynomial(colon).items():
        out[e + d] = out.get(e + d, 0) - c
    return {e: c for e, c in sorted(out.items()) if c}


@dataclass(frozen=True)
class MonomialStaircase:
    nvars: int
    min_gens: tuple  # antichain of exponent tuples, sorted

    @classmethod
    def from_generators(cls, nvars, gens):
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != nvars:
                raise ValueError("generator length != nvars")
            if any(e < 0 for e in g):
                raise ValueError("negative exponent in generator")
        return cls(nvars, minimalize(gens))

    def is_empty(self):
        """True for the zero ideal (no generators)."""
        return not self.min_gens

    def membership(self, alpha) -> bool:
        alpha = tuple(alpha)
        if len(alpha) != self.nvars:
            raise ValueError("exponent length != nvars")
        return any(divides(g, alpha) for g in self.min_gens)

    def is_borel_fixed(self) -> bool:
        """True when the ideal is Borel-fixed (strongly stable, in
        characteristic 0): for every minimal generator g and every x_j
        dividing it, g * x_i / x_j lies in the ideal for each i < j."""
        for g in self.min_gens:
            for j, e in enumerate(g):
                if not e:
                    continue
                for i in range(j):
                    moved = list(g)
                    moved[i] += 1
                    moved[j] -= 1
                    if not self.membership(moved):
                        return False
        return True

    # -- lattice counting --------------------------------------------------

    def count_gamma(self, bound: int) -> int:
        """Lattice points of the complement within the corner simplex:
        #{a in Z^n_{>=0} : a not in staircase, sum a_i <= bound}."""
        if bound < 0:
            raise ValueError("bound must be >= 0")
        return sum(
            c * simplex_count(bound - d, self.nvars)
            for d, c in k_polynomial(self.min_gens).items()
        )

    def count_gamma_bruteforce(self, bound: int) -> int:
        """Direct enumeration; the oracle for count_gamma."""
        count = 0
        for alpha in _simplex_points(self.nvars, bound):
            if not self.membership(alpha):
                count += 1
        return count

    def hilbert_function(self, d: int) -> int:
        """HF of the homogenized ideal in n+1 variables at degree d.

        Counts degree-d monomials in x1..x_{n+1} outside the ideal (its
        generators never involve x_{n+1}).  Via the x_{n+1}-filler bijection
        this equals count_gamma(d).
        """
        if d < 0:
            raise ValueError("degree must be >= 0")
        return self.count_gamma(d)

    # -- exact volume of the complement region -----------------------------

    def gamma_volume(self, cutoff: Fraction) -> Fraction:
        """vol({x >= 0, sum x_i <= cutoff} \\ staircase region), exact.

        The staircase region is the union of corners g + R^n_{>=0}; each
        K-polynomial term c t^d contributes c times the corner simplex of
        side cutoff - d: for cutoff = p/q, c (p - d q)^n / (q^n n!), summed
        on integers over the terms with d q < p.
        """
        cutoff = Fraction(cutoff)
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        n, p, q = self.nvars, cutoff.numerator, cutoff.denominator
        return Fraction(
            sum(c * (p - d * q) ** n
                for d, c in k_polynomial(self.min_gens).items() if d * q < p),
            q**n * factorial(n),
        )

    def lm_volume(self, cutoff: Fraction) -> Fraction:
        """vol(staircase region intersected with the corner simplex)."""
        cutoff = Fraction(cutoff)
        return cutoff ** self.nvars / factorial(self.nvars) - self.gamma_volume(
            cutoff
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"nvars": self.nvars, "generators": [list(g) for g in self.min_gens]}



def _simplex_points(n, bound):
    if n == 0:
        yield ()
        return
    for e in range(bound + 1):
        for rest in _simplex_points(n - 1, bound - e):
            yield (e,) + rest


def lattice_volume_error_bound(n: int, m: int, t) -> int:
    """Bound on |#Gamma_{m,t} - vol(Gamma_m within the mt-simplex)|:
    (n+2) * C(floor(mt)+n, n-1)."""
    return (n + 2) * comb(floor(Fraction(m) * Fraction(t)) + n, n - 1)
