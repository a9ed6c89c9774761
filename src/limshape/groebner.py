"""Buchberger engine: reduced Groebner bases, initial ideals, gin,
ideal intersection by elimination, and the regularity surrogate.

Inputs are desk scale (n <= 4, small degrees); the S-pair loop carries a
fixed cap (PAIR_CAP) so runaway computations fail predictably instead of
hanging.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

from . import linalg
from .rings import (
    DEGREVLEX,
    DimensionError,
    MonomialOrder,
    Polynomial,
    degree,
    divides,
    exp_div,
    exp_lcm,
    mul_exp,
)
from .staircase import MonomialStaircase, k_polynomial, minimalize

PAIR_CAP = 200_000  # S-pairs one Buchberger run may take; read at call time


class ComputationLimitError(RuntimeError):
    """The S-pair cap was exhausted before the basis stabilized."""


class GenericityError(RuntimeError):
    """Two independent coordinate draws produced different initial ideals."""


class LastVariableError(RuntimeError):
    """A gin minimal generator involves the last variable; the input is not
    saturated or the coordinate change was not generic."""


@dataclass(frozen=True)
class Ideal:
    nvars: int
    generators: tuple  # nonempty tuple of homogeneous nonzero Polynomial

    @classmethod
    def of(cls, gens):
        gens = tuple(gens)
        if not gens:
            raise ValueError("ideal needs at least one generator")
        nvars = gens[0].nvars
        for g in gens:
            if g.nvars != nvars:
                raise DimensionError("mixed variable counts in generators")
            if g.is_zero():
                raise ValueError("zero generator")
            if not g.is_homogeneous():
                raise ValueError(f"generator not homogeneous: {g}")
        return cls(nvars, gens)

    def power(self, m: int) -> "Ideal":
        """Ordinary power: all m-fold products of generators."""
        if m < 1:
            raise ValueError("power must be >= 1")
        prods = []
        for combo in combinations_with_replacement(self.generators, m):
            p = combo[0]
            for q in combo[1:]:
                p = p * q
            prods.append(p)
        return Ideal.of(prods)


@dataclass(frozen=True)
class GroebnerBasis:
    ideal: Ideal
    order: MonomialOrder
    basis: tuple  # reduced, monic, deterministically sorted

    def leading_monomials(self):
        return [g.leading_monomial(self.order) for g in self.basis]

    def reduce(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.basis, self.order)

    def contains(self, f: Polynomial) -> bool:
        return self.reduce(f).is_zero()


def _neg_key(k):
    return tuple(-x if isinstance(x, int) else _neg_key(x) for x in k)


def _reduce_terms(terms, reducers, order):
    """Remainder dict of a term dict modulo (lm, terms) reducer pairs.

    Works top-down through the support with a lazy max-heap, mutating a
    scratch dict; the workhorse behind normal_form and buchberger.
    """
    import heapq

    key = order.key
    work = dict(terms)
    heap = [(_neg_key(key(a)), a) for a in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        _, lm = heapq.heappop(heap)
        lc = work.get(lm)
        if lc is None or lm in remainder:
            continue
        for glm, gterms in reducers:
            if divides(glm, lm):
                shift = exp_div(lm, glm)
                factor = lc / gterms[glm]
                for a, c in gterms.items():
                    ab = mul_exp(a, shift)
                    old = work.get(ab)
                    s = (old or 0) - c * factor
                    if s:
                        work[ab] = s
                        if old is None:
                            heapq.heappush(heap, (_neg_key(key(ab)), ab))
                    else:
                        work.pop(ab, None)
                break
        else:
            remainder[lm] = lc
            del work[lm]
    return remainder


def normal_form(f, basis, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Full multivariate division remainder of f by basis."""
    reducers = [
        (g.leading_monomial(order), g.terms) for g in basis if not g.is_zero()
    ]
    return Polynomial(f.nvars, _reduce_terms(f.terms, reducers, order))


def s_polynomial(f, g, order):
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    l = exp_lcm(lf, lg)
    mf = Polynomial.monomial(exp_div(l, lf), 1 / f.terms[lf])
    mg = Polynomial.monomial(exp_div(l, lg), 1 / g.terms[lg])
    return mf * f - mg * g


def buchberger(gens, order: MonomialOrder = DEGREVLEX):
    """Reduced Groebner basis of the given polynomials.

    Normal selection strategy (smallest lcm first) with Buchberger's coprime
    and chain criteria.  Raises ComputationLimitError past PAIR_CAP.
    """
    basis = []
    for g in gens:
        if not g.is_zero():
            basis.append(g.monic(order))
    if not basis:
        return ()
    leads = [g.leading_monomial(order) for g in basis]
    reducers = [(leads[i], basis[i].terms) for i in range(len(basis))]
    pairs = set()

    def lm(i):
        return leads[i]

    def add_pairs(j):
        for i in range(j):
            pairs.add((i, j))

    for j in range(len(basis)):
        add_pairs(j)

    processed = 0
    while pairs:
        processed += 1
        if processed > PAIR_CAP:
            raise ComputationLimitError(
                f"S-pair cap {PAIR_CAP} exhausted ({len(basis)} basis elements)"
            )
        i, j = min(pairs, key=lambda p: (order.key(exp_lcm(lm(p[0]), lm(p[1]))), p))
        pairs.discard((i, j))
        li, lj = lm(i), lm(j)
        l = exp_lcm(li, lj)
        # coprime criterion
        if l == mul_exp(li, lj):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if divides(lm(k), l):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pairs and pjk not in pairs:
                    skip = True
                    break
        if skip:
            continue
        s = s_polynomial(basis[i], basis[j], order)
        rem = _reduce_terms(s.terms, reducers, order)
        if rem:
            r = Polynomial(s.nvars, rem).monic(order)
            basis.append(r)
            leads.append(r.leading_monomial(order))
            reducers.append((leads[-1], r.terms))
            add_pairs(len(basis) - 1)
    return _interreduce(basis, order)


def _interreduce(basis, order):
    """Minimalize leading terms, then fully reduce each element: the unique
    reduced (monic) Groebner basis."""
    lms = [g.leading_monomial(order) for g in basis]
    keep = []
    for i, g in enumerate(basis):
        if any(
            j != i
            and divides(lms[j], lms[i])
            and (lms[j] != lms[i] or j < i)
            for j in range(len(basis))
        ):
            continue
        keep.append(g)
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = normal_form(g, others, order)
        if not r.is_zero():
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return tuple(reduced)


def groebner_basis(ideal: Ideal, order: MonomialOrder = DEGREVLEX) -> GroebnerBasis:
    return GroebnerBasis(ideal, order, buchberger(ideal.generators, order))


def initial_ideal(gb: GroebnerBasis):
    """Minimal monomial generators of the leading-term ideal."""
    return minimalize(gb.leading_monomials())


def ideal_contains(gb: GroebnerBasis, other: Ideal) -> bool:
    return all(gb.contains(g) for g in other.generators)


def ideals_equal(a: Ideal, b: Ideal, order=DEGREVLEX) -> bool:
    ga, gb_ = groebner_basis(a, order), groebner_basis(b, order)
    return ideal_contains(ga, b) and ideal_contains(gb_, a)


def intersect_ideals(a: Ideal, b: Ideal) -> Ideal:
    """Intersection of a and b via u*a + (1-u)*b and elimination of u.

    u is prepended as the most significant variable; the elimination-block
    order restricted to u-free monomials is degrevlex on the original ring,
    so the surviving elements form a degrevlex basis of the intersection.
    """
    if a.nvars != b.nvars:
        raise DimensionError("intersection of ideals in different rings")
    n = a.nvars

    def lift(p: Polynomial, u_exp: int) -> Polynomial:
        return Polynomial(n + 1, {(u_exp,) + al: c for al, c in p.terms.items()})

    u = Polynomial.variable(1, n + 1)
    one = Polynomial.constant(n + 1, 1)
    gens = [lift(f, 1) for f in a.generators]
    gens += [(one - u) * lift(g, 0) for g in b.generators]
    order = MonomialOrder("elim", split=1)
    basis = buchberger(gens, order)
    kept = []
    for g in basis:
        if all(al[0] == 0 for al in g.terms):
            kept.append(Polynomial(n, {al[1:]: c for al, c in g.terms.items()}))
    kept = _interreduce(kept, DEGREVLEX)
    return Ideal.of(kept)


# -- Hilbert function oracles ---------------------------------------------


def hf_via_initial(gb: GroebnerBasis, d: int) -> int:
    """HF of the ideal at degree d via standard monomials of its initial
    ideal, summed over the initial ideal's K-polynomial."""
    n = gb.ideal.nvars
    return sum(
        c * comb(d - e + n - 1, n - 1)
        for e, c in k_polynomial(initial_ideal(gb)).items() if e <= d
    )


def hf_via_rank(ideal: Ideal, d: int) -> int:
    """HF at degree d by exact linear algebra: codimension of the span of all
    degree-d multiples of the generators.  Independent of Groebner bases."""
    n = ideal.nvars
    monos = sorted(_degree_monomials(n, d))
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in ideal.generators:
        rem = d - g.total_degree()
        if rem < 0:
            continue
        for shift in _degree_monomials(n, rem):
            row = [Fraction(0)] * len(monos)
            for a, c in g.terms.items():
                row[index[mul_exp(a, shift)]] = c
            rows.append(row)
    return len(monos) - linalg.rank(rows)


def _degree_monomials(n, d):
    if n == 1:
        yield (d,)
        return
    for e in range(d + 1):
        for rest in _degree_monomials(n - 1, d - e):
            yield (e,) + rest


# -- generic initial ideals ------------------------------------------------


@dataclass(frozen=True)
class GinResult:
    staircase: MonomialStaircase  # in nvars-1 variables (last one dropped)
    seed: int
    entry_bound: int
    coordinate_matrix: tuple
    raw_initial: tuple  # minimal generators, nvars variables


def derive_seed(seed: int, *labels) -> int:
    """Deterministic child seed for independent draws."""
    import hashlib

    h = hashlib.sha256(repr((seed,) + labels).encode()).hexdigest()
    return int(h[:16], 16)


def random_change_matrix(rng: random.Random, n: int, entry_bound: int):
    while True:
        m = tuple(
            tuple(Fraction(rng.randint(-entry_bound, entry_bound)) for _ in range(n))
            for _ in range(n)
        )
        if linalg.det([list(r) for r in m]) != 0:
            return m


def _gin_once(ideal: Ideal, seed: int, entry_bound: int):
    rng = random.Random(seed)
    matrix = random_change_matrix(rng, ideal.nvars, entry_bound)
    moved = Ideal.of(
        g.linear_substitute([list(r) for r in matrix]) for g in ideal.generators
    )
    gb = groebner_basis(moved, DEGREVLEX)
    return matrix, initial_ideal(gb)


def gin(ideal: Ideal, seed: int, entry_bound: int = 100) -> GinResult:
    """Generic initial ideal via a seeded random coordinate change.

    A second independent draw must reproduce the same initial ideal; minimal
    generators must avoid the last variable (saturated input).
    """
    if entry_bound < 10:
        raise ValueError("entry_bound must be >= 10")
    matrix, raw = _gin_once(ideal, derive_seed(seed, "gin", 0), entry_bound)
    _, raw2 = _gin_once(ideal, derive_seed(seed, "gin", 1), entry_bound)
    if raw != raw2:
        raise GenericityError(
            "two coordinate draws disagree; raise entry_bound "
            f"(currently {entry_bound})"
        )
    last = ideal.nvars - 1
    for g in raw:
        if g[last] != 0:
            raise LastVariableError(
                f"gin generator {g} involves the last variable; "
                "input is not saturated or draw was not generic"
            )
    staircase = MonomialStaircase.from_generators(
        ideal.nvars - 1, [g[:-1] for g in raw]
    )
    return GinResult(staircase, seed, entry_bound, matrix, tuple(raw))


def regularity_surrogate(g: GinResult) -> int:
    """Max total degree among minimal gin generators (equals the
    Castelnuovo-Mumford regularity for Borel-fixed ideals in char 0)."""
    return max((degree(a) for a in g.staircase.min_gens), default=0)


def lbsr_fit(regs):
    """Minimax (Chebyshev) linear fit reg <= a*m + b over (m, reg) points.

    Returns (a, b, max_residual) with exact rational arithmetic.  The
    optimum of a Chebyshev line fit is attained at an equioscillating
    2- or 3-point configuration, so candidates are enumerated directly.
    """
    pts = [(Fraction(m), Fraction(r)) for m, r in regs]
    if len(pts) < 2:
        raise ValueError("need at least 2 points")

    def max_resid(a, b):
        return max(abs(y - a * x - b) for x, y in pts)

    best = None
    for (x1, y1), (x2, y2) in combinations(sorted(pts), 2):
        if x1 == x2:
            continue
        a = (y2 - y1) / (x2 - x1)
        b = y1 - a * x1
        cand = (max_resid(a, b), a, b)
        best = cand if best is None else min(best, cand)
    for tri in combinations(sorted(pts), 3):
        (x1, y1), (x2, y2), (x3, y3) = tri
        if len({x1, x2, x3}) < 3:
            continue
        # equioscillation: residuals e, -e, e at the three points
        sol = linalg.solve(
            [[x1, 1, 1], [x2, 1, -1], [x3, 1, 1]], [y1, y2, y3]
        )
        if sol is None:
            continue
        a, b, _ = sol
        cand = (max_resid(a, b), a, b)
        best = min(best, cand)
    e, a, b = best
    return a, b, e
