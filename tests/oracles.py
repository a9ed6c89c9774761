"""Independent oracles and helpers that only the tests use.

Each one recomputes by another route something the pipeline computes:
membership and ideal equality by full division on exponent tuples, the
packed monomial orders by their tuple keys, Hilbert functions by
exact linear algebra, symbolic-power membership by derivatives at the
points, semigroup properties of staircases by direct membership, the
monomial order by pairwise comparison, and asymptotic Hilbert polynomials
by finite differences in m, and facets, vertices and volumes of polyhedra
by subset enumeration.  `groebner_basis` is the reduced basis that the
division oracles take: the engine's minimal basis with its tails reduced.
`gin_draws_over_q` is gin's pair of draws computed over Q, the exact path
the F_p draws are checked against.
`pack_generators` and `unpack_pairs` carry tuple-keyed term dicts across
the engine's packed boundary for the tests that drive it directly.
`Poly` is a Polynomial with ring arithmetic and `Ideal` an ideal by its
Poly generators, the forms the oracles compute with; `packed` and
`ideal_of` carry an Ideal to the pipeline's packed integer generators and
back, and `symbolic_ideal` is the Ideal of a symbolic power.
`symbolic_power_by_elimination` is the reduced basis of a symbolic power by
the intersection of its components' powers alone, the oracle of the
pipeline's monomial and kernel paths.
`parse_polynomial` reads the text form that `str(Polynomial)` writes.
`eliahou_kervaire_k_polynomial` is the closed-form K-polynomial of a
strongly stable ideal, an oracle for the K-polynomial kernel.
`count_fractions` records every Fraction built while it is patched in.
`clip_to_simplex` gives the clip that `polyhedra` computes internally as
a polyhedron, for the tests that compare its vertices, and
`clip_by_one_description` computes that clip's rows and masks by a double
description over all of its normals at once, from their echelon form.
"""

import random
import re
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, gcd

from limshape import linalg
from limshape.configs import Config, symbolic_power
from limshape.polyhedra import (
    _clip,
    _dot,
    _extreme_rays,
    _lift,
    _polyhedron,
    _reduced,
)
from limshape.groebner import (
    buchberger,
    derive_seed,
    intersect_ideals,
    random_change_matrix,
    reduce_tails,
)
from limshape.rings import (
    DEGREVLEX,
    DimensionError,
    Polynomial,
    degree,
    divides,
    linear_substitute,
    packed_terms,
    unit_keys,
    unpack,
)
from limshape.staircase import MonomialStaircase, k_polynomial, minimalize


# -- monomials and polynomials -----------------------------------------------


def mul_exp(a, b):
    return tuple(x + y for x, y in zip(a, b))


def exp_div(b, a):
    """Exponent of x^b / x^a; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(b, a))


def exp_lcm(a, b):
    return tuple(map(max, a, b))


def tuple_degrevlex(alpha):
    """The degrevlex key as a tuple, the oracle of the packed rings.DEGREVLEX:
    higher total degree wins; on ties the last differing variable decides,
    smaller exponent there winning."""
    return (sum(alpha), *(-e for e in reversed(alpha)))


def tuple_elimination_order(split):
    """The oracle of the packed rings.elimination_order(split): the two
    block keys concatenated, which compares block by block because the head
    block's key always has split + 1 entries."""

    def key(alpha):
        return tuple_degrevlex(alpha[:split]) + tuple_degrevlex(alpha[split:])

    return key


def compare(a, b, order=DEGREVLEX) -> int:
    """-1 / 0 / +1 as x^a is smaller / equal / bigger than x^b."""
    if len(a) != len(b):
        raise DimensionError(f"monomials in {len(a)} vs {len(b)} variables")
    ka, kb = order(a), order(b)
    return (ka > kb) - (ka < kb)


class Poly(Polynomial):
    """A Polynomial with the ring arithmetic the oracles compute with; the
    package's Polynomial only prints.  A Polynomial operand is taken as the
    Poly with its terms, any other one as a constant."""

    __slots__ = ()

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def linear_form(cls, coeffs):
        """sum_i coeffs[i] * x_{i+1}."""
        n = len(coeffs)
        return cls(n, {
            tuple(int(i == j) for j in range(n)): c for i, c in enumerate(coeffs)
        })

    def is_zero(self):
        return not self.terms

    def is_homogeneous(self):
        return len({degree(a) for a in self.terms}) <= 1

    def _operand(self, other):
        if not isinstance(other, Polynomial):
            return Poly.constant(self.nvars, other)
        if self.nvars != other.nvars:
            raise DimensionError(
                f"polynomials in {self.nvars} vs {other.nvars} variables"
            )
        return other

    def __add__(self, other):
        terms = dict(self.terms)
        for a, c in self._operand(other).terms.items():
            terms[a] = terms.get(a, 0) + c
        return Poly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly(self.nvars, self._operand(other).terms)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            return Poly(self.nvars, {a: k * c for a, k in self.terms.items()})
        other = self._operand(other)
        terms = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                ab = mul_exp(a, b)
                terms[ab] = terms.get(ab, 0) + ca * cb
        return Poly(self.nvars, terms)

    __rmul__ = __mul__


def monomial(alpha, c=1) -> Poly:
    return Poly(len(alpha), {tuple(alpha): Fraction(c)})


def leading_monomial(p: Polynomial, order=DEGREVLEX):
    return max(p.terms, key=order)


def total_degree(p: Polynomial) -> int:
    """Degree of the polynomial; -1 for the zero polynomial."""
    return max((degree(a) for a in p.terms), default=-1)


def evaluate(p: Polynomial, point):
    if len(point) != p.nvars:
        raise DimensionError("point length != nvars")
    total = Fraction(0)
    for a, c in p.terms.items():
        v = c
        for x, e in zip(point, a):
            if e:
                v *= Fraction(x) ** e
        total += v
    return total


def partial(p: Polynomial, i) -> Poly:
    """d/dx_i, 1-based."""
    terms = {}
    for a, c in p.terms.items():
        e = a[i - 1]
        if e:
            b = list(a)
            b[i - 1] -= 1
            terms[tuple(b)] = terms.get(tuple(b), 0) + c * e
    return Poly(p.nvars, terms)


_TOKEN = re.compile(
    r"\s*(?:(?P<coeff>-?\d+(?:/\d+)?)|(?P<var>x\d+)(?:\^(?P<pow>\d+))?"
    r"|(?P<op>[+*-]))"
)


def parse_polynomial(text: str, nvars: int) -> Poly:
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
    return Poly(nvars, terms)


# -- ideals -------------------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    nvars: int
    generators: tuple  # nonempty tuple of homogeneous nonzero Poly

    @classmethod
    def of(cls, gens):
        gens = tuple(Poly(g.nvars, g.terms) for g in gens)
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


def packed(ideal: Ideal):
    """The ideal's generators in the pipeline's format: each the primitive
    integer multiple with a positive leading coefficient, keyed by
    DEGREVLEX packed monomials."""
    weights = unit_keys(DEGREVLEX, ideal.nvars)
    out = []
    for g in ideal.generators:
        _, ints = linalg.cleared(list(g.terms.values()))
        content = gcd(*ints)
        if g.terms[leading_monomial(g)] < 0:
            content = -content
        out.append(packed_terms(
            {a: c // content for a, c in zip(g.terms, ints)}, weights
        ))
    return out


def ideal_of(generators, nvars) -> Ideal:
    """The Ideal of term dicts in nvars variables in the pipeline's format,
    each made monic; SymbolicPower.ideal builds them with their integer
    coefficients as they are."""
    return Ideal.of(
        Poly(nvars, {unpack(a, nvars): Fraction(c, g[max(g)]) for a, c in g.items()})
        for g in generators
    )


def symbolic_ideal(config: Config, m: int) -> Ideal:
    """The Ideal of symbolic_power(config, m)'s generators, made monic."""
    sp = symbolic_power(config, m)
    return ideal_of(sp.generators, sp.nvars)


# -- reduced Groebner bases, membership and ideal equality -------------------


@dataclass(frozen=True)
class GroebnerBasis:
    ideal: Ideal
    order: Callable  # the monomial order's key function
    basis: tuple  # reduced, monic, sorted by leading monomial

    def leading_monomials(self):
        return [leading_monomial(g, self.order) for g in self.basis]


def pack_generators(gens, order=DEGREVLEX):
    """Nonzero tuple-keyed term dicts, rational or int, as the packed
    generators buchberger takes under order: each cleared to its primitive
    integer multiple with a positive lead, as the pipeline's format has
    them."""
    weights = unit_keys(order, len(next(iter(gens[0]))))
    out = []
    for g in gens:
        _, ints = linalg.cleared(list(g.values()))
        terms = packed_terms(dict(zip(g, ints)), weights)
        content = gcd(*ints) if terms[max(terms)] > 0 else -gcd(*ints)
        out.append({a: c // content for a, c in terms.items()})
    return out


def unpack_pairs(pairs, n):
    """buchberger's (lead, packed term dict) pairs in n variables, each term
    dict keyed by exponent tuples."""
    return [(lead, {unpack(a, n): c for a, c in f.items()}) for lead, f in pairs]


def groebner_basis(ideal: Ideal, order=DEGREVLEX) -> GroebnerBasis:
    """The reduced basis: the engine's minimal basis, tails reduced, each
    primitive element divided by its lead, the first of its terms."""
    gens = pack_generators([g.terms for g in ideal.generators], order)
    pairs = buchberger(gens, ideal.nvars, order)
    return GroebnerBasis(ideal, order, tuple(
        Poly(ideal.nvars, {a: Fraction(c, next(iter(terms.values())))
                           for a, c in terms.items()})
        for terms in reduce_tails(pairs)
    ))


def symbolic_power_by_elimination(config: Config, m: int) -> GroebnerBasis:
    """The reduced basis of I^(m) by the elimination alone, the path the
    pipeline took for every configuration before its kernels: each
    component's m-th power, from the oracle's own products of its forms,
    intersected in component order by intersect_ideals."""
    n = config.n + 1
    powers = [
        packed(Ideal.of([Poly(n, {tuple(int(i == j) for j in range(n)): c
                                  for i, c in enumerate(f) if c})
                         for f in forms]).power(m))
        for forms in config.forms
    ]
    generators, *others = powers
    for other in others:
        generators = intersect_ideals(generators, other, n)
    return groebner_basis(ideal_of(generators, n))


def gin_draw_matrix(seed, nvars, k=0):
    """The integer matrix of gin's draw k (0 or 1), which its seed alone
    fixes."""
    return random_change_matrix(random.Random(derive_seed(seed, "gin", k)), nvars)


def gin_draws_over_q(ideal: Ideal, seed, target=None):
    """The minimal generators of the initial ideal of each of gin's two
    draws, computed over Q under the seeded matrices gin draws."""
    raws = []
    for k in (0, 1):
        matrix = gin_draw_matrix(seed, ideal.nvars, k)
        moved = linear_substitute(ideal.generators, matrix)
        pairs = buchberger(
            pack_generators([g.terms for g in moved]), ideal.nvars, target=target
        )
        raws.append(minimalize(lead for lead, _ in pairs))
    return raws


def oracle_target(ideal: Ideal):
    """The K-polynomial of the ideal, from the leads of its Groebner basis
    over Q in the coordinates given: the target gin takes, since a change
    of coordinates keeps it."""
    return k_polynomial(initial_ideal(groebner_basis(ideal)))


def initial_ideal(gb: GroebnerBasis):
    """Minimal monomial generators of the leading-term ideal."""
    return minimalize(gb.leading_monomials())


def normal_form(f, basis, order=DEGREVLEX) -> Poly:
    """Full multivariate division remainder of f by basis: the textbook
    division on exponent tuples, taking the largest remaining term under
    order and the first element whose lead divides it, so it shares no code
    with the engine's packed reduction."""
    reducers = [
        (leading_monomial(g, order), g.terms) for g in basis if not g.is_zero()
    ]
    work = dict(f.terms)
    remainder = {}
    while work:
        lm = max(work, key=order)
        for lead, terms in reducers:
            if divides(lead, lm):
                shift = exp_div(lm, lead)
                factor = work[lm] / terms[lead]
                for a, c in terms.items():
                    b = mul_exp(a, shift)
                    v = work.get(b, 0) - c * factor
                    if v:
                        work[b] = v
                    else:
                        work.pop(b, None)
                break
        else:
            remainder[lm] = work.pop(lm)
    return Poly(f.nvars, remainder)


def contains(gb: GroebnerBasis, f: Polynomial) -> bool:
    return normal_form(f, gb.basis, gb.order).is_zero()


def ideal_contains(gb: GroebnerBasis, other: Ideal) -> bool:
    return all(contains(gb, g) for g in other.generators)


def ideals_equal(a: Ideal, b: Ideal, order=DEGREVLEX) -> bool:
    ga, gb_ = groebner_basis(a, order), groebner_basis(b, order)
    return ideal_contains(ga, b) and ideal_contains(gb_, a)


# -- Hilbert functions -------------------------------------------------------


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
        rem = d - total_degree(g)
        if rem < 0:
            continue
        for shift in _degree_monomials(n, rem):
            row = [Fraction(0)] * len(monos)
            for a, c in g.terms.items():
                row[index[mul_exp(a, shift)]] = c
            rows.append(row)
    return len(monos) - linalg.rank(rows)


def eliahou_kervaire_k_polynomial(gens):
    """K-polynomial of a strongly stable monomial ideal (Borel-fixed, with
    x1 > x2 > ...) from its Eliahou-Kervaire resolution (Eliahou-Kervaire
    1990, "Minimal resolutions of some monomial ideals"): a minimal
    generator u whose last variable is x_max(u) has C(max(u) - 1, i)
    syzygies of degree deg u + i at step i + 1, so
    K = 1 - sum_u t^deg(u) (1 - t)^(max(u) - 1).  Wrong for other ideals.
    Keys in ascending degree, without zero coefficients."""
    poly = {0: 1}
    for u in minimalize(gens):
        last = max((i for i, e in enumerate(u) if e), default=0)
        for i in range(last + 1):
            d = degree(u) + i
            poly[d] = poly.get(d, 0) - (-1) ** i * comb(last, i)
    return {d: c for d, c in sorted(poly.items()) if c}


def _degree_monomials(n, d):
    if n == 1:
        yield (d,)
        return
    for e in range(d + 1):
        for rest in _degree_monomials(n - 1, d - e):
            yield (e,) + rest


# -- symbolic powers of points -----------------------------------------------


def differential_membership_check(f: Polynomial, config: Config, m: int) -> bool:
    """True iff every partial of order <= m-1 vanishes at every point.

    Cross-check oracle for symbolic-power membership on point sets.
    """
    if config.flats:
        raise TypeError("differential check is only decidable for point sets")
    if not f.is_homogeneous():
        raise ValueError("f must be homogeneous")
    nvars = config.n + 1
    for alpha in _multi_indices(nvars, m - 1):
        g = f
        for i, e in enumerate(alpha):
            for _ in range(e):
                g = partial(g, i + 1)
        if g.is_zero():
            continue
        for p in config.points:
            if evaluate(g, p) != 0:
                return False
    return True


def _multi_indices(n, max_total):
    for alpha in product(range(max_total + 1), repeat=n):
        if sum(alpha) <= max_total:
            yield alpha


# -- semigroup containment of staircases -------------------------------------


def contains_scaled(staircase: MonomialStaircase, other: MonomialStaircase, k: int):
    """Check k*alpha in staircase for every minimal generator alpha of other.

    Returns (ok, witness): witness is the first failing generator.
    """
    for g in other.min_gens:
        if not staircase.membership(tuple(k * e for e in g)):
            return False, g
    return True, None


def contains_minkowski(
    staircase: MonomialStaircase, p: MonomialStaircase, q: MonomialStaircase
):
    """Check g+h in staircase for all generators g of p, h of q."""
    for g in p.min_gens:
        for h in q.min_gens:
            s = tuple(a + b for a, b in zip(g, h))
            if not staircase.membership(s):
                return False, (g, h)
    return True, None


# -- asymptotic Hilbert polynomials ----------------------------------------


def ahp_by_differences(hp, n, t):
    """aHP(t) = lim HP_m(m t) / m^n from the definition, for hp(m) the Hilbert
    polynomial of I^(m).

    For fixed t, HP_m(m t) is a polynomial in m of degree at most n, so its
    m^n coefficient is its n-th difference over m = 1..n+1 divided by n!,
    and its (n+1)-th difference over m = 1..n+2 is zero.
    """
    t = Fraction(t)
    values = [hp(m)(m * t) for m in range(1, n + 3)]
    for _ in range(n):
        values = [b - a for a, b in zip(values, values[1:])]
    if values[0] != values[1]:
        raise ValueError("HP_m(m t) is not a polynomial of degree <= n in m")
    return values[0] / factorial(n)


# -- polyhedra ---------------------------------------------------------------


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector (same sign)."""
    return _reduced(linalg.cleared(vec)[1])


def hyperplanes_by_subsets(generators, dim):
    """Facet normals of the cone spanned by `generators` in R^dim: primitive
    w with w.g >= 0 for all g and equality on a rank-(dim-1) subset.

    A (dim-1) x dim matrix has a one-dimensional kernel exactly when its
    rank is dim-1, so one elimination per subset decides both."""
    normals = set()
    gens = [list(g) for g in generators]
    for sub in combinations(range(len(gens)), dim - 1):
        mat = [gens[i] for i in sub]
        kernel = linalg.nullspace(mat)
        if len(kernel) != 1:
            continue
        w = kernel[0]
        vals = [sum(a * b for a, b in zip(w, g)) for g in gens]
        if all(v >= 0 for v in vals):
            normals.add(_primitive(w))
        elif all(v <= 0 for v in vals):
            normals.add(_primitive([-x for x in w]))
    return normals


def solve(mat, rhs):
    """Solve square mat @ x = rhs exactly; None if singular."""
    n = len(mat)
    rows, pivots = linalg.echelon([list(row) + [rhs[i]] for i, row in enumerate(mat)])
    if len(pivots) < n or pivots[-1] == n:  # rank deficient or inconsistent
        return None
    # row i is a multiple of (e_i | x_i)
    return [Fraction(row[n], row[i]) for i, row in enumerate(rows)]


def vertex_enumerate_by_subsets(normals, dim):
    """Vertices of {x : w.(x, 1) >= 0 for all normals w}; assumes
    boundedness."""
    ineqs = sorted({(w[:dim], -w[dim]) for w in normals})
    verts = set()
    for sub in combinations(range(len(ineqs)), dim):
        mat = [list(ineqs[i][0]) for i in sub]
        rhs = [ineqs[i][1] for i in sub]
        x = solve(mat, rhs)
        if x is None:
            continue
        if all(_dot(a, x) >= b for a, b in ineqs):
            verts.add(tuple(x))
    return sorted(verts)


def facets_by_subsets(poly):
    """`poly.facet_inequalities()` with the facets of the homogenizing cone
    found by subset enumeration: the equations of its span in both signs,
    and the facet normals within the span, extended by zeros."""
    d = poly.dim
    lifted = [v + (Fraction(1),) for v in poly.vertices]
    lifted += poly.directions
    normals = set()
    for w in linalg.nullspace(lifted):
        w = _primitive(w)
        normals |= {w, tuple(-x for x in w)}
    pivots = linalg.echelon(lifted)[1]
    projected = [[g[c] for c in pivots] for g in lifted]
    for u in hyperplanes_by_subsets(projected, len(pivots)):
        w = [0] * (d + 1)
        for c, x in zip(pivots, u):
            w[c] = x
        normals.add(tuple(w))
    return tuple(sorted(normals, key=lambda w: (w[:d], -w[d])))


def polyhedron_contains(poly, p) -> bool:
    """Whether the rational point p lies in the polyhedron: its cleared
    integer row (p d, d) meets w.(p d, d) >= 0 for every facet normal w."""
    q = _lift(p)
    return all(_dot(w, q) >= 0 for w in poly.facet_inequalities())


def volume_by_pyramids(points, dim):
    """Volume of conv(points) in R^dim as a sum of pyramids from one point
    over the facets found by subset enumeration; no triangulation and no
    determinant.

    A facet a.x >= b with a primitive, projected along a coordinate j with
    a_j != 0, has its area scaled by |a_j| / |a|, and the apex lies at
    height (a.apex - b) / |a|, so the pyramid has volume
    (a.apex - b) vol(projection) / (dim |a_j|)."""
    points = sorted({tuple(map(Fraction, p)) for p in points})
    base = points[0]
    if linalg.rank([[x - y for x, y in zip(p, base)] for p in points]) < dim:
        return Fraction(0)
    if dim == 1:
        return points[-1][0] - points[0][0]
    total = Fraction(0)
    for w in hyperplanes_by_subsets([p + (1,) for p in points], dim + 1):
        a, b = w[:dim], -w[dim]
        height = _dot(a, base) - b
        if height == 0:
            continue
        j = next(i for i, c in enumerate(a) if c)
        face = [p[:j] + p[j + 1:] for p in points if _dot(a, p) == b]
        total += height * volume_by_pyramids(face, dim - 1) / abs(a[j])
    return total / dim


def simplex_inequalities(dim, t):
    """The normals of x_i >= 0 and sum x_i <= t: (e_i, 0) and, for the int
    or Fraction t = p/q, (-q, ..., -q, p)."""
    normals = [tuple(int(i == j) for j in range(dim + 1)) for i in range(dim)]
    normals.append((-t.denominator,) * dim + (t.numerator,))
    return normals


def clip_by_one_description(poly, t):
    """`_clip(poly, t)` by one double description, started from the echelon
    form of its rows: the extreme rays of the cone {(x, s) : w.(x, s) >= 0,
    s >= 0} over poly's normals and the simplex's, which the simplex
    bounds, so each has s > 0, with the masks of the normals tight on each
    transposed."""
    normals = [*poly.facet_inequalities(), *simplex_inequalities(poly.dim, t)]
    rays = _extreme_rays(normals + [(0,) * poly.dim + (1,)])
    rows = tuple(r for r, _ in rays)
    masks = [
        sum(1 << i for i, (_, tight) in enumerate(rays) if tight >> j & 1)
        for j in range(len(normals))
    ]
    return rows, masks


def clip_to_simplex(poly, t):
    """Intersection with the corner simplex {x >= 0, sum x_i <= t}: a
    bounded polyhedron, built from the clip's rows as every polyhedron is,
    or None when it is empty."""
    rows, _ = _clip(poly, t)
    return _polyhedron(poly.dim, rows, ()) if rows else None


# -- arithmetic ------------------------------------------------------------


def count_fractions(monkeypatch):
    """A list that collects the arguments of every Fraction built until
    monkeypatch.undo()."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return built
