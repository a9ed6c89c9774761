"""Geometric input configurations: finite point sets and unions of linear
flats in P^n, their radical ideals, and symbolic powers.

Symbolic powers are intersections of ordinary powers of the component
ideals; every component here is a complete intersection of linear forms,
for which ordinary and symbolic powers agree.  They are built without
S-pairs wherever a stop rule is proven: the components that are coordinate
subspaces intersect to a monomial ideal J, read off directly, and points
beyond them, in a configuration of points alone, cut I^(m) out of J degree
by degree as the kernel of their conditions, up to the degree where the
Hilbert function settles (symbolic_power).  A configuration with a flat
and a component beyond the coordinate subspaces intersects by elimination
(groebner.intersect_ideals).  Generators come in the pipeline's one
polynomial format (see rings), the format gin takes: primitive integer
term dicts with a positive leading coefficient, keyed by DEGREVLEX packed
monomials.

A configuration keeps the rational coordinates it was given.  Its forms
and its coordinate position are computed on integer rows: each rational
row is cleared of its denominators once, and the echelon forms, kernels
and inverses of `linalg` return ints.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, product, repeat
from math import comb, gcd
from types import SimpleNamespace

from . import linalg
from .groebner import intersect_ideals
from .linalg import ComputationLimitError
from .rings import DEGREVLEX, Polynomial, cleared_substitute, divides, unpack
from .staircase import k_polynomial, minimalize

GENERIC_COORD_BOUND = 100
# entries one degree's condition matrix may hold, read at call time: the
# largest on the reach ladder (6 generic points in P^4 at m = 5) holds
# 70 x 651, about 46 000
CONDITION_CAP = 1_000_000


class DegenerateConfigError(ValueError):
    """Repeated points, dependent defining forms, or similar degeneracy."""


@dataclass(frozen=True)
class Config:
    """Points and linear flats in P^n; a point is the flat its n forms cut
    out, but is given and drawn by its coordinates."""

    n: int  # ambient projective dimension; coordinates have length n+1
    points: tuple = ()  # rational tuples, projectively distinct
    flats: tuple = ()  # each flat: tuple of linear-form coefficient tuples

    def __post_init__(self):
        """Raises DegenerateConfigError for no components, a zero or
        repeated point, dependent forms, or a component that equals or lies
        in another, where it would be redundant."""
        n, points, flats = self.n, self.points, self.flats
        _check_ambient(n)
        if not points and not flats:
            raise DegenerateConfigError("configuration has no components")
        for p in points:
            if len(p) != n + 1:
                raise DegenerateConfigError("point coordinate length != n+1")
            if not any(p):
                raise DegenerateConfigError("zero coordinate tuple is not a point")
        for (i, p), (j, q) in combinations(enumerate(points), 2):
            if linalg.rank([list(p), list(q)]) < 2:
                raise DegenerateConfigError(f"points {i} and {j} coincide projectively")
        for forms in flats:
            if not 1 <= len(forms) <= n:
                # no form cuts out all of P^n, n+1 independent ones nothing
                raise DegenerateConfigError(
                    f"a flat in P^{n} needs 1 to {n} forms, got {len(forms)}"
                )
            for f in forms:
                if len(f) != n + 1:
                    raise DegenerateConfigError("form length != n+1")
            if linalg.rank([list(f) for f in forms]) != len(forms):
                raise DegenerateConfigError("dependent defining forms for a flat")
        for (i, a), (j, b) in combinations(enumerate(flats), 2):
            if _nested(a, b):
                raise DegenerateConfigError(
                    f"flats {i} and {j} coincide or one contains the other"
                )
        for (i, p), (j, forms) in product(enumerate(points), enumerate(flats)):
            if not any(_coordinates(forms, p)):
                raise DegenerateConfigError(f"point {i} lies on flat {j}")

    @classmethod
    def of(cls, n, points=(), flats=()):
        """The configuration with Fraction coordinates and tuples
        throughout; constructing it runs the checks."""
        def coords(v):
            return tuple(Fraction(c) for c in v)

        points = tuple(coords(p) for p in points)
        return cls(n, points, tuple(tuple(map(coords, forms)) for forms in flats))

    @classmethod
    def generic(cls, n, r, s, seed):
        """s seeded random r-flats in P^n with integer coefficients: points
        by their coordinates when r = 0, else flats by n-r forms each."""
        if r and not 0 < r < n:
            raise ValueError("flat dimension must satisfy 0 <= r < n")
        _check_ambient(n)  # else the draws below never end
        rng = random.Random(seed)

        def config(drawn):
            return cls.of(n, flats=drawn) if r else cls.of(n, points=drawn)

        drawn = []
        while len(drawn) < s:
            rows = [
                tuple(
                    rng.randint(-GENERIC_COORD_BOUND, GENERIC_COORD_BOUND)
                    for _ in range(n + 1)
                )
                for _ in range(n - r if r else 1)
            ]
            item = rows if r else rows[0]
            try:
                config(drawn + [item])
            except DegenerateConfigError:
                continue
            drawn.append(item)
        return config(drawn)

    @property
    def components(self):
        """("point", coordinates) for each point, then ("flat", forms)."""
        return tuple(("point", p) for p in self.points) + tuple(
            ("flat", f) for f in self.flats
        )

    @property
    def forms(self):
        """The forms cutting out each component, in component order and in
        reduced row-echelon form, as primitive integer rows positive at
        their pivots: n of them for a point."""
        kernels = [linalg.nullspace([p]) for p in self.points]
        return tuple(
            tuple(map(tuple, linalg.echelon(forms)[0]))
            for forms in kernels + list(self.flats)
        )


def _check_ambient(n):
    if n < 1:
        raise DegenerateConfigError(f"need projective dimension n >= 1, got {n}")


def _disjoint(forms_a, forms_b, n) -> bool:
    """Two components are disjoint iff their combined forms have only the
    zero solution, i.e. full rank n+1."""
    return linalg.rank([list(f) for f in forms_a + forms_b]) == n + 1


def _nested(forms_a, forms_b) -> bool:
    """Two flats coincide or one contains the other iff the forms of the
    larger one lie in the span of the other's."""
    rank = linalg.rank([list(f) for f in forms_a + forms_b])
    return rank == max(len(forms_a), len(forms_b))


def components_disjoint(config: Config) -> bool:
    """Exact check that no two components of the configuration meet."""
    return all(
        _disjoint(a, b, config.n) for a, b in combinations(config.forms, 2)
    )


def configs_disjoint(a: Config, b: Config) -> bool:
    """Exact check that the zero sets share no projective point."""
    if a.n != b.n:
        return False
    forms_a, forms_b = a.forms, b.forms
    return all(_disjoint(fa, fb, a.n) for fa in forms_a for fb in forms_b)


@dataclass(frozen=True)
class SymbolicPower:
    m: int
    nvars: int
    # generators of I^(m) in the pipeline's format, sorted by lead
    generators: tuple
    # the K-polynomial of I^(m), {degree: coefficient}, exact over Q
    hilbert_numerator: dict

    @property
    def ideal(self):
        """The generators as Polynomials with the primitive integer
        coefficients the pipeline holds, built on each read: the view the
        benchmark's size counts read."""
        n = self.nvars
        return SimpleNamespace(generators=tuple(
            Polynomial(n, {unpack(a, n): c for a, c in g.items()})
            for g in self.generators
        ))


def symbolic_power(config: Config, m: int) -> SymbolicPower:
    """I^(m), the intersection of the m-th powers of the component ideals
    (Zariski-Nagata; each component is cut out by linear forms, so its
    symbolic and ordinary powers agree), with its exact K-polynomial.

    A component whose forms are variables is a coordinate subspace, spanned
    by basis vectors, as coordinate_position makes all but the components
    beyond its basis.  The intersection J of their m-th powers is monomial:
    x^a lies in it iff sum_(i in F) a_i >= m for the variables F of each,
    and its minimal generators are built directly (_coordinate_generators).
    The other components take one of two paths.

    Points beyond the basis, when every component is a point, go by
    kernels.  f lies in I_p^m iff f(B_p (y, z)) has no term of y-degree
    below m, for the basis B_p of p and the unit vectors but one: the
    partials of order m - 1 vanish at p (Emsalem-Iarrobino 1995, "Inverse
    system of a symbolic power I").  So I^(m)_d is the kernel of those
    conditions, cleared_substitute's truncated image table, on the
    monomials of J_d (_point_kernels).  S/I^(m) is one-dimensional
    Cohen-Macaulay of multiplicity e = s C(m-1+n, n) for s points in P^n:
    its Hilbert function rises to e and stays there, and from the first
    degree d0 where it reaches e, the regularity of S/I^(m), I^(m) is
    generated in degrees up to d0 + 1.  That is the stop rule.  The
    K-polynomial comes from exact ranks, and the exact echelon form they
    take gives the kernels at no further cost, so the generators are exact
    too: the rows of the reduced echelon form of each I^(m)_d whose leads
    no lead of a lower degree divides.  They generate I^(m) but need not
    be a Groebner basis of it.  (Ranks mod a prime are faster where the
    coordinates are large, but would not make the K-polynomial exact.)

    A configuration with a flat and a component beyond the basis, such as
    three generic lines in P^3 or three planes in P^5, stays on the
    elimination: J, or the first such component's power when J is the unit
    ideal, is intersected with the power of each such component in turn by
    intersect_ideals, which returns a reduced basis.  Kernels would serve
    flats too, but a flat's stop rule needs a proven bound on the
    regularity of I^(m), which is not taken here.  A component's power is
    the image of the degree-m monomials in k variables under the k x (n+1)
    matrix of its k forms, in reduced row-echelon form with leads distinct
    variables: a Groebner basis in the pipeline's format, primitive by
    Gauss.

    Raises ComputationLimitError past CONDITION_CAP entries in one
    degree's condition matrix or IMAGE_CAP images in one table.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = config.n + 1
    supports, beyond = [], []
    for (_, data), forms in zip(config.components, config.forms):
        if all(sum(map(bool, f)) == 1 for f in forms):
            supports.append({next(i for i, c in enumerate(f) if c) for f in forms})
        else:
            beyond.append((data, forms))
    if beyond and not config.flats:
        points = [linalg.cleared(p)[1] for p, _ in beyond]
        generators, numerator = _point_kernels(points, supports, m, config.n)
        return SymbolicPower(m, n, tuple(generators), numerator)
    generators = [
        {DEGREVLEX(a): 1} for a in _coordinate_generators(supports, m, n)
    ]
    for k, (_, forms) in enumerate(beyond):
        power = _power(forms, m)
        generators = intersect_ideals(generators, power, n) if k or supports else power
    leads = minimalize(unpack(max(g), n) for g in generators)
    return SymbolicPower(m, n, tuple(generators), k_polynomial(leads))


def _power(forms, m):
    """The m-th power of the ideal of the forms: the images of the degree-m
    monomials in k variables, in the order of
    combinations_with_replacement, under the k x (n+1) matrix of the
    forms."""
    k = len(forms)
    monomials = [
        {DEGREVLEX(tuple(map(combo.count, range(k)))): 1}
        for combo in combinations_with_replacement(range(k), m)
    ]
    return cleared_substitute(monomials, forms)


def _coordinate_generators(supports, m, n):
    """The minimal generators of the intersection of the ideals (x_F)^m,
    for the variable sets F in supports, as exponent tuples in n variables
    sorted by DEGREVLEX: the unit ideal's 1 when there are none.

    x^a is a minimal generator iff every sum over an F is at least m and
    each variable of a lies in an F whose sum is exactly m.  So a_i is at
    most m less the sum so far of some F holding i, and a variable in no F
    is 0; the exponents are chosen in turn within those bounds."""
    out = []

    def extend(a):
        i = len(a)
        if i == n:
            sums = [sum(a[j] for j in f) for f in supports]
            tight = [f for f, s in zip(supports, sums) if s == m]
            if min(sums, default=m) >= m and all(
                any(j in f for f in tight) for j in range(n) if a[j]
            ):
                out.append(tuple(a))
            return
        top = max((m - sum(a[j] for j in f if j < i) for f in supports if i in f),
                  default=0)
        for e in range(top + 1):
            extend(a + [e])

    extend([])
    return sorted(out, key=DEGREVLEX)


def _point_kernels(points, supports, m, n):
    """(generators, K-polynomial) of I^(m) for the points beyond the basis,
    integer rows, and the coordinate points, by their supports, in P^n: the
    kernel path of symbolic_power.

    In degree d the columns are J_d's monomials in increasing DEGREVLEX
    order, where J holds x^a with a_i <= d - m for each coordinate point
    e_i.  Each point p, with k its first nonzero coordinate, takes the
    coordinates x_j = y_j + p_j z (j != k), x_k = p_k z; its rows are the
    coefficients of the terms of y-degree below m.  In the reduced echelon
    form of the rows, a free column f has the kernel vector with its
    largest monomial at f and its other entries at pivot columns, all
    smaller: so these vectors are the reduced echelon form of I^(m)_d with
    the columns in decreasing order, led by the free columns, in(I^(m))_d.
    Below degree m, I^(m) is 0."""
    e = (len(points) + len(supports)) * comb(m - 1 + n, n)
    cap = CONDITION_CAP
    conditions = len(points) * comb(m - 1 + n, n)
    matrices = []
    for p in points:
        k = next(j for j, c in enumerate(p) if c)
        ys = [j for j in range(n + 1) if j != k]
        matrices.append(
            [[int(j == y) for y in ys] + [p[j]] for j in range(n + 1)]
        )
    hf = [comb(d + n, n) for d in range(m)]
    generators, leads = [], []
    d = m
    while True:
        monomials = sorted(
            (a for a in _monomials(n + 1, d)
             if all(sum(a[i] for i in f) >= m for f in supports)),
            key=DEGREVLEX,
        )
        cols = len(monomials)
        if conditions * cols > cap:
            raise ComputationLimitError(
                f"condition matrix cap {cap} exhausted ({conditions} x {cols} "
                f"in degree {d})"
            )
        polys = [{DEGREVLEX(a): 1} for a in monomials]
        rows = []
        for matrix in matrices if monomials else ():
            table = {}
            for c, image in enumerate(cleared_substitute(polys, matrix, below=m)):
                for b, v in image.items():
                    table.setdefault(b, [0] * cols)[c] = v
            rows += table.values()
        echelon, pivots = linalg.echelon(rows)
        pivoted = set(pivots)
        free = [c for c in range(cols) if c not in pivoted]
        hf.append(comb(d + n, n) - len(free))
        # a lead of this degree divides no other of it
        for f, v in zip(free, linalg.kernel(echelon, pivots, cols)):
            a = monomials[f]
            if not any(map(divides, leads, repeat(a))):
                g = reduce(gcd, v, 0)
                generators.append(
                    {DEGREVLEX(b): x // g for b, x in zip(monomials, v) if x}
                )
                leads.append(a)
        if hf[d - 1] == e:
            return generators, _numerator(hf, n)
        d += 1


def _monomials(n, d):
    """The exponent tuples of degree d in n variables."""
    for combo in combinations_with_replacement(range(n), d):
        yield tuple(map(combo.count, range(n)))


def _numerator(hf, n):
    """The K-polynomial of S/I in n + 1 variables whose Hilbert function is
    hf and then constant: (1 - t)^(n+1) times the Hilbert series."""
    poly = [b - a for a, b in zip([0] + hf, hf)]  # the h-vector
    for _ in range(n):
        poly = [b - a for a, b in zip([0] + poly, poly + [0])]
    return {d: c for d, c in enumerate(poly) if c}


def coordinate_position(config: Config) -> tuple[Config, tuple]:
    """The same configuration in coordinates where it is simple, and a
    matrix that moves a polynomial back.

    The points and forms are cleared of their denominators; every step
    after that computes on integer rows.  The vectors spanning each
    component (the point itself, or the kernel of a flat's forms), then
    the unit vectors, are kept greedily while independent: a basis B of
    k^(n+1) in blocks, one per component with kept vectors and one of unit
    vectors.  The first component with no kept vector and a nonzero part
    in every block is put in normal form: each block is kept anew from the
    parts there of that component's vectors, then its own.  So a point
    becomes (1,...,1), the projective frame, and a line skew to two lines
    in P^3 is cut out by x0 - x2 and x1 - x3.  Points map to B^-1 p and
    forms to f B in reduced row-echelon form, primitive integer rows, so a
    flat spanned by basis vectors is cut out by variables.  gin is
    invariant under this change of coordinates.

    A polynomial G vanishes on the moved configuration iff G(B^-1 x)
    vanishes on the given one; the second value is d B^-1 as integer rows
    for the least d > 0, the matrix rings.cleared_substitute takes for that
    substitution, which for homogeneous G only scales G(B^-1 x).
    """
    n = config.n
    points = [linalg.cleared(p)[1] for p in config.points]
    flats = [[linalg.cleared(f)[1] for f in forms] for forms in config.flats]
    spans = [[p] for p in points] + [linalg.nullspace(forms) for forms in flats]
    spans.append([[int(i == j) for j in range(n + 1)] for i in range(n + 1)])
    tags, vectors = zip(*[(k, v) for k, vs in enumerate(spans) for v in vs])
    # a column is a pivot of the echelon form iff it is independent of the
    # columns before it
    columns = list(zip(*vectors))
    rows, kept = linalg.echelon(columns)
    basis = [vectors[c] for c in kept]
    blocks = dict.fromkeys(tags[c] for c in kept)
    # the relation v of each column f left out: s vectors[f] is the sum of
    # -v[c] vectors[c] over the kept c, for one s > 0 common to all f
    relations = linalg.kernel(rows, kept, len(tags))
    for k in sorted(set(range(len(spans) - 1)) - blocks.keys()):
        ours = [v for v in relations if any(x for x, t in zip(v, tags) if t == k)]
        if {tags[c] for v in ours for c in kept if v[c]} == blocks.keys():
            candidates = [u for t in blocks for u in [
                _coordinates(columns, [-x if s == t else 0 for x, s in zip(v, tags)])
                for v in ours] + [vectors[c] for c in kept if tags[c] == t]]
            basis = [candidates[c] for c in linalg.echelon(list(zip(*candidates)))[1]]
            break
    inverse = linalg.inverse(list(zip(*basis)))  # d B^-1, by rows
    points = [linalg.echelon([_coordinates(inverse, p)])[0][0] for p in points]
    flats = [
        linalg.echelon([_coordinates(basis, f) for f in forms])[0]  # f B
        for forms in flats
    ]
    moved = Config(n, tuple(map(tuple, points)),
                   tuple(tuple(map(tuple, forms)) for forms in flats))
    return moved, tuple(map(tuple, inverse))


def _coordinates(rows, p):
    """Each row dotted with p: d B^-1 p for the rows of d B^-1, f B for
    the columns of B, a flat's forms at a point, or a sum of columns."""
    return [sum(a * b for a, b in zip(row, p)) for row in rows]


# -- JSON config format ----------------------------------------------------


def _frac_str(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


def config_to_dict(config: Config):
    comps = []
    for kind, data in config.components:
        if kind == "point":
            comps.append({"type": "point", "coords": [_frac_str(c) for c in data]})
        else:
            comps.append(
                {"type": "flat", "forms": [[_frac_str(c) for c in f] for f in data]}
            )
    return {"n": config.n, "components": comps}


def config_from_dict(data) -> Config:
    n = linalg.json_integer(data, "n")
    if "generic" in data:
        if data.get("components"):
            raise DegenerateConfigError("give generic or components, not both")
        g = data["generic"]
        r, s, seed = (linalg.json_integer(g, key) for key in ("r", "s", "seed"))
        return Config.generic(n, r, s, seed)
    points = []
    flats = []
    for comp in data.get("components", []):
        if comp["type"] == "point":
            coords = linalg.json_array(comp["coords"], "coords")
            points.append([linalg.json_number(c) for c in coords])
        elif comp["type"] == "flat":
            forms = linalg.json_array(comp["forms"], "forms")
            flats.append([[linalg.json_number(c) for c in linalg.json_array(f, "form")]
                          for f in forms])
        else:
            raise DegenerateConfigError(f"unknown component type {comp['type']!r}")
    return Config.of(n, points, flats)


def config_from_json(text: str) -> Config:
    """A configuration from JSON text; decimals are read as exact fractions."""
    return config_from_dict(json.loads(text, parse_float=Fraction))
