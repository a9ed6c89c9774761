"""Geometric input configurations: finite point sets and unions of linear
flats in P^n, their radical ideals, and symbolic powers.

Symbolic powers are intersections of ordinary powers of the component
ideals; every component here is a complete intersection of linear forms,
for which ordinary and symbolic powers agree.  One degree loop builds them
with no S-pair: I^(m)_d is the kernel, on the monomials of the monomial
intersection J of the coordinate subspaces' powers, of the conditions of
the other components it takes, up to a proven stop degree; the power of
each component it leaves is intersected by elimination
(groebner.intersect_ideals; see symbolic_power).  Generators come in the
pipeline's one
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
# entries the condition blocks of one degree may hold, read at call time:
# the most on the reach ladder are 58 440, three generic lines in P^3 at
# m = 8 in degree 25, in blocks up to 36 x 110 (unsplit, 768 x 1740)
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

    One degree loop (_kernels) intersects the powers of the components it
    takes: each coordinate subspace, as coordinate_position makes all but
    the components beyond its basis; every point, in a configuration of
    points alone; and otherwise each flat beyond the basis, in component
    order, whose forms with those of the flats taken still split the
    variables they hold into two groups or more, by which the condition
    matrices are block diagonal.  The rest stay on the elimination: the
    points beyond the basis next to a flat, and the flats whose forms link
    all the variables they hold, such as a fourth line in P^3 or a third
    line in P^4.  intersect_ideals intersects the loop's ideal with the
    power of each, and the K-polynomial is read off the leads of the
    reduced basis it returns.

    The loop's stop rules.  For s points: S/I^(m) is one-dimensional
    Cohen-Macaulay of multiplicity e = s C(m-1+n, n) in P^n, so its
    Hilbert function rises to e and stays there, and I^(m) is generated in
    degrees up to d0 + 1 for the first degree d0 where it reaches e, the
    regularity of S/I^(m).  With a flat among its s components: for linear
    ideals, reg(I_1^m cap ... cap I_s^m) <= s m (Derksen-Sidman 2004,
    "Castelnuovo-Mumford regularity by approximation", Adv. Math. 188), so
    the generators lie in degrees up to D = s m, the Hilbert function is a
    polynomial of degree r, the largest dimension of a component, from D
    on, and ranks up to D + r fix the K-polynomial.  A bound that fell
    short would fail gin's Hilbert-series check.

    Raises ComputationLimitError past CONDITION_CAP entries in one
    degree's condition blocks or IMAGE_CAP images in one table.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = config.n + 1
    supports, frames, rest = [], [], []
    for (kind, _), forms in zip(config.components, config.forms):
        if all(sum(map(bool, f)) == 1 for f in forms):
            supports.append({next(i for i, c in enumerate(f) if c) for f in forms})
        elif not config.flats or kind == "flat" and len(_groups([*frames, forms])) > 1:
            frames.append(forms)
        else:
            rest.append(forms)
    generators, numerator = (_kernels(frames, supports, m, n)
                             if supports or frames else ((), None))
    for forms in rest:
        power = _power(forms, m)
        generators = intersect_ideals(generators, power, n) if generators else power
    if rest:
        numerator = k_polynomial(minimalize(unpack(max(g), n) for g in generators))
    return SymbolicPower(m, n, tuple(generators), numerator)


def _power(forms, m):
    """The m-th power of the ideal of the forms: the images of the degree-m
    monomials in k variables, in the order of
    combinations_with_replacement, under the k x (n+1) matrix of the forms.
    In reduced row-echelon form their leads are distinct variables, so this
    is a Groebner basis in the pipeline's format, primitive by Gauss."""
    k = len(forms)
    monomials = [
        {DEGREVLEX(tuple(map(combo.count, range(k)))): 1}
        for combo in combinations_with_replacement(range(k), m)
    ]
    return cleared_substitute(monomials, forms)


def _groups(frames):
    """The variables that the forms of the frames hold, in the groups those
    forms link, two variables being linked when a form holds both
    (union-find)."""
    parent = {}

    def root(i):
        while parent.setdefault(i, i) != i:
            i = parent[i]
        return i

    for f in (f for forms in frames for f in forms):
        first, *others = [root(i) for i, c in enumerate(f) if c]
        for i in others:
            parent[i] = first
    groups = {}
    for i in sorted(parent):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


def _kernels(frames, supports, m, n):
    """(generators, K-polynomial) of the intersection of the m-th powers of
    the coordinate subspaces, by their supports, and of the components cut
    out by each frame's integer echelon rows, in n variables:
    symbolic_power's loop.

    In degree d the columns are J_d's monomials in increasing DEGREVLEX
    order.  A frame has z at the rows of the echelon form of its forms'
    kernel and y at the unit vectors of the other columns, so the forms cut
    out y = 0 and f lies in the component's m-th power iff f(frame(y, z))
    has no term of y-degree below m (for a point, z is the point and these
    are its partials of order m - 1: Emsalem-Iarrobino 1995, "Inverse
    system of a symbolic power I"); the rows are those terms' coefficients.
    The forms link the variables they hold into groups (_groups), and a
    frame, each z put at its row's pivot column, maps each group's
    variables into the span of its own at that group's columns: every term
    of the image of x^a has a's degree in each group, so the condition
    matrix is block diagonal by those degrees, and each block is echeloned
    exactly on its own.  In a block's reduced echelon form a free column f
    has the kernel vector with its largest monomial at f and its other
    entries at pivot columns, all smaller: so these vectors, by free column
    in increasing order, are the reduced echelon form of I^(m)_d with the
    columns in decreasing order, led by in(I^(m))_d.  A generator is the
    primitive vector of each free column that no lead of a lower degree
    divides; generators need not be a Groebner basis."""
    s = len(frames) + len(supports)
    r = max(n - 1 - len(forms) for forms in supports + frames)  # largest dimension
    top, e = s * m, s * comb(m + n - 2, n - 1)
    matrices = []
    for forms in frames:
        # y at the forms' pivots instead echelons points about 10% slower
        kernel, zs = linalg.echelon(linalg.nullspace(forms))
        ys = [j for j in range(n) if j not in zs]
        matrices.append(([[int(j == c) for c in ys] + [v[j] for v in kernel]
                          for j in range(n)], len(ys)))
    groups = _groups(frames)
    hf = [comb(d + n - 1, n - 1) for d in range(m)]
    generators, leads = [], []
    d = m
    while True:
        exponents = (tuple(map(c.count, range(n)))
                     for c in combinations_with_replacement(range(n), d)
                     if all(sum(map(f.__contains__, c)) >= m for f in supports))
        keyed = sorted((DEGREVLEX(a), a) for a in exponents)
        monomials = [a for _, a in keyed]
        polys = [{key: 1} for key, _ in keyed]
        rows = []
        for matrix, k in matrices if monomials else ():
            table = {}
            for c, image in enumerate(cleared_substitute(polys, matrix, below=(k, m))):
                for b, v in image.items():
                    table.setdefault(b, {})[c] = v
            rows += table.values()
        generating = d <= top or not r
        reduced = dict(enumerate(polys))  # I^(m)_d by the lead's column
        if rows:
            block = [tuple(sum(a[i] for i in g) for g in groups) for a in monomials]
            blocks = {key: ([], []) for key in block}
            for c, key in enumerate(block):
                blocks[key][0].append(c)
            for row in rows:
                blocks[block[next(iter(row))]][1].append(row)
            built = [(cols, part) for cols, part in blocks.values() if part]
            if sum(len(cols) * len(part) for cols, part in built) > CONDITION_CAP:
                shapes = " + ".join(f"{len(p)} x {len(cols)}" for cols, p in built)
                raise ComputationLimitError(f"condition matrix cap {CONDITION_CAP} "
                                            f"exhausted ({shapes} in degree {d})")
            for cols, part in built:
                echelon, pivots = linalg.echelon([[row.get(c, 0) for c in cols]
                                                  for row in part])
                for p in pivots:
                    del reduced[cols[p]]
                if generating:
                    free = [c for c in cols if c in reduced]
                    for f, v in zip(free, linalg.kernel(echelon, pivots, len(cols))):
                        g = reduce(gcd, v, 0)
                        reduced[f] = {keyed[c][0]: x // g for c, x in zip(cols, v) if x}
        hf.append(comb(d + n - 1, n - 1) - len(reduced))
        # a lead of this degree divides no other of it
        for c, g in reduced.items() if generating else ():
            if not any(map(divides, leads, repeat(monomials[c]))):
                generators.append(g)
                leads.append(monomials[c])
        if d == top + r if r else hf[d - 1] == e:
            return generators, _numerator(hf, n - 1, r)
        d += 1


def _numerator(hf, n, r):
    """The K-polynomial of S/I in n + 1 variables whose Hilbert function is
    hf and then a polynomial of degree r, (1 - t)^(n+1) times the Hilbert
    series: r + 1 differences of hf, which vanish beyond it, then n - r."""
    poly = hf
    for _ in range(r + 1):
        poly = [b - a for a, b in zip([0] + poly, poly)]  # the h-vector at last
    for _ in range(n - r):
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
