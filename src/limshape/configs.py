"""Geometric input configurations: finite point sets and unions of linear
flats in P^n, their radical ideals, and symbolic powers.

Symbolic powers are intersections of ordinary powers of the component
ideals; every component here is a complete intersection of linear forms,
for which ordinary and symbolic powers agree.  They are computed in the
pipeline's one polynomial format (see rings), from the packed component
forms to the basis gin takes: primitive integer term dicts with a positive
leading coefficient, keyed by DEGREVLEX packed monomials.

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
from itertools import combinations, combinations_with_replacement, product
from types import SimpleNamespace

from . import linalg
from .groebner import intersect_ideals
from .rings import DEGREVLEX, Polynomial, cleared_substitute, unpack
from .staircase import k_polynomial, minimalize

GENERIC_COORD_BOUND = 100


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
    # a degrevlex Groebner basis of I^(m), in the pipeline's format
    generators: tuple
    leads: tuple  # its leading monomials: the minimal generators of in(I^(m))

    @property
    def hilbert_numerator(self) -> dict:
        """The K-polynomial of I^(m), read off its leads."""
        return k_polynomial(self.leads)

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
    """I^(m) as the intersection of m-th powers of the component ideals
    (Zariski-Nagata for unions of points and linear flats), generated by a
    degrevlex Groebner basis.  Each component ideal is generated by its
    forms in reduced row-echelon form, primitive integer rows positive at
    their pivots, whose leads are distinct variables, so its m-th power is
    a Groebner basis already, and in the pipeline's format: a product of
    primitive forms is primitive (Gauss), and its leading coefficient is the
    product of theirs.  The products of k forms, in the order of
    combinations_with_replacement, are the images of the degree-m
    monomials in k variables under the k x (n+1) matrix of the forms.
    intersect_ideals returns the reduced basis of each intersection."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = config.n + 1
    powers = []
    for forms in config.forms:
        k = len(forms)
        monomials = [
            {DEGREVLEX(tuple(map(combo.count, range(k)))): 1}
            for combo in combinations_with_replacement(range(k), m)
        ]
        powers.append(cleared_substitute(monomials, forms))
    generators, *others = powers
    for other in others:
        generators = intersect_ideals(generators, other, n)
    leads = minimalize(unpack(max(g), n) for g in generators)
    return SymbolicPower(m, n, tuple(generators), leads)


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
