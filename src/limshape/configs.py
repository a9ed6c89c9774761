"""Geometric input configurations: finite point sets and unions of linear
flats in P^n, their radical ideals, and symbolic powers.

Symbolic powers are intersections of ordinary powers of the component
ideals; every component here is a complete intersection of linear forms,
for which ordinary and symbolic powers agree.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

from . import linalg
from .groebner import Ideal, intersect_ideals
from .rings import DEGREVLEX, Polynomial
from .staircase import k_polynomial, minimalize

GENERIC_COORD_BOUND = 100


class DegenerateConfigError(ValueError):
    """Repeated points, dependent defining forms, or similar degeneracy."""


@dataclass(frozen=True)
class Config:
    """Points and linear flats in P^n; a point is the flat its n forms cut
    out, but is given and drawn by its coordinates."""

    n: int  # ambient projective dimension; coordinates have length n+1
    points: tuple = ()  # tuples of Fraction, projectively distinct
    flats: tuple = ()  # each flat: tuple of linear-form coefficient tuples

    @classmethod
    def of(cls, n, points=(), flats=()):
        """Raises DegenerateConfigError for a zero or repeated point,
        dependent forms, or a component that equals or lies in another,
        where it would be redundant."""
        _check_ambient(n)
        pts = tuple(tuple(Fraction(c) for c in p) for p in points)
        for p in pts:
            if len(p) != n + 1:
                raise DegenerateConfigError("point coordinate length != n+1")
            if not any(p):
                raise DegenerateConfigError("zero coordinate tuple is not a point")
        for (i, p), (j, q) in combinations(enumerate(pts), 2):
            if linalg.rank([list(p), list(q)]) < 2:
                raise DegenerateConfigError(f"points {i} and {j} coincide projectively")
        clean = []
        for forms in flats:
            forms = tuple(tuple(Fraction(c) for c in f) for f in forms)
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
            clean.append(forms)
        for (i, a), (j, b) in combinations(enumerate(clean), 2):
            if _nested(a, b):
                raise DegenerateConfigError(
                    f"flats {i} and {j} coincide or one contains the other"
                )
        for (i, p), (j, forms) in product(enumerate(pts), enumerate(clean)):
            if not any(_coordinates(forms, p)):
                raise DegenerateConfigError(f"point {i} lies on flat {j}")
        return cls(n, pts, tuple(clean))

    @classmethod
    def generic(cls, n, r, s, seed, bound=GENERIC_COORD_BOUND):
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
                tuple(rng.randint(-bound, bound) for _ in range(n + 1))
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
        reduced row-echelon form: n of them for a point."""
        kernels = [linalg.nullspace([list(p)]) for p in self.points]
        return tuple(
            tuple(tuple(f) for f in linalg.row_echelon(forms)[0])
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
    return a.n == b.n and all(
        _disjoint(fa, fb, a.n) for fa in a.forms for fb in b.forms
    )


@dataclass(frozen=True)
class SymbolicPower:
    m: int
    ideal: Ideal  # generated by a degrevlex Groebner basis of I^(m)
    leads: tuple  # its leading monomials: the minimal generators of in(I^(m))

    @property
    def hilbert_numerator(self) -> dict:
        """The K-polynomial of I^(m), read off its leads."""
        return k_polynomial(self.leads)


def symbolic_power(config: Config, m: int) -> SymbolicPower:
    """I^(m) as the intersection of m-th powers of the component ideals
    (Zariski-Nagata for unions of points and linear flats), generated by a
    degrevlex Groebner basis.  Each component ideal is generated by its
    forms in reduced row-echelon form, whose leads are distinct variables,
    so its m-th power is one already; intersect_ideals returns the reduced
    basis of each intersection."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not config.components:
        raise DegenerateConfigError("empty configuration")
    ideal = reduce(intersect_ideals, (
        Ideal.of(Polynomial.linear_form(f) for f in forms).power(m)
        for forms in config.forms
    ))
    leads = minimalize(max(g.terms, key=DEGREVLEX.key) for g in ideal.generators)
    return SymbolicPower(m, ideal, leads)


def coordinate_position(config: Config) -> tuple[Config, tuple]:
    """The same configuration in coordinates where it is simple, and the
    matrix that moves a polynomial back.

    The vectors spanning each component (the point itself, or the kernel
    of a flat's forms) in component order, then the unit vectors, are kept
    greedily while they are independent: a basis B of k^(n+1).  If a point
    outside the basis has no zero coordinate in it, the basis is scaled so
    that the point becomes (1,...,1), the projective frame.  Points map to
    B^-1 p, scaled to a leading 1, and forms to f B, in reduced row-echelon
    form, so a flat spanned by basis vectors is cut out by variables.  gin
    is invariant under this change of coordinates.

    A polynomial G vanishes on the moved configuration iff G(B^-1 x)
    vanishes on the given one; the second value is B^-1 as rows, the
    matrix rings.linear_substitute takes for that substitution.
    """
    n = config.n
    spans = [list(p) for p in config.points]
    spans += [v for forms in config.flats for v in linalg.nullspace(list(forms))]
    spans += [[Fraction(int(i == j)) for j in range(n + 1)] for i in range(n + 1)]
    # a column is a pivot of the echelon form iff it is independent of the
    # columns before it
    basis = [spans[c] for c in linalg.row_echelon(list(zip(*spans)))[1]]
    inverse = linalg.inverse([list(r) for r in zip(*basis)])  # B^-1, by rows
    for p in config.points:
        if list(p) not in basis:
            frame = _coordinates(inverse, p)
            if all(frame):
                basis = [[x * c for x in v] for v, c in zip(basis, frame)]
                inverse = [[x / c for x in row] for row, c in zip(inverse, frame)]
                break
    points = []
    for p in config.points:
        c = _coordinates(inverse, p)
        lead = next(x for x in c if x)
        points.append(tuple(x / lead for x in c))
    flats = []
    for forms in config.flats:
        images = [_coordinates(basis, f) for f in forms]  # f B
        flats.append(tuple(tuple(r) for r in linalg.row_echelon(images)[0]))
    moved = Config(n, tuple(points), tuple(flats))
    return moved, tuple(tuple(row) for row in inverse)


def _coordinates(rows, p):
    """Each row dotted with p: B^-1 p for the rows of B^-1, f B for the
    columns of B, or a flat's forms at a point."""
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
    if "generic" in data and not data.get("components"):
        g = data["generic"]
        r, s, seed = (linalg.json_integer(g, key) for key in ("r", "s", "seed"))
        return Config.generic(n, r, s, seed)
    points = []
    flats = []
    for comp in data.get("components", []):
        if comp["type"] == "point":
            points.append([linalg.json_number(c) for c in comp["coords"]])
        elif comp["type"] == "flat":
            flats.append([[linalg.json_number(c) for c in f] for f in comp["forms"]])
        else:
            raise DegenerateConfigError(f"unknown component type {comp['type']!r}")
    if not points and not flats:
        raise DegenerateConfigError("configuration has no components")
    return Config.of(n, points, flats)


def config_from_json(text: str) -> Config:
    """A configuration from JSON text; decimals are read as exact fractions."""
    return config_from_dict(json.loads(text, parse_float=Fraction))
