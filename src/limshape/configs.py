"""Geometric input configurations: finite point sets and unions of linear
flats in P^n, their radical ideals, and symbolic powers.

Symbolic powers are intersections of ordinary powers of the component
ideals; every component here is a complete intersection of linear forms,
for which ordinary and symbolic powers agree.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from . import linalg
from .groebner import Ideal, intersect_ideals
from .rings import DEGREVLEX, Polynomial
from .staircase import k_polynomial, minimalize

GENERIC_COORD_BOUND = 100


class DegenerateConfigError(ValueError):
    """Repeated points, dependent defining forms, or similar degeneracy."""


@dataclass(frozen=True)
class PointConfig:
    n: int  # ambient projective dimension; coordinates have length n+1
    points: tuple  # tuples of Fraction, projectively distinct

    @classmethod
    def of(cls, n, points):
        _check_ambient(n)
        pts = tuple(tuple(Fraction(c) for c in p) for p in points)
        for p in pts:
            if len(p) != n + 1:
                raise DegenerateConfigError("point coordinate length != n+1")
            if not any(p):
                raise DegenerateConfigError("zero coordinate tuple is not a point")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if linalg.rank([list(pts[i]), list(pts[j])]) < 2:
                    raise DegenerateConfigError(
                        f"points {i} and {j} coincide projectively"
                    )
        return cls(n, pts)

    @classmethod
    def generic(cls, n, r, seed, bound=GENERIC_COORD_BOUND):
        """r seeded random points with integer coordinates."""
        _check_ambient(n)  # else the draws below never end
        rng = random.Random(seed)
        pts = []
        while len(pts) < r:
            p = tuple(rng.randint(-bound, bound) for _ in range(n + 1))
            if not any(p):
                continue
            try:
                cls.of(n, pts + [p])
            except DegenerateConfigError:
                continue
            pts.append(p)
        return cls.of(n, pts)

    @property
    def components(self):
        return tuple(("point", p) for p in self.points)


@dataclass(frozen=True)
class FlatConfig:
    n: int
    flats: tuple  # each flat: tuple of linear-form coefficient tuples
    pairwise_disjoint: bool

    @classmethod
    def of(cls, n, flats):
        _check_ambient(n)
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
        disjoint = all(_flats_disjoint(a, b, n) for a, b in combinations(clean, 2))
        return cls(n, tuple(clean), disjoint)

    @classmethod
    def generic(cls, n, r, s, seed, bound=GENERIC_COORD_BOUND):
        """s seeded random flats of dimension r in P^n (n-r forms each)."""
        if not 0 <= r < n:
            raise ValueError("flat dimension must satisfy 0 <= r < n")
        rng = random.Random(seed)
        flats = []
        while len(flats) < s:
            forms = [
                tuple(rng.randint(-bound, bound) for _ in range(n + 1))
                for _ in range(n - r)
            ]
            try:
                cls.of(n, flats + [forms])
            except DegenerateConfigError:
                continue
            flats.append(forms)
        return cls.of(n, flats)

    @property
    def flat_dimensions(self):
        return tuple(self.n - len(forms) for forms in self.flats)

    @property
    def components(self):
        return tuple(("flat", f) for f in self.flats)


@dataclass(frozen=True)
class UnionConfig:
    """Mixed configuration: points and flats together."""

    n: int
    parts: tuple  # PointConfig / FlatConfig instances

    @classmethod
    def of(cls, n, parts):
        """Raises DegenerateConfigError if a component of one part equals or
        lies in a component of another, where it would be redundant."""
        parts = tuple(parts)
        if any(part.n != n for part in parts):
            raise DegenerateConfigError("parts lie in different dimensions")
        count = {"point": 0, "flat": 0}
        comps = []  # (part, kind, index among that kind, forms)
        for k, part in enumerate(parts):
            for kind, data in part.components:
                comps.append((k, kind, count[kind], _forms_of((kind, data), n)))
                count[kind] += 1
        for (ka, kind_a, ia, a), (kb, kind_b, ib, b) in combinations(comps, 2):
            if ka == kb or not _nested(a, b):
                continue
            if kind_a != kind_b:
                point, flat = (ia, ib) if kind_a == "point" else (ib, ia)
                raise DegenerateConfigError(f"point {point} lies on flat {flat}")
            raise DegenerateConfigError(
                f"points {ia} and {ib} coincide projectively" if kind_a == "point"
                else f"flats {ia} and {ib} coincide or one contains the other"
            )
        return cls(n, parts)

    @property
    def components(self):
        return tuple(c for part in self.parts for c in part.components)


Config = PointConfig | FlatConfig | UnionConfig


def _check_ambient(n):
    if n < 1:
        raise DegenerateConfigError(f"need projective dimension n >= 1, got {n}")


def _flats_disjoint(forms_a, forms_b, n) -> bool:
    """Two flats are disjoint iff their combined forms have only the zero
    solution, i.e. full rank n+1."""
    mat = [list(f) for f in forms_a] + [list(f) for f in forms_b]
    return linalg.rank(mat) == n + 1


def _nested(forms_a, forms_b) -> bool:
    """Two components coincide or one contains the other iff the forms of
    the larger one lie in the span of the other's."""
    rank = linalg.rank([list(f) for f in forms_a + forms_b])
    return rank == max(len(forms_a), len(forms_b))


def point_ideal(point, n) -> Ideal:
    """The n independent linear forms vanishing at the point."""
    kernel = linalg.nullspace([list(point)])
    if len(kernel) != n:
        raise RuntimeError(
            f"point has a {len(kernel)}-dimensional kernel, not {n}"
        )
    return Ideal.of(Polynomial.linear_form(v) for v in kernel)


def component_ideal(component, n) -> Ideal:
    kind, data = component
    if kind == "point":
        return point_ideal(data, n)
    return Ideal.of(Polynomial.linear_form(f) for f in data)


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
    degrevlex Groebner basis: the reduced basis of the intersection, or for
    one component the m-fold products of its forms in reduced row-echelon
    form, whose leads are distinct variables."""
    if m < 1:
        raise ValueError("m must be >= 1")
    comps = config.components
    if not comps:
        raise DegenerateConfigError("empty configuration")
    if len(comps) == 1:
        forms = linalg.row_echelon(_forms_of(comps[0], config.n))[0]
        ideal = Ideal.of(Polynomial.linear_form(f) for f in forms).power(m)
    else:
        ideal = component_ideal(comps[0], config.n).power(m)
        for c in comps[1:]:
            ideal = intersect_ideals(ideal, component_ideal(c, config.n).power(m))
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
    spans = [
        v for kind, data in config.components
        for v in ([list(data)] if kind == "point" else linalg.nullspace(list(data)))
    ]
    spans += [[Fraction(int(i == j)) for j in range(n + 1)] for i in range(n + 1)]
    # a column is a pivot of the echelon form iff it is independent of the
    # columns before it
    basis = [spans[c] for c in linalg.row_echelon(list(zip(*spans)))[1]]
    inverse = linalg.inverse([list(r) for r in zip(*basis)])  # B^-1, by rows
    for kind, p in config.components:
        if kind == "point" and list(p) not in basis:
            frame = _coordinates(inverse, p)
            if all(frame):
                basis = [[x * c for x in v] for v, c in zip(basis, frame)]
                inverse = [[x / c for x in row] for row, c in zip(inverse, frame)]
                break

    def move(part):
        if isinstance(part, PointConfig):
            points = []
            for p in part.points:
                c = _coordinates(inverse, p)
                lead = next(x for x in c if x)
                points.append(tuple(x / lead for x in c))
            return replace(part, points=tuple(points))
        flats = []
        for forms in part.flats:
            moved = [[sum(a * b for a, b in zip(f, v)) for v in basis] for f in forms]
            flats.append(tuple(tuple(r) for r in linalg.row_echelon(moved)[0]))
        return replace(part, flats=tuple(flats))

    if isinstance(config, UnionConfig):
        moved = replace(config, parts=tuple(move(p) for p in config.parts))
    else:
        moved = move(config)
    return moved, tuple(tuple(row) for row in inverse)


def _coordinates(inverse, p):
    """The coordinates of p in the basis: B^-1 p."""
    return [sum(a * b for a, b in zip(row, p)) for row in inverse]


def configs_disjoint(a: Config, b: Config) -> bool:
    """Exact check that the zero sets share no projective point."""
    if a.n != b.n:
        return False
    n = a.n
    for ca in a.components:
        for cb in b.components:
            forms_a = _forms_of(ca, n)
            forms_b = _forms_of(cb, n)
            if not _flats_disjoint(forms_a, forms_b, n):
                return False
    return True


def _forms_of(component, n):
    kind, data = component
    if kind == "point":
        return tuple(tuple(v) for v in linalg.nullspace([list(data)]))
    return data


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
        if r == 0:
            return PointConfig.generic(n, s, seed)
        return FlatConfig.generic(n, r, s, seed)
    points = []
    flats = []
    for comp in data.get("components", []):
        if comp["type"] == "point":
            points.append([linalg.json_number(c) for c in comp["coords"]])
        elif comp["type"] == "flat":
            flats.append([[linalg.json_number(c) for c in f] for f in comp["forms"]])
        else:
            raise DegenerateConfigError(f"unknown component type {comp['type']!r}")
    parts = []
    if points:
        parts.append(PointConfig.of(n, points))
    if flats:
        parts.append(FlatConfig.of(n, flats))
    if not parts:
        raise DegenerateConfigError("configuration has no components")
    if len(parts) == 1:
        return parts[0]
    return UnionConfig.of(n, parts)


def config_from_json(text: str) -> Config:
    """A configuration from JSON text; decimals are read as exact fractions."""
    return config_from_dict(json.loads(text, parse_float=Fraction))
