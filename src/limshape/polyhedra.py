"""Exact rational polyhedral geometry at desk scale (dim <= 6).

Polyhedra are conv(vertices) + cone(rays) with Fraction coordinates.
Facets come from brute-force hyperplane enumeration over the lifted cone,
vertex enumeration from facet intersections, and volumes from a recursive
boundary triangulation with a selectable apex.  No floating point anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

from . import linalg

MAX_DIM = 6


class UnboundedError(ValueError):
    """Volume of an unbounded polyhedron was requested."""


def _frac_tuple(v):
    return tuple(Fraction(x) for x in v)


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector (same sign)."""
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g == 0:
        return tuple(ints)
    return tuple(v // g for v in ints)


def _hyperplanes(generators, dim):
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


@dataclass(frozen=True)
class RationalPolyhedron:
    dim: int
    vertices: tuple  # tuples of Fraction
    rays: tuple = ()
    facets: tuple = field(default=None, compare=False)  # ((normal, rhs), ...) a.x >= b

    @classmethod
    def of(cls, dim, vertices, rays=()):
        if dim > MAX_DIM:
            raise ValueError(f"dimension {dim} beyond supported {MAX_DIM}")
        vs = tuple(sorted({_frac_tuple(v) for v in vertices}))
        rs = tuple(sorted({_frac_tuple(r) for r in rays}))
        for p in vs + rs:
            if len(p) != dim:
                raise ValueError("coordinate length != dim")
        if not vs:
            raise ValueError("need at least one vertex")
        return cls(dim, vs, rs)

    def is_bounded(self):
        return not self.rays

    # -- H-representation --------------------------------------------------

    def facet_inequalities(self):
        """Inequalities a.x >= b describing the polyhedron; cached.

        Computed from facets of the homogenizing cone spanned by (v, 1) and
        (r, 0).  Each vertex and ray is re-checked against every inequality.
        """
        if self.facets is not None:
            return self.facets
        d = self.dim
        lifted = [v + (Fraction(1),) for v in self.vertices]
        lifted += [r + (Fraction(0),) for r in self.rays]
        ineqs = []
        for w in _hyperplanes(lifted, d + 1):
            a, b = tuple(Fraction(x) for x in w[:d]), -Fraction(w[d])
            ineqs.append((a, b))
        ineqs = tuple(sorted(ineqs))
        for v in self.vertices:
            for a, b in ineqs:
                if _dot(a, v) < b:
                    raise RuntimeError("vertex violates computed facet")
        for r in self.rays:
            for a, _ in ineqs:
                if _dot(a, r) < 0:
                    raise RuntimeError("ray violates computed facet")
        object.__setattr__(self, "facets", ineqs)
        return ineqs

    def contains_point(self, p) -> bool:
        p = _frac_tuple(p)
        return all(_dot(a, p) >= b for a, b in self.facet_inequalities())

    def minimal_vertices(self):
        """Vertices that are tight on dim linearly independent facets."""
        ineqs = self.facet_inequalities()
        keep = []
        for v in self.vertices:
            tight = [a for a, b in ineqs if _dot(a, v) == b]
            if linalg.rank([list(a) for a in tight]) == self.dim:
                keep.append(v)
        return tuple(sorted(keep))

    def canonical(self):
        """Same polyhedron with redundant generator points dropped."""
        return RationalPolyhedron.of(self.dim, self.minimal_vertices(), self.rays)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# -- constructions ---------------------------------------------------------


def newton_polyhedron(staircase) -> RationalPolyhedron:
    """conv(minimal generators) + positive orthant."""
    if staircase.is_empty():
        raise ValueError("staircase of the zero ideal has no Newton polyhedron")
    n = staircase.nvars
    rays = [tuple(Fraction(i == j) for j in range(n)) for i in range(n)]
    poly = RationalPolyhedron.of(n, staircase.min_gens, rays)
    return poly.canonical()


def scale(poly: RationalPolyhedron, factor) -> RationalPolyhedron:
    factor = Fraction(factor)
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    return RationalPolyhedron.of(
        poly.dim, [tuple(factor * x for x in v) for v in poly.vertices], poly.rays
    )


def convex_union_approximant(polys) -> RationalPolyhedron:
    """Convex hull of a family with a common recession cone."""
    polys = list(polys)
    if not polys:
        raise ValueError("empty family")
    dim, rays = polys[0].dim, polys[0].rays
    for p in polys:
        if p.dim != dim or p.rays != rays:
            raise ValueError("family members must share dimension and rays")
    points = [v for p in polys for v in p.vertices]
    hull = RationalPolyhedron.of(dim, points, rays).canonical()
    for p in polys:
        for v in p.vertices:
            if not hull.contains_point(v):
                raise RuntimeError("hull fails to contain an input vertex")
    return hull


# -- clipping and volume ---------------------------------------------------


@dataclass(frozen=True)
class ClippedRegion:
    base: RationalPolyhedron
    t: Fraction
    polytope: RationalPolyhedron | None  # bounded; None when empty


def _vertex_enumerate(ineqs, dim):
    """Vertices of {x : a.x >= b for all (a, b)}; assumes boundedness."""
    ineqs = sorted(set(ineqs))
    verts = set()
    for sub in combinations(range(len(ineqs)), dim):
        mat = [list(ineqs[i][0]) for i in sub]
        rhs = [ineqs[i][1] for i in sub]
        x = linalg.solve(mat, rhs)
        if x is None:
            continue
        if all(_dot(a, x) >= b for a, b in ineqs):
            verts.add(tuple(x))
    return sorted(verts)


def simplex_inequalities(dim, t):
    """x_i >= 0 and sum x_i <= t."""
    t = Fraction(t)
    ineqs = [
        (tuple(Fraction(i == j) for j in range(dim)), Fraction(0))
        for i in range(dim)
    ]
    ineqs.append((tuple(Fraction(-1) for _ in range(dim)), -t))
    return ineqs


def clip_to_simplex(poly: RationalPolyhedron, t) -> ClippedRegion:
    """Intersection with the corner simplex {x >= 0, sum x_i <= t}."""
    t = Fraction(t)
    if t < 0:
        raise ValueError("t must be >= 0")
    ineqs = list(poly.facet_inequalities()) + simplex_inequalities(poly.dim, t)
    verts = _vertex_enumerate(ineqs, poly.dim)
    if not verts:
        return ClippedRegion(poly, t, None)
    clipped = RationalPolyhedron.of(poly.dim, verts)
    return ClippedRegion(poly, t, clipped)


def affine_rank(points):
    pts = [list(p) for p in points]
    if len(pts) <= 1:
        return 0
    base = pts[0]
    return linalg.rank([[x - y for x, y in zip(p, base)] for p in pts[1:]])


def _triangulate(points, dim, apex_last=False):
    """Simplices (vertex tuples) covering the full-dimensional polytope
    conv(points) in R^dim; apex taken from the canonical vertex order."""
    points = sorted(set(points))
    if dim == 0:
        return [tuple(points)]
    if dim == 1:
        return [(points[0], points[-1])]
    if len(points) == dim + 1:
        return [tuple(points)]
    apex = points[-1] if apex_last else points[0]
    lifted = [p + (Fraction(1),) for p in points]
    simplices = []
    for w in _hyperplanes(lifted, dim + 1):
        a, b = w[:dim], -Fraction(w[dim])
        if _dot(a, apex) == b:
            continue
        on_facet = [p for p in points if _dot(a, p) == b]
        j = next(i for i, c in enumerate(a) if c)
        proj = {p[:j] + p[j + 1 :]: p for p in on_facet}
        for sub in _triangulate(list(proj), dim - 1, apex_last):
            simplices.append((apex,) + tuple(proj[q] for q in sub))
    return simplices


def volume(poly: RationalPolyhedron, apex_last=False) -> Fraction:
    """Exact Lebesgue volume of a bounded polytope via triangulation.

    Lower-dimensional polytopes have volume 0.  apex_last switches the
    triangulation apex, giving an independent decomposition of the same
    region for cross-checks.
    """
    if not poly.is_bounded():
        raise UnboundedError("volume of an unbounded polyhedron")
    dim = poly.dim
    points = poly.vertices
    if affine_rank(points) < dim:
        return Fraction(0)
    total = Fraction(0)
    for simplex in _triangulate(points, dim, apex_last):
        apex = simplex[0]
        mat = [[x - y for x, y in zip(v, apex)] for v in simplex[1:]]
        total += abs(linalg.det(mat))
    return total / factorial(dim)


def clipped_volume(poly: RationalPolyhedron, t, apex_last=False) -> Fraction:
    region = clip_to_simplex(poly, t)
    if region.polytope is None:
        return Fraction(0)
    return volume(region.polytope, apex_last)


def gamma_region(delta: RationalPolyhedron, t):
    """Volume and description of the complement of delta inside the corner
    simplex: vol = t^n/n! - vol(delta within the simplex).

    The complement is generally not convex; the description exports the
    simplex together with the excluded clipped region.
    """
    t = Fraction(t)
    n = delta.dim
    region = clip_to_simplex(delta, t)
    excluded = Fraction(0) if region.polytope is None else volume(region.polytope)
    vol = t**n / factorial(n) - excluded
    description = {
        "dim": n,
        "t": str(t),
        "simplex": [
            {"coeffs": [str(c) for c in a], "rhs": str(b)}
            for a, b in simplex_inequalities(n, t)
        ],
        "excluded": None
        if region.polytope is None
        else polyhedron_to_dict(region.polytope),
    }
    return vol, description


# -- serialization ---------------------------------------------------------


def polyhedron_to_dict(poly: RationalPolyhedron):
    data = {
        "dim": poly.dim,
        "vertices": [[str(x) for x in v] for v in poly.vertices],
        "rays": [[str(x) for x in r] for r in poly.rays],
    }
    if poly.facets is not None:
        data["facets"] = [
            {"coeffs": [str(c) for c in a], "rhs": str(b)} for a, b in poly.facets
        ]
    return data


def polyhedron_to_json(poly: RationalPolyhedron) -> str:
    return json.dumps(polyhedron_to_dict(poly))


def polyhedron_from_dict(data) -> RationalPolyhedron:
    return RationalPolyhedron.of(
        data["dim"],
        [[Fraction(x) for x in v] for v in data["vertices"]],
        [[Fraction(x) for x in r] for r in data.get("rays", [])],
    )


def polyhedron_from_json(text: str) -> RationalPolyhedron:
    return polyhedron_from_dict(json.loads(text))
