"""Exact rational polyhedral geometry at desk scale (dim <= 6).

A polyhedron is conv(vertices) + cone(rays) with its facets, built whole by
`_polyhedron` and held as integer homogeneous rows from construction to
volume: a vertex v is the primitive row (v d, d) with d > 0, a ray r the
primitive row (r, 0).  Rationals are read only by `RationalPolyhedron.of`
and written only by its `vertices` view.

One double-description kernel, `_extreme_rays`, starting from linalg's
fraction-free echelon form and then cutting by each other row in `_cut`,
returns each extreme ray with the mask of the rows tight on it.  The
builder runs it once over a hull's generator rows: the rays are the facets
(the rays of the dual of the homogenizing cone), and their masks tell which
points are vertices, the only points kept; `scale` carries the facets.
Their primitive integer normals w, each the inequality w.(x, 1) >= 0, are
the only H-representation: hull checks and clipping use them as they are,
and the text a.x >= b is written only for JSON.  A clip runs no
description of its own: `_cut` takes the corner simplex's rays, known in
closed form, through the hull's facets, giving the clip's vertices (the
rays (x d, d)) with the normals tight on each.  Volumes come from the
boundary triangulation of Bueler-Enge-Fukuda (2000) with a selectable
apex: it needs only the facets as masks of the rows tight on them, which a
polytope reads off its facets and a clip off its own cuts; the faces below
come from those masks alone, each simplex costs one integer determinant,
and the volumes are summed as integers over one common denominator.  No
floating point anywhere.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import reduce
from math import factorial, gcd, lcm, prod
from operator import and_, mul

from . import linalg
from .linalg import ComputationLimitError

MAX_DIM = 6
# rays one double description or one clip may hold, read at call time:
# over the benchmark's pool of staircases and 5 generic points in P^3 up to
# m = 4, neither holds more than 15 after a cut
RAY_CAP = 1_000


class UnboundedError(ValueError):
    """Volume of an unbounded polyhedron was requested."""


def _reduced(ints):
    """An integer vector divided by the gcd of its entries."""
    g = reduce(gcd, ints, 0)
    return tuple(ints) if g < 2 else tuple(x // g for x in ints)


def _lift(v, s=1):
    """The point (s = 1) or direction (s = 0) v in integer homogeneous
    coordinates: (v d, s d) for the least d > 0 that makes v d integral."""
    d, ints = linalg.cleared(v)
    return (*ints, s * d)


def _extreme_rays(rows):
    """Primitive integer extreme rays of the pointed cone {y : r.y >= 0 for
    all rows r}, for integer rows, by double description (Motzkin et al.
    1953; Fukuda-Prodon 1996): start from the simplicial cone of d
    independent rows, then cut by each other row (see _cut).

    Returns sorted (ray, mask) pairs, mask the bitmask of the rows tight on
    the ray, or None when the rows do not span R^d, so that the cone is not
    pointed."""
    rows = [_reduced(r) for r in rows]
    m, d = len(rows), len(rows[0])
    # echelon form of [rows^T | I]: the pivots pick independent rows B and
    # the right block becomes a positive multiple of (B^-1)^T, whose rows
    # are the starting rays
    ech, pivots = linalg.echelon(
        [list(c) + [int(i == j) for j in range(d)] for i, c in enumerate(zip(*rows))]
    )
    if pivots[-1] >= m:
        return None
    basis = sum(1 << k for k in pivots)
    rays = [(_reduced(row[m:]), basis ^ 1 << k) for row, k in zip(ech, pivots)]
    others = [(k, row) for k, row in enumerate(rows) if not basis >> k & 1]
    return sorted(_cut(rays, others, d))


def _cut(rays, indexed_rows, d):
    """The (ray, mask) pairs of a pointed cone in R^d, given as its extreme
    rays with the masks of the rows tight on each, cut by each (k, row) in
    turn down to the cone where also row.y >= 0: keep the rays on the row's
    side and join each adjacent pair across it.  Two rays are adjacent when
    no third ray is tight on every row both are tight on, and only if they
    share d - 2 tight rows, the rank of the 2-face they span.

    A join across row k is tight exactly where both its rays are, and on k,
    so bit k marks the rows tight on a ray.  Raises ComputationLimitError
    once the ray list passes RAY_CAP."""
    for k, row in indexed_rows:
        cut, pos, neg = [], [], []
        for ray, tight in rays:
            v = _dot(row, ray)
            if v < 0:
                neg.append((ray, tight, v))
                continue
            if v > 0:
                pos.append((ray, tight, v))
            cut.append((ray, tight if v else tight | 1 << k))
        for p, tp, vp in pos:
            for q, tq, vq in neg:
                both = tp & tq
                if both.bit_count() < d - 2 or any(
                    t & both == both for r, t in rays if r is not p and r is not q
                ):
                    continue
                ray = _reduced([vp * y - vq * x for x, y in zip(p, q)])
                cut.append((ray, both | 1 << k))
                if len(cut) > RAY_CAP:
                    raise ComputationLimitError(
                        f"ray cap {RAY_CAP} exhausted (a cone in dimension {d})"
                    )
        rays = cut
    return rays


# the key that _polyhedron and scale, the only constructors, pass
_BUILT = object()


@dataclass(frozen=True)
class RationalPolyhedron:
    """conv(vertices) + cone(rays), as integer homogeneous rows: each vertex
    v is the primitive row (v d, d) with d > 0 and each ray r the primitive
    row (r, 0), both sorted and distinct, with its facets (see _facets).
    Built by _polyhedron, or by scale from a built one: rows given to the
    dataclass constructor would be trusted unchecked, so it refuses them.
    Use RationalPolyhedron.of for rational points and rays."""

    dim: int
    points: tuple
    directions: tuple
    facets: tuple  # normals w: w.(x, 1) >= 0
    key: InitVar[object] = None

    def __post_init__(self, key):
        if key is not _BUILT:
            raise TypeError(
                "a RationalPolyhedron is built by RationalPolyhedron.of, "
                "not from rows and facets"
            )

    @classmethod
    def of(cls, dim, vertices, rays=()):
        """The polyhedron of rational points and rays, validated: its
        vertices are those points that are vertices."""
        if dim > MAX_DIM:
            raise ValueError(f"dimension {dim} beyond supported {MAX_DIM}")
        vs = [tuple(map(Fraction, v)) for v in vertices]
        rs = [tuple(map(Fraction, r)) for r in rays]
        for p in vs + rs:
            if len(p) != dim:
                raise ValueError("coordinate length != dim")
        if not vs:
            raise ValueError("need at least one vertex")
        if any(not any(r) for r in rs):
            raise ValueError("zero ray")
        return _polyhedron(dim, map(_lift, vs), [_reduced(_lift(r, 0)) for r in rs])

    @property
    def vertices(self):
        """The vertex tuples of Fractions, sorted."""
        return _vertices(self.points)

    def is_bounded(self):
        return not self.directions

    def facet_inequalities(self):
        """Primitive integer normals w = (a, -b) describing the polyhedron,
        each the inequality w.(x, 1) >= 0, that is a.x >= b, sorted by
        (a, b)."""
        return self.facets


def _vertices(points):
    """The rows (v d, d) as the sorted tuples v of Fractions."""
    return tuple(sorted(tuple(Fraction(x, q[-1]) for x in q[:-1]) for q in points))


def _facets(dim, rows):
    """(normals, masks) for the polyhedron whose points and directions are
    the integer rows: its sorted facet_inequalities, and for each facet of
    the homogenizing cone within its span the mask of the rows tight on it.

    Rows that span give the facets as the rays of one double description.
    Otherwise the equations of their span, in both signs, and the facets
    within it come from one echelon form of the rows and one description
    over their projection.  Each row g is re-checked as w.g >= 0 against
    every normal w."""
    rays = _extreme_rays(rows)
    if rays is not None:
        normals = {u for u, _ in rays}
    else:
        ech, pivots = linalg.echelon(rows)
        normals = set()
        for w in linalg.kernel(ech, pivots, dim + 1):
            w = _reduced(w)
            normals |= {w, tuple(-x for x in w)}
        # on its pivot coordinates the span is all of R^k, so the cone is
        # full-dimensional there and a facet normal extends by zeros; at
        # k = 1 (a lone point) the one dual ray is no facet, only 0 >= -1
        projected = [[g[c] for c in pivots] for g in rows]
        rays = _extreme_rays(projected) if len(pivots) > 1 else []
        for u, _ in rays:
            w = dict(zip(pivots, u))
            normals.add(tuple(w.get(c, 0) for c in range(dim + 1)))
    if any(_dot(w, g) < 0 for w in normals for g in rows):
        raise RuntimeError("generator violates computed facet")
    return _sorted_facets(normals, dim), [mask for _, mask in rays]


def _sorted_facets(normals, dim):
    """The normals w = (a, -b) as a tuple sorted by (a, b)."""
    return tuple(sorted(normals, key=lambda w: (w[:dim], -w[dim])))


def _polyhedron(dim, points, directions):
    """The polyhedron of integer rows, sorted and made distinct, with its
    facets (see _facets) and only those points that are vertices.

    The rows on the least face of the homogenizing cone through a point are
    those tight on every facet the point is tight on.  A vertex is alone on
    its face, and any other point's face holds a vertex; a polyhedron with
    a line has none, and keeps the first point of each minimal face."""
    points = sorted(set(points))
    directions = tuple(sorted(set(directions)))
    facets, masks = _facets(dim, (*points, *directions))
    n = len(points)
    # all bits set, -1 is the face of a point on no facet
    faces = [reduce(and_, (m for m in masks if m >> i & 1), -1) for i in range(n)]
    kept = tuple(
        p for i, (p, face) in enumerate(zip(points, faces))
        if face & -face == 1 << i
        and all(faces[j] == face for j in range(i + 1, n) if face >> j & 1)
    )
    return RationalPolyhedron(dim, kept, directions, facets, _BUILT)


def _dot(a, b):
    return sum(map(mul, a, b))


# -- constructions ---------------------------------------------------------


def newton_polyhedron(staircase) -> RationalPolyhedron:
    """conv(minimal generators) + positive orthant."""
    if staircase.is_empty():
        raise ValueError("staircase of the zero ideal has no Newton polyhedron")
    n = staircase.nvars
    units = [tuple(int(i == j) for j in range(n + 1)) for i in range(n)]
    return _polyhedron(n, [g + (1,) for g in staircase.min_gens], units)


def scale(poly: RationalPolyhedron, factor) -> RationalPolyhedron:
    """factor * poly: the point (v d, d) goes to (v d p, d q) for the int or
    Fraction factor p/q, and the facets come along."""
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    p, q = factor.numerator, factor.denominator
    points = [_reduced([x * p for x in v[:-1]] + [v[-1] * q]) for v in poly.points]
    # a.x >= b becomes a.x >= (p/q) b: the normal (a, -b) goes to the
    # primitive (q a, -p b)
    facets = _sorted_facets(
        [_reduced([x * q for x in w[:-1]] + [w[-1] * p]) for w in poly.facets], poly.dim
    )
    return RationalPolyhedron(
        poly.dim, tuple(sorted(points)), poly.directions, facets, _BUILT
    )


def convex_union_approximant(polys) -> RationalPolyhedron:
    """Convex hull of a family with a common recession cone."""
    polys = list(polys)
    if not polys:
        raise ValueError("empty family")
    dim, directions = polys[0].dim, polys[0].directions
    for p in polys:
        if p.dim != dim or p.directions != directions:
            raise ValueError("family members must share dimension and rays")
    return _polyhedron(dim, [v for p in polys for v in p.points], directions)


# -- clipping and volume ---------------------------------------------------


def _clip(poly: RationalPolyhedron, t):
    """The intersection Q of poly with the corner simplex {x >= 0,
    sum x_i <= t}: the rows (x d, d) of its vertices, sorted (none when Q is
    empty), and for each normal of poly and of the simplex the mask of the
    vertices tight on it.

    The vertices are the extreme rays of the cone {(x, s) : s >= 0,
    w.(x, s) >= 0} over those normals w; the simplex bounds it, so each
    has s > 0.  For t = p/q that cone starts as the homogenized simplex,
    always pointed, whose extreme rays are known: (0, ..., 0, 1), tight on each
    x_i >= 0, and (p e_i, q), tight on the other x_j >= 0 and on sum x_i <=
    t; at t = 0 only (0, ..., 0, 1), tight on all of them.  The cuts by
    poly's normals alone give the rest (see _cut), whatever poly is, and
    each ray comes with the mask of the normals tight on it, poly's first
    and then the simplex's; transposing those masks gives the normals'
    masks.  Every facet of Q is among the normals, and every other normal
    is tight on a face of Q or on none."""
    if t < 0:
        raise ValueError("t must be >= 0")
    dim, p, q = poly.dim, t.numerator, t.denominator
    facets = poly.facet_inequalities()
    f = len(facets)
    n = f + dim + 1
    # the simplex's normals sit at the bits f..n-1, the sum's last
    axes = (1 << n) - (1 << f)
    rays = [((0,) * dim + (1,), axes if p == 0 else axes ^ 1 << n - 1)]
    if p:
        rays += [
            (tuple(p * int(i == j) for j in range(dim)) + (q,), axes ^ 1 << f + i)
            for i in range(dim)
        ]
    rays = sorted(_cut(rays, enumerate(facets), dim + 1))
    rows = tuple(r for r, _ in rays)
    masks = [
        sum(1 << i for i, (_, tight) in enumerate(rays) if tight >> j & 1)
        for j in range(n)
    ]
    return rows, masks


def _triangulate(n, masks, dim, apex_last=False):
    """Simplices covering a full-dimensional polytope in R^dim whose n
    points have the rows 0..n-1, each simplex as a tuple of row positions:
    the boundary triangulation of Bueler-Enge-Fukuda (2000), driven by
    vertex-facet incidences.

    masks holds each facet as the bitmask of the rows tight on it; masks of
    other valid inequalities, tight on a lower face or on no row, may come
    along.  A face is the mask of its rows; the facets of a face F are the
    inclusion-maximal nonempty sets F & M over the masks M, other than F.
    The apex of F, its first row (its last with apex_last), is joined to
    the triangulation of each facet of F that misses it, and a k-face with
    k + 1 rows is a simplex."""

    def simplices(face, k):
        if face.bit_count() == k + 1:
            return [tuple(i for i in range(n) if face >> i & 1)]
        apex = (face if apex_last else face & -face).bit_length() - 1
        cuts = {face & m for m in masks} - {0, face}
        out = []
        for sub in cuts:
            if sub >> apex & 1 or any(sub & c == sub != c for c in cuts):
                continue
            out += [(apex,) + s for s in simplices(sub, k - 1)]
        return out

    return simplices((1 << n) - 1, dim)


def _volume(rows, masks, dim, apex_last=False) -> Fraction:
    """Volume of the polytope whose points have the integer rows `rows`,
    from the masks of the inequalities describing it (see _triangulate).
    It is lower-dimensional, so of volume 0, when it has no rows or one of
    those inequalities is tight on every row: otherwise the mean of points
    each strict on one inequality is strict on all.  A simplex with vertex
    rows (v d, d) has volume |det| / (dim! prod d); each such prod d
    divides L^(dim + 1), for L the lcm of all the d, so the volumes are
    summed as integers over L^(dim + 1) dim!."""
    if not rows or (1 << len(rows)) - 1 in masks:
        return Fraction(0)
    common = reduce(lcm, (q[dim] for q in rows), 1) ** (dim + 1)
    total = 0
    for simplex in _triangulate(len(rows), masks, dim, apex_last):
        mat = [rows[i] for i in simplex]
        total += abs(linalg.det(mat)) * (common // prod(q[dim] for q in mat))
    return Fraction(total, common * factorial(dim))


def volume(poly: RationalPolyhedron, apex_last=False) -> Fraction:
    """Exact Lebesgue volume of a bounded polytope via the boundary
    triangulation of _triangulate, each facet's mask the vertices tight on
    it; an equation, tight on all, makes the volume 0.

    apex_last switches the apex of every face from its first row to its
    last, giving an independent decomposition of the same region for
    cross-checks.
    """
    if not poly.is_bounded():
        raise UnboundedError("volume of an unbounded polyhedron")
    rows = poly.points
    masks = [
        sum(1 << i for i, q in enumerate(rows) if not _dot(w, q)) for w in poly.facets
    ]
    return _volume(rows, masks, poly.dim, apex_last)


def clipped_volume(poly: RationalPolyhedron, t, apex_last=False) -> Fraction:
    """Volume of poly within the corner simplex {x >= 0, sum x_i <= t}, from
    the masks of the clip's own cuts."""
    return _volume(*_clip(poly, t), poly.dim, apex_last)


def gamma_region(delta: RationalPolyhedron, t):
    """Volume and description of the complement of delta inside the corner
    simplex: vol = t^n/n! - vol(delta within the simplex).

    The complement is generally not convex; the description exports the
    simplex together with the excluded clipped region.
    """
    t = Fraction(t)
    n = delta.dim
    rows, masks = _clip(delta, t)
    vol = t**n / factorial(n) - _volume(rows, masks, n)
    description = {
        "dim": n,
        "t": str(t),
        "simplex": [
            {"coeffs": [str(int(i == j)) for j in range(n)], "rhs": "0"}
            for i in range(n)
        ] + [{"coeffs": ["-1"] * n, "rhs": str(-t)}],
        # the clip's vertices alone: its normals include redundant ones
        "excluded": {
            "dim": n, "vertices": _strings(_vertices(rows)), "rays": []
        } if rows else None,
    }
    return vol, description


# -- serialization ---------------------------------------------------------


def _strings(vectors):
    return [[str(x) for x in v] for v in vectors]


def polyhedron_to_dict(poly: RationalPolyhedron):
    d = poly.dim
    return {
        "dim": d,
        "vertices": _strings(poly.vertices),
        "rays": _strings(r[:-1] for r in poly.directions),
        "facets": [
            {"coeffs": [str(c) for c in w[:d]], "rhs": str(-w[d])} for w in poly.facets
        ],
    }


def polyhedron_from_dict(data) -> RationalPolyhedron:
    def rows(items, key, name):
        return [[linalg.json_number(x) for x in linalg.json_array(row, name)]
                for row in linalg.json_array(items, key)]

    return RationalPolyhedron.of(
        linalg.json_integer(data, "dim"),
        rows(data["vertices"], "vertices", "vertex"),
        rows(data.get("rays", []), "rays", "ray"),
    )


def polyhedron_from_json(text: str) -> RationalPolyhedron:
    """A polyhedron from JSON text; decimals are read as exact fractions."""
    return polyhedron_from_dict(json.loads(text, parse_float=Fraction))
