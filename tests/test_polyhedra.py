import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limshape.polyhedra import (
    RationalPolyhedron,
    UnboundedError,
    clip_to_simplex,
    clipped_volume,
    convex_union_approximant,
    gamma_region,
    newton_polyhedron,
    polyhedron_from_json,
    polyhedron_to_json,
    scale,
    volume,
)
from limshape.staircase import MonomialStaircase

QUAD = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)]


def simplex(dim, t=1):
    verts = [tuple(Fraction(0) for _ in range(dim))]
    for i in range(dim):
        verts.append(tuple(Fraction(t) if j == i else Fraction(0) for j in range(dim)))
    return RationalPolyhedron.of(dim, verts)


def cube(dim):
    verts = []
    for mask in range(2**dim):
        verts.append(tuple(Fraction((mask >> i) & 1) for i in range(dim)))
    return RationalPolyhedron.of(dim, verts)


def test_volume_simplex_and_cube():
    assert volume(simplex(2)) == Fraction(1, 2)
    assert volume(simplex(3, 2)) == Fraction(8, 6)
    assert volume(cube(2)) == 1
    assert volume(cube(3)) == 1
    assert volume(cube(4)) == 1


def test_volume_apex_choice_agrees():
    for poly in (simplex(3, 2), cube(3), cube(4)):
        assert volume(poly, apex_last=False) == volume(poly, apex_last=True)


def test_volume_lower_dimensional_is_zero():
    seg = RationalPolyhedron.of(2, [(0, 0), (1, 1), (2, 2)])
    assert volume(seg) == 0


def test_volume_unbounded_raises():
    ray = RationalPolyhedron.of(2, [(0, 0)], rays=[(1, 0)])
    with pytest.raises(UnboundedError):
        volume(ray)


def test_facets_of_square():
    sq = cube(2)
    facets = set(sq.facet_inequalities())
    assert facets == {
        ((Fraction(1), Fraction(0)), Fraction(0)),
        ((Fraction(0), Fraction(1)), Fraction(0)),
        ((Fraction(-1), Fraction(0)), Fraction(-1)),
        ((Fraction(0), Fraction(-1)), Fraction(-1)),
    }
    assert sq.contains_point((Fraction(1, 2), Fraction(1, 2)))
    assert not sq.contains_point((2, 0))


def with_midpoints(points):
    """The points plus the midpoint of every pair of them."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    return pts + [
        tuple((x + y) / 2 for x, y in zip(p, q))
        for i, p in enumerate(pts) for q in pts[i + 1:]
    ]


def test_cube_facets_survive_face_centres_and_edge_midpoints():
    # many of the added points lie on one facet, so most candidate
    # subsets of the lifted points are rank deficient
    half = Fraction(1, 2)
    centres = [
        tuple(c if i == axis else half for i in range(3))
        for axis in range(3) for c in (0, 1)
    ]
    midpoints = [
        tuple(half if i == axis else v[i] for i in range(3))
        for v in cube(3).vertices for axis in range(3) if v[axis] == 0
    ]
    crowded = RationalPolyhedron.of(3, list(cube(3).vertices) + centres + midpoints)
    assert len(crowded.vertices) == 8 + 6 + 12
    assert crowded.facet_inequalities() == cube(3).facet_inequalities()
    assert len(crowded.facet_inequalities()) == 6


@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_facets_unchanged_by_pairwise_midpoints(points):
    # coplanar, collinear and repeated points included: degenerate subsets
    # must neither add nor drop a facet
    plain = RationalPolyhedron.of(3, points)
    crowded = RationalPolyhedron.of(3, with_midpoints(points))
    assert crowded.facet_inequalities() == plain.facet_inequalities()


def test_minimal_vertices_drop_redundant_points():
    tri = RationalPolyhedron.of(
        2, [(0, 0), (2, 0), (0, 2), (1, 0), (Fraction(1, 2), Fraction(1, 2))]
    )
    assert tri.minimal_vertices() == ((0, 0), (0, 2), (2, 0))


def test_newton_polyhedron_of_quadruple():
    st_ = MonomialStaircase.from_generators(3, QUAD)
    delta = newton_polyhedron(st_)
    # (1,1,0) lies on the segment (2,0,0)-(0,2,0), so only three vertices
    assert set(delta.vertices) == {
        (Fraction(2), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(2), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(1)),
    }
    assert len(delta.rays) == 3
    assert delta.contains_point((5, 5, 5))
    assert not delta.contains_point((0, 0, 0))


def test_newton_polyhedron_rejects_zero_ideal():
    with pytest.raises(ValueError):
        newton_polyhedron(MonomialStaircase.from_generators(2, []))


def test_scale():
    st_ = MonomialStaircase.from_generators(2, [(2, 0), (0, 2)])
    delta = newton_polyhedron(st_)
    half = scale(delta, Fraction(1, 2))
    assert set(half.vertices) == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}
    assert half.rays == delta.rays
    with pytest.raises(ValueError):
        scale(delta, 0)


def test_convex_union_approximant():
    a = newton_polyhedron(MonomialStaircase.from_generators(2, [(2, 0), (0, 1)]))
    b = newton_polyhedron(MonomialStaircase.from_generators(2, [(1, 0), (0, 2)]))
    hull = convex_union_approximant([a, b])
    for p in (a, b):
        for v in p.vertices:
            assert hull.contains_point(v)
    with pytest.raises(ValueError):
        convex_union_approximant([])


def test_clip_orthant_gives_corner_simplex():
    orthant = RationalPolyhedron.of(
        3, [(0, 0, 0)], rays=[(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    )
    assert clipped_volume(orthant, 2) == Fraction(8, 6)
    assert clipped_volume(orthant, 0) == 0


def test_clip_empty_intersection():
    shifted = RationalPolyhedron.of(2, [(5, 5)], rays=[(1, 0), (0, 1)])
    region = clip_to_simplex(shifted, 3)
    assert region.polytope is None
    assert clipped_volume(shifted, 3) == 0


def test_clipped_volume_of_quadruple_region():
    st_ = MonomialStaircase.from_generators(3, QUAD)
    delta = newton_polyhedron(st_)
    for t in (2, 3, 4, Fraction(7, 2)):
        t = Fraction(t)
        vol, desc = gamma_region(delta, t)
        assert vol == t**3 / 6 - clipped_volume(delta, t)
        # this hull already realizes the limit value t - 2/3
        assert vol == t - Fraction(2, 3)
        # the convex hull over-covers, so its complement is smaller
        assert vol <= st_.gamma_volume(t)
        assert desc["dim"] == 3 and desc["excluded"] is not None


def test_gamma_region_trivial_delta():
    # staircase generated by the origin covers everything: complement empty
    st_ = MonomialStaircase.from_generators(2, [(0, 0)])
    vol, desc = gamma_region(newton_polyhedron(st_), 5)
    assert vol == 0


@st.composite
def random_polytopes(draw):
    dim = draw(st.integers(2, 3))
    k = draw(st.integers(dim + 1, 7))
    verts = draw(
        st.lists(
            st.tuples(*[st.integers(-4, 4)] * dim),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    return RationalPolyhedron.of(dim, verts)


@given(random_polytopes())
@settings(max_examples=50, deadline=None)
def test_volume_invariances(poly):
    v = volume(poly)
    assert v >= 0
    assert volume(poly, apex_last=True) == v
    # translation invariance
    shift = tuple(Fraction(3) for _ in range(poly.dim))
    moved = RationalPolyhedron.of(
        poly.dim, [tuple(x + s for x, s in zip(vert, shift)) for vert in poly.vertices]
    )
    assert volume(moved) == v
    # coordinate permutation invariance
    perm = RationalPolyhedron.of(
        poly.dim, [tuple(reversed(vert)) for vert in poly.vertices]
    )
    assert volume(perm) == v
    # scaling by 2 multiplies volume by 2^dim
    doubled = scale(poly, 2) if v > 0 else None
    if doubled is not None:
        assert volume(doubled) == v * 2**poly.dim


def test_volume_matches_lattice_count_estimate():
    # sanity anchor: the triangle (0,0),(4,0),(0,4) has volume 8
    tri = RationalPolyhedron.of(2, [(0, 0), (4, 0), (0, 4)])
    assert volume(tri) == 8


def test_json_round_trip():
    st_ = MonomialStaircase.from_generators(3, QUAD)
    delta = newton_polyhedron(st_)
    again = polyhedron_from_json(polyhedron_to_json(delta))
    assert again.vertices == delta.vertices and again.rays == delta.rays


def test_dimension_cap():
    with pytest.raises(ValueError):
        RationalPolyhedron.of(7, [tuple([0] * 7)])
