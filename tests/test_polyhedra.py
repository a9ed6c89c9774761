import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limshape import linalg, polyhedra
from limshape.polyhedra import (
    RationalPolyhedron,
    UnboundedError,
    _clip,
    _extreme_rays,
    _lift,
    _triangulate,
    _volume,
    clipped_volume,
    convex_union_approximant,
    gamma_region,
    newton_polyhedron,
    polyhedron_from_dict,
    polyhedron_to_dict,
    scale,
    volume,
)
from limshape.staircase import MonomialStaircase
from oracles import (
    clip_by_one_description,
    clip_to_simplex,
    count_fractions,
    facets_by_subsets,
    polyhedron_contains,
    simplex_inequalities,
    vertex_enumerate_by_subsets,
    volume_by_pyramids,
)

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


def kernel_masks(rows):
    """The masks of the rows tight on each facet of the cone they span, by
    the kernel itself, for any rows: vertices or not."""
    return [tight for _, tight in _extreme_rays(rows)]


def raw_rows(points):
    """The rows (v d, d) of the points as given, non-vertices included."""
    return sorted({_lift(tuple(map(Fraction, p))) for p in points})


def assert_simplices_nondegenerate(rows, dim, apex_last):
    # a wrong face lattice can hide behind simplices of volume 0
    for simplex in _triangulate(len(rows), kernel_masks(rows), dim, apex_last):
        assert linalg.det([rows[i] for i in simplex])


# [0, 2]^3 as all 27 points of its grid: vertices, edge midpoints, face
# centres and the centre
GRID_CUBE = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
# the 4-dimensional cross-polytope with its centre
CROSS_4 = [(0,) * 4] + [
    tuple(s * int(i == j) for j in range(4)) for i in range(4) for s in (1, -1)
]


@pytest.mark.parametrize("apex_last", [False, True])
@pytest.mark.parametrize(
    "points, dim, expected",
    [(GRID_CUBE, 3, 8), (CROSS_4, 4, Fraction(2, 3))],
    ids=["grid-cube", "cross-polytope"],
)
def test_volume_of_non_vertex_points_matches_pyramids(points, dim, expected, apex_last):
    # the kernel triangulates the rows as given, which `of` would thin to
    # the vertices
    rows = raw_rows(points)
    assert len(rows) == len(points)
    vol = _volume(rows, kernel_masks(rows), dim, apex_last)
    assert vol == volume_by_pyramids(points, dim) == expected
    assert_simplices_nondegenerate(rows, dim, apex_last)
    assert volume(RationalPolyhedron.of(dim, points), apex_last) == expected


def test_pyramid_oracle_is_exact_on_int_points():
    # int coordinates must not fall back to float division
    vol = volume_by_pyramids(CROSS_4, 4)
    assert vol == Fraction(2, 3) and type(vol) is Fraction


def test_triangulation_takes_only_facets_of_each_face():
    # two facets of the cross-polytope may meet in an edge alone; with its
    # midpoint that edge has three rows, which would pass for a triangle if
    # every face shared with another facet were taken as a facet
    midpoints = {
        tuple(Fraction(x + y, 2) for x, y in zip(p, q))
        for i, p in enumerate(CROSS_4[1:]) for q in CROSS_4[i + 2:]
        if any(x + y for x, y in zip(p, q))
    }
    rows = raw_rows(CROSS_4 + sorted(midpoints))
    assert len(rows) == 9 + 24
    for apex_last in (False, True):
        assert _volume(rows, kernel_masks(rows), 4, apex_last) == Fraction(2, 3)
        assert_simplices_nondegenerate(rows, 4, apex_last)


def test_volume_lower_dimensional_is_zero():
    seg = RationalPolyhedron.of(2, [(0, 0), (1, 1), (2, 2)])
    assert volume(seg) == 0


@pytest.mark.parametrize(
    "vertices, inside, outside",
    [
        ([(0, 0), (1, 1)], [(Fraction(1, 2), Fraction(1, 2))], [(0, 5), (2, 2)]),
        (
            [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
            [(Fraction(1, 4), Fraction(1, 4), 0)],
            [(0, 0, 1), (1, 1, 0)],
        ),
    ],
    ids=["segment", "triangle-in-3-space"],
)
def test_lower_dimensional_polytope_keeps_to_its_affine_hull(
    vertices, inside, outside
):
    # the hull's equations hold in both signs, and its facets within the
    # hull cut off the points of the hull beyond the polytope
    poly = RationalPolyhedron.of(len(vertices[0]), vertices)
    assert all(polyhedron_contains(poly, v) for v in poly.vertices + tuple(inside))
    assert not any(polyhedron_contains(poly, p) for p in outside)
    assert poly.vertices == tuple(sorted(tuple(map(Fraction, v)) for v in vertices))
    assert clipped_volume(poly, 2) == 0


def test_volume_unbounded_raises():
    ray = RationalPolyhedron.of(2, [(0, 0)], rays=[(1, 0)])
    with pytest.raises(UnboundedError):
        volume(ray)


def test_facets_of_square():
    sq = cube(2)
    # x >= 0, y >= 0, -x >= -1 and -y >= -1 as normals w: w.(x, y, 1) >= 0
    facets = set(sq.facet_inequalities())
    assert facets == {(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)}
    assert polyhedron_contains(sq, (Fraction(1, 2), Fraction(1, 2)))
    assert not polyhedron_contains(sq, (2, 0))


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
    assert crowded.vertices == cube(3).vertices
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


@st.composite
def small_generators(draw):
    """(dim, points, rays): point sets in dimensions 2-4 with coordinates in
    0..2, so that coplanar, collinear and repeated points are common, with
    or without the orthant rays; a single point included."""
    dim = draw(st.integers(2, 4))
    points = draw(
        st.lists(st.tuples(*[st.integers(0, 2)] * dim), min_size=1, max_size=6)
    )
    rays = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    return dim, points, rays if draw(st.booleans()) else ()


def small_polyhedra():
    return small_generators().map(lambda g: RationalPolyhedron.of(*g))


FACTORS = st.sampled_from([1, 3, Fraction(1, 2), Fraction(2, 3)])


@given(small_generators(), FACTORS, FACTORS)
@settings(max_examples=60, deadline=None)
def test_rows_are_primitive_ints_and_vertices_their_fractions(generators, f, g):
    # the points are primitive rows (v d, d), d > 0, and the directions
    # primitive rows (r, 0), sorted and distinct; vertices reads them back,
    # as those of the given points that are vertices
    dim, points, rays = generators
    inputs = [tuple(f * x for x in v) for v in points]
    poly = RationalPolyhedron.of(dim, inputs, rays)
    scaled = scale(poly, g)
    for p in (poly, scaled):
        rows = p.points + p.directions
        assert all(type(x) is int for row in rows for x in row)
        assert all(gcd(*row) == 1 for row in rows)
        assert all(q[-1] > 0 for q in p.points)
        assert all(r[-1] == 0 for r in p.directions)
        assert p.points == tuple(sorted(set(p.points)))
        assert p.directions == tuple(sorted(set(p.directions)))
    assert set(poly.vertices) <= {tuple(map(Fraction, v)) for v in inputs}
    assert RationalPolyhedron.of(dim, poly.vertices, rays) == poly
    assert scaled.vertices == tuple(
        sorted(tuple(g * x for x in v) for v in poly.vertices)
    )
    assert scaled.directions == poly.directions


def test_only_the_builder_makes_a_polyhedron():
    # rows and facets given to the dataclass constructor would be trusted
    # unchecked: this lone point, with no facet at all, clipped to a volume
    # of 1/2 where a point has volume 0
    with pytest.raises(TypeError, match="built by RationalPolyhedron.of"):
        clipped_volume(RationalPolyhedron(2, ((0, 0, 1),), (), ()), 1)
    point = RationalPolyhedron.of(2, [(0, 0)])
    assert clipped_volume(point, 1) == 0
    assert scale(point, 2) == point


def test_rays_are_stored_primitive():
    polys = [
        RationalPolyhedron.of(2, [(0, 0)], rays=[ray])
        for ray in [(2, 0), (Fraction(1, 2), 0), (1, 0)]
    ]
    assert all(p.directions == ((1, 0, 0),) for p in polys)
    assert polys[0] == polys[1] == polys[2]


@given(small_polyhedra(), st.sampled_from([0, 1, Fraction(5, 2)]))
@example(  # joining non-adjacent rays adds a false vertex to the clip
    RationalPolyhedron.of(
        3, [(0, 0, 1), (0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    ),
    Fraction(5, 2),
)
# a lone point lifts to a one-dimensional cone, which has no facet: only
# its equations in both signs, never the trivial 0 >= -1
@example(RationalPolyhedron.of(2, [(1, 2)]), 1)
# the clip is the corner point alone, and the triangle x + y + z = 2 where
# the clip meets the hull only in a face: volume 0 without a rank test
@example(RationalPolyhedron.of(3, [(0, 0, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 0)
@example(newton_polyhedron(MonomialStaircase.from_generators(3, QUAD)), 2)
@settings(max_examples=60, deadline=None)
def test_double_description_matches_subset_enumeration(poly, t):
    dim = poly.dim
    facets = facets_by_subsets(poly)
    assert poly.facet_inequalities() == facets
    assert poly.vertices == tuple(vertex_enumerate_by_subsets(facets, dim))
    clipped = clip_to_simplex(poly, t)
    expected = vertex_enumerate_by_subsets(
        list(facets) + simplex_inequalities(dim, t), dim
    )
    assert (clipped.vertices if clipped else ()) == tuple(expected)
    for bounded in (poly, clipped) if poly.is_bounded() else (clipped,):
        if bounded is not None:
            oracle = volume_by_pyramids(bounded.vertices, dim)
            assert volume(bounded) == volume(bounded, apex_last=True) == oracle
    # the clip's own masks, not a second double description, give its volume
    oracle = volume_by_pyramids(clipped.vertices, dim) if clipped else 0
    assert clipped_volume(poly, t) == clipped_volume(poly, t, apex_last=True) == oracle


@st.composite
def shifted_generators(draw):
    """(dim, points, rays): points in dimensions 2-4 on a coordinate
    subspace S, so that the polyhedron is often lower-dimensional, with rays
    along some of the axes of S and, for some points v, the points v + e_i
    along those rays, redundant only through the ray."""
    dim = draw(st.integers(2, 4))
    support = draw(st.sets(st.integers(0, dim - 1), min_size=1))
    axes = sorted(draw(st.sets(st.sampled_from(sorted(support)))))
    coords = st.tuples(*[st.integers(0, 2) if i in support else st.just(0)
                         for i in range(dim)])
    points = draw(st.lists(coords, min_size=1, max_size=5))
    shifted = [
        tuple(x + (j == i) for j, x in enumerate(v))
        for v in points for i in axes if draw(st.booleans())
    ]
    rays = [tuple(int(i == j) for j in range(dim)) for i in axes]
    return dim, points + shifted, rays


@given(shifted_generators(), FACTORS)
@example((3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(1, 0, 0)]), Fraction(1, 2))
@example((2, [(1, 1), (2, 1), (1, 2)], [(1, 0), (0, 1)]), 3)
@settings(max_examples=80, deadline=None)
def test_builder_reads_vertices_and_facets_off_one_description(generators, f):
    # the vertices come from the facets' masks of tight rows, and the
    # polyhedron scale gives, facets included, is the one built afresh from
    # the scaled points
    dim, points, rays = generators
    poly = RationalPolyhedron.of(dim, points, rays)
    facets = facets_by_subsets(poly)
    assert poly.vertices == tuple(vertex_enumerate_by_subsets(facets, dim))
    assert poly.facets == facets
    scaled = scale(poly, f)
    fresh = RationalPolyhedron.of(dim, [[f * x for x in v] for v in points], rays)
    assert scaled == fresh


@st.composite
def clip_inputs(draw):
    """(poly, t): polyhedra in dimensions 1-4 with coordinates in -2..2 and
    up to three rays of any sign, so that non-pointed, lower-dimensional
    and redundant ones are common; t zero, whole or fractional."""
    dim = draw(st.integers(1, 4))
    coords = st.tuples(*[st.integers(-2, 2)] * dim)
    points = draw(st.lists(coords, min_size=1, max_size=5))
    rays = draw(st.lists(coords.filter(any), max_size=3))
    poly = RationalPolyhedron.of(dim, points, rays)
    return poly, draw(st.sampled_from([0, 1, 3, Fraction(5, 2), Fraction(2, 3)]))


@given(clip_inputs())
@example((newton_polyhedron(MonomialStaircase.from_generators(3, QUAD)), 0))
@example((newton_polyhedron(MonomialStaircase.from_generators(3, QUAD)), Fraction(5, 2)))
# a horizontal line: its rays (1, 0) and (-1, 0) make it no pointed cone
@example((RationalPolyhedron.of(2, [(1, 1)], [(1, 0), (-1, 0)]), Fraction(5, 2)))
# lower-dimensional: a triangle in the plane z = 0 of R^3, and a half-line
# that leaves the simplex through x_3 = 0
@example((RationalPolyhedron.of(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)]), Fraction(1, 2)))
@example((RationalPolyhedron.of(3, [(0, 0, 1)], [(1, 0, -1)]), 3))
# the builder drops the redundant point (0, 1)
@example((RationalPolyhedron.of(2, [(0, 0), (0, 1)], [(1, 0), (0, 1)]), Fraction(5, 2)))
@settings(max_examples=150, deadline=None)
def test_clip_from_the_simplex_rays_matches_one_description(inputs):
    # cutting the corner simplex's own rays by the hull's facets gives the
    # rows and masks of one double description over all the normals
    poly, t = inputs
    assert _clip(poly, t) == clip_by_one_description(poly, t)


@given(clip_inputs())
@settings(max_examples=60, deadline=None)
def test_builder_keeps_a_least_set_of_points(inputs):
    # the kept points give the polyhedron back, and none can go: with rays
    # of any sign, a polyhedron that holds a line keeps one point on each
    # minimal face
    poly, _ = inputs
    rays, vertices = [r[:-1] for r in poly.directions], poly.vertices
    assert RationalPolyhedron.of(poly.dim, vertices, rays) == poly
    fewer = [vertices[:i] + vertices[i + 1:] for i in range(len(vertices))]
    assert all(RationalPolyhedron.of(poly.dim, v, rays) != poly for v in fewer if v)


def test_each_polyhedron_runs_one_double_description(monkeypatch):
    # a full-dimensional hull's one description, from one echelon form,
    # gives its vertices and facets; scaling carries the facets, the clip
    # cuts the simplex's own rays by those facets with no description of
    # its own, and a volume reads its masks off the facets.  Rows that do
    # not span take a second description, over their projection, and a
    # second echelon form, which gives that projection and the equations.
    calls = {"_extreme_rays": 0, "echelon": 0}

    def counting(owner, name):
        inner = getattr(owner, name)

        def counted(rows):
            calls[name] += 1
            return inner(rows)

        monkeypatch.setattr(owner, name, counted)

    counting(polyhedra, "_extreme_rays")
    counting(linalg, "echelon")
    st_ = MonomialStaircase.from_generators(3, QUAD)
    hull = newton_polyhedron(st_)
    assert list(calls.values()) == [1, 1]
    half = scale(hull, Fraction(1, 2))
    assert list(calls.values()) == [1, 1]
    assert clipped_volume(half, Fraction(5, 2)) > 0
    assert list(calls.values()) == [1, 1]
    other = newton_polyhedron(MonomialStaircase.from_generators(3, [(1, 0, 0)]))
    delta = convex_union_approximant([hull, other])
    assert list(calls.values()) == [3, 3]
    gamma_region(delta, 3)
    assert list(calls.values()) == [3, 3]
    cube = RationalPolyhedron.of(3, GRID_CUBE)
    assert list(calls.values()) == [4, 4]
    assert volume(cube) == volume(cube, apex_last=True) == 8
    assert list(calls.values()) == [4, 4]
    RationalPolyhedron.of(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert list(calls.values()) == [6, 7]


def test_clip_cuts_obey_the_ray_cap(monkeypatch):
    # the hull is built first; only the clip's own cuts meet the cap
    hull = newton_polyhedron(MonomialStaircase.from_generators(3, QUAD))
    monkeypatch.setattr(polyhedra, "RAY_CAP", 1)
    with pytest.raises(linalg.ComputationLimitError, match="^ray cap 1 "):
        clipped_volume(hull, Fraction(5, 2))


def test_extreme_rays_need_spanning_rows():
    # {y1 >= 0, y2 = 0} in R^3 holds the whole y3-axis: not a pointed cone
    assert _extreme_rays([(1, 0, 0), (0, 1, 0), (0, -1, 0)]) is None
    # each ray comes with the mask of the rows tight on it
    assert _extreme_rays([(1, 0), (0, 1), (1, 1)]) == [((0, 1), 0b001), ((1, 0), 0b010)]


def test_extreme_rays_builds_no_fraction(monkeypatch):
    # the echelon form that starts the double description and every cut
    # run on ints, here on the clip of a Newton polyhedron at a fractional
    # t, and so do the simplex's rays that start the clip's own cuts
    delta = newton_polyhedron(MonomialStaircase.from_generators(3, QUAD))
    t = Fraction(5, 2)
    rows = [*delta.facet_inequalities(), *simplex_inequalities(3, t), (0, 0, 0, 1)]
    built = count_fractions(monkeypatch)
    rays = _extreme_rays(rows)
    clip = _clip(delta, t)
    monkeypatch.undo()
    assert built == []
    assert tuple(r for r, _ in rays) == clip[0] and len(clip[0]) == 7


def test_facets_and_containment_build_no_fraction(monkeypatch):
    # the builder's normals come out of the double description as ints, a
    # point is tested on its cleared integer row, and the constructions map
    # integer rows to integer rows
    hull = RationalPolyhedron.of(
        3, [(0, 0, 0), (2, 0, 0), (0, Fraction(3, 2), 0), (0, 0, Fraction(1, 3))]
    )
    inside = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 12))
    outside = (1, 1, 0)
    staircase = MonomialStaircase.from_generators(3, QUAD)
    half, t = Fraction(1, 2), Fraction(5, 2)
    built = count_fractions(monkeypatch)
    rebuilt = convex_union_approximant([hull])
    facets = rebuilt.facet_inequalities()
    verdicts = (polyhedron_contains(hull, inside), polyhedron_contains(hull, outside))
    made = [rebuilt, newton_polyhedron(staircase)]
    made.append(scale(made[-1], half))
    made.append(clip_to_simplex(made[-1], t))
    monkeypatch.undo()
    assert built == []
    assert rebuilt == hull
    assert all(type(x) is int for w in facets for x in w)
    assert verdicts == (True, False)
    assert all(type(x) is int for p in made for row in p.points for x in row)


def test_minimal_vertices_drop_redundant_points():
    tri = RationalPolyhedron.of(
        2, [(0, 0), (2, 0), (0, 2), (1, 0), (Fraction(1, 2), Fraction(1, 2))]
    )
    assert tri.vertices == ((0, 0), (0, 2), (2, 0))
    # (1, 1) lies on the edge from (2, 0) to (0, 2)
    edge = RationalPolyhedron.of(2, [(0, 0), (2, 0), (0, 2), (1, 1)])
    assert edge.vertices == ((0, 0), (0, 2), (2, 0))
    # a line has no vertex: the first point on it is kept, and it tells the
    # line apart from a parallel one
    line = RationalPolyhedron.of(2, [(2, 1), (1, 1)], rays=[(1, 0), (-1, 0)])
    assert line.vertices == ((1, 1),)
    assert line != RationalPolyhedron.of(2, [(1, 2)], rays=[(1, 0), (-1, 0)])
    # a strip: its two boundary lines are its minimal faces
    strip = RationalPolyhedron.of(
        2, [(0, 0), (3, 1), (1, 0), (0, 1), (5, Fraction(1, 2))], rays=[(1, 0), (-1, 0)]
    )
    assert strip.vertices == ((0, 0), (0, 1))


def test_polyhedron_dict_is_unchanged_by_a_clip():
    # the facets are there from construction, so using them changes nothing
    poly = RationalPolyhedron.of(3, [(1, 0, 0), (0, 2, 0), (0, 0, 1), (1, 1, 1)])
    before = polyhedron_to_dict(poly)
    assert clipped_volume(poly, 3) > 0
    assert polyhedron_to_dict(poly) == before
    assert len(before["facets"]) == 4


def test_newton_polyhedron_of_quadruple():
    st_ = MonomialStaircase.from_generators(3, QUAD)
    delta = newton_polyhedron(st_)
    # (1,1,0) lies on the segment (2,0,0)-(0,2,0), so only three vertices
    assert set(delta.vertices) == {
        (Fraction(2), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(2), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(1)),
    }
    assert len(delta.directions) == 3
    assert polyhedron_contains(delta, (5, 5, 5))
    assert not polyhedron_contains(delta, (0, 0, 0))


def test_newton_polyhedron_rejects_zero_ideal():
    with pytest.raises(ValueError):
        newton_polyhedron(MonomialStaircase.from_generators(2, []))


def test_scale():
    st_ = MonomialStaircase.from_generators(2, [(2, 0), (0, 2)])
    delta = newton_polyhedron(st_)
    half = scale(delta, Fraction(1, 2))
    assert set(half.vertices) == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}
    assert half.directions == delta.directions
    with pytest.raises(ValueError):
        scale(delta, 0)


def test_convex_union_approximant():
    a = newton_polyhedron(MonomialStaircase.from_generators(2, [(2, 0), (0, 1)]))
    b = newton_polyhedron(MonomialStaircase.from_generators(2, [(1, 0), (0, 2)]))
    hull = convex_union_approximant([a, b])
    for p in (a, b):
        for v in p.vertices:
            assert polyhedron_contains(hull, v)
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
    assert clip_to_simplex(shifted, 3) is None
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
# halved, every vertex has the denominator 2, so a simplex's prod d is
# 2^(dim + 1) and the common denominator must hold it
@example(RationalPolyhedron.of(2, [(1, 1), (3, 1), (1, 3)]))
@settings(max_examples=50, deadline=None)
def test_volume_invariances(poly):
    v = volume(poly)
    assert v >= 0
    assert volume(poly, apex_last=True) == v
    if v > 0:
        assert_simplices_nondegenerate(poly.points, poly.dim, False)
        assert_simplices_nondegenerate(poly.points, poly.dim, True)
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
    # scaling by 2 multiplies volume by 2^dim, and by 1/2 divides it
    if v > 0:
        assert volume(scale(poly, 2)) == v * 2**poly.dim
        assert volume(scale(poly, Fraction(1, 2))) == v / 2**poly.dim


def test_volume_matches_lattice_count_estimate():
    # sanity anchor: the triangle (0,0),(4,0),(0,4) has volume 8
    tri = RationalPolyhedron.of(2, [(0, 0), (4, 0), (0, 4)])
    assert volume(tri) == 8


def test_json_round_trip():
    st_ = MonomialStaircase.from_generators(3, QUAD)
    delta = newton_polyhedron(st_)
    again = polyhedron_from_dict(polyhedron_to_dict(delta))
    assert again.vertices == delta.vertices and again.directions == delta.directions


def test_dimension_cap():
    with pytest.raises(ValueError):
        RationalPolyhedron.of(7, [tuple([0] * 7)])
