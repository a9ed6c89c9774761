import random
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    Ideal,
    Poly,
    contains,
    count_fractions,
    differential_membership_check,
    evaluate,
    groebner_basis,
    hf_via_rank,
    ideal_contains,
    ideal_of,
    ideals_equal,
    initial_ideal,
    monomial,
    packed,
    parse_polynomial,
    partial,
    symbolic_ideal,
    total_degree,
)

from limshape import linalg
from limshape.configs import (
    Config,
    DegenerateConfigError,
    components_disjoint,
    config_from_dict,
    config_from_json,
    config_to_dict,
    configs_disjoint,
    coordinate_position,
    symbolic_power,
)


def P(text, n):
    return parse_polynomial(text, n)


def all_monomials(nvars, d):
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def test_point_ideal_coordinate_point():
    ideal = symbolic_ideal(Config.of(3, [(1, 0, 0, 0)]), 1)
    gb = groebner_basis(ideal)
    assert sorted(gb.leading_monomials()) == [
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
    ]
    # every generator vanishes at the point
    for g in ideal.generators:
        assert evaluate(g, (1, 0, 0, 0)) == 0


def test_point_ideal_general_point():
    pt = (1, 2, 3)
    ideal = symbolic_ideal(Config.of(2, [pt]), 1)
    for g in ideal.generators:
        assert evaluate(g, pt) == 0
        assert total_degree(g) == 1
    assert len(ideal.generators) == 2


def test_point_config_validation():
    with pytest.raises(DegenerateConfigError):
        Config.of(2, [(1, 0, 0), (2, 0, 0)])  # same projective point
    with pytest.raises(DegenerateConfigError):
        Config.of(2, [(0, 0, 0)])
    with pytest.raises(DegenerateConfigError):
        Config.of(2, [(1, 0)])


def test_flat_config_validation():
    with pytest.raises(DegenerateConfigError):
        Config.of(3, flats=[[(1, 0, 0, 0), (2, 0, 0, 0)]])  # dependent forms
    cfg = Config.of(3, flats=[[(1, 0, 0, 0), (0, 1, 0, 0)]])
    assert [cfg.n - len(forms) for forms in cfg.forms] == [1]
    # no forms cut out all of P^3, and the 4 unit forms the empty set
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    for forms in ([], units):
        with pytest.raises(DegenerateConfigError, match="needs 1 to 3 forms"):
            Config.of(3, flats=[forms])


def test_config_needs_positive_dimension():
    for data in (
        {"n": 0, "components": [{"type": "point", "coords": [1]}]},
        {"n": 0, "components": [{"type": "flat", "forms": [[1]]}]},
        {"n": -1, "components": [{"type": "point", "coords": []}]},
        # the seeded draws would never find two distinct points in P^0
        {"n": 0, "generic": {"r": 0, "s": 2, "seed": 1}},
    ):
        with pytest.raises(DegenerateConfigError, match="n >= 1"):
            config_from_dict(data)


def test_flat_config_rejects_repeated_and_nested_flats():
    line = [(1, 0, 0, 0), (0, 1, 0, 0)]
    same_line = [(1, 1, 0, 0), (1, -1, 0, 0)]
    point_on_line = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    for flats in ([line, same_line], [line, point_on_line], [point_on_line, line]):
        with pytest.raises(DegenerateConfigError):
            Config.of(3, flats=flats)


def test_config_rejects_point_on_flat():
    with pytest.raises(DegenerateConfigError, match="point 0 lies on flat 0"):
        config_from_dict({"n": 3, "components": [
            {"type": "point", "coords": [1, 0, 0, 0]},
            {"type": "flat", "forms": [[0, 1, 0, 0], [0, 0, 1, 0]]},
        ]})
    off_line = config_from_dict({"n": 3, "components": [
        {"type": "point", "coords": [1, 1, 1, 1]},
        {"type": "flat", "forms": [[0, 1, 0, 0], [0, 0, 1, 0]]},
    ]})
    assert len(off_line.components) == 2
    # the same check holds for a configuration built directly
    line = [(0, 1, 0, 0), (0, 0, 1, 0)]
    with pytest.raises(DegenerateConfigError, match="point 0 lies on flat 0"):
        Config.of(3, [(1, 0, 0, 0)], [line])
    assert Config.of(3, [(1, 1, 1, 1)], [line]) == off_line
    # the flat may come first; indices count points and flats apart
    with pytest.raises(DegenerateConfigError, match="point 1 lies on flat 0"):
        config_from_dict({"n": 3, "components": [
            {"type": "flat", "forms": line},
            {"type": "point", "coords": [1, 1, 1, 1]},
            {"type": "point", "coords": [1, 0, 0, 0]},
        ]})


DEGENERATE_CONFIGS = [
    (3, [(1, 0, 0, 0)], [[(0, 1, 0, 0), (0, 0, 1, 0)]], "point 0 lies on flat 0"),
    (2, [(1, 0, 0), (2, 0, 0)], [], "points 0 and 1 coincide"),
    (2, [(0, 0, 0)], [], "zero coordinate tuple"),
    (2, [(1, 0)], [], "point coordinate length"),
    (3, [], [[(1, 0, 0, 0), (2, 0, 0, 0)]], "dependent defining forms"),
    (3, [], [[(1, 0, 0, 0)], [(1, 0, 0, 0), (0, 1, 0, 0)]], "flats 0 and 1"),
    (3, [], [[]], "needs 1 to 3 forms"),
    (3, [], [[(1, 0, 0)]], "form length"),
    (0, [(1,)], [], "n >= 1"),
    # a zero point comes before a point on a flat, and a repeat before both
    (3, [(1, 0, 0, 0), (0, 0, 0, 0)], [[(0, 1, 0, 0)]], "zero coordinate"),
    (3, [(1, 0, 0, 0), (2, 0, 0, 0)], [[(0, 1, 0, 0)]], "points 0 and 1"),
]


@pytest.mark.parametrize("n, points, flats, message", DEGENERATE_CONFIGS)
def test_config_built_directly_runs_the_checks(n, points, flats, message):
    # a Config made without Config.of is refused with Config.of's message,
    # not passed on to fail later as a configuration with no closed form
    with pytest.raises(DegenerateConfigError) as normalized:
        Config.of(n, points, flats)
    points = tuple(map(tuple, points))
    flats = tuple(tuple(map(tuple, forms)) for forms in flats)
    with pytest.raises(DegenerateConfigError) as direct:
        Config(n, points, flats)
    assert str(direct.value) == str(normalized.value)
    assert message in str(direct.value)


def test_union_rejects_repeated_and_nested_components():
    pt = (1, 2, 3, 4)
    with pytest.raises(DegenerateConfigError, match="points 0 and 1 coincide"):
        Config.of(3, [pt, (2, 4, 6, 8)])
    line = [(1, 0, 0, 0), (0, 1, 0, 0)]
    same_line = [(1, 1, 0, 0), (1, -1, 0, 0)]
    plane = [(1, 0, 0, 0)]
    for flats in ([line, same_line], [line, plane], [plane, line]):
        with pytest.raises(DegenerateConfigError, match="flats 0 and 1 coincide"):
            Config.of(3, flats=flats)
    # distinct points, and two lines meeting in a point, are kept
    other = (1, 2, 3, 5)
    assert len(Config.of(3, [pt, other]).components) == 2
    crossing = [(1, 0, 0, 0), (0, 0, 1, 0)]
    assert len(Config.of(3, flats=[line, crossing]).components) == 2
    # a point of P^2 is not a point of P^3
    with pytest.raises(DegenerateConfigError, match="length != n\\+1"):
        Config.of(3, [pt, (1, 0, 0)])


def test_two_intersecting_lines_radical():
    # V(x1,x2) union V(x1,x3): ideal is (x1, x2*x3)
    cfg = Config.of(3, flats=[
        [(1, 0, 0, 0), (0, 1, 0, 0)],
        [(1, 0, 0, 0), (0, 0, 1, 0)],
    ])
    assert not components_disjoint(cfg)
    ideal = symbolic_ideal(cfg, 1)
    expected = Ideal.of([P("x1", 4), P("x2*x3", 4)])
    assert ideals_equal(ideal, expected)


def test_disjoint_lines_detection():
    cfg = Config.generic(3, 1, 2, seed=2)
    assert components_disjoint(cfg)
    for forms in cfg.flats:
        assert len(forms) == 2


def test_symbolic_power_single_point_is_ordinary_power():
    cfg = Config.of(2, [(0, 0, 1)])
    square = symbolic_ideal(cfg, 2)
    expected = Ideal.of([P("x1", 3), P("x2", 3)]).power(2)
    assert ideals_equal(square, expected)
    assert ideal_contains(groebner_basis(symbolic_ideal(cfg, 1)), square)


@pytest.mark.parametrize("config", [
    Config.of(3, [(1, 2, -3, 5)]),
    Config.of(3, flats=[[(2, -1, 4, 7), (3, 5, -2, 1)]]),
    Config.of(2, [(1, 0, 0), (0, 1, 0), (1, 1, 1)]),
], ids=["point", "line", "points"])
def test_symbolic_power_leads_generate_the_initial_ideal(config):
    # the leads give the Hilbert series buchberger stops on, in any
    # coordinates: the forms of (1, 2, -3, 5)'s kernel all lead with x1
    # until they are put in echelon form; each generator, a component's
    # power or an intersection's, is primitive with a positive leading
    # coefficient
    for m in (1, 2, 3):
        sp = symbolic_power(config, m)
        ideal = ideal_of(sp.generators, sp.nvars)
        assert sp.leads == initial_ideal(groebner_basis(ideal)), m
        assert packed(ideal) == list(sp.generators), m


def test_symbolic_power_two_points_hilbert_function():
    cfg = Config.of(2, [(1, 0, 0), (0, 1, 0)])
    ideal = symbolic_ideal(cfg, 1)
    # two points in P^2: HF is 1, 2, 2, 2, ...
    assert [hf_via_rank(ideal, d) for d in range(4)] == [1, 2, 2, 2]
    square = symbolic_ideal(cfg, 2)
    # two double points: scheme degree 6, but degree-2 forms only impose 5
    # conditions (the doubled line through the points)
    assert [hf_via_rank(square, d) for d in range(6)] == [1, 3, 5, 6, 6, 6]
    assert ideal_contains(groebner_basis(ideal), square)


def test_symbolic_power_semigroup_containment():
    cfg = Config.of(2, [(1, 0, 0), (0, 1, 0), (1, 1, 1)])
    powers = {m: symbolic_ideal(cfg, m) for m in (1, 2, 3)}
    gbs = {m: groebner_basis(i) for m, i in powers.items()}
    for p, q in [(1, 1), (1, 2)]:
        prod = Ideal.of(
            [a * b for a in powers[p].generators for b in powers[q].generators]
        )
        assert ideal_contains(gbs[p + q], prod)


def _random_member_of_symbolic_square(cfg, degree, rng):
    """Random homogeneous polynomial of the given degree in I^(2) of a point
    set, built by solving the vanishing conditions exactly."""
    nvars = cfg.n + 1
    monos = all_monomials(nvars, degree)
    rows = []
    for pt in cfg.points:
        for i in range(nvars + 1):
            # order <= 1 partials: i == 0 is the function itself
            row = []
            for alpha in monos:
                mono = monomial(alpha)
                g = mono if i == 0 else partial(mono, i)
                row.append(evaluate(g, pt) if not g.is_zero() else Fraction(0))
            rows.append(row)
    kernel = linalg.nullspace(rows)
    coeffs = [Fraction(0)] * len(monos)
    for v in kernel:
        c = Fraction(rng.randint(-5, 5))
        coeffs = [a + c * b for a, b in zip(coeffs, v)]
    return Poly(nvars, dict(zip(monos, coeffs)))


def test_differential_oracle_agrees_with_groebner():
    cfg = Config.generic(2, 0, 3, seed=4)
    gb = groebner_basis(symbolic_ideal(cfg, 2))
    rng = random.Random(9)
    checked = 0
    for degree in (3, 4, 5):
        for _ in range(50):
            f = _random_member_of_symbolic_square(cfg, degree, rng)
            if f.is_zero():
                continue
            assert differential_membership_check(f, cfg, 2)
            assert contains(gb, f)
            checked += 1
        # a random non-member: a monomial basis element is generically outside
        probe = monomial(tuple([degree] + [0] * cfg.n))
        assert differential_membership_check(probe, cfg, 2) == contains(gb, probe)
    assert checked >= 100


def test_differential_check_basics():
    cfg = Config.of(2, [(1, 0, 0)])
    # x2 vanishes at the point but its derivative does not: in I^(1), not I^(2)
    assert differential_membership_check(P("x2", 3), cfg, 1)
    assert not differential_membership_check(P("x2", 3), cfg, 2)
    assert differential_membership_check(P("x2^2", 3), cfg, 2)
    with pytest.raises(TypeError):
        differential_membership_check(
            P("x1", 4), Config.of(3, flats=[[(1, 0, 0, 0), (0, 1, 0, 0)]]), 1
        )


def test_configs_disjoint():
    a = Config.of(2, [(1, 0, 0)])
    b = Config.of(2, [(0, 1, 0)])
    assert configs_disjoint(a, b)
    assert not configs_disjoint(a, Config.of(2, [(1, 0, 0), (0, 0, 1)]))
    lines = Config.of(3, flats=[
        [(1, 0, 0, 0), (0, 1, 0, 0)],
        [(1, 0, 0, 0), (0, 0, 1, 0)],
    ])
    pt = Config.of(3, [(1, 1, 1, 1)])
    assert configs_disjoint(lines, pt)
    assert not configs_disjoint(lines, Config.of(3, [(0, 0, 0, 1)]))


def test_config_json_round_trip():
    cfg = Config.of(2, [(1, 0, 0), (0, 1, Fraction(1, 2))])
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    flats = Config.of(3, flats=[[(1, 0, 0, 0), (0, 1, 0, 0)]])
    assert config_from_dict(config_to_dict(flats)) == flats
    mixed = Config.of(3, [(1, 1, 1, 1)], flats.flats)
    round_tripped = config_from_dict(config_to_dict(mixed))
    assert round_tripped.components == mixed.components


def test_config_generic_form():
    cfg = config_from_json('{"n": 3, "generic": {"r": 1, "s": 2, "seed": 2}}')
    assert not cfg.points and len(cfg.flats) == 2
    pts = config_from_json('{"n": 2, "generic": {"r": 0, "s": 3, "seed": 1}}')
    assert not pts.flats and len(pts.points) == 3


def test_generic_draws_are_pinned():
    # the first draws of seed 3 in P^3: one point each for r = 0, else the
    # n - r forms of one flat
    first = ((-40, 51, 39, -67), (-6, 54, 21, 60),
             (48, -84, 55, -97), (20, -34, 41, -41))
    assert Config.generic(3, 0, 4, seed=3).points == first
    assert Config.generic(3, 1, 2, seed=3).flats == (first[:2], first[2:])


def test_config_json_rejects_garbage():
    with pytest.raises(DegenerateConfigError):
        config_from_json('{"n": 2, "components": []}')
    with pytest.raises(DegenerateConfigError):
        config_from_json('{"n": 2, "components": [{"type": "blob"}]}')


# -- coordinate position -------------------------------------------------


def _is_monomial(p):
    return len(p.terms) == 1 and set(p.terms.values()) == {1}


@pytest.mark.parametrize("config", [
    Config.generic(3, 1, 2, seed=3),
    Config.generic(3, 0, 4, seed=3),
    Config.generic(2, 0, 3, seed=8),
    # two lines through (1,0,0,0), cut out by forms that are not variables
    Config.of(3, flats=[
        [(0, 2, -1, 3), (0, 1, 4, -2)],
        [(0, 2, -1, 3), (0, -3, 1, 1)],
    ]),
], ids=["two-skew-lines", "n+1-points-P3", "n+1-points-P2", "intersecting-lines"])
def test_coordinate_position_gives_monomial_ideals(config):
    moved, _ = coordinate_position(config)
    for forms in moved.forms:
        gens = [Poly.linear_form(f) for f in forms]
        assert all(_is_monomial(g) and total_degree(g) == 1 for g in gens)
    assert all(_is_monomial(g) for g in symbolic_ideal(moved, 1).generators)
    # the unmoved configuration has no such generators
    assert not all(_is_monomial(g) for g in symbolic_ideal(config, 1).generators)


def test_inverse_is_the_inverse():
    # inverse(mat) is d mat^-1 in ints for the least d > 0
    rng = random.Random(5)
    for n in (1, 2, 4):
        mat = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
               for _ in range(n)]
        if linalg.rank(mat) < n:
            continue
        inv = linalg.inverse(mat)
        assert all(type(x) is int for row in inv for x in row)
        product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*mat)]
                   for row in inv]
        d = product[0][0]
        assert d > 0 and d == int(d)
        assert product == [[d * int(i == j) for j in range(n)] for i in range(n)]
        assert gcd(int(d), *(x for row in inv for x in row)) == 1
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse([[1, 2], [2, 4]])


def test_coordinate_position_puts_next_point_on_the_frame():
    cfg = Config.generic(3, 0, 6, seed=3)
    moved, _ = coordinate_position(cfg)
    units = [tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)]
    assert list(moved.points[:4]) == units
    assert moved.points[4] == (1, 1, 1, 1)
    assert len(set(moved.points)) == 6
    # a point with a zero coordinate in the basis is passed over for the frame
    skew = Config.of(2, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 2, 3)])
    assert coordinate_position(skew)[0].points[3:] == ((2, 1, 0), (1, 1, 1))
    union = config_from_dict({"n": 3, "components": [
        {"type": "point", "coords": [1, 2, 3, 4]},
        {"type": "flat", "forms": [[1, 0, 0, 0], [0, 1, 0, 0]]},
    ]})
    # the point is a basis vector, so no point lies outside the basis
    assert coordinate_position(union)[0].components[0] == ("point", tuple(units[0]))


@pytest.mark.parametrize("config", [Config.generic(3, 0, 5, seed=3),
                                    Config.generic(2, 0, 6, seed=3)])
def test_coordinate_position_returns_the_least_multiple(config):
    # the frame step scales the rows of d B^-1; the returned multiple is
    # the least, so its entries have no common factor
    moved, back = coordinate_position(config)
    assert reduce(gcd, [x for row in back for x in row]) == 1
    # still a multiple of B^-1: it maps each given point to a multiple of
    # the moved one
    for p, q in zip(config.points, moved.points):
        image = [sum(a * b for a, b in zip(row, p)) for row in back]
        assert linalg.rank([list(q), image]) == 1


def test_configuration_stage_builds_no_fraction(monkeypatch):
    # the rational rows are cleared once, and every echelon form, kernel
    # and inverse after that is computed and returned on ints
    configs = [
        Config.generic(3, 1, 2, seed=3),
        Config.generic(3, 0, 5, seed=3),
        Config.of(3, [(1, 1, 1, 1)], [
            [(1, Fraction(1, 2), 0, 0), (0, 1, 0, 0)],
            [(1, 0, 0, 0), (0, 0, 1, 0)],
        ]),
    ]
    built = count_fractions(monkeypatch)
    results = []
    for config in configs:
        moved, back = coordinate_position(config)
        results.append((config.forms, moved.forms, moved.points, back))
    monkeypatch.undo()
    assert built == []
    for forms, moved_forms, points, back in results:
        rows = [f for fs in forms + moved_forms for f in fs] + list(points) + list(back)
        assert all(type(x) is int for row in rows for x in row)


_coords = st.lists(st.integers(-3, 3), min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    points=st.lists(_coords, max_size=3),
    flats=st.lists(st.lists(_coords, min_size=1, max_size=3), max_size=3),
)
def test_coordinate_position_keeps_incidences(points, flats):
    comps = [{"type": "point", "coords": p} for p in points]
    comps += [{"type": "flat", "forms": f} for f in flats]
    try:
        config = config_from_dict({"n": 3, "components": comps})
    except DegenerateConfigError:
        assume(False)
    moved, back = coordinate_position(config)
    assert type(moved) is type(config)
    assert len(moved.components) == len(config.components)
    before = [[list(f) for f in forms] for forms in config.forms]
    after = [[list(f) for f in forms] for forms in moved.forms]
    for a, b in zip(before, after):
        assert len(a) == len(b) and linalg.rank(b) == len(b)
        # a form c on the moved component is the form c B^-1 on the given one
        returned = [[sum(c[i] * back[i][j] for i in range(4)) for j in range(4)]
                    for c in b]
        assert linalg.rank(a + returned) == len(a)
    for i in range(len(before)):
        for j in range(i + 1, len(before)):
            rank = linalg.rank(before[i] + before[j])
            assert rank == linalg.rank(after[i] + after[j])
    assert Config.of(3, moved.points, moved.flats) == moved
