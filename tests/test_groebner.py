import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    GroebnerBasis,
    Ideal,
    Poly,
    contains,
    exp_div,
    exp_lcm,
    gin_draws_over_q,
    groebner_basis,
    hf_via_initial,
    hf_via_rank,
    ideal_contains,
    ideal_of,
    ideals_equal,
    initial_ideal,
    leading_monomial,
    monomial,
    normal_form,
    oracle_target,
    pack_generators,
    packed,
    parse_polynomial,
    tuple_degrevlex,
    tuple_elimination_order,
    unpack_pairs,
)
from test_asymptotics import MOVE_ORACLE_CASES
from test_rings import expand_substitute

from limshape import asymptotics, groebner, linalg, rings
from limshape.configs import Config, coordinate_position, symbolic_power
from limshape.groebner import (
    DEGREVLEX,
    ComputationLimitError,
    GenericityError,
    HilbertSeriesError,
    derive_seed,
    gin,
    intersect_ideals,
    regularity_surrogate,
)
from limshape.rings import (
    divides,
    elimination_order,
    guard_bits,
    packed_terms,
    unit_keys,
    unpack,
)
from limshape.staircase import k_polynomial


def P(text, n):
    return parse_polynomial(text, n)


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """intersect_ideals on the packed generators of two Ideals."""
    n = a.nvars
    return ideal_of(intersect_ideals(packed(a), packed(b), n), n)


def gin_of(ideal: Ideal, seed, entry_bound, target):
    """gin on the packed generators of an Ideal."""
    return gin(packed(ideal), ideal.nvars, seed, entry_bound, target)


def s_polynomial(f, g, order):
    lf, lg = leading_monomial(f, order), leading_monomial(g, order)
    l = exp_lcm(lf, lg)
    mf = monomial(exp_div(l, lf), 1 / f.terms[lf])
    mg = monomial(exp_div(l, lg), 1 / g.terms[lg])
    return mf * f - mg * g


def assert_is_groebner(gb: GroebnerBasis):
    """Buchberger criterion: every S-polynomial reduces to zero."""
    basis = gb.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j], gb.order)
            assert normal_form(s, basis, gb.order).is_zero()


def all_monomials(nvars, d):
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def test_groebner_of_linear_ideal():
    gb = groebner_basis(Ideal.of([P("x1", 2), P("x2", 2)]))
    assert_is_groebner(gb)
    assert sorted(gb.leading_monomials()) == [(0, 1), (1, 0)]


def test_groebner_collapses_dependent_generators():
    gb = groebner_basis(Ideal.of([P("x1^2 - x2^2", 2), P("x1 + x2", 2)]))
    assert_is_groebner(gb)
    # the reduced basis is just the linear form
    assert gb.basis == (P("x1 + x2", 2),)
    assert contains(gb, P("x1^2 - x2^2", 2))
    assert contains(gb, P("x1^3 + x2^3", 2) - P("3*x1*x2^2 + 3*x1^2*x2", 2) * 0)
    assert not contains(gb, P("x1 - x2", 2))


def test_membership_oracle_products():
    gens = [P("x1*x2 - x3^2", 3), P("x1^2 - x2*x3", 3)]
    ideal = Ideal.of(gens)
    gb = groebner_basis(ideal)
    assert_is_groebner(gb)
    mult = [P("x3", 3), P("x1 - 2*x2", 3), P("x1*x3 + x2^2", 3)]
    combo = gens[0] * mult[0] + gens[1] * mult[1] + gens[0] * mult[2]
    assert contains(gb, combo)
    assert not contains(gb, P("x1", 3))


def test_intersection_simple():
    a = Ideal.of([P("x1", 2)])
    b = Ideal.of([P("x2", 2)])
    inter = intersect(a, b)
    assert ideals_equal(inter, Ideal.of([P("x1*x2", 2)]))


def test_intersection_monomial_vs_bruteforce():
    # (x1, x2)^2 and (x1, x3)^2 in 4 variables
    a = Ideal.of([P("x1", 4), P("x2", 4)]).power(2)
    b = Ideal.of([P("x1", 4), P("x3", 4)]).power(2)
    inter = intersect(a, b)
    gb = groebner_basis(inter)
    assert_is_groebner(gb)

    def in_monomial(alpha, gens):
        return any(divides(g, alpha) for g in gens)

    ga = [(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)]
    gbm = [(2, 0, 0, 0), (1, 0, 1, 0), (0, 0, 2, 0)]
    for d in range(0, 5):
        for alpha in all_monomials(4, d):
            expect = in_monomial(alpha, ga) and in_monomial(alpha, gbm)
            got = contains(gb, monomial(alpha))
            assert got == expect, alpha


def test_intersection_idempotent():
    a = Ideal.of([P("x1^2 - x2*x3", 3), P("x2^2", 3)])
    assert ideals_equal(intersect(a, a), a)


def test_ideal_power():
    sq = Ideal.of([P("x1", 2), P("x2", 2)]).power(2)
    gb = groebner_basis(sq)
    assert sorted(gb.leading_monomials()) == [(0, 2), (1, 1), (2, 0)]


def test_initial_ideal_minimal_generators():
    gb = groebner_basis(Ideal.of([P("x1^2 - x2^2", 2), P("x1 + x2", 2)]))
    assert initial_ideal(gb) == ((1, 0),)


def test_gin_of_coordinate_point():
    # saturated ideal of a point in P^2: gin is (x1, x2)
    ideal = Ideal.of([P("x2", 3), P("x3", 3)])
    g = gin_of(ideal, 11, 100, oracle_target(ideal))
    assert g.staircase.min_gens == ((0, 1), (1, 0))
    assert g.raw_initial == ((0, 1, 0), (1, 0, 0))


def test_gin_fixes_borel_ideal():
    # strongly stable monomial ideal in 3 variables: gin reproduces it
    ideal = Ideal.of([P("x1^2", 3), P("x1*x2", 3), P("x2^3", 3)])
    g = gin_of(ideal, 5, 100, oracle_target(ideal))
    assert set(g.raw_initial) == {(2, 0, 0), (1, 1, 0), (0, 3, 0)}
    assert regularity_surrogate(g) == 3


def test_gin_deterministic_and_seed_independent():
    ideal = Ideal.of([P("x2", 3), P("x3", 3)]).power(2)
    target = oracle_target(ideal)
    g1 = gin_of(ideal, 1, 100, target)
    g2 = gin_of(ideal, 1, 100, target)
    g3 = gin_of(ideal, 99, 100, target)
    assert g1.staircase == g2.staircase == g3.staircase
    assert g1.coordinate_matrix == g2.coordinate_matrix
    assert g1.coordinate_matrix != g3.coordinate_matrix


def test_gin_rejects_unsaturated_input():
    # each ideal is not saturated: the full draws over Q have a lead in the
    # last variable, and in the section draws it is a zero divisor, so the
    # section's series exceeds the target
    unsaturated = [
        Ideal.of([P("x1", 2), P("x2", 2)]).power(2),
        Ideal.of([P("x1^2", 3), P("x1*x2", 3), P("x1*x3", 3)]),
        Ideal.of([P("x1^2", 3), P("x1*x2", 3), P("x2^2", 3), P("x1*x3^2", 3)]),
    ]
    for ideal in unsaturated:
        target = oracle_target(ideal)
        full = gin_draws_over_q(ideal, 3, 100, target)
        assert any(lead[-1] for raw in full for lead in raw)
        with pytest.raises(GenericityError, match="not saturated"):
            gin_of(ideal, 3, 100, target)


def test_section_draw_agrees_with_the_full_draw_on_a_saturated_ideal():
    ideal = Ideal.of([P("x1", 3), P("x2", 3)])
    target = oracle_target(ideal)
    full = gin_draws_over_q(ideal, 3, 100, target)
    assert full == [gin_of(ideal, 3, 100, target).raw_initial] * 2


def test_gin_entry_bound_validation():
    ideal = Ideal.of([P("x2", 3), P("x3", 3)])
    with pytest.raises(ValueError):
        gin_of(ideal, 1, 2, oracle_target(ideal))


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "gin", 0) == derive_seed(7, "gin", 0)
    assert derive_seed(7, "gin", 0) != derive_seed(7, "gin", 1)
    assert derive_seed(7, "gin", 0) != derive_seed(8, "gin", 0)


def test_hf_two_routes_agree():
    ideals = [
        Ideal.of([P("x1^2 - x2*x3", 3), P("x1*x2", 3)]),
        Ideal.of([P("x2", 3), P("x3", 3)]).power(2),
        Ideal.of([P("x1*x2 - x3^2", 3)]),
    ]
    for ideal in ideals:
        gb = groebner_basis(ideal)
        for d in range(0, 6):
            assert hf_via_initial(gb, d) == hf_via_rank(ideal, d)


def test_hf_known_values():
    # one point in P^2: HF of the point ideal is 1 in every degree >= 0...
    gb = groebner_basis(Ideal.of([P("x2", 3), P("x3", 3)]))
    assert [hf_via_initial(gb, d) for d in range(4)] == [1, 1, 1, 1]
    # ...and its square has HF 1, 3, 3, 3 (double point)
    gb2 = groebner_basis(Ideal.of([P("x2", 3), P("x3", 3)]).power(2))
    assert [hf_via_initial(gb2, d) for d in range(4)] == [1, 3, 3, 3]


def test_ideal_contains():
    big = groebner_basis(Ideal.of([P("x1", 2), P("x2", 2)]))
    assert ideal_contains(big, Ideal.of([P("x1^2 + x2^2", 2)]))
    assert not ideal_contains(big, Ideal.of([Poly.constant(2, 1)]))


def test_returned_bases_satisfy_buchberger_criterion():
    samples = [
        Ideal.of([P("x1^3 - x2^2*x3", 3), P("x1*x3 - x2^2", 3)]),
        Ideal.of([P("x1 + x2 + x3", 3), P("x1*x2 + x2*x3 + x1*x3", 3)]),
        Ideal.of([P("x1^2 + x2^2 - x3^2", 3), P("x1*x2 - x3^2", 3),
                  P("x2^3", 3)]),
    ]
    for ideal in samples:
        gb = groebner_basis(ideal)
        assert_is_groebner(gb)
        for g in ideal.generators:
            assert contains(gb, g)


def test_basis_is_reduced_and_monic():
    gb = groebner_basis(
        Ideal.of([P("2*x1^2 - 2*x2*x3", 3), P("3*x1*x2 - 3*x3^2", 3)])
    )
    leads = gb.leading_monomials()
    for i, g in enumerate(gb.basis):
        assert g.terms[leads[i]] == 1
        for alpha in g.terms:
            for j, lm in enumerate(leads):
                if j != i:
                    assert not divides(lm, alpha)


# two fixed disjoint lines in P^3 and three fixed points of P^3
TWO_LINES = Config.of(3, flats=[[(1, 2, -1, 3), (2, -1, 1, -1)],
                                [(3, 1, 2, -2), (-1, 4, 1, 2)]])
THREE_POINTS = Config.of(3, [(1, 2, -1, 3), (2, -1, 1, -1), (3, 1, 2, -2)])
INTERSECTING_LINES = Config.of(3, flats=[[(1, 0, 0, 0), (0, 1, 0, 0)],
                                         [(1, 0, 0, 0), (0, 0, 1, 0)]])


@pytest.mark.parametrize("config", [TWO_LINES, THREE_POINTS], ids=["lines", "points"])
@pytest.mark.parametrize("m", [1, 2])
def test_gin_matches_term_by_term_substitution(config, m):
    # the shared monomial-image table against expanding every term on its
    # own, under the coordinate matrix of gin's first draw
    sp = symbolic_power(config, m)
    ideal = ideal_of(sp.generators, sp.nvars)
    g = gin(sp.generators, sp.nvars, 5, 100, sp.hilbert_numerator)
    moved = Ideal.of(expand_substitute(p, g.coordinate_matrix)
                     for p in ideal.generators)
    assert g.raw_initial == initial_ideal(groebner_basis(moved))


# S-pairs one Buchberger run takes for I^(2) of TWO_LINES (the elimination
# inside the intersection of the squares of the lines' ideals, each
# generated by its forms as given), counted with the linear scan the pair
# heap replaced; the heap must hand out the pairs in the same order
TWO_LINES_SQUARE_PAIRS = 561


def test_pair_order_is_pinned(monkeypatch):
    squares = [packed(Ideal.of(Poly.linear_form(f) for f in forms).power(2))
               for forms in TWO_LINES.flats]
    monkeypatch.setattr(groebner, "PAIR_CAP", TWO_LINES_SQUARE_PAIRS)
    intersect_ideals(*squares, 4)
    monkeypatch.setattr(groebner, "PAIR_CAP", TWO_LINES_SQUARE_PAIRS - 1)
    with pytest.raises(ComputationLimitError):
        intersect_ideals(*squares, 4)


# the remainders the same run computes: the S-pairs left by the coprime
# and chain criteria, then the tail reductions of the kept elements, as
# counted with exponent tuples and divisibility masks; a weaker criterion
# reduces more pairs
TWO_LINES_SQUARE_REDUCTIONS = 80


def test_criteria_keep_the_pinned_reductions(monkeypatch):
    squares = [packed(Ideal.of(Poly.linear_form(f) for f in forms).power(2))
               for forms in TWO_LINES.flats]
    calls = []
    reduce_terms = groebner._reduce_terms

    def counting(*args):
        calls.append(args)
        return reduce_terms(*args)

    monkeypatch.setattr(groebner, "_reduce_terms", counting)
    intersect_ideals(*squares, 4)
    assert len(calls) == TWO_LINES_SQUARE_REDUCTIONS


def test_gin_rejects_initial_ideal_that_is_not_borel_fixed(monkeypatch):
    # in the coordinates it is given in, I^(2) of the lines x1 = x2 = 0 and
    # x1 = x3 = 0 is the monomial ideal (x1^2, x1*x2*x3, x2^2*x3^2), which
    # does not hold x2^2*x3^2 * x2/x3; so the identity is not a generic draw
    identity = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    monkeypatch.setattr(groebner, "random_change_matrix",
                        lambda rng, n, bound: identity)
    sp = symbolic_power(INTERSECTING_LINES, 2)
    assert initial_ideal(groebner_basis(ideal_of(sp.generators, sp.nvars))) == (
        (0, 2, 2, 0), (1, 1, 1, 0), (2, 0, 0, 0)
    )
    with pytest.raises(GenericityError, match="Borel-fixed"):
        gin(sp.generators, sp.nvars, 1, 100, sp.hilbert_numerator)


def textbook_groebner(gens, order):
    """Reduced Groebner basis by the textbook algorithm: every S-pair, no
    criteria, then minimalize and reduce each element by the others; order
    may be a tuple key."""
    basis = list(gens)
    todo = [(i, j) for j in range(len(basis)) for i in range(j)]
    while todo:
        i, j = todo.pop(0)
        r = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if not r.is_zero():
            todo += [(k, len(basis)) for k in range(len(basis))]
            basis.append(r * (1 / r.terms[leading_monomial(r, order)]))
    leads = [leading_monomial(g, order) for g in basis]
    minimal = [
        g for i, g in enumerate(basis)
        if not any(j != i and divides(lj, leads[i]) and (lj != leads[i] or j < i)
                   for j, lj in enumerate(leads))
    ]
    reduced = []
    for i, g in enumerate(minimal):
        r = normal_form(g, minimal[:i] + minimal[i + 1:], order)
        reduced.append(r * (1 / r.terms[leading_monomial(r, order)]))
    return tuple(sorted(reduced, key=lambda g: order(leading_monomial(g, order))))


@st.composite
def small_homogeneous_ideals(draw):
    nvars = draw(st.integers(2, 3))
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        monos = all_monomials(nvars, draw(st.integers(1, 3)))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos),
                               max_size=len(monos)).filter(any))
        gens.append(Poly(nvars, dict(zip(monos, coeffs))))
    return Ideal.of(gens)


# each packed order with its tuple-key oracle
ORDERS = [
    (DEGREVLEX, tuple_degrevlex),
    (elimination_order(1), tuple_elimination_order(1)),
]


@settings(max_examples=100, deadline=None)
@given(small_homogeneous_ideals(), st.sampled_from(ORDERS))
def test_buchberger_matches_textbook_algorithm(ideal, orders):
    # the engine on packed monomials against the textbook algorithm on
    # exponent tuples under the tuple key of the same order
    order, oracle = orders
    n = ideal.nvars
    expect = textbook_groebner(ideal.generators, oracle)
    gens = pack_generators([g.terms for g in ideal.generators], order)
    pairs = groebner.buchberger(gens, n, order)
    # a minimal basis: monic pairs whose leads divide no other lead, and
    # those leads are the reduced basis's, in its order
    leads = [lead for lead, _ in pairs]
    assert leads == [leading_monomial(g, oracle) for g in expect]
    for i, (lead, terms) in enumerate(unpack_pairs(pairs, n)):
        assert max(terms, key=oracle) == lead and terms[lead] == 1
        assert not any(divides(lj, lead) for j, lj in enumerate(leads) if j != i)
    # tail-reducing the pairs gives the reduced basis
    reduced = groebner.reduce_tails(pairs)
    assert tuple(Poly(n, t) for t in reduced) == expect
    # the loop stopped at the Hilbert series of the ideal returns the same
    # pairs, so the same reduced basis
    target = k_polynomial(leads)
    stopped = groebner.buchberger(gens, n, order, target=target)
    assert stopped == pairs
    assert groebner.reduce_tails(stopped) == reduced
    # the engine reads a remainder's leading monomial off its first key;
    # its reducers are monic
    weights = unit_keys(order, n)
    monic = [g * (1 / g.terms[leading_monomial(g, order)]) for g in ideal.generators]
    reducers = [
        (order(leading_monomial(g, order)), packed_terms(g.terms, weights))
        for g in monic
    ]
    for i, (_, terms) in enumerate(reducers):
        others = reducers[:i] + reducers[i + 1:]
        rem = groebner._reduce_terms(terms, others, guard_bits(n))
        assert list(rem) == sorted(rem, reverse=True)


@pytest.mark.parametrize(
    "config", [TWO_LINES, THREE_POINTS, INTERSECTING_LINES],
    ids=["lines", "points", "intersecting"],
)
@pytest.mark.parametrize("m", [1, 2])
def test_intersection_is_already_the_reduced_basis(config, m):
    # intersect_ideals returns the u-free part of the reduced elimination
    # basis, each element cleared once, which must be the reduced degrevlex
    # basis in order, each element primitive with a positive leading
    # coefficient
    sp = symbolic_power(config, m)
    reduced = groebner_basis(ideal_of(sp.generators, sp.nvars)).basis
    assert packed(Ideal.of(reduced)) == list(sp.generators)


# the configurations of the acceptance suite, each drawn from its seed
LADDER = {
    "two-lines": Config.generic(3, 1, 2, 3),
    "intersecting": INTERSECTING_LINES,
    "points": Config.generic(2, 0, 2, 3),
    "point-p3": Config.of(3, [(1, 2, 3, 1)]),
}


@pytest.mark.parametrize("name", LADDER)
def test_stopped_loop_matches_full_loop_on_the_ladder(name):
    # the two runs given a target: a gin draw in coordinate position and the
    # move back that symbolic-power prints; the full loop is the oracle for
    # both
    moved, back = coordinate_position(LADDER[name])
    for m in (1, 2, 3):
        sp = symbolic_power(moved, m)
        rng = random.Random(derive_seed(3, "gin", 0))
        n = sp.nvars
        draw = groebner.random_change_matrix(rng, n, 100)
        for matrix in (draw, back):
            gens = rings.cleared_substitute(sp.generators, matrix)
            full = groebner.buchberger(gens, n)
            assert sp.hilbert_numerator == k_polynomial(lead for lead, _ in full)
            stopped = groebner.buchberger(gens, n, target=sp.hilbert_numerator)
            assert stopped == full, (name, m)
            reduced = groebner.reduce_tails(full)
            assert groebner.reduce_tails(stopped) == reduced


def test_target_saves_reductions(monkeypatch):
    # the stopped draws of the production entry point skip the zero
    # reductions after the last new lead; the same two draws without a
    # target run the full loop to the same leads
    calls = [0]
    reduce_terms = groebner._reduce_terms

    def counting(*args):
        calls[0] += 1
        return reduce_terms(*args)

    monkeypatch.setattr(groebner, "_reduce_terms", counting)
    moved, _ = coordinate_position(TWO_LINES)
    seed = derive_seed(3, "row", 2)
    sp = symbolic_power(moved, 2)
    full = [
        groebner._gin_once(
            sp.generators, sp.nvars, derive_seed(seed, "gin", k), 100, None, p
        )[1]
        for k, p in enumerate(groebner.GIN_PRIMES)
    ]
    full_calls, calls[0] = calls[0], 0
    stopped = asymptotics.gin_of_symbolic_power(TWO_LINES, 2, seed)
    assert full == [stopped.staircase.min_gens] * 2
    assert calls[0] < full_calls


def test_buchberger_keeps_the_first_of_equal_leads():
    # two inputs share the lead x1^2: the pair of the one given first stays
    # in the minimal basis, whichever order they come in
    f, g = P("x1^2 + x2^2", 2).terms, P("x1^2 + x1*x2", 2).terms
    for first, second in ((f, g), (g, f)):
        pairs = groebner.buchberger(pack_generators([first, second]), 2)
        assert [lead for lead, _ in pairs] == [(1, 1), (2, 0), (0, 3)]
        assert unpack_pairs(pairs, 2)[1] == ((2, 0), first)


def test_integer_input_is_computed_in_exact_fractions():
    # over Q the engine divides by leading coefficients; on int input the
    # quotients must be Fractions, not floats
    gens = [{(1, 0): 2, (0, 1): 3}, {(2, 0): 1, (0, 2): 5}]
    exact = [{a: Fraction(c) for a, c in g.items()} for g in gens]
    pairs = groebner.buchberger(pack_generators(gens), 2)
    assert all(type(c) is Fraction for _, f in pairs for c in f.values())
    assert pairs == groebner.buchberger(pack_generators(exact), 2)
    assert unpack_pairs(pairs, 2) == [
        ((1, 0), {(1, 0): 1, (0, 1): Fraction(3, 2)}), ((0, 2), {(0, 2): 1})
    ]


def test_wrong_target_raises_naming_both_numerators():
    gens = pack_generators([P("x1^2 - x2*x3", 3).terms, P("x1*x2", 3).terms])
    right = k_polynomial(lead for lead, _ in groebner.buchberger(gens, 3))
    wrong = {0: 1, 2: -1}  # the numerator of one quadric
    with pytest.raises(HilbertSeriesError) as err:
        groebner.buchberger(gens, 3, target=wrong)
    assert str(right) in str(err.value) and str(wrong) in str(err.value)


# the acceptance ladder at m <= 3 and the move oracle's cases
ORACLE_CASES = {
    **{f"ladder-{name}": (config, 3) for name, config in LADDER.items()},
    **{f"move-{name}": case for name, case in MOVE_ORACLE_CASES.items()},
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_gin_over_f_p_matches_draws_over_q(name):
    # both F_p draws of the production entry point against the exact
    # Buchberger runs over Q under the same two matrices
    config, m_max = ORACLE_CASES[name]
    moved, _ = coordinate_position(config)
    for m in range(1, m_max + 1):
        seed = derive_seed(3, "row", m)
        g = asymptotics.gin_of_symbolic_power(config, m, seed)
        sp = symbolic_power(moved, m)
        ideal = ideal_of(sp.generators, sp.nvars)
        over_q = gin_draws_over_q(ideal, seed, 100, sp.hilbert_numerator)
        assert over_q == [g.raw_initial] * 2, (name, m)


@st.composite
def packed_cases(draw):
    # exponents small, up to half the field width, so that sums fit, or up
    # to its top; b is a multiple of a half the time, so that divisibility
    # is tried both ways
    n = draw(st.integers(1, 5))
    top = (1 << rings.EXPONENT_BITS) - 1
    exponents = st.lists(
        st.one_of(st.integers(0, 4), st.integers(0, top // 2), st.integers(0, top)),
        min_size=n, max_size=n,
    )
    a, other = tuple(draw(exponents)), tuple(draw(exponents))
    if draw(st.booleans()):
        other = tuple(min(x + y, top) for x, y in zip(a, other))
    return a, other, draw(st.integers(0, n))


@settings(max_examples=300, deadline=None)
@given(packed_cases())
def test_packed_keys_match_the_tuple_orders(case):
    a, b, split = case
    n = len(a)
    for order, oracle in ((DEGREVLEX, tuple_degrevlex),
                          (elimination_order(split), tuple_elimination_order(split))):
        ka, kb = order(a), order(b)
        # the sign of key(a) - key(b) is the order
        assert (ka > kb) - (ka < kb) == (oracle(a) > oracle(b)) - (oracle(a) < oracle(b))
        # a product is +, every key is the dot product with the unit keys,
        # and a key unpacks to its exponents
        product = tuple(x + y for x, y in zip(a, b))
        if max(product, default=0) < 1 << rings.EXPONENT_BITS:
            assert ka + kb == order(product)
        assert ka == sum(x * w for x, w in zip(a, unit_keys(order, n)))
        assert unpack(ka, n) == a
        # the guard test is componentwise <=
        guard = guard_bits(n)
        assert (((kb | guard) - ka) & guard == guard) == divides(a, b)
        assert (((ka | guard) - kb) & guard == guard) == divides(b, a)


def test_exponent_past_the_field_width_raises():
    top = (1 << rings.EXPONENT_BITS) - 1
    assert unpack(DEGREVLEX((top, 0, top)), 3) == (top, 0, top)
    weights = unit_keys(DEGREVLEX, 2)
    for pack in (DEGREVLEX, elimination_order(1),
                 lambda a: packed_terms({a: 1}, weights)):
        with pytest.raises(ComputationLimitError, match=f"exponent {top + 1} "):
            pack((1, top + 1))


# x1^3 - x2^3 and x1 x2 + x2^2 fit in 2-bit exponents, but their basis
# holds x2^4, which does not
OVERFLOWING_PRODUCT = [P("x1^3 - x2^3", 2).terms, P("x1*x2 + x2^2", 2).terms]


def test_a_product_past_the_field_width_raises(monkeypatch):
    wide = groebner.buchberger(pack_generators(OVERFLOWING_PRODUCT), 2)
    assert max(max(lead) for lead, _ in wide) > 3
    monkeypatch.setattr(rings, "EXPONENT_BITS", 2)
    with pytest.raises(ComputationLimitError, match="passed the field width"):
        groebner.buchberger(pack_generators(OVERFLOWING_PRODUCT), 2)


@settings(max_examples=100, deadline=None)
@given(small_homogeneous_ideals(), st.sampled_from([order for order, _ in ORDERS]))
def test_a_narrow_field_width_raises_or_agrees(ideal, order):
    # 2-bit exponents hold every generator of degree <= 3; a run either
    # stops with ComputationLimitError or returns the wide run's basis, so
    # no key wraps; the narrow run is packed and unpacked at its own width
    n = ideal.nvars
    gens = [g.terms for g in ideal.generators]
    wide = unpack_pairs(groebner.buchberger(pack_generators(gens, order), n, order), n)
    saved = rings.EXPONENT_BITS
    rings.EXPONENT_BITS = 2
    try:
        narrow = groebner.buchberger(pack_generators(gens, order), n, order)
        narrow = unpack_pairs(narrow, n)
    except ComputationLimitError:
        return
    finally:
        rings.EXPONENT_BITS = saved
    assert narrow == wide


def _first_draw_det(seed, nvars):
    rng = random.Random(derive_seed(seed, "gin", 0))
    return linalg.det(groebner.random_change_matrix(rng, nvars, 100))


def _smallest_prime_factor(d):
    d = abs(d)
    return next((q for q in range(2, isqrt(d) + 1) if d % q == 0), d)


def _prime_not_dividing(d):
    return next(q for q in (3, 5, 7, 11, 13, 17, 19, 23) if d % q)


def test_prime_dividing_the_determinant_is_refused(monkeypatch):
    ideal = Ideal.of([P("x2", 3), P("x3", 3)])
    q = _smallest_prime_factor(_first_draw_det(11, 3))
    assert q > 1
    monkeypatch.setattr(groebner, "GIN_PRIMES", (q, q))
    with pytest.raises(GenericityError, match=f"prime {q} divides the determinant"):
        gin_of(ideal, 11, 100, oracle_target(ideal))


def test_prime_dividing_a_leading_coefficient_is_refused(monkeypatch):
    # mod q the generator q x1 + x2 leads with x2, not x1
    q = _prime_not_dividing(_first_draw_det(11, 3))
    ideal = Ideal.of([P(f"{q}*x1 + x2", 3), P("x3", 3)])
    assert packed(ideal)[0][DEGREVLEX((1, 0, 0))] == q
    target = oracle_target(ideal)
    assert gin_of(ideal, 11, 100, target).raw_initial == ((0, 1, 0), (1, 0, 0))
    monkeypatch.setattr(groebner, "GIN_PRIMES", (q, q))
    with pytest.raises(
        GenericityError, match=f"prime {q} divides the leading coefficient {q} "
    ):
        gin_of(ideal, 11, 100, target)


def test_prime_that_changes_the_series_is_refused(monkeypatch):
    # x1 + x2 and x1 + (1 + q) x2 span two linear forms over Q and one mod q,
    # so the F_q loop runs out of pairs short of the target
    q = _prime_not_dividing(_first_draw_det(11, 3))
    other = Poly(3, {(1, 0, 0): 1, (0, 1, 0): 1 + q})
    ideal = Ideal.of([P("x1 + x2", 3), other])
    target = k_polynomial([(1, 0, 0), (0, 1, 0)])
    assert gin_of(ideal, 11, 100, target).raw_initial == ((0, 1, 0), (1, 0, 0))
    monkeypatch.setattr(groebner, "GIN_PRIMES", (q, q))
    with pytest.raises(GenericityError, match=f"prime {q} is unlucky") as err:
        gin_of(ideal, 11, 100, target)
    assert isinstance(err.value.__cause__, HilbertSeriesError)


def test_gin_draw_builds_no_fraction(monkeypatch):
    # both draws run on ints: the determinant, the substitution with the
    # denominators cleared and the F_p loop
    moved, _ = coordinate_position(THREE_POINTS)
    sp = symbolic_power(moved, 2)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    gin(sp.generators, sp.nvars, 5, 100, sp.hilbert_numerator)
    monkeypatch.undo()
    assert built == []
