from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    Poly,
    compare,
    evaluate,
    leading_monomial,
    parse_polynomial,
    partial,
    total_degree,
)

from limshape import linalg
from limshape.rings import (
    DEGREVLEX,
    DimensionError,
    SingularMatrixError,
    cleared_substitute,
    linear_substitute,
    packed_terms,
    unit_keys,
    unpack,
)


def expand_substitute(p, matrix):
    """Oracle for linear_substitute: expand every term of p on its own, by
    repeated products of the images of the variables."""
    n = p.nvars
    images = [Poly.linear_form([Fraction(c) for c in row]) for row in matrix]
    result = Poly(n)
    for a, c in p.terms.items():
        term = Poly.constant(n, c)
        for i, e in enumerate(a):
            for _ in range(e):
                term = term * images[i]
        result = result + term
    return result


def all_monomials(nvars, d):
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


# frozen regression fixture: every degree-2 monomial in 4 variables, sorted
# descending by brute-force pairwise comparison from the order definition
DEG2_SORTED_4VARS = [
    (2, 0, 0, 0),  # x1^2
    (1, 1, 0, 0),  # x1*x2
    (0, 2, 0, 0),  # x2^2
    (1, 0, 1, 0),  # x1*x3
    (0, 1, 1, 0),  # x2*x3
    (0, 0, 2, 0),  # x3^2
    (1, 0, 0, 1),  # x1*x4
    (0, 1, 0, 1),  # x2*x4
    (0, 0, 1, 1),  # x3*x4
    (0, 0, 0, 2),  # x4^2
]


def brute_sort_desc(monos):
    """Selection sort using only pairwise compare (the definition oracle)."""
    pool = list(monos)
    out = []
    while pool:
        best = pool[0]
        for m in pool[1:]:
            if compare(m, best) > 0:
                best = m
        pool.remove(best)
        out.append(best)
    return out


def test_degree2_fixture_matches_bruteforce_sort():
    assert brute_sort_desc(all_monomials(4, 2)) == DEG2_SORTED_4VARS


def test_compare_basics():
    assert compare((2, 0, 0), (1, 1, 0)) > 0  # x1^2 > x1*x2
    assert compare((1, 0), (1, 0)) == 0
    # x2*x3 vs x1*x4: resolved by the degree-2 fixture
    assert compare((0, 1, 1, 0), (1, 0, 0, 1)) > 0
    assert DEG2_SORTED_4VARS.index((0, 1, 1, 0)) < DEG2_SORTED_4VARS.index(
        (1, 0, 0, 1)
    )


def test_compare_dimension_error():
    with pytest.raises(DimensionError):
        compare((1, 0), (1, 0, 0))


monomials = st.integers(1, 6).flatmap(
    lambda n: st.tuples(*[st.integers(0, 8)] * n)
)


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.tuples(*[st.integers(0, 8)] * n),
    st.tuples(*[st.integers(0, 8)] * n),
    st.tuples(*[st.integers(0, 8)] * n),
)))
def test_order_properties(triple):
    a, b, c = triple
    # antisymmetry / totality
    assert compare(a, b) == -compare(b, a)
    # transitivity
    if compare(a, b) >= 0 and compare(b, c) >= 0:
        assert compare(a, c) >= 0
    # compatibility with multiplication
    prod = tuple(x + y for x, y in zip(a, c))
    prod2 = tuple(x + y for x, y in zip(b, c))
    assert compare(a, b) == compare(prod, prod2)
    # 1 is minimal in its degree class trivially; check against c
    one = (0,) * len(a)
    if sum(c) > 0:
        assert compare(one, c) < 0


coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)


def polys(nvars):
    expvec = st.tuples(*[st.integers(0, 4)] * nvars)
    return st.dictionaries(expvec, coeffs, max_size=5).map(
        lambda d: Poly(nvars, d)
    )


@given(polys(3), polys(3), polys(3))
@settings(max_examples=60)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + (-p)).is_zero()


@given(polys(3), polys(3))
@settings(max_examples=60)
def test_leading_term_multiplicative(p, q):
    if p.is_zero() or q.is_zero():
        return
    lm = leading_monomial(p * q)
    assert lm == tuple(x + y for x, y in zip(leading_monomial(p), leading_monomial(q)))
    assert (p * q).terms[lm] == (
        p.terms[leading_monomial(p)] * q.terms[leading_monomial(q)]
    )


def test_poly_arith_examples():
    x1 = Poly.linear_form([1, 0])
    x2 = Poly.linear_form([0, 1])
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
    p = parse_polynomial("x1*x3 + x2^2", 3)
    # x2^2 > x1*x3 per the degree-2 fixture (restricted to 3 vars)
    assert leading_monomial(p) == (0, 2, 0)


def test_linear_substitute_examples():
    x1 = Poly.linear_form([1, 0])
    x2 = Poly.linear_form([0, 1])
    p = x1 * x1 + 3 * x2
    assert p.linear_substitute([[1, 0], [0, 1]]) == p
    assert x1.linear_substitute([[0, 1], [1, 0]]) == x2
    q = (x1 + x2).linear_substitute([[1, 1], [0, 1]])
    assert q == x1 + 2 * x2


def _evaluate_substituted(p, matrix, pt):
    """p at the image of pt under the rows of matrix."""
    image = [sum(Fraction(m) * Fraction(x) for m, x in zip(row, pt))
             for row in matrix]
    return evaluate(p, image)


def test_linear_substitute_evaluation_oracle():
    p = parse_polynomial("x1^2*x2 - 1/2*x2^3 + x1", 2)
    M = [[Fraction(2), Fraction(1)], [Fraction(-1), Fraction(3)]]
    q = p.linear_substitute(M)
    pts = [(1, 2), (Fraction(1, 3), -1), (0, 5), (-2, Fraction(7, 2)), (4, 4)]
    for pt in pts:
        assert evaluate(q, pt) == _evaluate_substituted(p, M, pt)


small_ints = st.integers(-4, 4)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def shared_substitution_cases(draw):
    """Polynomials in 1-4 variables drawn from one pool of monomials, so that
    they share monomials, and an invertible integer or rational matrix."""
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n),
                         min_size=1, max_size=6, unique=True))
    polys = draw(st.lists(
        st.dictionaries(st.sampled_from(pool), coeffs, max_size=4).map(
            lambda d: Poly(n, d)
        ),
        min_size=1, max_size=4,
    ))
    entries = draw(st.sampled_from([small_ints, small_fractions]))
    matrix = draw(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
        .filter(lambda m: linalg.det(m) != 0)
    )
    return polys, matrix


@given(shared_substitution_cases())
@settings(max_examples=60, deadline=None)
def test_shared_table_matches_expansion_and_evaluation(case):
    polys, matrix = case
    moved = linear_substitute(polys, matrix)
    assert len(moved) == len(polys)
    n = polys[0].nvars
    pts = [tuple(range(1, n + 1)), tuple(Fraction(k - 2, 3) for k in range(n))]
    for p, q in zip(polys, moved):
        assert q == expand_substitute(p, matrix)
        assert q == p.linear_substitute(matrix)
        for pt in pts:
            assert evaluate(q, pt) == _evaluate_substituted(p, matrix, pt)


def cleared_terms(polys):
    """Each polynomial's terms cleared of their denominators and keyed by
    DEGREVLEX packed monomials: the integer term dicts cleared_substitute
    takes."""
    weights = unit_keys(DEGREVLEX, polys[0].nvars)
    return [
        packed_terms(dict(zip(f.terms, linalg.cleared(list(f.terms.values()))[1])),
                     weights)
        for f in polys
    ]


@given(shared_substitution_cases(), st.sampled_from([2, 7, 2_147_483_647]))
@settings(max_examples=60, deadline=None)
def test_table_mod_p_is_the_exact_table_reduced(case, p):
    # a gin draw keeps the image table in residues mod its prime, which
    # must give the exact substitution's terms reduced mod p
    polys, matrix = case
    assume(all(type(x) is int for row in matrix for x in row))
    exact = cleared_substitute(cleared_terms(polys), matrix)
    residues = cleared_substitute(cleared_terms(polys), matrix, p)
    assert len(residues) == len(exact) == len(polys)
    for terms, reduced in zip(exact, residues):
        assert all(type(v) is int for v in terms.values())
        assert reduced == {b: v % p for b, v in terms.items() if v % p}


@given(shared_substitution_cases(), st.sampled_from([0, 7, 2_147_483_647]))
@settings(max_examples=60, deadline=None)
def test_section_is_the_substitution_at_last_variable_zero(case, p):
    # a gin draw substitutes its matrix without the last column, which must
    # give the full substitution's terms free of x_last, exactly (p = 0) and
    # mod p
    polys, matrix = case
    assume(p == 0 or all(type(x) is int for row in matrix for x in row))
    n = len(matrix)
    section = [row[:-1] for row in matrix]
    full = cleared_substitute(cleared_terms(polys), matrix, p)
    cut = cleared_substitute(cleared_terms(polys), section, p)
    assert len(cut) == len(full)
    for terms, cut_terms in zip(full, cut):
        at_zero = {
            DEGREVLEX(a[:-1]): v
            for a, v in ((unpack(b, n), v) for b, v in terms.items())
            if a[-1] == 0
        }
        assert cut_terms == at_zero


def test_linear_substitute_checks_its_inputs():
    x1 = Poly.linear_form([1, 0])
    with pytest.raises(DimensionError):
        linear_substitute([x1, Poly.linear_form([1, 0, 0])], [[1, 0], [0, 1]])
    with pytest.raises(DimensionError):
        linear_substitute([x1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(DimensionError):
        linear_substitute([x1], [[1], [0]])


def test_linear_substitute_composition_convention():
    # sub(sub(p, M1), M2) == sub(p, M1 @ M2): row-acts-on-variables
    p = parse_polynomial("x1^2 + x1*x2 - x2", 2)
    M1 = [[1, 2], [3, 4]]
    M2 = [[0, 1], [1, 1]]
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*M2)] for row in M1]
    assert p.linear_substitute(M1).linear_substitute(M2) == p.linear_substitute(
        product
    )


def test_linear_substitute_singular():
    p = Poly.linear_form([1, 0])
    with pytest.raises(SingularMatrixError):
        p.linear_substitute([[1, 1], [1, 1]])


def test_substitution_preserves_degree_and_homogeneity():
    p = parse_polynomial("x1^3 - 2*x1*x2^2", 2)
    q = p.linear_substitute([[1, 5], [2, 3]])
    assert total_degree(q) == 3 and Poly(2, q.terms).is_homogeneous()


def test_parser_round_trip():
    for text in ["x1^2 - x2^2", "2*x1*x2 + 1/2", "-x1 + 3/4*x2^5", "0"]:
        p = parse_polynomial(text, 2)
        assert parse_polynomial(str(p), 2) == p


@given(polys(3))
@settings(max_examples=60)
def test_parser_round_trip_random(p):
    assert parse_polynomial(str(p), 3) == p


def test_partial_and_evaluate():
    p = parse_polynomial("x1^2*x2", 2)
    assert partial(p, 1) == parse_polynomial("2*x1*x2", 2)
    assert evaluate(p, (2, 3)) == 12
