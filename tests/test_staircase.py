import json
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, floor
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    contains_minkowski,
    contains_scaled,
    eliahou_kervaire_k_polynomial,
)

from limshape import staircase
from limshape.linalg import ComputationLimitError
from limshape.rings import divides
from limshape.staircase import (
    MonomialStaircase,
    k_polynomial,
    k_polynomial_plus,
    lattice_volume_error_bound,
    minimalize,
    simplex_count,
)

# staircase of the two-generic-lines example in dehomogenized coordinates
QUAD = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)]


def subset_joins(gens):
    """(sign, degree of the lcm) for every subset of gens: the
    inclusion-exclusion oracle for the K-polynomial kernel."""
    for k in range(len(gens) + 1):
        for sub in combinations(gens, k):
            yield (-1) ** k, sum(map(max, zip(*sub))) if sub else 0


def subset_k_polynomial(gens):
    poly = {}
    for sign, d in subset_joins(gens):
        poly[d] = poly.get(d, 0) + sign
    return {d: c for d, c in poly.items() if c}


def subset_gamma_volume(gens, n, cutoff):
    return sum(
        (sign * (cutoff - d) ** n / factorial(n)
         for sign, d in subset_joins(gens) if d < cutoff),
        Fraction(0),
    )


def degree_slice_bruteforce(staircase, d):
    """Degree-d monomials in n+1 variables outside the homogenized ideal."""
    n1 = staircase.nvars + 1
    count = 0
    for mono in combinations_with_replacement(range(n1), d):
        alpha = tuple(mono.count(i) for i in range(n1))
        if not any(divides(g + (0,), alpha) for g in staircase.min_gens):
            count += 1
    return count


def test_minimalize():
    assert minimalize([(1, 0), (2, 0), (1, 1), (0, 3)]) == ((0, 3), (1, 0))
    assert minimalize([(0, 0), (1, 0)]) == ((0, 0),)
    assert minimalize([]) == ()


def minimal_by_definition(gens):
    """The distinct gens that no other of them divides, sorted."""
    gens = set(map(tuple, gens))
    return tuple(sorted(
        g for g in gens if not any(divides(h, g) for h in gens if h != g)
    ))


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 3)] * n) | st.just((0,) * n), max_size=12
)))
@example([(1, 2), (1, 2), (0, 0), (2, 1), (0, 0)])
@settings(max_examples=200, deadline=None)
def test_minimalize_matches_definition(gens):
    # repeats and the zero vector, which divides everything, included
    assert minimalize(gens) == minimal_by_definition(gens)


def test_simplex_count():
    assert simplex_count(3, 2) == 10
    assert simplex_count(0, 3) == 1
    assert simplex_count(-1, 3) == 0


def test_membership():
    st_ = MonomialStaircase.from_generators(3, QUAD)
    assert st_.membership((2, 0, 0))
    assert st_.membership((2, 5, 1))
    assert not st_.membership((1, 0, 0))
    assert not st_.membership((0, 1, 7))
    assert not st_.membership((0, 0, 0))
    with pytest.raises(ValueError):
        st_.membership((1, 0))


def test_empty_staircase():
    empty = MonomialStaircase.from_generators(2, [])
    assert empty.is_empty()
    assert empty.count_gamma(3) == 10  # all of the bound-3 simplex
    assert empty.gamma_volume(3) == Fraction(9, 2)


def test_count_gamma_known_values():
    # cross of the two axes: only the origin lies outside
    axes = MonomialStaircase.from_generators(2, [(1, 0), (0, 1)])
    assert axes.count_gamma(5) == 1
    # the quadruple staircase: 10 points survive up to coordinate sum 4
    st_ = MonomialStaircase.from_generators(3, QUAD)
    assert st_.count_gamma(4) == 10
    assert st_.count_gamma(4) == st_.count_gamma_bruteforce(4)


def test_hilbert_function_known_values():
    st_ = MonomialStaircase.from_generators(3, QUAD)
    # homogenized ideal of two generic lines: HF(5) = 2*5 + 2 = 12
    assert st_.hilbert_function(5) == 12
    assert st_.hilbert_function(1) == 4
    zero = MonomialStaircase.from_generators(2, [])
    assert zero.hilbert_function(2) == 6  # all degree-2 monomials in 3 vars


def test_hilbert_function_equals_cumulative_gamma():
    st_ = MonomialStaircase.from_generators(3, QUAD)
    for d in range(8):
        assert st_.hilbert_function(d) == st_.count_gamma(d)


# ideals in 1-4 variables with at most 8 (not necessarily minimal) generators
gens_strategy = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(*[st.integers(0, 5)] * n), min_size=0, max_size=8),
    )
)
staircase_strategy = gens_strategy.map(
    lambda ng: MonomialStaircase.from_generators(*ng)
)
EMPTY = MonomialStaircase.from_generators(3, [])
UNIT = MonomialStaircase.from_generators(3, [(0, 0, 0)])


def test_k_polynomial_known_values():
    assert k_polynomial([]) == {0: 1}
    assert k_polynomial([(0, 0)]) == {}
    assert k_polynomial([(1, 0), (0, 1)]) == {0: 1, 1: -2, 2: 1}
    # (x, y)^2: 1 - 3t^2 + 2t^3
    assert k_polynomial([(2, 0), (1, 1), (0, 2)]) == {0: 1, 2: -3, 3: 2}


# ideals in 1-6 variables with at most 8 (not necessarily minimal)
# generators: slices of 5 and 6 variables recurse down four levels
deep_gens_strategy = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=8)
)


@given(deep_gens_strategy)
@example([])
@example([(0, 0, 0)])
@example([(0, 0), (1, 3)])
# x3^2 makes the slice at c = 2 the unit ideal before the last exponents
# 3 and 5 of x3, whose generators it divides
@example([(1, 0, 0), (0, 0, 2), (0, 1, 3), (2, 2, 5)])
@example([(0, 0, 2)])
# the same one level down: the slice at x4^1 holds x3^2, so the last slice
# of that 3-variable slice is the unit ideal
@example([(1, 0, 0, 0), (0, 0, 2, 1), (0, 1, 3, 0), (0, 0, 4, 0), (1, 1, 1, 2)])
# repeated last exponents: three generators share each of x3^1 and x3^0
@example([(2, 0, 1), (0, 2, 1), (1, 1, 1), (3, 0, 0), (0, 3, 0), (1, 2, 0)])
# duplicate and non-minimal generators
@example([(1, 1, 0), (1, 1, 0), (2, 1, 0), (0, 3, 1), (1, 3, 2), (0, 3, 1)])
@example([(2, 1, 0, 1), (2, 1, 0, 1), (3, 1, 1, 1), (0, 0, 1, 0), (0, 1, 1, 3)])
# one and two variables, the closed forms, with repeats and multiples
@example([(3,), (2,), (5,), (2,)])
@example([(0,), (4,)])
@example([(3, 0), (1, 2), (2, 2), (0, 4), (1, 2), (3, 1)])
@example([(1, 2, 0, 1, 3), (2, 0, 1, 0, 1), (0, 1, 1, 1, 0), (1, 1, 1, 1, 1),
          (0, 0, 3, 0, 0), (2, 2, 0, 0, 2)])
@example([(1, 0, 2, 0, 1, 1), (0, 1, 0, 2, 1, 0), (1, 1, 1, 0, 0, 2),
          (0, 0, 0, 1, 1, 1), (2, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 3)])
@settings(max_examples=150, deadline=None)
def test_k_polynomial_matches_subset_sum(gens):
    assert k_polynomial(gens) == subset_k_polynomial(gens)


# the sweep's scale: up to 13 generators with exponents up to 9, so at most
# 8192 subsets for the oracle
wide_gens_strategy = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 9)] * n), max_size=13)
)
POOL = [
    [tuple(g) for g in gens]
    for gens in json.loads(
        (Path(__file__).resolve().parent.parent / "perfbench" / "staircases.json")
        .read_text()
    )
]
# the second ideal of the pool
POOL_IDEAL = [
    (0, 9, 0), (1, 8, 0), (2, 4, 2), (2, 5, 1), (2, 6, 0), (3, 3, 2), (3, 4, 1),
    (3, 5, 0), (4, 2, 2), (4, 3, 1), (4, 4, 0), (5, 1, 0), (6, 0, 0),
]


@given(wide_gens_strategy)
# x1^5 is a generator, and each exponent of x3 but 0 occurs once
@example([(5, 0, 0), (1, 2, 0), (2, 1, 1), (3, 0, 2), (0, 3, 3)])
# x1 divides the generator with x3^1, so its slice adds nothing
@example([(1, 0, 0), (2, 3, 0), (3, 1, 1), (4, 0, 2), (0, 2, 2)])
# every generator has x1^3 and a distinct exponent of x4
@example([(3, 2, 0, 0), (3, 1, 1, 0), (3, 0, 2, 1), (3, 0, 0, 4)])
# 13 generators in 5 and 6 variables, several sharing their last exponent
@example([(i % 3, (i * 2) % 5, (i * 7) % 4, i % 2, 9 - i % 4) for i in range(13)])
@example([(i % 4, 3 - i % 4, (i * 5) % 6, i // 5, (i * 3) % 7, i % 3)
          for i in range(13)])
@example(POOL_IDEAL)
@settings(max_examples=100, deadline=None)
def test_k_polynomial_matches_subset_sum_at_sweep_scale(gens):
    assert k_polynomial(gens) == subset_k_polynomial(gens)


def kernel_nodes(monkeypatch, gens):
    """The generator lists of the nodes one k_polynomial(gens) call visits."""
    nodes = []

    def counted(gens, budget, inner=staircase._k_slice):
        nodes.append(gens)
        return inner(gens, budget)

    with monkeypatch.context() as patch:
        patch.setattr(staircase, "_k_slice", counted)
        k_polynomial(gens)
    return nodes


def test_k_polynomial_nodes_per_call_on_the_pool(monkeypatch):
    # a structural bound instead of a timing: a 3-variable call visits its
    # own node and one 2-variable slice per distinct exponent of x3 at most
    for gens in POOL:
        bound = 1 + len({g[-1] for g in gens})
        assert 1 < len(kernel_nodes(monkeypatch, gens)) <= bound


def test_k_polynomial_node_cap_counts_each_call(monkeypatch):
    # the cap bounds the nodes of one call's slicing recursion: a call that
    # visits exactly K_NODE_CAP nodes finishes, one more is refused
    nodes = kernel_nodes(monkeypatch, POOL_IDEAL)
    expected = k_polynomial(POOL_IDEAL)
    assert len(nodes) > 1
    monkeypatch.setattr(staircase, "K_NODE_CAP", len(nodes))
    assert k_polynomial(POOL_IDEAL) == expected
    assert k_polynomial(POOL_IDEAL) == expected
    monkeypatch.setattr(staircase, "K_NODE_CAP", len(nodes) - 1)
    with pytest.raises(ComputationLimitError, match=f"cap {len(nodes) - 1} exhausted"):
        k_polynomial(POOL_IDEAL)


@given(wide_gens_strategy)
@example(POOL_IDEAL)
@settings(max_examples=100, deadline=None)
def test_k_polynomial_keys_ascend(gens):
    # error messages print K-polynomials, so the key order is part of them
    assert list(k_polynomial(gens)) == sorted(k_polynomial(gens))
    for i, a in enumerate(gens):
        series = k_polynomial_plus(k_polynomial(gens[:i]), gens[:i], a)
        assert list(series) == sorted(series)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=12)
))
def test_running_k_polynomial_matches_recomputation(monomials):
    # buchberger adds one lead at a time and keeps the leads' K-polynomial
    # by one colon ideal per lead; a lead may divide or repeat earlier ones
    series = {0: 1}
    for i, a in enumerate(monomials):
        series = k_polynomial_plus(series, monomials[:i], a)
        assert series == k_polynomial(monomials[: i + 1])


@given(staircase_strategy, st.integers(0, 9))
@example(EMPTY, 4)
@example(UNIT, 4)
@settings(max_examples=80, deadline=None)
def test_count_gamma_matches_bruteforce(staircase, bound):
    assert staircase.count_gamma(bound) == staircase.count_gamma_bruteforce(bound)


@given(staircase_strategy, st.integers(0, 7))
@example(EMPTY, 3)
@example(UNIT, 3)
@settings(max_examples=40, deadline=None)
def test_hilbert_function_matches_degree_slices(staircase, d):
    assert staircase.hilbert_function(d) == degree_slice_bruteforce(staircase, d)


@given(staircase_strategy, st.fractions(0, 15, max_denominator=7))
@example(EMPTY, Fraction(7, 2))
@example(UNIT, Fraction(7, 2))
@example(UNIT, Fraction(0))
@settings(max_examples=80, deadline=None)
def test_gamma_volume_matches_subset_sum(staircase, cutoff):
    expected = subset_gamma_volume(staircase.min_gens, staircase.nvars, cutoff)
    assert staircase.gamma_volume(cutoff) == expected


def borel_fixed_bruteforce(staircase):
    """The definition, on every monomial of the ideal up to the largest
    generator degree: each move x_j -> x_i with i < j stays in the ideal."""
    n = staircase.nvars
    top = max((sum(g) for g in staircase.min_gens), default=0)
    for d in range(top + 1):
        for mono in combinations_with_replacement(range(n), d):
            alpha = [mono.count(i) for i in range(n)]
            if not staircase.membership(alpha):
                continue
            for j in range(n):
                for i in range(j):
                    if alpha[j]:
                        moved = list(alpha)
                        moved[i] += 1
                        moved[j] -= 1
                        if not staircase.membership(moved):
                            return False
    return True


def borel_closure(n, gens):
    """Every monomial reached from gens by moves x_j -> x_i, i < j."""
    seen, todo = set(), list(gens)
    while todo:
        g = todo.pop()
        if g in seen:
            continue
        seen.add(g)
        for j in range(n):
            for i in range(j):
                if g[j]:
                    moved = list(g)
                    moved[i] += 1
                    moved[j] -= 1
                    todo.append(tuple(moved))
    return MonomialStaircase.from_generators(n, seen)


small_gens = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=0, max_size=5),
    )
)


def test_is_borel_fixed_known_values():
    def borel(n, gens):
        return MonomialStaircase.from_generators(n, gens).is_borel_fixed()

    assert borel(3, [(2, 0, 0), (1, 1, 0), (0, 3, 0)])
    assert borel(3, QUAD)
    assert not borel(2, [(0, 1)])
    # I^(2) of the lines x1 = x2 = 0 and x1 = x3 = 0, in those coordinates
    assert not borel(4, [(2, 0, 0, 0), (1, 1, 1, 0), (0, 2, 2, 0)])
    assert EMPTY.is_borel_fixed() and UNIT.is_borel_fixed()


@given(small_gens, st.booleans())
@settings(max_examples=80, deadline=None)
def test_is_borel_fixed_matches_definition(n_gens, close):
    n, gens = n_gens
    staircase = (borel_closure(n, gens) if close
                 else MonomialStaircase.from_generators(n, gens))
    assert staircase.is_borel_fixed() == borel_fixed_bruteforce(staircase)
    if close:
        assert staircase.is_borel_fixed()


def test_eliahou_kervaire_matches_k_polynomial_on_the_pool():
    # every pool ideal is Borel-fixed, and each has 13 generators
    for gens in POOL:
        assert MonomialStaircase.from_generators(3, gens).is_borel_fixed()
        assert k_polynomial(gens) == eliahou_kervaire_k_polynomial(gens)


# degrees of the Borel generators per variable count, chosen so that about
# four closures in five have 20-60 minimal generators
BOREL_DEGREES = {3: (6, 9), 4: (4, 6), 5: (3, 4)}


@st.composite
def large_borel_ideals(draw):
    """Borel-fixed ideals in 3-5 variables with 20-60 minimal generators:
    the closures of 1-3 monomials weighted towards the last variable."""
    n = draw(st.integers(3, 5))
    low, high = BOREL_DEGREES[n]
    seeds = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(low, high))
        last = draw(st.integers(d // 2, d))
        cuts = sorted(draw(st.lists(
            st.integers(0, d - last), min_size=n - 2, max_size=n - 2)))
        seeds.append(tuple(
            b - a for a, b in zip([0] + cuts, cuts + [d - last])
        ) + (last,))
    ideal = borel_closure(n, seeds)
    assume(20 <= len(ideal.min_gens) <= 60)
    return ideal


@given(large_borel_ideals())
@settings(max_examples=60, deadline=None)
def test_eliahou_kervaire_matches_k_polynomial_past_subset_sums(ideal):
    # far past the 13 generators of the subset-sum oracle
    assert ideal.is_borel_fixed()
    assert k_polynomial(ideal.min_gens) == eliahou_kervaire_k_polynomial(
        ideal.min_gens)


def test_power_of_maximal_ideal():
    # (x1, x2, x3)^6: 28 minimal generators, far beyond subset enumeration;
    # the complement is every point of coordinate sum at most 5
    gens = [
        tuple(mono.count(i) for i in range(3))
        for mono in combinations_with_replacement(range(3), 6)
    ]
    st_ = MonomialStaircase.from_generators(3, gens)
    assert len(st_.min_gens) == 28
    for b in range(10):
        expected = comb(min(b, 5) + 3, 3)
        assert st_.count_gamma(b) == expected == st_.count_gamma_bruteforce(b)
        assert st_.hilbert_function(b) == expected


def test_gamma_volume_single_corner():
    # complement of (1,1)+orthant inside {x,y >= 0, x+y <= 3}
    st_ = MonomialStaircase.from_generators(2, [(1, 1)])
    assert st_.gamma_volume(3) == Fraction(9, 2) - Fraction(1, 2)
    assert st_.lm_volume(3) == Fraction(1, 2)


def test_gamma_volume_inclusion_exclusion():
    st_ = MonomialStaircase.from_generators(2, [(2, 0), (0, 2)])
    # excluded region: two shifted simplices overlapping in the (2,2) corner
    t = Fraction(6)
    expected = t**2 / 2 - (2 * Fraction((6 - 2) ** 2, 2) - Fraction((6 - 4) ** 2, 2))
    assert st_.gamma_volume(t) == expected


def test_gamma_volume_rational_cutoff():
    st_ = MonomialStaircase.from_generators(2, [(1, 0)])
    t = Fraction(5, 2)
    # complement is the triangle {x1 < 1 strip}: t^2/2 - (t-1)^2/2
    assert st_.gamma_volume(t) == t**2 / 2 - (t - 1) ** 2 / 2


def test_volume_count_consistency_at_scale():
    # lattice count at bound m*t divided by m^n approaches the gamma volume;
    # check the stated error bound at several m
    st_ = MonomialStaircase.from_generators(3, QUAD)
    t = 3
    for m in (1, 2, 4, 8):
        scaled = MonomialStaircase.from_generators(
            3, [tuple(m * e for e in g) for g in st_.min_gens]
        )
        count = scaled.count_gamma(m * t)
        vol = scaled.gamma_volume(m * t)
        assert abs(count - vol) <= lattice_volume_error_bound(3, m, t)


def test_contains_scaled_and_minkowski():
    s1 = MonomialStaircase.from_generators(2, [(1, 0), (0, 1)])
    s2 = MonomialStaircase.from_generators(2, [(2, 0), (1, 1), (0, 2)])
    ok, witness = contains_scaled(s2, s1, 2)
    assert ok and witness is None
    ok, witness = contains_minkowski(s2, s1, s1)
    assert ok
    ok, witness = contains_scaled(s1, s2, 1)  # s2 not inside s1? it is: (2,0) in s1
    assert ok
    ok, witness = contains_scaled(s2, s1, 1)
    assert not ok and witness in s1.min_gens


def test_gamma_count_for_floor():
    st_ = MonomialStaircase.from_generators(2, [(1, 0), (0, 1)])
    # #Gamma_{m,t} counts up to floor(m*t), as the report rows do
    assert st_.count_gamma(floor(3 * Fraction(5, 3))) == 1  # origin only
    empty = MonomialStaircase.from_generators(2, [])
    assert empty.count_gamma(floor(2 * Fraction(3, 2))) == simplex_count(3, 2)


def test_json_round_trip():
    st_ = MonomialStaircase.from_generators(3, QUAD)
    data = st_.to_dict()
    again = MonomialStaircase.from_generators(data["nvars"], data["generators"])
    assert again == st_


def test_generators_are_minimalized_and_sorted():
    # (1,0) divides both (2,1) and (3,3), so it is the only minimal generator
    st_ = MonomialStaircase.from_generators(2, [(2, 1), (1, 0), (3, 3)])
    assert st_.min_gens == ((1, 0),)
    st2 = MonomialStaircase.from_generators(2, [(0, 2), (3, 0), (1, 1)])
    assert st2.min_gens == ((0, 2), (1, 1), (3, 0))
