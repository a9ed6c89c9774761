"""Oracle tests for linalg: the Leibniz expansion for det, and the largest
nonzero minor for rank, on integer and rational matrices up to 5x5."""

from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limshape import linalg

_ints = st.integers(-4, 4)
_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _dense(draw, rows, cols, entries):
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


@st.composite
def matrices(draw, square=False):
    """An integer or rational matrix with 1 to 5 rows and columns; half of
    them are products B C through an inner dimension below both sides, so
    singular and rank-deficient matrices come up often."""
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    entries = draw(st.sampled_from([_ints, _rationals]))
    if not draw(st.booleans()):
        return _dense(draw, rows, cols, entries)
    inner = draw(st.integers(0, min(rows, cols) - 1))
    b = _dense(draw, rows, inner, entries)
    c = _dense(draw, inner, cols, entries)
    return [[sum((b[i][k] * c[k][j] for k in range(inner)), 0) for j in range(cols)]
            for i in range(rows)]


def leibniz(a):
    """det(a) as the signed sum over permutations."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def minor_rank(a):
    """The size of the largest square submatrix with a nonzero determinant."""
    rows, cols = len(a), len(a[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if leibniz([[a[i][j] for j in cs] for i in rs]):
                    return k
    return 0


def product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_det_is_the_leibniz_expansion(a):
    d = linalg.det(a)
    assert d == leibniz(a)
    if all(type(x) is int for row in a for x in row):
        assert type(d) is int


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_row_echelon_is_reduced_and_spans_the_rows(a):
    # echelon's rows over their pivots are the reduced row-echelon form
    rows, pivots = linalg.echelon(a)
    ech = [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
    rank = minor_rank(a)
    assert len(pivots) == rank == sum(1 for row in ech if any(row))
    assert pivots == sorted(set(pivots))
    for k, c in enumerate(pivots):
        assert ech[k][c] == 1
        assert all(not ech[i][c] for i in range(len(ech)) if i != k)
    # each input row is the combination of the echelon rows whose weights
    # are its entries in the pivot columns
    for row in a:
        combo = [sum(row[c] * ech[k][j] for k, c in enumerate(pivots))
                 for j in range(len(row))]
        assert combo == row


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_echelon_rows_are_primitive_multiples_of_the_reduced_rows(a):
    rows, pivots = linalg.echelon(a)
    assert len(rows) == len(pivots) == minor_rank(a)
    assert pivots == sorted(set(pivots))
    for k, (row, c) in enumerate(zip(rows, pivots)):
        assert all(type(x) is int for x in row)
        assert row[c] > 0
        assert reduce(gcd, row, 0) == 1
        assert all(not other[c] for i, other in enumerate(rows) if i != k)
    # each input row is the combination of the rows whose weights are its
    # entries in the pivot columns over the rows' pivots
    for row in a:
        combo = [sum(Fraction(row[c], r[c]) * r[j] for r, c in zip(rows, pivots))
                 for j in range(len(row))]
        assert combo == row


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_inverse_times_the_matrix_is_the_identity(a):
    n = len(a)
    if leibniz(a) == 0:
        with pytest.raises(ValueError, match="singular"):
            linalg.inverse(a)
        return
    # inverse(a) is d a^-1 in ints, for d > 0 the lcm of the denominators
    # of a^-1
    inv = linalg.inverse(a)
    assert all(type(x) is int for row in inv for x in row)
    d = product(inv, a)[0][0]
    assert d > 0
    assert product(inv, a) == [[d * int(i == j) for j in range(n)] for i in range(n)]
    assert reduce(lcm, (Fraction(x, d).denominator for row in inv for x in row)) == d


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_is_the_kernel(a):
    kernel = linalg.nullspace(a)
    cols = len(a[0])
    assert len(kernel) == cols - minor_rank(a)
    for v in kernel:
        assert len(v) == cols
        assert all(type(x) is int for x in v)
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
    if kernel:
        assert minor_rank(kernel) == len(kernel)
