"""Small exact linear algebra on integer and rational matrices (dense, desk
scale), and the readers of the JSON numbers those matrices are built from.

One fraction-free kernel, `echelon`, computes the reduced row-echelon form
on integers; `rank`, `nullspace` and `inverse` are views of it that return
ints, and `det` eliminates fraction-free too, so none of them builds a
Fraction before its answer."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm


class ComputationLimitError(RuntimeError):
    """A resource cap was exhausted: the S-pairs of a Buchberger run or the
    rays of a double description."""


def json_integer(data, key) -> int:
    """data[key], which must be a JSON integer: not a decimal, not a bool."""
    value = data[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def json_number(x) -> Fraction:
    """The exact value of a JSON number, or of a rational string like "1/2";
    a bool is not a number, and a zero denominator raises ValueError."""
    if isinstance(x, bool):
        raise ValueError(f"expected a number, got {x!r}")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def cleared(row):
    """(d, [x d for x in row]) for the least d > 0 that makes every entry of
    the rational row an integer; builds no Fraction."""
    d = reduce(lcm, [x.denominator for x in row], 1)
    return d, [x.numerator * (d // x.denominator) for x in row]


def echelon(mat):
    """The reduced row-echelon form of mat on integers: (rows, pivots), the
    nonzero rows and their pivot columns.  Each row is the primitive integer
    multiple of its reduced row that is positive at its pivot.

    Each input row is cleared of its denominators, then eliminated
    fraction-free (Bareiss 1968) in Gauss-Jordan form: step k replaces
    every other row a by (p a - a[c] r) / q, for the pivot p of row r in
    column c and q the pivot of step k - 1.  The division is exact, since
    every entry stays a minor of the cleared matrix, and each pivot row
    ends on the same pivot, the largest pivot minor."""
    a = [cleared(row)[1] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r, prev = 0, 1
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        top = a[r]
        p = top[c]
        for i in range(rows):
            if i == r:
                continue
            f = a[i][c]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
            elif p != prev:
                a[i] = [p * x // prev for x in a[i]]
        pivots.append(c)
        prev = p
        r += 1
        if r == rows:
            break
    out = []
    for row, c in zip(a, pivots):
        g = reduce(gcd, row, 0)
        if row[c] < 0:
            g = -g
        out.append([x // g for x in row])
    return out, pivots


def rank(mat) -> int:
    return len(echelon(mat)[1])


def det(mat):
    """Determinant, by fraction-free (Bareiss) elimination on the rows with
    their denominators cleared: an int for an integer matrix, which builds
    no Fraction, and a Fraction otherwise."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("det of non-square matrix")
    scale = 1
    a = []
    for row in mat:
        d, ints = cleared(row)
        scale *= d
        a.append(ints)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = p
    value = sign * a[-1][-1] if n else 1
    return value if scale == 1 else Fraction(value, scale)


def inverse(mat):
    """d mat^-1 as integer rows, for the least d > 0, read off the echelon
    form of [mat | I]: its row i is the least integer multiple row[i] of
    (e_i | row i of mat^-1), so d is the lcm of those multiples."""
    n = len(mat)
    rows, pivots = echelon(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    )
    if pivots[-1] >= n:  # a pivot in the identity block: mat is singular
        raise ValueError("singular matrix has no inverse")
    d = reduce(lcm, [row[i] for i, row in enumerate(rows)], 1)
    return [[x * (d // row[i]) for x in row[n:]] for i, row in enumerate(rows)]


def kernel(rows, pivots, cols):
    """Integer basis of the right kernel of echelon rows with cols columns:
    one vector per free column f, positive at f and 0 at the other free
    columns."""
    scale = reduce(lcm, [row[c] for row, c in zip(rows, pivots)], 1)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [0] * cols
        v[f] = scale
        for row, c in zip(rows, pivots):
            v[c] = -row[f] * (scale // row[c])
        basis.append(v)
    return basis


def nullspace(mat):
    """The integer kernel basis of mat's echelon form: one vector per free
    column, positive there and 0 at the other free columns."""
    if not mat:
        return []
    return kernel(*echelon(mat), len(mat[0]))
