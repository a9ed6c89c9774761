"""Small exact linear algebra over Fraction matrices (dense, desk scale),
and the readers of the JSON numbers those matrices are built from."""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def json_integer(data, key) -> int:
    """data[key], which must be a JSON integer: not a decimal, not a bool."""
    value = data[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def json_number(x) -> Fraction:
    """The exact value of a JSON number, or of a rational string like "1/2";
    a bool is not a number."""
    if isinstance(x, bool):
        raise ValueError(f"expected a number, got {x!r}")
    return Fraction(x)


def _copy(mat):
    return [[Fraction(x) for x in row] for row in mat]


def row_echelon(mat):
    """Return (echelon form, pivot column list). Destroys nothing."""
    a = _copy(mat)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(mat) -> int:
    if not mat:
        return 0
    return len(row_echelon(mat)[1])


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
        d = lcm(*(x.denominator for x in row))
        scale *= d
        a.append([x.numerator * (d // x.denominator) for x in row])
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
    """The inverse of a square matrix, by Gauss-Jordan on [mat | I]."""
    n = len(mat)
    ech, pivots = row_echelon(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    )
    if pivots[-1] >= n:  # a pivot in the identity block: mat is singular
        raise ValueError("singular matrix has no inverse")
    return [row[n:] for row in ech]


def nullspace(mat):
    """Basis (list of Fraction vectors) of the right kernel of mat."""
    if not mat:
        return []
    cols = len(mat[0])
    ech, pivots = row_echelon(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -ech[r][f]
        basis.append(v)
    return basis
