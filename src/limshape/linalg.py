"""Small exact linear algebra over Fraction matrices (dense, desk scale)."""

from __future__ import annotations

from fractions import Fraction


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


def det(mat) -> Fraction:
    a = _copy(mat)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("det of non-square matrix")
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            d = -d
        d *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def solve(mat, rhs):
    """Solve square mat @ x = rhs exactly; None if singular."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(mat)]
    ech, pivots = row_echelon(a)
    if len(pivots) < n or pivots[-1] == n:  # rank deficient or inconsistent
        return None
    return [ech[i][n] for i in range(n)]


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
