"""Exact linear algebra over the rationals (and polynomial entries).

Matrices are tuples of tuples.  Rank computations use fraction-free
Gaussian elimination (Bareiss) on integer-cleared matrices, so no pivot
is ever lost to rounding.  Bruhat-position permutations are read off
rank profiles by one column-reduction scan, which serves the top-left
profile directly and the bottom-left profile on the row-reversed
matrix; the slower per-submatrix definitions are kept as independent
cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def identity(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def mat_mul(A, B):
    n, m = len(A), len(B[0])
    k = len(B)
    Bcols = tuple(zip(*B))
    out = []
    for i in range(n):
        Ai = A[i]
        row = []
        for j in range(m):
            Bj = Bcols[j]
            s = 0
            for t in range(k):
                a = Ai[t]
                if a:
                    s = s + a * Bj[t]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(A, v):
    out = []
    for row in A:
        s = 0
        for a, x in zip(row, v):
            if a and x:
                s = s + a * x
        out.append(s)
    return tuple(out)


def mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(A, B):
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(A, c):
    return tuple(tuple(c * a for a in row) for row in A)


def commutator(A, B):
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


def is_zero_matrix(A):
    return all(all(x == 0 for x in row) for row in A)


def _int_rows(A):
    """Clear denominators row by row; preserves rank."""
    out = []
    for row in A:
        den = 1
        for x in row:
            if isinstance(x, Fraction):
                den = lcm(den, x.denominator)
        out.append([int(x * den) for x in row])
    return out


def rank(A):
    """Rank by Bareiss fraction-free elimination on the integer-cleared matrix."""
    M = _int_rows(A)
    if not M:
        return 0
    nrows, ncols = len(M), len(M[0])
    prev = 1
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if M[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, nrows):
            for j in range(col + 1, ncols):
                M[i][j] = (M[r][col] * M[i][j] - M[i][col] * M[r][j]) // prev
            M[i][col] = 0
        prev = M[r][col]
        r += 1
        if r == nrows:
            break
    return r


def det(A):
    """Determinant by Bareiss elimination, exact over the rationals."""
    n = len(A)
    M = [list(row) for row in A]
    prev = Fraction(1)
    sign = 1
    for col in range(n):
        piv = None
        for i in range(col, n):
            if M[i][col] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                M[i][j] = (M[col][col] * M[i][j] - M[i][col] * M[col][j]) / prev
            M[i][col] = Fraction(0)
        prev = M[col][col]
    return sign * M[n - 1][n - 1]


def submatrix_rank(A, rows, cols):
    return rank([[A[i][j] for j in cols] for i in rows])


def _column_reduction_scan(A):
    """The topmost nonzero index of each column after column reduction.

    Columns are reduced left to right against previously kept columns,
    so that kept columns have pairwise distinct topmost nonzero
    positions; column j contributes the topmost index of its reduced
    vector.
    """
    n = len(A)
    kept = {}  # topmost index -> reduced column vector
    p = []
    for j in range(n):
        v = [A[i][j] for i in range(n)]
        while True:
            top = next((i for i in range(n) if v[i] != 0), None)
            if top is None:
                raise ValueError("singular matrix has no Bruhat permutation")
            if top not in kept:
                break
            u = kept[top]
            c = v[top] / u[top]
            v = [a - c * b for a, b in zip(v, u)]
        kept[top] = v
        p.append(top)
    return p


def bruhat_permutation_topleft(A):
    """Permutation P of an L*P*U factorization (L lower, U upper triangular).

    Returns a tuple p with p[j] = i meaning P has its 1 of column j in row i.
    Characterized by the top-left rank profile r(i,j) = rank A[:i, :j]:
    p[j] = i exactly when r gains at (i,j) in both directions.
    """
    return tuple(_column_reduction_scan(A))


def bruhat_permutation_bottomleft(A):
    """Permutation of a U1*P*U2 factorization (both factors upper triangular).

    The bottom-left rank profile r(i,j) = rank A[i:, :j] is the
    invariant: the top-left scan of A with its rows reversed, with each
    row index mapped back.
    """
    n = len(A)
    return tuple(n - 1 - i for i in _column_reduction_scan(A[::-1]))


def bruhat_permutation_topleft_by_ranks(A):
    """Reference implementation straight from the rank-profile definition."""
    n = len(A)
    r = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            r[i][j] = submatrix_rank(A, range(i), range(j))
    p = [None] * n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if r[i][j] - r[i - 1][j] - r[i][j - 1] + r[i - 1][j - 1] == 1:
                p[j - 1] = i - 1
    return tuple(p)


def bruhat_permutation_bottomleft_by_ranks(A):
    n = len(A)
    r = [[0] * (n + 2) for _ in range(n + 2)]
    for i in range(n, 0, -1):
        for j in range(1, n + 1):
            r[i][j] = submatrix_rank(A, range(i - 1, n), range(j))
    p = [None] * n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if r[i][j] - r[i + 1][j] - r[i][j - 1] + r[i + 1][j - 1] == 1:
                p[j - 1] = i - 1
    return tuple(p)
