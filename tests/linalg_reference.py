"""Reference linear algebra that only the tests use.

The identity matrix, Fraction-free (Bareiss) rank and determinant, a
dense matrix-vector product, and the Bruhat permutations straight from the rank-profile
definitions: slow, independent oracles for ``g2cells.linalg`` and the
folded group products.
"""

from fractions import Fraction
from math import lcm


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(A, v):
    out = []
    for row in A:
        s = 0
        for a, x in zip(row, v):
            if a and x:
                s = s + a * x
        out.append(s)
    return tuple(out)


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


def bruhat_permutation_topleft_by_ranks(A):
    """Reference implementation straight from the rank-profile definition.

    ``A`` may be a block of k rows of any width; a column whose rank
    never gains inside the block reads None.
    """
    k, n = len(A), len(A[0])
    r = [[0] * (n + 1) for _ in range(k + 1)]
    for i in range(1, k + 1):
        for j in range(1, n + 1):
            r[i][j] = submatrix_rank(A, range(i), range(j))
    p = [None] * n
    for i in range(1, k + 1):
        for j in range(1, n + 1):
            if r[i][j] - r[i - 1][j] - r[i][j - 1] + r[i - 1][j - 1] == 1:
                p[j - 1] = i - 1
    return tuple(p)


def bruhat_permutation_bottomleft_by_ranks(A):
    """The bottom-left profile r(i,j) = rank A[i:, :j], on a block of k rows."""
    k, n = len(A), len(A[0])
    r = [[0] * (n + 1) for _ in range(k + 2)]
    for i in range(k, 0, -1):
        for j in range(1, n + 1):
            r[i][j] = submatrix_rank(A, range(i - 1, k), range(j))
    p = [None] * n
    for i in range(1, k + 1):
        for j in range(1, n + 1):
            if r[i][j] - r[i + 1][j] - r[i][j - 1] + r[i + 1][j - 1] == 1:
                p[j - 1] = i - 1
    return tuple(p)
