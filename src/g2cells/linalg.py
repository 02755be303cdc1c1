"""Exact dense matrix arithmetic and Bruhat-position scans.

Matrices are tuples of tuples of exact entries.  In the package they
are the ints of the Chevalley construction and of integral group rows;
the tests also pass ``Fraction`` entries.
Bruhat-position permutations are read off rank profiles by one
fraction-free column-reduction scan, which serves the top-left profile
directly and the bottom-left profile on the row-reversed block.  The
scan takes a block of k <= n rows of full row rank: k = n gives the
whole permutation, and a smaller k the part of it that lands in the
block's rows, which is all ``deodhar`` reads.  Scaling a row or a
column moves no rank profile, so the scan takes a group element's
integral rows as they are, without their common denominator, and
eliminates over the integers.  The per-submatrix rank definitions it
is checked against live with the tests.
"""

from __future__ import annotations


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


def _topmost(v):
    """The index of the first nonzero entry of v, or None."""
    for i, x in enumerate(v):
        if x:
            return i
    return None


def _column_reduction_scan(A):
    """The topmost nonzero index of each column after column reduction.

    ``A`` is a block of k rows of full row rank.  Columns are reduced
    left to right against previously kept columns, so that kept columns
    have pairwise distinct topmost nonzero positions; column j
    contributes the topmost index of its reduced vector, or None when it
    reduces to zero.  Once k columns are kept they span every column, so
    the scan stops there and the rest read None; a square block keeps
    every column.  The reduction is fraction-free,
    v <- u[top] v - v[top] u: it scales v by a nonzero factor, which
    moves no topmost index, so integer entries stay integers.  A block
    of lower row rank raises ``ValueError``.
    """
    k, n = len(A), len(A[0])
    kept = {}  # topmost index -> reduced column vector
    p = [None] * n
    for j in range(n):
        v = [row[j] for row in A]
        top = _topmost(v)
        while top in kept:
            u = kept[top]
            a, b = u[top], v[top]
            v = [a * s - b * t for s, t in zip(v, u)]
            top = _topmost(v)
        if top is not None:
            kept[top] = v
            p[j] = top
            if len(kept) == k:
                return p
    raise ValueError("a block of lower row rank has no Bruhat permutation")


def bruhat_permutation_topleft(A):
    """Permutation P of an L*P*U factorization (L lower, U upper triangular).

    Returns a tuple p with p[j] = i meaning P has its 1 of column j in row i.
    Characterized by the top-left rank profile r(i,j) = rank A[:i, :j]:
    p[j] = i exactly when r gains at (i,j) in both directions.  On the
    top k rows of such a matrix it returns p with every index i >= k
    replaced by None: those ranks are ranks of the k-row block.
    """
    return tuple(_column_reduction_scan(A))


def bruhat_permutation_bottomleft(A):
    """Permutation of a U1*P*U2 factorization (both factors upper triangular).

    The bottom-left rank profile r(i,j) = rank A[i:, :j] is the
    invariant: the top-left scan of A with its rows reversed, with each
    row index mapped back.  On the bottom k rows of such a matrix the
    indices are those of the block, and columns whose 1 lies above it
    read None.
    """
    k = len(A)
    return tuple(None if i is None else k - 1 - i for i in _column_reduction_scan(A[::-1]))
