"""Generalized minors labeled by chamber weights.

A chamber weight of level l is an extremal weight w*omega_l.  The minor
Delta^{w omega_l}(g) is the coefficient of the highest weight vector
v_{omega_l} in g . v_{w omega_l}.  Delta_-^{w omega_l}(g) takes the
coefficient of the lowest weight vector v_{-omega_l} := v_{w0 omega_l}
instead.

Both levels live in exterior powers of V7.  V(omega1) is V7, and
V(omega2) sits inside the exterior square of V7 with highest weight
vector e0 ^ e1.  A vector of level l is therefore a sum of wedges
e_{c1} ^ ... ^ e_{cl} of basis vectors, and g acts on a wedge factor by
factor.  The coefficient of e_{r1} ^ ... ^ e_{rl} in g . (e_{c1} ^ ...
^ e_{cl}) is the l x l minor of the V7 matrix at rows r and columns c
(Fomin-Zelevinsky, Double Bruhat cells and total positivity, 1999).

The extremal vector v_{w omega_l} is wbar . v_{omega_l}, where wbar is the
product of the sdot_j^-1 along a reduced word of w (Fomin-Zelevinsky).
sdot_j^-1 sends a vector that e_j kills, of j-weight b, to f_j^(b) of
it, so wbar . (e_0 ^ ... ^ e_{l-1}) has the l x l minors of wbar's first
l columns as its wedge coefficients: ints, one wedge per extremal
weight.  v_{-omega_l} is w0bar . v_{omega_l}, and wdot(w0) = w0bar^-1
maps weight spaces to weight spaces, so the coefficient of v_{-omega_l}
in g.v is the coefficient of v_{omega_l} in wdot(w0).g.v: rows
0..l-1 of wdot(w0), folded through g.

Every minor, of either level, is evaluated one way.  The top two rows of
the identity (or of wdot(w0)) are folded along the word of g once
(``highest_row``/``lowest_row``), and a minor of level l pairs the first
l rows of that block with an extremal vector (``pair_row_with_weight``):
the sum of coefficient times the l x l determinant at the wedge's
columns.  The level is read from the weight, so all minors of a point,
of both levels, share a single fold.  The fold runs over the integers
and returns numerators over one positive denominator den, and the
pairing is integral too: it returns the numerator of the minor over
den**l.  ``over_denominator`` divides by den**l in one place, and its
readers are ``minor``, ``minor_lower`` and ``symbolic_minors``.  The
Chamber Ansatz reads the integral pairings themselves: it divides once
per parameter, or not at all where it needs only the signs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import rep
from .scalars import variables
from .weyl import OMEGA, W, WORD_I_TILDE, Weight, weight_by_label

__all__ = [
    "minor",
    "minor_lower",
    "weight_to_chamber",
    "LEVEL1_LABELS",
    "LEVEL2_LABELS",
    "symbolic_minors",
]


def weight_to_chamber(mu):
    """The pair (w, level) with w*omega_level = mu and w of minimal length:
    the first such w of ``W.elements``, which is in (length, word) order."""
    for w in W.elements:
        for level in (1, 2):
            if w.act(OMEGA[level]) == mu:
                return w, level
    raise ValueError("%r is not in the Weyl orbit of a fundamental weight" % (mu,))


@lru_cache(maxsize=None)
def _extremal_by_weight(n1, n2):
    """The wedge terms (columns, coefficient) of v_{w omega_l} = wbar . v_{omega_l},
    with wbar the product of sdot_j^-1 along the minimal word of w: the
    nonzero l x l minors of wbar's first l columns.  A word of Weyl
    representatives folds over the denominator 1.  Keyed by the two ints, not
    a slower-hashing ``Weight``: each factorization looks it up eight times."""
    w, level = weight_to_chamber(Weight(n1, n2))
    rows, _ = rep.apply_covector(rep.group_product(map(rep.sdot_inverse, w.word)), rep.UNIT_ROWS)
    columns = [[row[c] for row in rows] for c in range(level)]
    terms = ((cols, _det(columns, cols)) for cols in combinations(range(7), level))
    return tuple((cols, coeff) for cols, coeff in terms if coeff)


@lru_cache(maxsize=None)
def _lowest_rows():
    """Rows 0 and 1 of wdot(w0), which sends v_{-omega} to v_omega: their
    fold reads the coefficient of v_{-omega}, as rows 0 and 1 of the
    identity read that of v_omega; a minor of level l reads the first l."""
    return tuple(map(tuple, rep.apply_covector(rep.wdot(W.w0), rep.UNIT_ROWS[:2])[0]))


def highest_row(g):
    """The row functionals v -> coefficient of v_omega in g.v: the top two
    rows of g, as (numerators, denominator)."""
    return rep.apply_covector(g, rep.UNIT_ROWS[:2])


def lowest_row(g):
    """The row functionals v -> coefficient of v_{-omega} in g.v."""
    return rep.apply_covector(g, _lowest_rows())


def _det(rows, cols):
    """The determinant of the square block rows[k][cols[j]] of the first
    len(cols) rows, by expansion along its first row."""
    if len(cols) == 1:
        return rows[0][cols[0]]
    total, sign = 0, 1
    for j, c in enumerate(cols):
        a = rows[0][c]
        if a:
            total = total + sign * a * _det(rows[1:], cols[:j] + cols[j + 1:])
        sign = -sign
    return total


def pair_row_with_weight(row, mu):
    """Pair row functionals (numerators, den) with the extremal vector of mu:
    the sum of coefficient times the determinant at the wedge's columns.
    This is the numerator of the minor over den**level, den > 0."""
    rows, _ = row
    total = 0
    for cols, coeff in _extremal_by_weight(mu.n1, mu.n2):
        total = total + coeff * _det(rows, cols)
    return total


def over_denominator(total, den, mu):
    """The minor at mu whose pairing is ``total`` over the fold's ``den``:
    total / den**level, one ``Fraction`` for an int pairing (a ``Poly``
    divides itself)."""
    d = den ** len(_extremal_by_weight(mu.n1, mu.n2)[0][0])
    return Fraction(total, d) if isinstance(total, int) else total / d


def _minor(row, mu):
    return over_denominator(pair_row_with_weight(row, mu), row[1], mu)


def minor(g, mu):
    """Delta^mu(g), mu = w*omega_i: coefficient of v_{omega_i} in g . v_mu."""
    return _minor(highest_row(g), mu)


def minor_lower(g, mu):
    """Delta_-^mu(g), mu = w*omega_i: coefficient of v_{-omega_i} in g . v_mu."""
    return _minor(lowest_row(g), mu)


#: epsilon labels of the level-1 and level-2 chamber weights in display order
LEVEL1_LABELS = ("e1", "-e3", "-e2", "e2", "e3", "-e1")
LEVEL2_LABELS = ("e1-e3", "e1-e2", "e2-e3", "e3-e2", "e2-e1", "e3-e1")


@lru_cache(maxsize=None)
def symbolic_minors():
    """All 12 minors of x_2(a) x_1(b) x_2(c) x_1(d) x_2(e) x_1(f).

    Returns an ordered dict label -> Poly over Q[a..f], with the level-1
    labels first.  This is the calibration table for all sign
    conventions in the package.
    """
    point = rep.group_product(rep.x(i, t) for i, t in zip(WORD_I_TILDE, variables()))
    row = highest_row(point)
    return {label: _minor(row, weight_by_label(label)) for label in LEVEL1_LABELS + LEVEL2_LABELS}
