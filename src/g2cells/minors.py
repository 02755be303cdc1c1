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

Every minor, of either level, is read one way, by ``read_minors``.  The
top two rows of the identity (or of wdot(w0)) are folded along the word
of g once, and a minor of level l pairs the first l rows of that block
with the one wedge of its extremal vector: its coefficient times an
entry of row 0 (level 1) or a 2x2 minor of rows 0 and 1 (level 2).  The
wedge is read off the signed permutation wbar once per weight, with no
determinant; a ``minor_reader`` keeps the wedges of its weights, and the
kernel of the fold returns their pairings.  All minors of a point, of
both levels, share a single fold.  The fold runs over the integers and
returns numerators over one positive denominator den, and the pairing
is integral too: the numerator of the minor over den**l.  ``minor``,
``minor_lower`` and ``symbolic_minors`` read the 12 chamber weights and
divide by den**l; the Chamber Ansatz reads its eight and divides once
per parameter, or not at all for the signs alone.  ``highest_row`` and
``lowest_row`` give the folded rows themselves, for the Bruhat
positions, and ``pair_row_with_weight`` pairs them with one weight, the
tests' reference.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import rep
from .scalars import variables
from .weyl import OMEGA, W, WORD_I_TILDE, Weight, weight_by_label

__all__ = [
    "minor",
    "minor_lower",
    "minor_reader",
    "read_minors",
    "pair_row_with_weight",
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
    """The one wedge (columns, coefficient) of v_{w omega_l} = wbar . v_{omega_l},
    with wbar the product of sdot_j^-1 along the minimal word of w, a
    signed permutation: each of its first l columns holds one nonzero
    entry, in a row of its own, or ``ArithmeticError`` is raised.  The
    sorted rows are the columns, and the coefficient is the product of the
    entries, negated if sorting swapped them.  Keyed by the two ints, not a
    slower-hashing ``Weight``: each factorization looks it up eight times."""
    w, level = weight_to_chamber(Weight(n1, n2))
    rows, _ = rep.apply_covector(rep.word("sdot_inv", w.word), rep.UNIT_ROWS)
    wedge, coeff = [], 1
    for c in range(level):
        entries = [(r, row[c]) for r, row in enumerate(rows) if row[c]]
        if len(entries) != 1 or entries[0][0] in wedge:
            raise ArithmeticError("column %d of the representative of %s is no signed unit" % (c, w))
        wedge.append(entries[0][0])
        coeff *= entries[0][1]
    columns = tuple(sorted(wedge))
    return columns, coeff if wedge == list(columns) else -coeff


@lru_cache(maxsize=None)
def _lowest_rows():
    """Rows 0 and 1 of wdot(w0), which sends v_{-omega} to v_omega: their
    fold reads the coefficient of v_{-omega}, as rows 0 and 1 of the
    identity read that of v_omega; a minor of level l reads the first l."""
    return tuple(map(tuple, rep.apply_covector(rep.wdot(W.w0), rep.UNIT_ROWS[:2])[0]))


@lru_cache(maxsize=None)
def _row_block(lowest):
    """Rows 0 and 1 of wdot(w0) (``lowest``) or of the identity, as the
    ``rep.Block`` that every read of the direction folds, built once."""
    return rep.Block(_lowest_rows() if lowest else rep.UNIT_ROWS[:2])


def highest_row(g):
    """The row functionals v -> coefficient of v_omega in g.v: the top two
    rows of g, as (numerators, denominator)."""
    return rep.apply_covector(g, _row_block(False))


def lowest_row(g):
    """The row functionals v -> coefficient of v_{-omega} in g.v."""
    return rep.apply_covector(g, _row_block(True))


def pair_row_with_weight(row, mu):
    """Pair row functionals (numerators, den) with the one wedge of the
    extremal vector of mu: its coefficient times the entry of row 0 at its
    column (level 1), or times the 2x2 minor of rows 0 and 1 at its two
    columns (level 2).  This is the numerator of the minor over
    den**level, den > 0.  The sign of the minor's second term is an int
    factor, since a ``Poly`` has no subtraction.  ``read_minors`` reads
    the same pairings inside the fold."""
    rows, _ = row
    columns, coeff = _extremal_by_weight(mu.n1, mu.n2)
    top = rows[0]
    if len(columns) == 1:
        return coeff * top[columns[0]]
    a, b = columns
    low = rows[1]
    return coeff * (top[a] * low[b]) + -coeff * (top[b] * low[a])


def minor_reader(weights, lowest):
    """The reader of the minors at ``weights``, highest or, if ``lowest``,
    lowest: a ``rep.Block`` of the rows ``highest_row`` or ``lowest_row``
    folds, with the one wedge of each weight, resolved here once.  Build
    it once per set of weights and keep it, since the kernels that read it
    are keyed by the reader itself."""
    wedges = [_extremal_by_weight(mu.n1, mu.n2) for mu in weights]
    return rep.Block(_row_block(lowest).entries, wedges)


def read_minors(g, reader):
    """(values, den) from one fold of g, the one reader of chamber minors:
    values[k] is the numerator of the minor at the k-th weight of
    ``reader`` over den**level, den > 0, each pairing read inside the
    fold."""
    return rep.apply_covector(g, reader)


#: epsilon labels of the level-1 and level-2 chamber weights in display order
LEVEL1_LABELS = ("e1", "-e3", "-e2", "e2", "e3", "-e1")
LEVEL2_LABELS = ("e1-e3", "e1-e2", "e2-e3", "e3-e2", "e2-e1", "e3-e1")

#: the 12 chamber weights in display order, level 1 first
_CHAMBER_WEIGHTS = tuple(map(weight_by_label, LEVEL1_LABELS + LEVEL2_LABELS))


@lru_cache(maxsize=None)
def _chamber_reader(lowest):
    """The reader of the 12 chamber minors of one direction, built once."""
    return minor_reader(_CHAMBER_WEIGHTS, lowest)


def _quotient(value, d):
    # one Fraction for an int pairing (a Poly divides itself)
    return Fraction(value, d) if isinstance(value, int) else value / d


def _minor(g, mu, lowest):
    """The minor at mu, read with the 12 chamber weights: its pairing over
    den**level.  A weight off both orbits raises ``ValueError``."""
    level = len(_extremal_by_weight(mu.n1, mu.n2)[0])
    values, den = read_minors(g, _chamber_reader(lowest))
    return _quotient(values[_CHAMBER_WEIGHTS.index(mu)], den**level)


def minor(g, mu):
    """Delta^mu(g), mu = w*omega_i: coefficient of v_{omega_i} in g . v_mu."""
    return _minor(g, mu, False)


def minor_lower(g, mu):
    """Delta_-^mu(g), mu = w*omega_i: coefficient of v_{-omega_i} in g . v_mu."""
    return _minor(g, mu, True)


def symbolic_minors():
    """All 12 minors of x_2(a) x_1(b) x_2(c) x_1(d) x_2(e) x_1(f).

    Returns an ordered dict label -> Poly over Q[a..f], with the level-1
    labels first.  This is the calibration table for all sign
    conventions in the package.
    """
    reader = _chamber_reader(False)
    values, den = read_minors(rep.word("x", WORD_I_TILDE, variables()), reader)
    return {
        label: _quotient(value, den ** len(columns))
        for label, value, (columns, _) in zip(LEVEL1_LABELS + LEVEL2_LABELS, values, reader.wedges)
    }
