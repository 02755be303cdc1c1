"""Deodhar cell parameterizations and Bruhat-position computations.

Each distinguished subexpression sigma of the word (1,2,1,2,1,2) gives
a family of points

    z_1 ... z_6,   z_j = y_{i_j}(t_j)            for j in I(sigma),
                   z_j = s_{i_j}dot              for j in J(sigma),
                   z_j = x_{i_j}(m_j) s_{i_j}dot^-1   for j in K(sigma),

with t_j nonzero and m_j arbitrary.  Sign choices h on the I positions
select the connected components; the display string convention is '+'
or '-' at I positions, '0' at J positions and '*' at K positions, so
the number of zeros is the codimension.

Flags are always carried as coset representative matrices, and relative
positions reduce to one scan, the top-left rank profile of rows 0 and 1
(``linalg``), whose pivots name the element in one table, ``_PIVOTS``.
The w of g in B- w B+ is read off rows 0 and 1 of g.  Since
w0dot B+ w0dot^-1 = B-, the w of g in B+ w B+ is w0 times the one read
off rows 0 and 1 of w0dot g: the two blocks ``minors`` folds.

Two rows suffice for g in G2.  Row 0 of g is e_0^T g, and rows 0 and 1
span e_0^T ^ e_1^T g; the lines [e_0^T] and [e_0^T ^ e_1^T] of
V(omega1)* and V(omega2)* are B- -stable.  So for g = b wdot b' with b
in B- and b' in B+, row 0 leads in the column of weight w^-1 omega1,
and rows 0 and 1 lead in two columns whose weights add up to
w^-1 omega2.  Since omega1 + omega2 is regular, these two weights fix
w.  Outside G2 the argument fails: a matrix that swaps lines 0 and 1
lies in no double coset of a Weyl element, yet its two top rows read
as s1.  So the positions take only a ``rep.GroupElement``, which lies
in G2 because ``rep`` builds one only from G2 atoms, and refuse any
other input with ``TypeError``.

Both positions read their two rows through ``rep.apply_covector``, so
an element whose matrix is kept folds nothing more, and drop the common
denominator: a row scale moves no pivot.  A position chain folds e_0
and e_1 factor by factor.  The flag identity of ``chamber`` is the plus
position at the identity, since B+ e B+ = B+.

Random coordinates come from ``sample_signed``: per coordinate, one
pick from a table, built once, of the 625 values sign * p / q per sign,
p and q in ``PRIMES``, with the row of the numerator p drawn before the
denominator q, and the sign drawn before both where it is not given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg, minors, rep
from .weyl import W, WORD_I, Subexpression, enumerate_distinguished

__all__ = [
    "CellId",
    "families",
    "family_by_name",
    "cell_by_display",
    "cell_factors",
    "cell_point",
    "bruhat_position_mixed",
    "bruhat_position_plus",
    "verify_cell_chain",
    "verify_factor_chain",
    "expected_chain",
    "position_chain",
    "factor_chain",
    "sample_signed",
    "sample_magnitude",
    "PRIMES",
]

#: primes up to 97, the magnitude pool for parameter sampling
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
          53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


@lru_cache(maxsize=None)
def _signed_draws():
    """Sign -> one row per prime numerator p of the ``Fraction``s
    sign * p / q, q over ``PRIMES``: the 1,250 values a draw picks from,
    built on the first draw."""
    return {
        sign: tuple(tuple(Fraction(sign * p, q) for q in PRIMES) for p in PRIMES)
        for sign in (1, -1)
    }


def sample_signed(rng, signs):
    """One rational per sign of ``signs`` (1, -1 or None), each with prime
    numerator and denominator, as a tuple of ``Fraction``s.

    A sign of None is drawn first, as ``rng.choice((1, -1))``.  Then the
    numerator's row of the signed table is drawn, then the denominator
    within it, so each value is
    ``Fraction(sign * rng.choice(PRIMES), rng.choice(PRIMES))`` on the
    same stream, and no draw builds a ``Fraction``.  The table is looked
    up once per call.  Any other sign raises ``ValueError`` before its
    draw.
    """
    table = _signed_draws()
    values = []
    for sign in signs:
        rows = table.get(rng.choice((1, -1)) if sign is None else sign)
        if rows is None:
            raise ValueError("sign must be 1 or -1, not %r" % (sign,))
        values.append(rng.choice(rng.choice(rows)))
    return tuple(values)


def sample_magnitude(rng, sign=1):
    """``sample_signed(rng, (sign,))``'s one value: a rational of the given
    sign (1 or -1) with prime numerator and denominator."""
    (value,) = sample_signed(rng, (sign,))
    return value


@lru_cache(maxsize=None)
def families():
    """The eight families over the word (1,2,1,2,1,2): its distinguished subexpressions."""
    fams = tuple(enumerate_distinguished(WORD_I))
    if not {f.codim for f in fams} <= {0, 1, 2}:
        raise RuntimeError("a family of 121212 has codimension above 2")
    return fams


def family_by_name(name):
    for fam in families():
        if fam.name == name:
            return fam
    raise KeyError("unknown cell family %r" % (name,))


@dataclass(frozen=True)
class CellId:
    """A cell D_sigma(h): a family plus a sign per R*-coordinate."""

    family: Subexpression
    h: tuple  # one +1/-1 per I position, in increasing position order

    def __post_init__(self):
        if len(self.h) != len(self.family.I):
            raise ValueError("sign vector length must match |I|")
        if any(s not in (1, -1) for s in self.h):
            raise ValueError("signs must be +1 or -1")

    def display(self):
        """'+'/'-' at I positions, '0' at J positions, '*' at K positions."""
        signs = iter(self.h)
        return "".join(
            ("+" if next(signs) > 0 else "-") if r == "t" else "0" if r == "0" else "*"
            for r in self.family.layout
        )

    def __repr__(self):
        return "CellId(%s)" % self.display()


#: a display read as a layout: a sign is a 't' and '*' an 'm'; a 't' or an
#: 'm' in the display is deleted, so that it matches no layout
_LAYOUT_OF_DISPLAY = str.maketrans("+-*", "ttm", "tm")


def cell_by_display(display):
    """Recover (family, h) from a display string such as '0+*0-*'."""
    if len(display) != 6:
        raise ValueError("display strings have six symbols")
    layout = display.translate(_LAYOUT_OF_DISPLAY)
    for fam in families():
        if fam.layout == layout:
            return CellId(fam, tuple(1 if ch == "+" else -1 for ch in display if ch in "+-"))
    raise KeyError("no cell family matches %r" % (display,))


def cell_factors(cell, t, m):
    """The factors z_1, ..., z_6 at the given coordinates, as group elements:
    ``cell_point`` is their product, and ``factor_chain`` reads the
    position chain of their partial products.  The coordinates are passed to
    the atoms as they are, so a float or a string raises the atom's
    ``TypeError`` before any comparison.  The zero and sign checks read the
    rational t only: a ``Poly`` t folds symbolically."""
    fam = cell.family
    if len(t) != len(fam.I) or len(m) != len(fam.K):
        raise ValueError("expected %d t's and %d m's" % (len(fam.I), len(fam.K)))
    ti, mi = iter(t), iter(m)
    factors = [
        rep.y(letter, next(ti)) if r == "t"
        else rep.sdot(letter) if r == "0"
        else rep.x(letter, next(mi)) * rep.sdot_inverse(letter)
        for letter, r in zip(fam.word, fam.layout)
    ]
    for val, sign in zip(t, cell.h):
        if not isinstance(val, (int, Fraction)):
            continue
        if val == 0:
            raise ValueError("t coordinates must be nonzero")
        if (val > 0) != (sign > 0):
            raise ValueError("t coordinate %s violates the sign choice" % val)
    return factors


def cell_point(cell, t, m):
    """The product z_1 ... z_6 at the given coordinates.

    ``t`` lists the R*-coordinates (I positions, in order), each with
    the sign required by the cell; ``m`` lists the R-coordinates.
    """
    return rep.group_product(cell_factors(cell, t, m))


def _by_pivots(elements):
    """Each element keyed by the lines it sends to lines 0 and 1, the pivots
    of rows 0 and 1 in B- wdot B+; a shared key raises ``RuntimeError``."""
    table = {}
    for el in elements:
        key = (el.perm.index(0), el.perm.index(1))
        if key in table:
            raise RuntimeError("lines 0 and 1 do not tell %r from %r" % (table[key], el))
        table[key] = el
    return table


_PIVOTS = _by_pivots(W.elements)


def _mixed_from_top_rows(rows):
    # p[j] = i < 2: row i leads in column j once row 1 is reduced against row 0
    p = linalg.bruhat_permutation_topleft(rows)
    key = (p.index(0), p.index(1))
    w = _PIVOTS.get(key)
    if w is None:
        raise ArithmeticError("pivot columns %r are not those of a Weyl element" % (key,))
    return w


def _folded(g, read):
    """The numerators of the block ``read`` folds through the
    ``rep.GroupElement`` g, without the common denominator: it scales no rank."""
    if not isinstance(g, rep.GroupElement):
        raise TypeError(
            "a Bruhat position takes a rep.GroupElement, not %s" % type(g).__name__
        )
    return read(g)[0]


def bruhat_position_mixed(g):
    """The w with g in B- wdot B+, from the top-left rank profile of rows 0
    and 1 of its integral V7 matrix.  ``g`` must be a
    ``rep.GroupElement``."""
    return _mixed_from_top_rows(_folded(g, minors.highest_row))


def bruhat_position_plus(g):
    """The w with g in B+ wdot B+: w0 times the mixed position of w0dot g,
    read from rows 0 and 1 of w0dot g without forming it.  ``g`` must be a
    ``rep.GroupElement``."""
    return W.w0 * _mixed_from_top_rows(_folded(g, minors.lowest_row))


def factor_chain(factors):
    """Relative positions of B- to the flags of the partial products of
    ``factors``, as from ``cell_factors``.

    Returns the Weyl elements w with B- -> B_j in position w for
    j = 0..6; membership of the point in the cell is equivalent to this
    chain equalling (w0 sigma_j).  Rows 0 and 1 of each partial product
    are folded on from those of the one before, without the common
    denominator.
    """
    chain = [W.w0]
    rows = rep.UNIT_ROWS[:2]
    for z in factors:
        rows, _ = rep.apply_covector(z, rows)
        chain.append(W.w0 * _mixed_from_top_rows(rows))
    return tuple(chain)


def position_chain(cell, t, m):
    """The ``factor_chain`` of the cell's factors at the given coordinates."""
    return factor_chain(cell_factors(cell, t, m))


def expected_chain(cell):
    """The chain (w0 sigma_j) that ``factor_chain`` gives at every point of
    the cell."""
    return tuple(W.w0 * s for s in cell.family.sigma)


def verify_factor_chain(cell, factors):
    """True iff every partial product of the cell's ``factors`` sits in
    B- sigma_j B+."""
    try:
        return factor_chain(factors) == expected_chain(cell)
    except ArithmeticError:
        return False


def verify_cell_chain(cell, t, m):
    """True iff every partial product sits in B- sigma_j B+."""
    return verify_factor_chain(cell, cell_factors(cell, t, m))
