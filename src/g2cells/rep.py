"""Exact matrix model of the group of type G2.

The group is carried in ``V7``, the 7-dimensional fundamental
representation with highest weight omega1, built from explicit
Chevalley generator matrices.  V7 is faithful, so a group element is
its 7x7 matrix; the minors of level 2 are 2x2 minors of that matrix
(V(omega2) sits in the exterior square of V7, see ``minors``), so no
second representation is built.  The basis is ordered by strictly
decreasing weight height, so every e_i is strictly upper triangular
and every f_i strictly lower.

The representation is built over Python ints.  The generators are
integer matrices, and so are their divided powers E^k/k!: the basis
spans Kostant's Z-form, a lattice stable under every divided power.
The k! of a divided power is an exact division and raises
``ArithmeticError`` on a remainder.  Each one-parameter subgroup keeps
one divided-power table, ``Representation._int_terms``: the entries
(k, row, col, value) of E^k/k!, which only the one-parameter atoms of
the fold read.

One-parameter subgroups are exact truncated exponentials (the
generators are nilpotent) and torus elements are diagonal in the weight
basis.  A group element is the word of generator atoms that produced
it: products concatenate words, inverses reverse them, and a matrix is
folded from the word, sparse atom by sparse atom, only when it is first
read.  Dense matrix products run only while the representation is
built.  Only this module writes an atom or builds a ``GroupElement``
from a word: the rest of the package starts from ``x``, ``y``,
``sdot``, ``sdot_inverse``, ``coweight`` and ``wdot``, and joins
elements with ``*`` or ``group_product``.

Every atom is read one way, as integral sparse entries over a positive
denominator (``_atom_rows``): x_i(p/q) and y_i(p/q) from the integral
divided-power tables scaled by q^K, a torus element over the least
common denominator of its eigenvalues, and the Weyl representatives
with denominator 1.  There is one fold, ``_fold_rows``: it carries a
block of row vectors as Python int numerators over one common
denominator along the word, and builds no ``Fraction``.

There is one reader of rows of an element, ``apply_covector``: a block
of int covectors times g.  Every block of unit covectors is a slice of
``UNIT_ROWS``: the minors fold rows 0 and 1 (of the identity or of
wdot(w0)), the Bruhat positions rows 0 and 1 or 5 and 6.  The whole
matrix, ``GroupElement.rows``, is the seven unit rows folded once and
kept; only the unipotence predicates, ``==`` and the ``Fraction`` view
``m7`` read it.  Once it is kept, ``apply_covector`` multiplies its
block into it instead of walking the word again.  A word made only of
x atoms lies in U+ and one made only of y atoms in U-, so the
unipotence predicates read such words without folding a matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import linalg
from .weyl import V7_WEIGHTS

__all__ = [
    "Representation",
    "GroupElement",
    "build_representations",
    "x",
    "y",
    "sdot",
    "sdot_inverse",
    "coweight",
    "wdot",
    "group_identity",
    "group_product",
    "apply_covector",
    "UNIT_ROWS",
    "is_upper",
    "is_lower",
    "is_unipotent_upper",
    "is_unipotent_lower",
]


def _unit(i, j, c=1, n=7):
    return tuple(tuple(c if (r, s) == (i, j) else 0 for s in range(n)) for r in range(n))


def _exact_div(a, b):
    """a // b for ints that b must divide: a remainder would leave the lattice."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("%s / %s is not integral" % (a, b))
    return q


def _madd(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = linalg.mat_add(out, m)
    return out


# Chevalley generators of the 7-dimensional representation in the basis
# of V7_WEIGHTS, normalized so that the lattice spanned by the basis is stable
# under all divided powers e_i^k / k!, f_i^k / k!.
_E1_7 = _madd(_unit(0, 1), _unit(2, 3, 2), _unit(3, 4), _unit(5, 6))
_F1_7 = _madd(_unit(1, 0), _unit(3, 2), _unit(4, 3, 2), _unit(6, 5))
_E2_7 = _madd(_unit(1, 2), _unit(4, 5))
_F2_7 = _madd(_unit(2, 1), _unit(5, 4))


class Representation:
    """An exact matrix representation with a weight-ordered basis."""

    def __init__(self, weights, e, f):
        self.dim = len(weights)
        self.weights = tuple(weights)
        self.e = dict(e)
        self.f = dict(f)
        self.h = {i: linalg.commutator(self.e[i], self.f[i]) for i in (1, 2)}
        # the one divided-power table, read only by one_parameter_rows: the
        # nonzero entries (k, r, c, value) of E^k / k! for k = 1, 2, ...
        # until the powers vanish, each an exact quotient, so a power off
        # the lattice raises ArithmeticError
        self._int_terms = {}
        self.nilpotency = {}
        for kind, mats in (("x", self.e), ("y", self.f)):
            for i in (1, 2):
                terms = []
                power, k, fact = mats[i], 1, 1
                while not linalg.is_zero_matrix(power):
                    terms.extend(
                        (k, r, c, _exact_div(v, fact))
                        for r, row in enumerate(power)
                        for c, v in enumerate(row)
                        if v
                    )
                    k += 1
                    fact *= k
                    power = linalg.mat_mul(power, mats[i])
                self._int_terms[(kind, i)] = tuple(terms)
                self.nilpotency[(kind, i)] = k

    def one_parameter_rows(self, kind, i, t):
        """Integral entries of exp(t e_i) - 1 / exp(t f_i) - 1, and their denominator.

        For t = p/q and top power K = nilpotency - 1, the entries
        (row, col, value) are those of sum_k p^k q^(K-k) E^k/k!, so the
        atom is 1 + entries / q^K; a parameter that is not a ``Fraction``
        (an int, or a ``Poly``) counts as p/1.  The unit diagonal is left
        out, so that folding a unipotent atom never multiplies by 1.
        Returns (entries, q^K).
        """
        p, q = (t.numerator, t.denominator) if isinstance(t, Fraction) else (t, 1)
        top = self.nilpotency[(kind, i)] - 1
        scales = [p**k * q ** (top - k) for k in range(top + 1)]
        return [(r, c, v * scales[k]) for k, r, c, v in self._int_terms[(kind, i)]], q**top

    def coweight_diagonal(self, i, t):
        """Eigenvalues t^<alpha_i^vee, mu> of the torus element, basis by basis,
        as integral numerators over their least common denominator."""
        if t == 0:
            raise ValueError("coweight argument must be nonzero")
        t = Fraction(t)
        vals = [t ** mu.pairing(i) for mu in self.weights]
        den = lcm(*(v.denominator for v in vals))
        return [v.numerator * (den // v.denominator) for v in vals], den


@lru_cache(maxsize=None)
def build_representations():
    """The representation V7, built once and shared read-only."""
    return Representation(V7_WEIGHTS, {1: _E1_7, 2: _E2_7}, {1: _F1_7, 2: _F2_7})


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------


def _atom_rows(atom):
    """(unit, entries, den): the atom's matrix as its nonzero integral
    entries (row, col, value) over the positive denominator den.

    When ``unit`` is true the matrix is 1 + entries / den: the unit
    diagonal of x and y is implied, not listed.  Otherwise it is
    entries / den.  The fold reads every atom through here.
    """
    kind = atom[0]
    if kind in ("x", "y"):
        entries, den = build_representations().one_parameter_rows(kind, atom[1], atom[2])
        return True, entries, den
    if kind == "coweight":
        diagonal, den = build_representations().coweight_diagonal(atom[1], atom[2])
        return False, [(k, k, v) for k, v in enumerate(diagonal)], den
    if kind in ("sdot", "sdot_inv"):
        return False, _weyl_rows(kind, atom[1]), 1
    raise ValueError("unknown atom %r" % (atom,))


def _fold_rows(rows, den, atoms):
    """(rows . (product of the atoms' matrices), den'), over the integers.

    ``rows`` is a block of row vectors, each entry a numerator over the
    common positive denominator ``den``.  Each atom multiplies its own
    denominator into ``den`` and into the rows it leaves in place, so
    the rows stay integral (or ``Poly``s with integral coefficients) and
    no ``Fraction`` is built.  This is the package's only fold.
    """
    for atom in atoms:
        unit, entries, d = _atom_rows(atom)
        folded = []
        for row in rows:
            if unit:
                out = [u * d for u in row] if d != 1 else list(row)
            else:
                out = [0] * len(row)
            for r, c, v in entries:
                u = row[r]
                if u:
                    out[c] = out[c] + u * v
            folded.append(out)
        rows = folded
        den *= d
    return rows, den


#: the unit rows e_0, ..., e_6 of V7: every block of unit covectors that is
#: folded is a slice of it
UNIT_ROWS = tuple(tuple(int(j == i) for j in range(7)) for i in range(7))


@lru_cache(maxsize=4)
def _weyl_rows(kind, i):
    """Integral entries of sdot_i = x_i(1) y_i(-1) x_i(1), or of its inverse, folded once.

    The key holds no parameter: two kinds and two letters, so the table
    never exceeds its four entries.
    """
    s = 1 if kind == "sdot" else -1
    rows, den = _fold_rows(UNIT_ROWS, 1, (("x", i, s), ("y", i, -s), ("x", i, s)))
    if den != 1:
        raise ArithmeticError("Weyl representative of %s%d is not integral" % (kind, i))
    return tuple((r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row) if v)


def _fraction_view(rows, den):
    """The matrix rows / den with ``Fraction`` entries, for callers that read
    ``m7``."""
    return tuple(tuple(Fraction(v, den) for v in row) for row in rows)


def _invert_atom(atom):
    kind = atom[0]
    if kind == "x":
        return ("x", atom[1], -atom[2])
    if kind == "y":
        return ("y", atom[1], -atom[2])
    if kind == "sdot":
        return ("sdot_inv", atom[1])
    if kind == "sdot_inv":
        return ("sdot", atom[1])
    if kind == "coweight":
        t = atom[2]
        return ("coweight", atom[1], Fraction(1) / Fraction(t))
    raise ValueError("unknown atom %r" % (atom,))


class GroupElement:
    """A group element, carried as the word of atoms that produced it.

    ``provenance`` is the word of generator atoms that produced the
    element.  Products concatenate words.  ``rows`` is the V7 matrix as
    integral rows over one common denominator, the unit rows folded
    along the word when it is first read, and kept.  ``m7`` is a
    ``Fraction`` view, built only when read.
    """

    __slots__ = ("provenance", "_rows", "_m7")

    def __init__(self, provenance):
        self.provenance = tuple(provenance)
        self._rows = None
        self._m7 = None

    @property
    def rows(self):
        """The V7 matrix as (rows, den): integral rows over a positive int."""
        if self._rows is None:
            rows, den = _fold_rows(UNIT_ROWS, 1, self.provenance)
            self._rows = tuple(map(tuple, rows)), den
        return self._rows

    def left_multiply(self, rows):
        """The body of ``apply_covector``: the block is multiplied into the
        kept matrix once ``rows`` has been read, and folded along the word
        before.  The fold is linear in the block, so both give the same
        numerators over the same den."""
        if self._rows is None:
            return _fold_rows([list(row) for row in rows], 1, self.provenance)
        matrix, den = self._rows
        out = []
        for row in rows:
            acc = [0] * 7
            for u, line in zip(row, matrix):
                if u:
                    acc = [a + u * v for a, v in zip(acc, line)]
            out.append(acc)
        return out, den

    @property
    def m7(self):
        if self._m7 is None:
            self._m7 = _fraction_view(*self.rows)
        return self._m7

    def __mul__(self, other):
        return GroupElement(self.provenance + other.provenance)

    def inverse(self):
        return GroupElement([_invert_atom(a) for a in reversed(self.provenance)])

    def __eq__(self, other):
        # V7 is faithful for G2, so the 7x7 matrix identifies the element;
        # a / da == b / db is compared as a * db == b * da
        if not isinstance(other, GroupElement):
            return False
        (a, da), (b, db) = self.rows, other.rows
        return all(
            u * db == v * da for ra, rb in zip(a, b) for u, v in zip(ra, rb)
        )

    def __repr__(self):
        return "GroupElement(%s)" % (", ".join(map(_atom_repr, self.provenance)) or "1")


def _atom_repr(atom):
    if atom[0] in ("x", "y"):
        return "%s%d(%s)" % (atom[0], atom[1], atom[2])
    if atom[0] == "sdot":
        return "s%d." % atom[1]
    if atom[0] == "sdot_inv":
        return "s%d.^-1" % atom[1]
    return "%s%d(%s)" % (atom[0], atom[1], atom[2])


def group_identity():
    return GroupElement(())


def group_product(elements):
    """The product of the elements in order: one element, whose word is
    the concatenation of their words.  The word is gathered in a list:
    built from a generator, it kept about 0.1 MiB more memory resident."""
    return GroupElement([atom for g in elements for atom in g.provenance])


def x(i, t):
    """One-parameter subgroup exp(t e_i)."""
    return GroupElement((("x", i, t),))


def y(i, t):
    """One-parameter subgroup exp(t f_i)."""
    return GroupElement((("y", i, t),))


def sdot(i):
    """The Weyl representative x_i(1) y_i(-1) x_i(1)."""
    return GroupElement((("sdot", i),))


def sdot_inverse(i):
    return GroupElement((("sdot_inv", i),))


def coweight(i, t):
    """The torus element with eigenvalue t^<alpha_i^vee, mu> on weight mu."""
    if t == 0:
        raise ValueError("coweight argument must be nonzero")
    return GroupElement((("coweight", i, t),))


@lru_cache(maxsize=None)
def wdot(w):
    """Representative of w, the product of sdot along any reduced word."""
    atoms = tuple(("sdot", i) for i in w.word)
    return GroupElement(atoms)


def apply_covector(g, rows):
    """rows . g for a block of int row vectors, the one reader of rows of an
    element: (numerators, den), entry j of row k of rows . g being
    numerators[k][j] / den with den a positive int."""
    return g.left_multiply(rows)


# ---------------------------------------------------------------------------
# triangularity predicates, read from the integral rows: a unit diagonal
# entry equals the denominator
# ---------------------------------------------------------------------------


def is_upper(g):
    rows, _ = g.rows
    return all(not any(row[:i]) for i, row in enumerate(rows))


def is_lower(g):
    rows, _ = g.rows
    return all(not any(row[i + 1:]) for i, row in enumerate(rows))


def is_unipotent_upper(g):
    # a product of x atoms lies in U+, so such a word needs no fold
    if all(atom[0] == "x" for atom in g.provenance):
        return True
    rows, den = g.rows
    return is_upper(g) and all(rows[i][i] == den for i in range(7))


def is_unipotent_lower(g):
    # a product of y atoms lies in U-, so such a word needs no fold
    if all(atom[0] == "y" for atom in g.provenance):
        return True
    rows, den = g.rows
    return is_lower(g) and all(rows[i][i] == den for i in range(7))

