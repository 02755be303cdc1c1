"""Exact matrix models of the group of type G2.

Two representations are carried everywhere:

* ``V7``, the 7-dimensional fundamental representation with highest
  weight omega1, built from explicit Chevalley generator matrices, and
* ``V14``, the adjoint representation with highest weight omega2,
  realized on a Chevalley basis of the 14-dimensional Lie algebra
  generated inside 7x7 matrices (one vector per root plus h1, h2).

Both bases are ordered by strictly decreasing weight height, so every
e_i is strictly upper triangular and every f_i strictly lower.  Basis
ties in V14 (the two height-1 roots, the zero space, and their mirrors)
are resolved symmetrically: position k and position 13-k carry opposite
weights.

Both are built over Python ints.  The generators are integer matrices,
and so are their divided powers E^k/k! and the adjoint matrices: the
basis spans Kostant's Z-form, a lattice stable under every divided
power.  Each division of the construction (the k! of a divided power,
the p+1 of a root vector, an adjoint coordinate) is exact and raises
``ArithmeticError`` on a remainder, and the adjoint coordinates must
rebuild their matrix entry by entry.  Each one-parameter subgroup keeps
one divided-power table, ``Representation._int_terms``: the entries
(k, row, col, value) of E^k/k!, which both the fold and the extremal
vectors of ``minors`` read.

One-parameter subgroups are exact truncated exponentials (the
generators are nilpotent) and torus elements are diagonal in the weight
bases.  A group element is the word of generator atoms that produced
it: products concatenate words, inverses reverse them, and a matrix is
folded from the word, sparse atom by sparse atom, only when it is first
read.  Dense matrix products run only while the representations are
built.

Every atom is read one way, as integral sparse entries over a positive
denominator (``_atom_rows``): x_i(p/q) and y_i(p/q) from the integral
divided-power tables scaled by q^K, a torus element over the least
common denominator of its eigenvalues, and the Weyl representatives
with denominator 1.  There is one fold, ``_fold_rows``: it carries a
block of row vectors as Python int numerators over one common
denominator along the word, and builds no ``Fraction``.  A covector
(``apply_covector``, which the minors read) is its one-row case, and a
matrix (``matrix_rows``) is the block of unit rows.  A group element
keeps its V7 matrix as such integral rows; equality cross-multiplies
them, the triangularity predicates read them (a unit diagonal entry
equals the denominator), and ``m7``/``m14`` are ``Fraction`` views
built only for callers that read them.  A word made only of x atoms
lies in U+ and one made only of y atoms in U-, so the unipotence
predicates read such words without folding a matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import linalg
from .weyl import ALPHA, Weight

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
    "prefix_products",
    "matrix_rows",
    "is_upper",
    "is_lower",
    "is_unipotent_upper",
    "is_unipotent_lower",
    "generator_fixture",
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


#: V7 basis weights, strictly decreasing height: eps1, -eps3, -eps2, 0, eps2, eps3, -eps1
V7_WEIGHTS = (
    Weight(1, 0),
    Weight(-1, 1),
    Weight(2, -1),
    Weight(0, 0),
    Weight(-2, 1),
    Weight(1, -1),
    Weight(-1, 0),
)

# Chevalley generators of the 7-dimensional representation in the basis
# above, normalized so that the lattice spanned by the basis is stable
# under all divided powers e_i^k / k!, f_i^k / k!.
_E1_7 = _madd(_unit(0, 1), _unit(2, 3, 2), _unit(3, 4), _unit(5, 6))
_F1_7 = _madd(_unit(1, 0), _unit(3, 2), _unit(4, 3, 2), _unit(6, 5))
_E2_7 = _madd(_unit(1, 2), _unit(4, 5))
_F2_7 = _madd(_unit(2, 1), _unit(5, 4))


class Representation:
    """An exact matrix representation with a weight-ordered basis."""

    def __init__(self, label, weights, e, f):
        self.label = label
        self.dim = len(weights)
        self.weights = tuple(weights)
        self.e = dict(e)
        self.f = dict(f)
        self.h = {i: linalg.commutator(self.e[i], self.f[i]) for i in (1, 2)}
        # the one divided-power table: the nonzero entries (k, r, c, value)
        # of E^k / k! for k = 1, 2, ... until the powers vanish, each an
        # exact quotient, so a power off the lattice raises ArithmeticError
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


def _coordinates_in_basis(M, basis, h_pair):
    """Integer coefficients of M in a basis of matrices with disjoint root supports.

    Each basis matrix is given as its nonzero entries (row, col, value).
    A root vector's coefficient is the exact quotient of M by it at its
    first entry; the two diagonal vectors at ``h_pair`` are read from
    M[0][0] and M[1][1].  The basis must then rebuild M entry by entry:
    a remainder or a mismatch raises ArithmeticError.
    """
    coeffs = []
    for k, entries in enumerate(basis):
        if k == h_pair[0]:
            coeffs.append(M[0][0])
        elif k == h_pair[1]:
            coeffs.append(M[1][1] + M[0][0])
        else:
            i, j, v = entries[0]
            coeffs.append(_exact_div(M[i][j], v))
    recon = [[0] * len(row) for row in M]
    for c, entries in zip(coeffs, basis):
        for i, j, v in entries:
            recon[i][j] += c * v
    if any(list(row) != out for row, out in zip(M, recon)):
        raise ArithmeticError("matrix is not in the span of the root basis")
    return coeffs


def _build_adjoint(v7):
    """Chevalley basis of the algebra inside gl7 and the adjoint matrices."""
    e1, e2, f1, f2 = v7.e[1], v7.e[2], v7.f[1], v7.f[2]
    h1, h2 = v7.h[1], v7.h[2]

    def nest(a, b, denom=1):
        c = linalg.commutator(a, b)
        return tuple(tuple(_exact_div(v, denom) for v in row) for row in c)

    # positive root vectors, built by adding one simple root at a time;
    # the divisor p+1 keeps every vector primitive in the matrix lattice
    x_a1 = e1
    x_a2 = e2
    x_a12 = nest(e1, e2)          # alpha1 + alpha2
    x_2a12 = nest(e1, x_a12, 2)   # 2*alpha1 + alpha2
    x_3a12 = nest(e1, x_2a12, 3)  # 3*alpha1 + alpha2
    x_theta = nest(e2, x_3a12)    # 3*alpha1 + 2*alpha2 (highest root)
    y_a1 = f1
    y_a2 = f2
    y_a12 = nest(f1, f2)
    y_2a12 = nest(f1, y_a12, 2)
    y_3a12 = nest(f1, y_2a12, 3)
    y_theta = nest(f2, y_3a12)

    a1, a2 = ALPHA[1], ALPHA[2]
    theta = Weight(3 * a1.n1 + 2 * a2.n1, 3 * a1.n2 + 2 * a2.n2)
    pos = [
        (theta, x_theta),
        (Weight(3 * a1.n1 + a2.n1, 3 * a1.n2 + a2.n2), x_3a12),
        (Weight(2 * a1.n1 + a2.n1, 2 * a1.n2 + a2.n2), x_2a12),
        (a1 + a2, x_a12),
        (a1, x_a1),
        (a2, x_a2),
    ]
    zero = Weight(0, 0)
    neg = [(-wt, {id(x_theta): y_theta,
                  id(x_3a12): y_3a12,
                  id(x_2a12): y_2a12,
                  id(x_a12): y_a12,
                  id(x_a1): y_a1,
                  id(x_a2): y_a2}[id(mat)]) for wt, mat in pos]
    # mirror-symmetric order: position k and 13-k carry opposite weights
    basis = pos + [(zero, h1), (zero, h2)] + list(reversed(neg))
    weights = tuple(wt for wt, _ in basis)
    mats = [mat for _, mat in basis]

    entries = [
        [(i, j, v) for i, row in enumerate(m) for j, v in enumerate(row) if v] for m in mats
    ]

    def ad_matrix(g):
        cols = [_coordinates_in_basis(linalg.commutator(g, m), entries, (6, 7)) for m in mats]
        n = len(mats)
        return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))

    e = {1: ad_matrix(e1), 2: ad_matrix(e2)}
    f = {1: ad_matrix(f1), 2: ad_matrix(f2)}
    return Representation("V14", weights, e, f)


@lru_cache(maxsize=None)
def build_representations():
    """The pair (V7, V14), built once and shared read-only."""
    v7 = Representation("V7", V7_WEIGHTS, {1: _E1_7, 2: _E2_7}, {1: _F1_7, 2: _F2_7})
    v14 = _build_adjoint(v7)
    return v7, v14


def representation(label):
    v7, v14 = build_representations()
    return v7 if label == "V7" else v14


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------


def _atom_rows(atom, label):
    """(unit, entries, den): the atom's matrix as its nonzero integral
    entries (row, col, value) over the positive denominator den.

    When ``unit`` is true the matrix is 1 + entries / den: the unit
    diagonal of x and y is implied, not listed.  Otherwise it is
    entries / den.  The fold reads every atom through here.
    """
    kind = atom[0]
    if kind in ("x", "y"):
        entries, den = representation(label).one_parameter_rows(kind, atom[1], atom[2])
        return True, entries, den
    if kind == "coweight":
        diagonal, den = representation(label).coweight_diagonal(atom[1], atom[2])
        return False, [(k, k, v) for k, v in enumerate(diagonal)], den
    if kind in ("sdot", "sdot_inv"):
        return False, _weyl_rows(kind, atom[1], label), 1
    raise ValueError("unknown atom %r" % (atom,))


def _fold_rows(rows, den, atoms, label):
    """(rows . (product of the atoms' matrices), den'), over the integers.

    ``rows`` is a block of row vectors, each entry a numerator over the
    common positive denominator ``den``.  Each atom multiplies its own
    denominator into ``den`` and into the rows it leaves in place, so
    the rows stay integral (or ``Poly``s with integral coefficients) and
    no ``Fraction`` is built.  This is the package's only fold.
    """
    for atom in atoms:
        unit, entries, d = _atom_rows(atom, label)
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


def _unit_rows(dim, indices):
    """The unit row vectors e_i, i in ``indices``, as lists of ints."""
    return [[1 if j == i else 0 for j in range(dim)] for i in indices]


@lru_cache(maxsize=8)
def _weyl_rows(kind, i, label):
    """Integral entries of sdot_i = x_i(1) y_i(-1) x_i(1), or of its inverse, folded once.

    The key holds no parameter: two kinds, two letters, two
    representations, so the table never exceeds its eight entries.
    """
    s = 1 if kind == "sdot" else -1
    dim = representation(label).dim
    rows, den = _fold_rows(
        _unit_rows(dim, range(dim)), 1, (("x", i, s), ("y", i, -s), ("x", i, s)), label
    )
    if den != 1:
        raise ArithmeticError("Weyl representative of %s%d is not integral" % (kind, i))
    return tuple((r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row) if v)


def matrix_rows(g, label, first=0):
    """Rows first..dim-1 of g's matrix: (rows, den), integral rows over one
    positive common denominator.

    The one entry that folds a group element's matrix rather than a
    covector; ``first`` = 1 leaves out row 0, which an upper triangular
    test does not read.
    """
    dim = representation(label).dim
    rows, den = _fold_rows(_unit_rows(dim, range(first, dim)), 1, g.provenance, label)
    return tuple(map(tuple, rows)), den


def _fraction_view(rows, den):
    """The matrix rows / den with ``Fraction`` entries, for callers that read
    ``m7`` or ``m14``."""
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
    """A group element carried in both representations at once.

    ``provenance`` is the word of generator atoms that produced the
    element.  Products concatenate words.  ``rows`` is the V7 matrix as
    integral rows over one common denominator, folded from the word when
    it is first read, and kept; ``rows`` may be given when the caller has
    already folded it.  ``m7`` and ``m14`` are ``Fraction`` views, built
    only when read.
    """

    __slots__ = ("provenance", "_rows", "_m7", "_m14")

    def __init__(self, provenance, rows=None):
        self.provenance = tuple(provenance)
        self._rows = rows
        self._m7 = None
        self._m14 = None

    @property
    def rows(self):
        """The V7 matrix as (rows, den): integral rows over a positive int."""
        if self._rows is None:
            self._rows = matrix_rows(self, "V7")
        return self._rows

    @property
    def m7(self):
        if self._m7 is None:
            self._m7 = _fraction_view(*self.rows)
        return self._m7

    @property
    def m14(self):
        if self._m14 is None:
            self._m14 = _fraction_view(*matrix_rows(self, "V14"))
        return self._m14

    def matrix(self, label):
        return self.m7 if label == "V7" else self.m14

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

    def __hash__(self):
        # the rows and denominator in lowest terms, so equal elements hash equal
        rows, den = self.rows
        g = gcd(den, *(v for row in rows for v in row))
        return hash((den // g, tuple(tuple(v // g for v in row) for row in rows)))

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
    out = group_identity()
    for g in elements:
        out = out * g
    return out


def prefix_products(words):
    """The partial products of a sequence of atom words.

    Each prefix's integral V7 rows are folded on from those of the
    prefix before it, so the whole chain costs one fold of the full word.
    """
    out = []
    provenance, rows, den = (), _unit_rows(7, range(7)), 1
    for atoms in words:
        provenance += atoms
        rows, den = _fold_rows(rows, den, atoms, "V7")
        out.append(GroupElement(provenance, rows=(tuple(map(tuple, rows)), den)))
    return out


def x(i, t):
    """One-parameter subgroup exp(t e_i)."""
    return GroupElement((("x", i, _as_scalar(t)),))


def y(i, t):
    """One-parameter subgroup exp(t f_i)."""
    return GroupElement((("y", i, _as_scalar(t)),))


def _as_scalar(t):
    if isinstance(t, int):
        return Fraction(t)
    return t


def sdot(i):
    """The Weyl representative x_i(1) y_i(-1) x_i(1)."""
    return GroupElement((("sdot", i),))


def sdot_inverse(i):
    return GroupElement((("sdot_inv", i),))


def coweight(i, t):
    """The torus element with eigenvalue t^<alpha_i^vee, mu> on weight mu."""
    t = _as_scalar(t)
    if t == 0:
        raise ValueError("coweight argument must be nonzero")
    return GroupElement((("coweight", i, t),))


@lru_cache(maxsize=None)
def wdot(w):
    """Representative of w, the product of sdot along any reduced word."""
    atoms = tuple(("sdot", i) for i in w.word)
    return GroupElement(atoms)


def apply_covector(g, label, row_vec):
    """row_vec . g (a row vector) through the provenance chain, over the integers.

    ``row_vec`` holds ints or ``Fraction``s.  Returns (numerators, den):
    entry j of row_vec . g is numerators[j] / den, with den a positive
    int.  This is the one-row case of the fold: the covector is kept as
    integral numerators over one common denominator.
    """
    den = lcm(*(u.denominator for u in row_vec))
    num = [u.numerator * (den // u.denominator) for u in row_vec]
    (num,), den = _fold_rows([num], den, g.provenance, label)
    return num, den


# ---------------------------------------------------------------------------
# triangularity predicates (checked on V7; V14 is consistent by construction),
# read from the integral rows: a unit diagonal entry equals the denominator
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


def generator_fixture():
    """The six Chevalley matrices per representation, as integer lists."""
    out = {}
    for label in ("V7", "V14"):
        rep = representation(label)
        entry = {}
        for name, mat in (
            ("e1", rep.e[1]),
            ("e2", rep.e[2]),
            ("f1", rep.f[1]),
            ("f2", rep.f[2]),
            ("h1", rep.h[1]),
            ("h2", rep.h[2]),
        ):
            entry[name] = [list(row) for row in mat]
        out[label] = entry
    return out
