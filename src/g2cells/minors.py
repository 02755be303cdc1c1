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

The extremal vector v_{w omega_l} is built from the highest weight
vector by divided powers of the f_i along a reduced word of w.  On a
wedge, f^(b) acts by the coproduct f^(b)(u ^ v) = sum_k f^(k)u ^
f^(b-k)v.  Each f^(k) is read from the integral divided-power table of
``rep``, so the coefficients are ints, and they depend only on the
weight, not on the reduced word used.  Extremal weight spaces are one
dimensional, so each extremal vector is a single wedge up to sign.

Every minor, of either level, is evaluated one way.  The top two (or
bottom two) unit rows of V7 are folded along the word of g once
(``highest_row``/``lowest_row``), and a minor of level l pairs the first
l rows of that block with an extremal vector (``pair_row_with_weight``):
the sum of coefficient times the l x l determinant at the wedge's
columns.  The level is read from the weight, so all minors of a point,
of both levels, share a single fold.  The fold runs over the integers
and returns numerators over one denominator; the pairing is integral
too, and divides by the l-th power of that denominator once per minor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import prod

from . import rep
from .scalars import PolyRing
from .weyl import OMEGA, W, Weight, weight_by_label

__all__ = [
    "ChamberWeight",
    "ExtremalVector",
    "extremal_vector",
    "minor",
    "minor_lower",
    "weight_to_chamber",
    "LEVEL1_LABELS",
    "LEVEL2_LABELS",
    "symbolic_minors",
]


@dataclass(frozen=True)
class ChamberWeight:
    """A pair (w, i) naming the generalized minor Delta^{w omega_i}."""

    w: object
    level: int

    @property
    def weight(self):
        return self.w.act(OMEGA[self.level])


@dataclass(frozen=True)
class ExtremalVector:
    """v_{w omega_level} as ``terms``: pairs (columns, coefficient), one per
    basis wedge e_{c1} ^ ... ^ e_{c_level} with increasing columns."""

    level: int
    terms: tuple
    weight: Weight


@lru_cache(maxsize=None)
def _orbit(level):
    """All weights w*omega_i with a minimal-length representative each."""
    omega = OMEGA[level]
    reps = {}
    for w in sorted(W.elements, key=lambda el: (el.length, el.word)):
        mu = w.act(omega)
        if (mu.n1, mu.n2) not in reps:
            reps[(mu.n1, mu.n2)] = w
        else:
            # minimal-length coset representatives are unique
            u = reps[(mu.n1, mu.n2)]
            if w.length == u.length and w != u:
                raise AssertionError("tie among minimal-length representatives")
    return reps


def weight_to_chamber(mu):
    """The unique (w of minimal length, i) with w*omega_i = mu."""
    for level in (1, 2):
        w = _orbit(level).get((mu.n1, mu.n2))
        if w is not None:
            return ChamberWeight(w, level)
    raise ValueError("%r is not in the Weyl orbit of a fundamental weight" % (mu,))


@lru_cache(maxsize=None)
def _extremal_by_weight(n1, n2):
    """The wedge terms of v_{w omega_i}, computed along the minimal word;
    the level i is the length of every wedge."""
    cw = weight_to_chamber(Weight(n1, n2))
    return _extremal_along_word(cw.level, cw.w.word)


def _sort_sign(rows):
    """The sign of the permutation that sorts ``rows``, or 0 if two are equal."""
    sign = 1
    for a, b in combinations(rows, 2):
        if a == b:
            return 0
        if a > b:
            sign = -sign
    return sign


def _extremal_along_word(level, word):
    """v of weight (s_{j1}...s_{jl}) omega_level for word (j1..jl), as wedge terms.

    Divided powers are applied from the right end of the word inward:
    f_{jl}^{(<a_{jl}^vee, omega>)} first, so each step moves one more
    reflection from the right of the word onto the weight.  f^(b) acts on
    a wedge by the coproduct: the sum over k_1 + ... + k_level = b of
    f^(k_1) e_{c1} ^ ... ^ f^(k_level) e_{c_level}.  Each f^(k) e_c is
    column c of the power-k entries of the integral divided-power table
    (f^(0) is the identity), so the coefficients are ints.
    """
    v7 = rep.build_representations()
    vec = {tuple(range(level)): 1}
    mu = OMEGA[level]
    for j in reversed(word):
        b = mu.pairing(j)
        if b < 0:
            raise AssertionError("negative divided power along a reduced word")
        if b:
            images = {}  # (k, c) -> the entries (row, value) of f_j^(k) e_c
            for k, row, col, v in v7._int_terms[("y", j)]:
                images.setdefault((k, col), []).append((row, v))
            out = {}
            for cols, coeff in vec.items():
                for ks in product(range(b + 1), repeat=level):
                    if sum(ks) != b:
                        continue
                    factors = [
                        images.get((k, c), ()) if k else ((c, 1),) for k, c in zip(ks, cols)
                    ]
                    for picks in product(*factors):
                        rows = [r for r, _ in picks]
                        sign = _sort_sign(rows)
                        if sign:
                            key = tuple(sorted(rows))
                            out[key] = out.get(key, 0) + sign * coeff * prod(v for _, v in picks)
            vec = {cols: c for cols, c in out.items() if c}
        mu = mu.reflect(j)
    return tuple(sorted(vec.items()))


def extremal_vector(level, w):
    """The extremal weight vector of weight w*omega_level."""
    mu = w.act(OMEGA[level])
    return ExtremalVector(level, _extremal_by_weight(mu.n1, mu.n2), mu)


@lru_cache(maxsize=None)
def _unit_rows(lowest):
    """The two int unit rows whose fold reads the coefficient of v_omega,
    or of v_{-omega} if ``lowest``; a minor of level l reads the first l.

    The highest rows are e_0, e_1: their first l read the highest wedge
    e_0 ^ ... ^ e_{l-1}.  v_{-omega_l} must be s_l times the bottom wedge
    of level l, with s_l = +/-1.  The lowest rows are s_1 e_6 and
    -s_1 s_2 e_5, so that the determinant of the first l of them is the
    bottom coefficient divided by s_l.
    """
    rows = ((0, 1), (1, 1))
    if lowest:
        signs = []
        for level in (1, 2):
            mu = -OMEGA[level]
            terms = _extremal_by_weight(mu.n1, mu.n2)
            bottom = tuple(range(7 - level, 7))
            if len(terms) != 1 or terms[0][0] != bottom or abs(terms[0][1]) != 1:
                raise ArithmeticError("lowest extremal vector is not +/- the bottom wedge")
            signs.append(terms[0][1])
        s1, s2 = signs
        rows = ((6, s1), (5, -s1 * s2))
    return tuple(tuple(sign * (c == r) for c in range(7)) for r, sign in rows)


def highest_row(g):
    """The row functionals v -> coefficient of v_omega in g.v: the top two
    rows of g, as (numerators, denominator)."""
    return rep.apply_covector(g, _unit_rows(False))


def lowest_row(g):
    """The row functionals v -> coefficient of v_{-omega} in g.v."""
    return rep.apply_covector(g, _unit_rows(True))


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
    """Pair row functionals (numerators, denominator) with the extremal vector
    of mu: the sum of coefficient times the determinant at the wedge's
    columns, divided by the denominator to the power of the level once."""
    rows, den = row
    terms = _extremal_by_weight(mu.n1, mu.n2)
    total = 0
    for cols, coeff in terms:
        total = total + coeff * _det(rows, cols)
    return total / Fraction(den ** len(terms[0][0]))


def minor(g, cw):
    """Delta^{w omega_i}(g): coefficient of v_{omega_i} in g . v_{w omega_i}."""
    return pair_row_with_weight(highest_row(g), cw.weight)


def minor_lower(g, cw):
    """Delta_-^{w omega_i}(g): coefficient of v_{-omega_i} in g . v_{w omega_i}."""
    return pair_row_with_weight(lowest_row(g), cw.weight)


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
    ring = PolyRing("abcdef")
    a, b, c, d, e, f = ring.gens()
    factors = (("x", 2, a), ("x", 1, b), ("x", 2, c), ("x", 1, d), ("x", 2, e), ("x", 1, f))
    row = highest_row(rep.GroupElement(factors))
    return {label: pair_row_with_weight(row, weight_by_label(label))
            for label in LEVEL1_LABELS + LEVEL2_LABELS}
