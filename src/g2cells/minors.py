"""Generalized minors labeled by chamber weights.

A chamber weight of level i is an extremal weight w*omega_i.  The minor
Delta^{w omega_i}(g) is the coefficient of the highest weight vector
v_{omega_i} in g . v_{w omega_i}, where v_{w omega_i} is built from the
highest weight vector by divided powers of the f_i along a reduced word
of w.  Delta_-^{w omega_i}(g) takes the coefficient of the lowest
weight vector v_{-omega_i} := v_{w0 omega_i} instead.

Extremal weight spaces are one dimensional, so in the weight-ordered
bases these coefficients are single coordinates.  Extremal vectors are
built from the integral divided-power table of ``rep``, so their
coordinates are ints, and they depend only on the weight, not on the
reduced word used.

Every minor is evaluated one way: the unit covector of the highest (or
lowest) weight is folded along the word of g once per level
(``highest_row``/``lowest_row``), and the resulting row functional is
contracted with an extremal vector (``pair_row_with_weight``).  All
minors of one level then share a single fold.  The fold runs over the
integers and returns numerators over one denominator; the contraction
is integral too, and divides by that denominator once per minor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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

_REP_OF_LEVEL = {1: "V7", 2: "V14"}


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
    rep: str
    coordinates: tuple
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
def _extremal_by_weight(level, n1, n2):
    """Integer coordinates of v_{w omega_i}, computed along the minimal word."""
    cw = weight_to_chamber(Weight(n1, n2))
    if cw.level != level:
        raise ValueError("weight %r is not of level %d" % ((n1, n2), level))
    return _extremal_along_word(level, cw.w.word)


def _extremal_along_word(level, word):
    """v of weight (s_{j1}...s_{jl}) omega for word (j1..jl).

    Divided powers are applied from the right end of the word inward:
    f_{jl}^{(<a_{jl}^vee, omega>)} first, so each step moves one more
    reflection from the right of the word onto the weight.  Each step
    applies the entries of power b of the integral divided-power table,
    so the coordinates are ints; a power past nilpotency has no entries.
    """
    r = rep.representation(_REP_OF_LEVEL[level])
    vec = [1] + [0] * (r.dim - 1)
    mu = OMEGA[level]
    for j in reversed(word):
        b = mu.pairing(j)
        if b < 0:
            raise AssertionError("negative divided power along a reduced word")
        if b:
            out = [0] * r.dim
            for k, row, col, v in r._int_terms[("y", j)]:
                if k == b and vec[col]:
                    out[row] += v * vec[col]
            vec = out
        mu = mu.reflect(j)
    return tuple(vec)


def extremal_vector(level, w):
    """The extremal weight vector of weight w*omega_level."""
    mu = w.act(OMEGA[level])
    vec = _extremal_by_weight(level, mu.n1, mu.n2)
    return ExtremalVector(_REP_OF_LEVEL[level], vec, mu)


@lru_cache(maxsize=None)
def _unit_covector(level, lowest):
    """The covector reading the coefficient of v_omega, or of v_{-omega} if ``lowest``."""
    dim = rep.representation(_REP_OF_LEVEL[level]).dim
    idx, value = 0, Fraction(1)
    if lowest:
        mu = -OMEGA[level]
        vec = _extremal_by_weight(level, mu.n1, mu.n2)
        idx = dim - 1
        if any(vec[:idx]) or abs(vec[idx]) != 1:
            raise ArithmeticError("lowest extremal vector is not +/- the last basis vector")
        value = 1 / Fraction(vec[idx])
    return tuple(value if k == idx else Fraction(0) for k in range(dim))


def highest_row(g, level):
    """The row functional v -> coefficient of v_omega in g.v, as a covector
    (numerators, denominator)."""
    return rep.apply_covector(g, _REP_OF_LEVEL[level], _unit_covector(level, False))


def lowest_row(g, level):
    """The row functional v -> coefficient of v_{-omega} in g.v."""
    return rep.apply_covector(g, _REP_OF_LEVEL[level], _unit_covector(level, True))


def pair_row_with_weight(row, level, mu):
    """Contract a row functional (numerators, denominator) with the extremal
    vector of mu, dividing by the denominator once."""
    num, den = row
    vec = _extremal_by_weight(level, mu.n1, mu.n2)
    return sum((a * b for a, b in zip(num, vec) if a and b), start=0) / Fraction(den)


def minor(g, cw):
    """Delta^{w omega_i}(g): coefficient of v_{omega_i} in g . v_{w omega_i}."""
    return pair_row_with_weight(highest_row(g, cw.level), cw.level, cw.weight)


def minor_lower(g, cw):
    """Delta_-^{w omega_i}(g): coefficient of v_{-omega_i} in g . v_{w omega_i}."""
    return pair_row_with_weight(lowest_row(g, cw.level), cw.level, cw.weight)


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
    g = rep.GroupElement(factors)
    out = {}
    for level, labels in ((1, LEVEL1_LABELS), (2, LEVEL2_LABELS)):
        row = highest_row(g, level)
        for label in labels:
            out[label] = pair_row_with_weight(row, level, weight_by_label(label))
    return out
