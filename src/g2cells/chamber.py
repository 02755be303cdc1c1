"""The Chamber Ansatz factorization maps between opposed unipotent cells.

``epsilon_factorize`` takes x in U+ meeting the opposite big cell and
produces the y in U- representing the same flag, factored along a
reduced word of w0; ``alpha_factorize`` is the inverse direction.  Both
express the parameters as monomials in generalized minors:

    a_m = prod_{j != j_m} Delta[u_m omega_j]^{-A(j, j_m)}
          / ( Delta[u_m omega_{j_m}] * Delta[u_{m-1} omega_{j_m}] )

where u_m = s_{j_1}...s_{j_m} is the m-th prefix of the word, Delta is
the highest-coefficient minor of x for epsilon, and the lowest
coefficient minor Delta_- at the negated chamber weights -u_m omega_j
of y for alpha.  The closed forms below are the same maps written out
for the sextuple words of w0; they are cross-checked against the minor
formulas at random rational points, so any drift in conventions fails
loudly.

Along a reduced word of w0 the u_m omega_j take eight distinct values,
so a factorization folds its input once and pairs that block with each
of the eight chamber weights once (``_ansatz_weights``).  The pairing
is integral (``_pairings``): the minor at a weight of level l is its
pairing N over den**l, with den > 0 the denominator of the fold.  That
one step has two readers.  ``epsilon_factorize`` and ``alpha_factorize``
read the exact parameters.  The level of u omega_j is j, so the powers
of den collect into one exponent per step and

    a_m = N_num^exp * den^k / (N_d1 * N_d2),   k = 2 j_m - exp * jbar_m,

with jbar_m the other letter: k is 0 for j_m = 1 and 1 for j_m = 2.
Each parameter is therefore one ``Fraction`` of two ints, one division.
``epsilon_signs`` and ``alpha_signs`` read only the signs, and since
den > 0,

    sign(a_m) = sign(N_num)^exp * sign(N_d1) * sign(N_d2),

so they build no ``Fraction`` at all.

A vanishing minor means the input is outside the open chart for the
chosen word; that is a recoverable condition (``NotFactorizable``), not
a failure, and callers resample through ``redraw``.

``flag_equal_opposed`` cross-checks the maps by the flag identity
x . [B-] = y . [B+], that is y^-1 x w0dot in B+.  Since B+ e B+ = B+,
that is the plus Bruhat position of ``deodhar`` at the identity, which
reads rows 6 and 5 of the V7 matrix alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import deodhar, rep
from .minors import (
    highest_row,
    lowest_row,
    pair_row_with_weight,
    weight_to_chamber,
)
from .weyl import G2_CARTAN, OMEGA, W

__all__ = [
    "NotFactorizable",
    "redraw",
    "Factorization",
    "epsilon_factorize",
    "alpha_factorize",
    "epsilon_signs",
    "alpha_signs",
    "flag_equal_opposed",
    "closed_form_epsilon",
    "closed_form_alpha",
    "CLOSED_FORM_FAMILIES",
]


class NotFactorizable(Exception):
    """The point lies outside the open chart of the requested word.

    If a chamber minor vanished, ``level`` and ``weight`` name it and a_m,
    m = ``position``, is the first parameter along ``word`` to read it.
    """

    def __init__(self, message, word=None, level=None, weight=None, position=None):
        super().__init__(message)
        self.word, self.level, self.weight, self.position = word, level, weight, position


#: calls ``redraw`` makes before it gives up
REDRAW_ATTEMPTS = 50


def redraw(draw, what):
    """The first value ``draw()`` returns without raising ``NotFactorizable``.

    After ``REDRAW_ATTEMPTS`` refused draws, raises ``RuntimeError``
    naming ``what``, the thing being drawn.
    """
    for _ in range(REDRAW_ATTEMPTS):
        try:
            return draw()
        except NotFactorizable:
            pass
    raise RuntimeError("no factorizable draw of %s in %d attempts" % (what, REDRAW_ATTEMPTS))


@dataclass(frozen=True)
class Factorization:
    """A factorization g = prod_k x_{j_k}(a_k) or prod_k y_{j_k}(a_k)."""

    word: tuple
    params: tuple
    kind: str  # "upper" or "lower"

    def __post_init__(self):
        if self.kind not in ("upper", "lower"):
            raise ValueError("kind must be 'upper' or 'lower'")
        if len(self.params) != len(self.word):
            raise ValueError(
                "%d parameters for the %d letters of word %r"
                % (len(self.params), len(self.word), self.word)
            )
        if any(p == 0 for p in self.params):
            raise NotFactorizable("factorization parameters must be nonzero")

    def product(self):
        gen = rep.x if self.kind == "upper" else rep.y
        return rep.group_product(
            gen(i, t) for i, t in zip(self.word, self.params)
        )

    def signs(self):
        """The signs of the parameters as a string of '+' and '-'."""
        return "".join("+" if p > 0 else "-" for p in self.params)


@lru_cache(maxsize=None)
def _ansatz_weights(word, lowest):
    """The chamber weights of the Ansatz along ``word``, a reduced word of w0.

    Returns (weights, steps): ``weights`` lists the distinct u_m omega_j,
    negated if ``lowest`` (the alpha direction); ``steps`` holds per
    position m the indices into ``weights`` of the numerator, its
    exponent, the indices of the two denominators, and the exponent of
    the fold's den in the quotient of their integral pairings.
    """
    index = {}

    def at(u, j):
        mu = u.act(OMEGA[j])
        return index.setdefault(-mu if lowest else mu, len(index))

    u, steps = W.identity, []
    for jm in word:
        nxt = u * W.s(jm)
        if nxt.length != u.length + 1:
            raise ValueError("word %r is not reduced" % (word,))
        jbar = 2 if jm == 1 else 1
        exp = -G2_CARTAN[jbar - 1][jm - 1]
        steps.append((at(nxt, jbar), exp, at(nxt, jm), at(u, jm), 2 * jm - exp * jbar))
        u = nxt
    if u != W.w0:
        raise ValueError("word %r is not a reduced word of w0" % (word,))
    return tuple(index), tuple(steps)


def _pairings(g, word, lowest):
    """One fold of g, paired as integers with the chamber weights of the
    Ansatz along ``word``: (weights, steps, den, values).

    ``values[k]`` is the numerator of the minor at ``weights[k]`` over
    den**level, den > 0.  A vanished minor raises ``NotFactorizable``
    naming it and the first a_m that reads it.
    """
    weights, steps = _ansatz_weights(word, lowest)
    row = lowest_row(g) if lowest else highest_row(g)
    values = [pair_row_with_weight(row, mu) for mu in weights]
    if 0 in values:
        k = values.index(0)
        m = next(m for m, (num, _, d1, d2, _) in enumerate(steps, 1) if k in (num, d1, d2))
        mu, level = weights[k], weight_to_chamber(weights[k])[1]
        raise NotFactorizable(
            "the level-%d minor %s read by a_%d vanishes" % (level, mu.eps_label(), m),
            word=word, level=level, weight=mu, position=m,
        )
    return weights, steps, row[1], values


def _factor_params(g, word, lowest):
    # the quotient reader: one division of integral pairings per parameter
    _, steps, den, values = _pairings(g, word, lowest)
    return tuple(
        Fraction(values[num] ** exp * den**k, values[d1] * values[d2])
        for num, exp, d1, d2, k in steps
    )


def _factor_signs(g, word, lowest):
    # the sign reader: a_m is negative iff an odd number of its factors,
    # counted with their exponents, has a negative pairing
    _, steps, _, values = _pairings(g, word, lowest)
    negative = [n < 0 for n in values]
    return "".join(
        "-" if (exp * negative[num] + negative[d1] + negative[d2]) % 2 else "+"
        for num, exp, d1, d2, _ in steps
    )


def _checked_word(g, word, lowest, name):
    """``word`` as a tuple, once g is unipotent lower (``lowest``, the
    alpha side) or unipotent upper (the epsilon side)."""
    if lowest and not rep.is_unipotent_lower(g):
        raise ValueError("%s expects a unipotent lower input" % name)
    if not lowest and not rep.is_unipotent_upper(g):
        raise ValueError("%s expects a unipotent upper input" % name)
    return tuple(word)


def epsilon_factorize(x, word):
    """Factor the flag of x in U+ as a product of y's along the word."""
    word = _checked_word(x, word, False, "epsilon_factorize")
    return Factorization(word, _factor_params(x, word, lowest=False), "lower")


def alpha_factorize(y, word):
    """Factor the flag of y in U- as a product of x's along the word."""
    word = _checked_word(y, word, True, "alpha_factorize")
    return Factorization(word, _factor_params(y, word, lowest=True), "upper")


def epsilon_signs(x, word):
    """``epsilon_factorize(x, word).signs()``, read without division."""
    word = _checked_word(x, word, False, "epsilon_signs")
    return _factor_signs(x, word, lowest=False)


def alpha_signs(y, word):
    """``alpha_factorize(y, word).signs()``, read without division."""
    word = _checked_word(y, word, True, "alpha_signs")
    return _factor_signs(y, word, lowest=True)


def flag_equal_opposed(x, y):
    """True iff x . [B-] and y . [B+] are the same flag.

    [B-] = w0dot . [B+] and the stabilizer of [B+] is B+, so the test is
    that y^-1 x w0dot lies in B+ = B+ e B+: that its plus position is
    the identity.
    """
    if not rep.is_unipotent_upper(x):
        raise ValueError("first argument must be unipotent upper")
    if not rep.is_unipotent_lower(y):
        raise ValueError("second argument must be unipotent lower")
    return deodhar.bruhat_position_plus(y.inverse() * x * rep.wdot(W.w0)) is W.identity


# ---------------------------------------------------------------------------
# closed forms for the two sextuple words
# ---------------------------------------------------------------------------


def _nonzero(value, what):
    if value == 0:
        raise NotFactorizable("%s vanishes" % what)
    return value


def closed_form_epsilon(params):
    """The six lower parameters of the flag of x_2(a)x_1(b)...x_1(f).

    Closed form of ``epsilon_factorize`` on the word (2,1,2,1,2,1).
    """
    a, b, c, d, e, f = (Fraction(p) for p in params)
    u = (
        e**2 * d**3 * c + e**2 * d**3 * a + 3 * e**2 * a * b * d**2
        + 3 * e**2 * a * b**2 * d + e**2 * a * b**3 + 3 * e * a * b**2 * c * d
        + 2 * e * a * b**3 * c + a * b**3 * c**2
    )
    d1 = _nonzero(e + c + a, "e+c+a")
    d2 = _nonzero(e * d + e * b + b * c, "ed+eb+bc")
    du = _nonzero(u, "the auxiliary polynomial")
    for name, val in (("a", a), ("b", b), ("c", c), ("d", d), ("e", e), ("f", f)):
        _nonzero(val, name)
    return (
        1 / d1,
        d1 / d2,
        d2**3 / (du * d1),
        du / (b * c * d**2 * e * d2),
        e**2 * d**3 * c / (a * du),
        a * b / (d * e * f),
    )


def _alpha_x21x12(t, m):
    t1, t2 = t
    m1, m2 = m
    p1 = _nonzero(t1 * m2 + m1, "t1*m2+m1")
    p2 = _nonzero(-m2 * t2 + m1**3, "m1^3-m2*t2")
    p3 = _nonzero(t1 * m1**2 + t2, "t1*m1^2+t2")
    _nonzero(m2, "m2"), _nonzero(t1, "t1"), _nonzero(t2, "t2")
    return (
        -1 / m2,
        m2 / p1,
        p1**3 / (m2 * p2),
        p2 / (p1 * p3),
        -(p3**3) / (p2 * t2**2),
        t2 / (p3 * t1),
    )


def _alpha_12x21x(t, m):
    t1, t2 = t
    m1, m2 = m
    p1 = _nonzero(3 * t1 * m2 + m1, "3*t1*m2+m1")
    p2 = _nonzero(2 * t1 * m2 + m1, "2*t1*m2+m1")
    _nonzero(t2, "t2"), _nonzero(m2, "m2"), _nonzero(t1, "t1")
    return (
        1 / t2,
        -1 / m2,
        m2**3 / p1,
        p1 / (m2 * p2),
        p2**3 / (p1 * t1**3),
        -t1 / p2,
    )


def _alpha_1x12x2(t, m):
    t1, t2 = t
    m1, m2 = m
    p1 = _nonzero(m1 * m2 + t2, "m1*m2+t2")
    p2 = _nonzero(t1 * m2**2 - t2**3, "t1*m2^2-t2^3")
    p3 = _nonzero(t1 * m2 + m1 * t2**2, "t1*m2+m1*t2^2")
    _nonzero(m2, "m2"), _nonzero(t1, "t1"), _nonzero(t2, "t2")
    return (
        -1 / m2,
        -m2 / p1,
        -(p1**3) / (m2 * p2),
        p2 / (p1 * p3),
        p3**3 / (p2 * t1 * t2**3),
        t2**2 / p3,
    )


def _alpha_xx1x1x(t, m):
    t1, t2, t3, t4 = t
    (m1,) = m
    p1 = _nonzero(t2 + t4, "t2+t4")
    p2 = _nonzero(t1 * t2 - m1 * t4 + t4 * t1, "t1*t2-m1*t4+t4*t1")
    p3 = _nonzero(-t2 * t3 + t4 * m1**3 * t2 - t4 * t3, "t4*m1^3*t2-(t2+t4)*t3")
    p4 = _nonzero(t1 * t2 * m1**2 - t3, "t1*t2*m1^2-t3")
    _nonzero(t1, "t1"), _nonzero(t2, "t2"), _nonzero(t3, "t3"), _nonzero(t4, "t4")
    return (
        1 / p1,
        p1 / p2,
        -(p2**3) / (p1 * t4 * p3),
        -p3 / (p4 * p2),
        p4**3 * t4 / (p3 * t2 * t3**2),
        -t3 / (p4 * t1),
    )


def _alpha_1x1xxx(t, m):
    t1, t2, t3, t4 = t
    (m1,) = m
    p1 = _nonzero(t2 + t4, "t2+t4")
    p2 = _nonzero(m1 * t2 + m1 * t4 - t4 * t3, "m1*(t2+t4)-t4*t3")
    p3 = _nonzero(
        t1 * t2**2 + 2 * t1 * t2 * t4 + t4**2 * t1 + t2 * t3**3 * t4**2,
        "t1*(t2+t4)^2+t2*t3^3*t4^2",
    )
    p4 = _nonzero(t1 * t2 + t4 * t1 + t2 * t3**2 * t4 * m1, "t1*(t2+t4)+t2*t3^2*t4*m1")
    _nonzero(t1, "t1"), _nonzero(t2, "t2"), _nonzero(t3, "t3"), _nonzero(t4, "t4")
    return (
        1 / p1,
        -p1 / p2,
        -(p2**3) / (p1 * p3),
        p3 / (p2 * p4),
        -(p4**3) / (p3 * t1 * t2**2 * t3**3 * t4),
        t2 * t3**2 * t4 / p4,
    )


def _alpha_xxx2x2(t, m):
    t1, t2, t3, t4 = t
    (m1,) = m
    p1 = _nonzero(m1 - t2, "m1-t2")
    p2 = _nonzero(t1 * m1 + m1 * t3 - t1 * t2 - t4, "(t1+t3)*m1-t1*t2-t4")
    p3 = _nonzero(
        t2 * t3**3 * m1**2 - 3 * t2 * t3**2 * t4 * m1 + 3 * t2 * t3 * t4**2 - t4**3,
        "t2*t3^3*m1^2-3*t2*t3^2*t4*m1+3*t2*t3*t4^2-t4^3",
    )
    p4 = _nonzero(
        t1 * t2 * t3**2 * m1 - 2 * t1 * t2 * t3 * t4 + t4**2 * t1 + t3 * t4**2,
        "t1*t2*t3^2*m1-2*t1*t2*t3*t4+t4^2*t1+t3*t4^2",
    )
    _nonzero(t1, "t1"), _nonzero(t2, "t2"), _nonzero(t3, "t3"), _nonzero(t4, "t4")
    return (
        -1 / p1,
        p1 / p2,
        p2**3 / (p1 * p3),
        p3 / (p2 * p4),
        -(p4**3) / (p3 * t2 * t3**3 * t4**3),
        t3 * t4**2 / (p4 * t1),
    )


def _alpha_x2x2xx(t, m):
    t1, t2, t3, t4 = t
    (m1,) = m
    p1 = _nonzero(m1 - t4, "m1-t4")
    p2 = _nonzero(t1 * m1 - t2 - t4 * t1 - t4 * t3, "t1*m1-t2-t4*t1-t4*t3")
    p3 = _nonzero(
        t2**3 + 3 * t2**2 * t3 * t4 + 3 * t2 * t3**2 * t4**2 + t4**2 * m1 * t3**3,
        "t2^3+3*t2^2*t3*t4+3*t2*t3^2*t4^2+t4^2*m1*t3^3",
    )
    p4 = _nonzero(
        t1 * t2**2 + 2 * t1 * t2 * t3 * t4 + t4 * t3**2 * t1 * m1 - t2 * t3**2 * t4,
        "t1*t2^2+2*t1*t2*t3*t4+t4*t3^2*t1*m1-t2*t3^2*t4",
    )
    _nonzero(t1, "t1"), _nonzero(t2, "t2"), _nonzero(t3, "t3"), _nonzero(t4, "t4")
    return (
        -1 / p1,
        p1 / p2,
        -(p2**3) / (p1 * p3),
        -p3 / (p2 * p4),
        -(p4**3) / (p3 * t2**3 * t3**3 * t4),
        -t2 * t3**2 * t4 / (p4 * t1),
    )


#: closed alpha forms on the seven positive-codimension cell families,
#: each mapping (t params, m params) to the six upper parameters for
#: the word (2,1,2,1,2,1)
CLOSED_FORM_FAMILIES = {
    "x21x12": _alpha_x21x12,
    "12x21x": _alpha_12x21x,
    "1x12x2": _alpha_1x12x2,
    "xx1x1x": _alpha_xx1x1x,
    "1x1xxx": _alpha_1x1xxx,
    "xxx2x2": _alpha_xxx2x2,
    "x2x2xx": _alpha_x2x2xx,
}


def closed_form_alpha(name, t, m):
    """The six upper parameters of alpha on the cell family named ``name``.

    ``t`` and ``m`` list the R*-coordinates and R-coordinates in
    position order.  An unknown name raises ``KeyError``.
    """
    try:
        fn = CLOSED_FORM_FAMILIES[name]
    except KeyError:
        raise KeyError("no closed alpha form for family %r" % (name,))
    return fn(tuple(Fraction(v) for v in t), tuple(Fraction(v) for v in m))
