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
for the sextuple words of w0, as plain rational maps.  They run over
the one quotient class, ``scalars.Quotient``: ``_exact`` reads each
coordinate as an unreduced quotient of ints and builds one ``Fraction``
per output, so the forms take no gcd.  The tests prove all eight forms
identities of rational functions over the same class: over Q[a..f], at
x_2(a)x_1(b)...x_1(f) for epsilon and at a family's cell point with the
generators as coordinates for alpha, each a_m is the Ansatz's quotient
of minor pairings.  Check 4 cross-checks them at random rational
points, so any drift in conventions fails loudly.

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

``lower_signs`` reads the signs of y in U- along a word, the signs
``epsilon_signs`` would give at x = alpha(y), from the same one fold of
y.  Each parameter p_k of y = y_{j_1}(p_1) ... y_{j_6}(p_6) is a Laurent
monomial in the eight lowest pairings P_0..P_7 of y along the word and
three polynomials Q_1, Q_2, Q_3 of them with positive integer
coefficients: the epsilon-side minors of x that are not monomials, up
to monomial factors, as the Laurent phenomenon predicts
(Fomin-Zelevinsky, Double Bruhat cells and total positivity, 1999;
Cluster algebras I, 2002).  Each word keeps one table of them,
``_LOWER_PARAMETERS``, with its Q's written over shared subexpressions,
so no power of a pairing is formed twice; no x is built and no second
fold runs.

Every sign read goes through one reader, ``_read_signs``.  A parameter
is a signed monomial in some factors over a positive part, so it is
negative iff an odd number of its factors of odd exponent is.  Each
factor therefore keeps one 6-bit mask, of the parameters it flips when
negative: each of the eight pairings of the Ansatz, by the parity of
exp at a step's numerator plus 1 at each of its denominators
(``_step_flips``), and each P and Q of ``lower_signs``, by the parities
of the table's exponents.  The reader XORs the masks of the negative
factors and looks the sign string up in one table of the 64.

A vanishing minor means the input is outside the open chart for the
chosen word; that is a recoverable condition (``NotFactorizable``), not
a failure, and callers resample through ``redraw``.

``flag_equal_opposed`` cross-checks the maps by the flag identity
x . [B-] = y . [B+], that is y^-1 x w0dot in B+.  Since B+ e B+ = B+,
that is the plus Bruhat position of ``deodhar`` at the identity: one scan
of rows 0 and 1 of w0dot y^-1 x w0dot, named in one pivot table.
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
from .scalars import EXACT_SCALARS, Quotient
from .weyl import G2_CARTAN, OMEGA, WORD_I, WORD_I_TILDE, W

__all__ = [
    "NotFactorizable",
    "redraw",
    "Factorization",
    "epsilon_factorize",
    "alpha_factorize",
    "epsilon_signs",
    "alpha_signs",
    "lower_signs",
    "flag_equal_opposed",
    "closed_form_epsilon",
    "closed_form_alpha",
    "CLOSED_FORM_FAMILIES",
]


class NotFactorizable(Exception):
    """The point lies outside the open chart of the requested word.

    If a chamber minor vanished, ``level`` and ``weight`` name it and a_m,
    m = ``position``, is the first parameter along ``word`` to read it.
    If a polynomial Q of ``lower_signs`` vanished, ``position`` names the
    first p_k that reads it, and ``level`` and ``weight`` are None.
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
    """A factorization g = prod_k x_{j_k}(a_k) or prod_k y_{j_k}(a_k).

    An inexact parameter raises ``TypeError`` where the object is built,
    and a zero one ``NotFactorizable``.
    """

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
        for p in self.params:
            if not isinstance(p, EXACT_SCALARS):
                raise TypeError("parameter must be an exact scalar, not %r" % (p,))
            if p == 0:
                raise NotFactorizable("factorization parameters must be nonzero")

    def product(self):
        return rep.word("x" if self.kind == "upper" else "y", self.word, self.params)

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


#: the sign string of six parameters, by the mask of the negative ones
_SIGN_STRINGS = tuple(
    "".join("-" if negative >> k & 1 else "+" for k in range(6)) for negative in range(64)
)


def _read_signs(values, flips):
    """The signs of six parameters, each a monomial in ``values`` over a
    positive part, where ``flips[i]`` has bit k set iff values[i] enters
    the (k+1)-th parameter with an odd exponent."""
    negative = 0
    for v, mask in zip(values, flips):
        if v < 0:
            negative ^= mask
    return _SIGN_STRINGS[negative]


@lru_cache(maxsize=None)
def _step_flips(word, lowest):
    """Per weight of ``_ansatz_weights(word, lowest)``, the mask of the a_m
    that its pairing flips: exp at the numerator plus 1 at each
    denominator, counted mod 2."""
    weights, steps = _ansatz_weights(word, lowest)
    return tuple(
        sum(1 << m for m, (num, exp, d1, d2, _) in enumerate(steps)
            if (exp * (num == i) + (d1 == i) + (d2 == i)) % 2)
        for i in range(len(weights))
    )


def _factor_signs(g, word, lowest):
    # the sign reader of the quotients: den > 0, so only the pairings flip
    *_, values = _pairings(g, word, lowest)
    return _read_signs(values, _step_flips(word, lowest))


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


def _q_212121(P0, P1, P2, P3, P4, P5, P6, P7):
    a = P0 * P4 + P1 * P5
    c = P3**3
    d = c * P6
    P5_2 = P5 * P5
    q2 = P5_2 * a + d
    return (
        P0**3 * P4 * P6 + P2 * (P1 * P5_2 * P5 + d),
        q2,
        P1 * q2 * q2 + P4 * P5_2 * (P0 * (P5 * a * a + P1 * d) + P2 * c * P4 * P5),
    )


def _q_121212(P0, P1, P2, P3, P4, P5, P6, P7):
    b = P1 * P5 + P3 * P6
    b_2 = b * b
    e = P0 * P4**3 * P5
    return (
        P0 * P4 * P6 + P2 * b,
        e * P5 + b_2 * b,
        e + P1 * b_2 + P2 * P3 * P4 * P4 * P5,
    )


#: y = y_{j_1}(p_1) ... y_{j_6}(p_6) along each reduced word of w0, read
#: off the lowest pairings P_0..P_7 of y along it, in the order of
#: ``_ansatz_weights(word, True)``: the word's three polynomials
#: Q_1, Q_2, Q_3 of the P's, and per p_k its exponent vector over
#: (P_0, ..., P_7, Q_1, Q_2, Q_3).  P_0 and P_2, the minors at -omega_1
#: and -omega_2, are 1 on U-; their exponents make every p_k of degree 0
#: when P_i weighs its level, as every Q is homogeneous, so the integral
#: pairings, P_i times den**level, give the p_k themselves.
_LOWER_PARAMETERS = {
    WORD_I_TILDE: (_q_212121, (
        (-1, 1, 1, 0, 1, 0, 1, 0, -1, 0, 0),
        (1, -1, -1, 1, 0, 0, 0, 0, 1, -1, 0),
        (-4, 2, 2, 0, 0, 0, 0, 0, -1, 3, -1),
        (2, -1, -1, -2, -1, -1, 0, 0, 0, -1, 1),
        (-4, 1, 2, 3, 2, 3, 0, 0, 0, 0, -1),
        (2, 0, -1, 0, 0, -1, 0, 1, 0, 0, 0),
    )),
    WORD_I: (_q_121212, (
        (0, 1, 1, 0, 1, 0, 1, 0, -1, 0, 0),
        (1, -3, -4, 1, 0, 0, 0, 0, 3, -1, 0),
        (-1, 2, 2, 0, 0, 0, 0, 0, -1, 1, -1),
        (2, -3, -4, -2, -3, -1, 0, 0, 0, -1, 3),
        (-1, 1, 2, 1, 2, 1, 0, 0, 0, 0, -1),
        (2, 0, -4, 0, 0, -1, 0, 1, 0, 0, 0),
    )),
}

#: per word, its Q's and per factor P_0..P_7, Q_1..Q_3 the mask of the
#: p_k it enters with an odd exponent, which ``_read_signs`` reads
_LOWER_SIGNS = {
    word: (q, tuple(sum(1 << k for k, exps in enumerate(table) if exps[i] % 2)
                    for i in range(len(table[0]))))
    for word, (q, table) in _LOWER_PARAMETERS.items()
}


def lower_signs(y, word):
    """``epsilon_signs(alpha_factorize(y, word).product(), word)``: the signs
    of y = y_{j_1}(p_1) ... y_{j_6}(p_6) along ``word``, from one fold.

    Each p_k is a Laurent monomial in the eight lowest minors of y along
    ``word`` and the word's three positive polynomials Q of them
    (``_LOWER_PARAMETERS``), so the signs are read by ``_read_signs``
    off the integral pairings and the Q's, with each Q evaluated once
    and no ``Fraction`` built.  A vanished minor raises
    ``NotFactorizable`` as in ``alpha_factorize``, and a vanished Q names
    the first p_k that reads it: the points that the two-step path
    refuses.
    """
    word = _checked_word(y, word, True, "lower_signs")
    *_, values = _pairings(y, word, True)
    q, flips = _LOWER_SIGNS[word]
    qs = q(*values)
    if 0 in qs:
        n = qs.index(0)
        k = next(k for k, exps in enumerate(_LOWER_PARAMETERS[word][1], 1) if exps[8 + n])
        raise NotFactorizable(
            "Q_%d of the lowest minors along %s, read by p_%d, vanishes"
            % (n + 1, "".join(map(str, word)), k),
            word=word, position=k,
        )
    return _read_signs((*values, *qs), flips)


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


def _exact(form, counts, *coords):
    """``form`` at ``coords``, tuples of ints and ``Fraction``s of the lengths
    ``counts``, as ``Fraction``s (``ValueError`` on another length,
    ``TypeError`` on any other scalar).

    Each coordinate is read as an unreduced ``Quotient`` of ints, so the
    form's arithmetic takes no gcd, and each output is reduced once, by
    the one ``Fraction`` built for it.  A division by zero raises where it
    happens, at the points where ``Fraction`` arithmetic raises: each value
    a form divides by is a factor of a denominator it returns, so a zero
    one is a chart miss.
    """
    if tuple(map(len, coords)) != counts:
        raise ValueError(
            "the closed form %s takes %s coordinates, not %s"
            % (form.__name__, " + ".join(map(str, counts)),
               " + ".join(str(len(values)) for values in coords))
        )
    for values in coords:
        for v in values:
            if not isinstance(v, (int, Fraction)):
                raise TypeError("a closed form takes ints and Fractions, not %r" % (v,))
    try:
        out = form(*(tuple(Quotient(v.numerator, v.denominator) for v in values)
                     for values in coords))
    except ZeroDivisionError as exc:
        raise NotFactorizable("the closed form %s divides by zero" % form.__name__) from exc
    return tuple(Fraction(q.num, q.den) for q in out)


def _epsilon_212121(params):
    a, b, c, d, e, f = params
    d1 = e + c + a
    d2 = e * d + e * b + b * c
    du = (
        e**2 * d**3 * c + e**2 * d**3 * a + 3 * e**2 * a * b * d**2
        + 3 * e**2 * a * b**2 * d + e**2 * a * b**3 + 3 * e * a * b**2 * c * d
        + 2 * e * a * b**3 * c + a * b**3 * c**2
    )
    return (
        1 / d1,
        d1 / d2,
        d2**3 / (du * d1),
        du / (b * c * d**2 * e * d2),
        e**2 * d**3 * c / (a * du),
        a * b / (d * e * f),
    )


def closed_form_epsilon(params):
    """The six lower parameters of the flag of x_2(a)x_1(b)...x_1(f).

    Closed form of ``epsilon_factorize`` on the word (2,1,2,1,2,1); it
    takes and refuses scalars as ``closed_form_alpha`` does.
    """
    return _exact(_epsilon_212121, (len(WORD_I_TILDE),), params)


def _alpha_x21x12(t, m):
    t1, t2 = t
    m1, m2 = m
    p1 = t1 * m2 + m1
    p2 = -m2 * t2 + m1**3
    p3 = t1 * m1**2 + t2
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
    p1 = 3 * t1 * m2 + m1
    p2 = 2 * t1 * m2 + m1
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
    p1 = m1 * m2 + t2
    p2 = t1 * m2**2 - t2**3
    p3 = t1 * m2 + m1 * t2**2
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
    p1 = t2 + t4
    p2 = t1 * t2 - m1 * t4 + t4 * t1
    p3 = -t2 * t3 + t4 * m1**3 * t2 - t4 * t3
    p4 = t1 * t2 * m1**2 - t3
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
    p1 = t2 + t4
    p2 = m1 * t2 + m1 * t4 - t4 * t3
    p3 = t1 * t2**2 + 2 * t1 * t2 * t4 + t4**2 * t1 + t2 * t3**3 * t4**2
    p4 = t1 * t2 + t4 * t1 + t2 * t3**2 * t4 * m1
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
    p1 = m1 - t2
    p2 = t1 * m1 + m1 * t3 - t1 * t2 - t4
    p3 = t2 * t3**3 * m1**2 - 3 * t2 * t3**2 * t4 * m1 + 3 * t2 * t3 * t4**2 - t4**3
    p4 = t1 * t2 * t3**2 * m1 - 2 * t1 * t2 * t3 * t4 + t4**2 * t1 + t3 * t4**2
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
    p1 = m1 - t4
    p2 = t1 * m1 - t2 - t4 * t1 - t4 * t3
    p3 = t2**3 + 3 * t2**2 * t3 * t4 + 3 * t2 * t3**2 * t4**2 + t4**2 * m1 * t3**3
    p4 = t1 * t2**2 + 2 * t1 * t2 * t3 * t4 + t4 * t3**2 * t1 * m1 - t2 * t3**2 * t4
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
    position order, as ints or ``Fraction``s: any other scalar raises
    ``TypeError``, a count off the family's ``ValueError``, a point off
    the chart ``NotFactorizable``, and an unknown name ``KeyError``.
    """
    try:
        fn = CLOSED_FORM_FAMILIES[name]
    except KeyError:
        raise KeyError("no closed alpha form for family %r" % (name,))
    fam = deodhar.family_by_name(name)
    return _exact(fn, (len(fam.I), len(fam.K)), t, m)
