"""Exact scalars: arbitrary-precision rationals and the polynomial ring Q[a..f].

Every number in this package is exact: a Python ``int``, a
``fractions.Fraction`` or a ``Poly``.  The V7 matrices, the folds and the
extremal wedges are ints (integral numerators over one denominator where
a fold divides), and the minors of numeric points are ``Fraction``s.  No
floating point is used anywhere.  ``Poly`` is the one polynomial ring,
Q[a..f] in ``VARIABLES``.  It carries only the symbolic minors, the
calibration table, so it has only the operations their fold and pairing
use.  Quotients of polynomials are never formed.
"""

from __future__ import annotations

from fractions import Fraction

#: the variables of Q[a..f], in exponent-vector order
VARIABLES = "abcdef"


def parse_rational(text):
    """Parse an integer or 'p/q' string losslessly into a Fraction."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def variables():
    """The six generators a, b, c, d, e, f of Q[a..f]."""
    n = len(VARIABLES)
    units = (tuple(int(j == k) for j in range(n)) for k in range(n))
    return tuple(Poly({exps: Fraction(1)}) for exps in units)


def _lift(value):
    """A ``Poly`` as it is, a rational as a constant ``Poly``, else None."""
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly({(0,) * len(VARIABLES): Fraction(value)})
    return None


def _grlex_key(exps):
    # graded lexicographic: total degree first, then the exponent vector
    return (sum(exps), exps)


class Poly:
    """Immutable polynomial in Q[a..f] with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {e: c for e, c in coeffs.items() if c != 0}

    def __add__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __mul__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (Fraction(1) / Fraction(other))
        raise TypeError("polynomials are divided only by nonzero rationals")

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = _lift(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        """Terms largest first in grlex, such as ``a^2*b - 1/2*c + 3``."""
        if not self.coeffs:
            return "0"
        terms = sorted(self.coeffs.items(), key=lambda item: _grlex_key(item[0]), reverse=True)
        pieces = []
        for exps, coeff in terms:
            mono = "*".join(
                name if e == 1 else "%s^%d" % (name, e)
                for name, e in zip(VARIABLES, exps)
                if e
            )
            if mono:
                if coeff == 1:
                    body = mono
                elif coeff == -1:
                    body = "-" + mono
                else:
                    body = "%s*%s" % (coeff, mono)
            else:
                body = str(coeff)
            pieces.append(body)
        out = pieces[0]
        for body in pieces[1:]:
            if body.startswith("-"):
                out += " - " + body[1:]
            else:
                out += " + " + body
        return out

    __repr__ = __str__
