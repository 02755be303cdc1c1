"""Exact scalars: arbitrary-precision rationals and multivariate polynomials.

Every number in this package is exact: a Python ``int``, a
``fractions.Fraction`` or a ``Poly`` over the rationals.  The Chevalley
matrices of V7, its divided-power tables, the folds and the coefficients
of the extremal wedges are ints (integral numerators over one
denominator where a fold divides); parameters are ints, ``Fraction``s or
``Poly``s, and the minors read out of them are ``Fraction``s or
``Poly``s.  No floating point is used anywhere.
Quotients of polynomials are never formed symbolically; rational-function
identities are always decided by cross-multiplying exact values.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text):
    """Parse an integer or 'p/q' string losslessly into a Fraction."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


class PolyRing:
    """Polynomial ring over Q in a fixed, ordered tuple of named variables."""

    def __init__(self, names):
        self.names = tuple(names)
        self.nvars = len(self.names)

    def __repr__(self):
        return "PolyRing(%s)" % ", ".join(self.names)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Poly(self, {(0,) * self.nvars: c})

    def gen(self, k):
        exps = [0] * self.nvars
        exps[k] = 1
        return Poly(self, {tuple(exps): Fraction(1)})

    def gens(self):
        return tuple(self.gen(k) for k in range(self.nvars))


def _grlex_key(exps):
    # graded lexicographic: total degree first, then the exponent vector
    return (sum(exps), exps)


class Poly:
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("ring", "coeffs", "_hash")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = {e: c for e, c in coeffs.items() if c != 0}
        self._hash = None

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.ring.zero()
            return Poly(self.ring, {e: c * other for e, c in self.coeffs.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (Fraction(1) / Fraction(other))
        raise TypeError("polynomials are divided only by nonzero rationals")

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = self.ring.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, tuple(sorted(self.coeffs.items()))))
        return self._hash

    def __bool__(self):
        return bool(self.coeffs)

    # -- queries ---------------------------------------------------------

    def terms_grlex(self):
        """Terms as (exponent tuple, coefficient), largest first in grlex."""
        return sorted(self.coeffs.items(), key=lambda item: _grlex_key(item[0]), reverse=True)

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for exps, coeff in self.terms_grlex():
            mono = "*".join(
                name if e == 1 else "%s^%d" % (name, e)
                for name, e in zip(self.ring.names, exps)
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
