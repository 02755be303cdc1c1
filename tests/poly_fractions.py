"""Quotients of ``Poly``s: the fraction field of Q[a..f], as far as a closed
form needs it.

A closed form written in plain arithmetic runs on any field, so evaluated
at the generators a, ..., f it is a tuple of rational functions.
``PolyFraction`` carries one as a numerator and a denominator, each an
int, a ``Fraction`` or a ``Poly``, and compares two by
cross-multiplication, so it never reduces one.
"""

from fractions import Fraction

from g2cells.scalars import Poly


class PolyFraction:
    """num / den over Q[a..f], den nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if den == 0:
            raise ZeroDivisionError("a PolyFraction over 0")
        self.num, self.den = num, den

    @staticmethod
    def _of(value):
        if isinstance(value, PolyFraction):
            return value
        if isinstance(value, (int, Fraction, Poly)):
            return PolyFraction(value)
        return None

    def __add__(self, other):
        other = self._of(other)
        if other is None:
            return NotImplemented
        return PolyFraction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        other = self._of(other)
        if other is None:
            return NotImplemented
        return PolyFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __neg__(self):
        return PolyFraction(-self.num, self.den)

    def __sub__(self, other):
        other = self._of(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __truediv__(self, other):
        other = self._of(other)
        if other is None:
            return NotImplemented
        return PolyFraction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._of(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        return PolyFraction(self.num**n, self.den**n)

    @property
    def numerator(self):
        return self.num

    @property
    def denominator(self):
        return self.den

    def __eq__(self, other):
        other = self._of(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den
