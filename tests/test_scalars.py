"""The polynomial ring Q[a..f] of the symbolic minors, called directly."""

from fractions import Fraction

import pytest

from g2cells.scalars import Poly, variables


def test_constants_on_either_side():
    a, b, *_ = variables()
    assert str(a + 1) == str(1 + a) == "a + 1"
    assert str(a + Fraction(1, 2)) == str(Fraction(1, 2) + a) == "a + 1/2"
    assert str(3 * b) == str(b * 3) == "3*b"
    assert str(Fraction(-2, 3) * a) == str(a * Fraction(-2, 3)) == "-2/3*a"
    assert 0 * a == a * 0 == 0


def test_power_and_rational_division():
    a, b, *_ = variables()
    assert (a + b) ** 0 == 1
    assert str((a + b) ** 2) == "a^2 + 2*a*b + b^2"
    assert str((2 * a + 4) / Fraction(4, 3)) == "3/2*a + 3"
    with pytest.raises(ValueError):
        a ** -1
    with pytest.raises(ValueError):
        a ** Fraction(1, 2)
    with pytest.raises(TypeError):
        a / 0


def test_zero_polynomial():
    a, b, *_ = variables()
    zero = a * b + (-1) * b * a
    assert not zero
    assert zero == 0 and zero == Fraction(0) and zero == Poly({})
    assert str(zero) == "0"
    assert a and a != 0 and a + 0 == a


def test_grlex_string():
    a, b, c, d, e, f = variables()
    assert str(f + a) == "a + f"
    # total degree first, then the exponent vector: a^2 > a*b > b^2 > a > 1
    assert str(1 + a + b**2 + a * b + a**2) == "a^2 + a*b + b^2 + a + 1"
    assert str(-1 * c * d**3 + Fraction(1, 2) * e + (-7)) == "-c*d^3 + 1/2*e - 7"
    assert str(Fraction(5, 3) * f) == "5/3*f"
