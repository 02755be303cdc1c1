"""The polynomial ring Q[a..f] of the symbolic minors and the one quotient
class, called directly."""

from fractions import Fraction

import pytest

from g2cells.scalars import Poly, Quotient, variables


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


def test_negation_and_the_parts_of_a_quotient():
    a, b, *_ = variables()
    assert str(-(a + 2 * b)) == "-a - 2*b" and -(-a) == a
    assert -Poly({}) == 0
    # a polynomial counts as itself over 1, as an int does
    assert (a + b).numerator == a + b and (a + b).denominator == 1


def test_a_quotient_refuses_a_zero_denominator():
    a, b, *_ = variables()
    for den in (0, Fraction(0), a * b + (-1) * b * a):
        with pytest.raises(ZeroDivisionError):
            Quotient(1, den)
    # a division by a zero value raises where it happens
    with pytest.raises(ZeroDivisionError):
        1 / Quotient(0, 5)
    with pytest.raises(ZeroDivisionError):
        Quotient(a) / (Quotient(a) - a)


def test_quotients_compare_by_cross_multiplication():
    a, b, *_ = variables()
    # never reduced: the parts are kept as given
    q = Quotient(6, 4)
    assert (q.num, q.den) == (6, 4) and (q.numerator, q.denominator) == (6, 4)
    assert q == Quotient(3, 2) == Quotient(Fraction(3, 4), Fraction(1, 2)) == Fraction(3, 2)
    assert q != Quotient(2, 3) and q != 1
    assert Quotient(a * b, b) == a and a == Quotient(a * b, b)
    assert Quotient(a, b) == Quotient(2 * a, 2 * b) != Quotient(b, a)
    assert Quotient(a) != "a"


def test_quotient_arithmetic_over_ints_and_polys():
    a, b, *_ = variables()
    half = Quotient(1, 2)
    assert half + half == 1 and half - 1 == Quotient(-1, 2)
    assert 3 * half == half * 3 == Fraction(3, 2)
    assert 1 / half == 2 and half / 2 == Quotient(1, 4) and -half == Quotient(-1, 2)
    assert half ** 3 == Fraction(1, 8) and half ** 0 == 1
    with pytest.raises(ValueError):
        half ** -1
    r = Quotient(a, b)
    assert r - r == 0 and r * (1 / r) == 1
    assert (r + 1) * b == Quotient(a + b) and (r - 1) * b == a + -b
    p = r ** 2 - 1 / Quotient(b)
    assert (p.numerator, p.denominator) == (p.num, p.den)
    assert p == Quotient(a ** 2 + -b, b ** 2)
