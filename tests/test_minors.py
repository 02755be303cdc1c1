"""Extremal weight vectors and generalized minors."""

from fractions import Fraction
from math import gcd

import pytest

import linalg_reference
from g2cells import fixtures, linalg, minors, rep
from g2cells.weyl import W, Weight, weight_by_label


def test_extremal_at_identity_is_highest_vector():
    v = minors.extremal_vector(1, W.identity)
    assert v.coordinates == (1, 0, 0, 0, 0, 0, 0)
    assert v.weight == Weight(1, 0)


def test_extremal_at_w0_has_lowest_weight():
    for level, omega in ((1, Weight(1, 0)), (2, Weight(0, 1))):
        v = minors.extremal_vector(level, W.w0)
        assert v.weight == -omega
        nz = [k for k, c in enumerate(v.coordinates) if c != 0]
        assert nz == [len(v.coordinates) - 1]
        assert abs(v.coordinates[-1]) == 1


def test_extremal_reduced_word_independence_on_w0():
    from g2cells.minors import _extremal_along_word
    from g2cells.weyl import WORD_I, WORD_I_TILDE

    for level in (1, 2):
        assert _extremal_along_word(level, WORD_I) == _extremal_along_word(
            level, WORD_I_TILDE
        )


def test_extremal_vectors_integral_and_primitive():
    for level in (1, 2):
        for w in W.elements:
            v = minors.extremal_vector(level, w)
            coords = [Fraction(c) for c in v.coordinates]
            assert all(c.denominator == 1 for c in coords)
            content = 0
            for c in coords:
                content = gcd(content, int(c))
            assert content == 1


def test_weight_to_chamber_examples():
    cw = minors.weight_to_chamber(Weight(1, 0))
    assert cw.w is W.identity and cw.level == 1
    # the minimal-length element sending omega1 to -eps1 has length 5
    cw = minors.weight_to_chamber(Weight(-1, 0))
    assert cw.level == 1
    assert cw.w.act(Weight(1, 0)) == Weight(-1, 0)
    assert cw.w.length == 5
    # e3 - e2 at level 2
    mu = weight_by_label("e3-e2")
    cw = minors.weight_to_chamber(mu)
    assert cw.level == 2 and cw.w.act(Weight(0, 1)) == mu
    assert all(
        not (v.act(Weight(0, 1)) == mu and v.length < cw.w.length)
        for v in W.elements
    )


def test_weight_to_chamber_rejects_non_extremal():
    with pytest.raises(ValueError):
        minors.weight_to_chamber(Weight(0, 0))
    with pytest.raises(ValueError):
        minors.weight_to_chamber(Weight(2, 0))


def test_symbolic_minors_match_reference():
    got = minors.symbolic_minors()
    expected = fixtures.minor_polynomials()
    assert list(got) == list(minors.LEVEL1_LABELS + minors.LEVEL2_LABELS)
    for label in expected:
        assert got[label] == expected[label], label


def test_minor_examples_at_rational_point():
    params = [Fraction(v) for v in (1, 2, 3, 5, 7, 11)]
    from g2cells.weyl import WORD_I_TILDE

    g = rep.group_product(rep.x(i, t) for i, t in zip(WORD_I_TILDE, params))
    a, b, c, d, e, f = params

    def minor_at(label):
        return minors.minor(g, minors.weight_to_chamber(weight_by_label(label)))

    assert minor_at("e1") == 1
    assert minor_at("-e3") == f + d + b
    assert minor_at("e3-e1") == a * b**3 * c**2 * d**3 * e


def test_minor_lower_examples():
    cw = minors.ChamberWeight(W.w0, 1)
    assert minors.minor_lower(rep.group_identity(), cw) == 1
    top = minors.ChamberWeight(W.identity, 1)
    val = minors.minor_lower(rep.wdot(W.w0), top)
    assert val in (1, -1)
    # a totally positive point has every lower minor nonzero
    ones = rep.group_product(
        rep.y(i, Fraction(1)) for i in (2, 1, 2, 1, 2, 1)
    )
    for level in (1, 2):
        for w in W.elements:
            cw = minors.ChamberWeight(w, level)
            assert minors.minor_lower(ones, cw) != 0


def test_minor_of_unipotents_at_fundamental_weights():
    import random

    rng = random.Random(5)
    for _ in range(10):
        u_minus = rep.group_product(
            rep.y(rng.choice((1, 2)), Fraction(rng.randint(-4, 4))) for _ in range(3)
        )
        u_plus = rep.group_product(
            rep.x(rng.choice((1, 2)), Fraction(rng.randint(-4, 4))) for _ in range(3)
        )
        g = u_minus * u_plus
        for level in (1, 2):
            cw = minors.ChamberWeight(W.identity, level)
            assert minors.minor(g, cw) == 1


def test_row_functionals_agree_with_direct_minors():
    """Both minors against the dense matrix applied to the extremal vector."""
    params = [Fraction(v) for v in (2, -3, 5, -7, 11, -13)]
    upper = rep.group_product(
        rep.x(i, t) for i, t in zip((2, 1, 2, 1, 2, 1), params)
    )
    lower = rep.group_product(
        rep.y(i, t) for i, t in zip((1, 2, 1, 2, 1, 2), params)
    )
    for g in (upper, lower, upper * lower):
        for level, label in ((1, "V7"), (2, "V14")):
            lowest = minors.extremal_vector(level, W.w0).coordinates[-1]
            for w in W.elements:
                cw = minors.ChamberWeight(w, level)
                vec = minors.extremal_vector(level, w).coordinates
                dense = linalg_reference.mat_vec(g.matrix(label), vec)
                assert minors.minor(g, cw) == dense[0]
                assert minors.minor_lower(g, cw) == dense[-1] / lowest
