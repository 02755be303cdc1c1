"""Extremal weight vectors and generalized minors."""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import linalg_reference
from dense_reference import atoms, dense_product
from g2cells import fixtures, minors, rep
from g2cells.scalars import variables
from g2cells.weyl import OMEGA, W, WORD_I, WORD_I_TILDE, Weight, weight_by_label

V7 = rep.build_representations()

#: the extremal vector of every chamber weight, by level: the columns of its
#: one basis wedge e_{c1} ^ ... ^ e_{cl} of the exterior power of V7, each
#: with coefficient +1
WEDGES = {
    1: {
        (1, 0): (0,),
        (-1, 1): (1,),
        (2, -1): (2,),
        (-2, 1): (4,),
        (1, -1): (5,),
        (-1, 0): (6,),
    },
    2: {
        (0, 1): (0, 1),
        (3, -1): (0, 2),
        (-3, 2): (1, 4),
        (3, -2): (2, 5),
        (-3, 1): (4, 6),
        (0, -1): (5, 6),
    },
}


def _extremal(level, w):
    """The one wedge (columns, coefficient) of v_{w omega_level}, and its weight."""
    mu = w.act(OMEGA[level])
    return minors._extremal_by_weight(mu.n1, mu.n2), mu


def test_extremal_at_identity_is_highest_vector():
    wedge, mu = _extremal(1, W.identity)
    assert wedge == ((0,), 1)
    assert mu == Weight(1, 0)
    assert _extremal(2, W.identity)[0] == ((0, 1), 1)


def test_extremal_at_w0_has_lowest_weight():
    for level, omega in ((1, Weight(1, 0)), (2, Weight(0, 1))):
        (cols, coeff), mu = _extremal(level, W.w0)
        assert mu == -omega
        assert cols == tuple(range(7 - level, 7))
        assert abs(coeff) == 1


def test_extremal_vectors_are_the_pinned_wedges():
    for level, table in WEDGES.items():
        for w in W.elements:
            (cols, coeff), mu = _extremal(level, w)
            assert len(cols) == level
            assert (cols, coeff) == (table[(mu.n1, mu.n2)], 1)


def test_extremal_vector_is_independent_of_the_representative():
    """wbar . v_omega along the word of any w, minimal or not, is the cached
    extremal vector of w omega: its determinants over all column sets
    vanish but at the one wedge.  wbar0 is one element along both words."""
    for level in (1, 2):
        for w in W.elements:
            rows, den = rep.group_product(rep.sdot_inverse(j) for j in w.word).rows
            assert den == 1
            terms = []
            for cols in combinations(range(7), level):
                d = linalg_reference.det(tuple(tuple(rows[r][c] for c in range(level)) for r in cols))
                if d:
                    terms.append((cols, d))
            assert tuple(terms) == (_extremal(level, w)[0],), (level, w.word)
    w0bar = [rep.group_product(map(rep.sdot_inverse, word)) for word in (WORD_I, WORD_I_TILDE)]
    assert w0bar[0] == w0bar[1]


def test_extremal_vectors_integral_and_primitive():
    for level in (1, 2):
        for w in W.elements:
            (_, coeff), _ = _extremal(level, w)
            assert type(coeff) is int
            # the content of the one coefficient
            assert gcd(0, coeff) == 1


def test_extremal_vector_needs_a_signed_permutation(monkeypatch):
    """A Weyl table whose first columns are not signed unit vectors, one by one
    in distinct rows, raises instead of giving a wedge."""
    unit = [list(row) for row in rep.UNIT_ROWS]
    two_entries = [row[:] for row in unit]
    two_entries[3][0] = 1
    no_entry = [row[:] for row in unit]
    no_entry[1][1] = 0
    one_row = [[1, 1, 0, 0, 0, 0, 0]] + [[0, 0] + row[2:] for row in unit[1:]]
    for table, weights in ((two_entries, ((1, 0), (0, 1))), (no_entry, ((0, 1),)),
                           (one_row, ((0, 1),))):
        monkeypatch.setattr(rep, "apply_covector", lambda g, rows, table=table: (table, 1))
        for n1, n2 in weights:
            minors._extremal_by_weight.cache_clear()
            with pytest.raises(ArithmeticError):
                minors._extremal_by_weight(n1, n2)
    monkeypatch.undo()
    minors._extremal_by_weight.cache_clear()
    assert minors._extremal_by_weight(0, 1) == ((0, 1), 1)


def test_weight_to_chamber_examples():
    w, level = minors.weight_to_chamber(Weight(1, 0))
    assert w is W.identity and level == 1
    # the minimal-length element sending omega1 to -eps1 has length 5
    w, level = minors.weight_to_chamber(Weight(-1, 0))
    assert level == 1
    assert w.act(Weight(1, 0)) == Weight(-1, 0)
    assert w.length == 5
    # every chamber weight mu of level l maps to l and to the shortest w with
    # w*omega_l = mu: mu has two such w, whose lengths differ by 1
    for l in (1, 2):
        for mu in {u.act(OMEGA[l]) for u in W.elements}:
            w, level = minors.weight_to_chamber(mu)
            assert level == l and w.act(OMEGA[l]) == mu, mu
            shortest = min(v.length for v in W.elements if v.act(OMEGA[l]) == mu)
            assert w.length == shortest, mu
    # every chamber weight has an epsilon label, and the labels are the table's
    labels = {w.act(OMEGA[level]).eps_label() for w in W.elements for level in (1, 2)}
    assert labels == set(minors.LEVEL1_LABELS + minors.LEVEL2_LABELS)


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
    g = rep.group_product(rep.x(i, t) for i, t in zip(WORD_I_TILDE, params))
    a, b, c, d, e, f = params

    def minor_at(label):
        return minors.minor(g, weight_by_label(label))

    assert minor_at("e1") == 1
    assert minor_at("-e3") == f + d + b
    assert minor_at("e3-e1") == a * b**3 * c**2 * d**3 * e


def test_minor_lower_examples():
    assert minors.minor_lower(rep.group_identity(), W.w0.act(OMEGA[1])) == 1
    val = minors.minor_lower(rep.wdot(W.w0), W.identity.act(OMEGA[1]))
    assert val in (1, -1)
    # a totally positive point has every lower minor nonzero
    ones = rep.group_product(
        rep.y(i, Fraction(1)) for i in (2, 1, 2, 1, 2, 1)
    )
    for level in (1, 2):
        for w in W.elements:
            assert minors.minor_lower(ones, w.act(OMEGA[level])) != 0


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
            assert minors.minor(g, W.identity.act(OMEGA[level])) == 1


def _oracle_minors(dense, level, mu):
    """Delta and Delta_- of level ``level`` at mu from the dense matrix alone: the
    determinants at rows 0..level-1 and 7-level..6 and the pinned wedge's
    columns, the lowest one divided by the sign of v_{-omega}, which is +1."""
    cols = WEDGES[level][(mu.n1, mu.n2)]

    def det_at(rows):
        return linalg_reference.det(tuple(tuple(dense[r][c] for c in cols) for r in rows))

    return det_at(range(level)), det_at(range(7 - level, 7))


def _assert_minors_match_oracle(g, dense):
    for level in (1, 2):
        for w in W.elements:
            mu = w.act(OMEGA[level])
            highest, lowest = _oracle_minors(dense, level, mu)
            assert minors.minor(g, mu) == highest
            assert minors.minor_lower(g, mu) == lowest


def test_row_functionals_agree_with_direct_minors():
    """Both minors of both levels against determinants of the dense product."""
    params = [Fraction(v) for v in (2, -3, 5, -7, 11, -13)]
    upper = tuple(("x", i, t) for i, t in zip((2, 1, 2, 1, 2, 1), params))
    lower = tuple(("y", i, t) for i, t in zip((1, 2, 1, 2, 1, 2), params))
    for word in (upper, lower, upper + lower):
        g = rep.GroupElement(word)
        _assert_minors_match_oracle(g, dense_product(word, V7))


@settings(max_examples=40, deadline=None)
@given(st.lists(atoms, max_size=7))
def test_minors_are_determinants_of_the_dense_product(word):
    g = rep.group_product(rep.GroupElement([atom]) for atom in word)
    _assert_minors_match_oracle(g, dense_product(word, V7))


#: the 12 chamber weights, and a reader of their minors per direction,
#: built once, since its kernels are keyed by the reader
CHAMBER_WEIGHTS = tuple(map(weight_by_label, minors.LEVEL1_LABELS + minors.LEVEL2_LABELS))
READERS = {lowest: minors.minor_reader(CHAMBER_WEIGHTS, lowest) for lowest in (False, True)}


def _assert_pairings_read_inside_the_fold(g):
    for lowest, read_rows in ((False, minors.highest_row), (True, minors.lowest_row)):
        row = read_rows(g)
        expected = [minors.pair_row_with_weight(row, mu) for mu in CHAMBER_WEIGHTS]
        assert minors.read_minors(g, READERS[lowest]) == (expected, row[1])


@settings(max_examples=60, deadline=None)
@given(st.lists(atoms, max_size=7))
def test_kernel_pairings_are_the_pairings_of_the_folded_rows(word):
    """The pairings a kernel reads off its fold are those of
    ``pair_row_with_weight`` on the folded rows 0 and 1, at all 12 chamber
    weights, in both directions, the matrix kept or not."""
    g = rep.GroupElement(word)
    _assert_pairings_read_inside_the_fold(g)
    g.rows
    _assert_pairings_read_inside_the_fold(g)


def test_kernel_pairings_carry_polynomial_parameters():
    a, b, c, d, e, f = variables()
    _assert_pairings_read_inside_the_fold(rep.word("x", WORD_I_TILDE, (a, b, c, d, e, f)))
    _assert_pairings_read_inside_the_fold(rep.GroupElement(
        (("x", 1, a), ("y", 2, b), ("sdot", 1), ("x", 2, c * d), ("sdot_inv", 2),
         ("y", 1, e), ("coweight", 2, Fraction(-3, 5)), ("x", 1, f), ("sdot", 2))))


def test_lowest_rows_require_the_bottom_wedge():
    # rows 0 and 1 of wdot(w0): the block e_6, -e_5
    assert minors._lowest_rows() == ((0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, -1, 0))
    # the highest rows are those of the identity
    assert rep.UNIT_ROWS[:2] == ((1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0))
    # the lowest minors of the identity at w0 omega_l are 1
    identity = rep.group_identity()
    for level in (1, 2):
        assert minors.minor_lower(identity, W.w0.act(OMEGA[level])) == 1


def test_symbolic_minors_fold_once(monkeypatch):
    calls = []
    fold = rep.apply_covector
    monkeypatch.setattr(rep, "apply_covector", lambda g, rows: calls.append(rows) or fold(g, rows))
    table = minors.symbolic_minors()
    assert len(calls) == 1
    assert list(table) == list(minors.LEVEL1_LABELS + minors.LEVEL2_LABELS)


def test_a_mutated_minor_table_leaves_the_next_call_whole():
    table = minors.symbolic_minors()
    table.pop("e1")
    table["-e3"] = 0
    assert minors.symbolic_minors() == fixtures.minor_polynomials()
