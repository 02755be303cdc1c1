"""Chamber Ansatz factorizations: closed forms, round trips, flags."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from dense_reference import dense_product
from g2cells import chamber, checks, components, deodhar, fixtures, minors, rep
from g2cells.scalars import Quotient, variables
from g2cells.weyl import (
    G2_CARTAN,
    OMEGA,
    WORD_I,
    WORD_I_TILDE,
    W,
    Weight,
    enumerate_distinguished,
    weight_by_label,
)


def x_tilde(params):
    return rep.group_product(
        rep.x(i, Fraction(t)) for i, t in zip(WORD_I_TILDE, params)
    )


def y_word(word, params):
    return rep.group_product(
        rep.y(i, Fraction(t)) for i, t in zip(word, params)
    )


def test_epsilon_at_prime_point():
    params = tuple(Fraction(v) for v in (1, 2, 3, 5, 7, 11))
    fac = chamber.epsilon_factorize(x_tilde(params), WORD_I_TILDE)
    assert fac.kind == "lower" and fac.word == WORD_I_TILDE
    assert fac.params[0] == Fraction(1, 11)
    assert fac.params == chamber.closed_form_epsilon(params)
    assert chamber.flag_equal_opposed(x_tilde(params), fac.product())


def test_epsilon_identity_not_factorizable():
    with pytest.raises(chamber.NotFactorizable):
        chamber.epsilon_factorize(rep.group_identity(), WORD_I_TILDE)
    with pytest.raises(chamber.NotFactorizable):
        chamber.closed_form_epsilon((1, 0, 1, 1, 1, 1))


def test_epsilon_totally_positive_point():
    fac = chamber.epsilon_factorize(x_tilde((1,) * 6), WORD_I_TILDE)
    assert all(p > 0 for p in fac.params)


def test_alpha_first_param_examples():
    fam = deodhar.family_by_name("x21x12")
    cell = deodhar.CellId(fam, (1, 1))
    point = deodhar.cell_point(cell, (1, 2), (3, 5))
    fac = chamber.alpha_factorize(point, WORD_I_TILDE)
    assert fac.params[0] == Fraction(-1, 5)
    assert fac.params == chamber.closed_form_alpha("x21x12", (1, 2), (3, 5))

    fam = deodhar.family_by_name("12x21x")
    cell = deodhar.CellId(fam, (1, 1))
    point = deodhar.cell_point(cell, (1, 2), (3, 5))
    fac = chamber.alpha_factorize(point, WORD_I_TILDE)
    assert fac.params[0] == Fraction(1, 2)
    assert fac.params[1] == Fraction(-1, 5)


def test_alpha_identity_not_factorizable():
    with pytest.raises(chamber.NotFactorizable):
        chamber.alpha_factorize(rep.group_identity(), WORD_I_TILDE)


def test_alpha_requires_lower_input():
    with pytest.raises(ValueError):
        chamber.alpha_factorize(rep.x(1, Fraction(1)), WORD_I_TILDE)
    with pytest.raises(ValueError):
        chamber.epsilon_factorize(rep.y(1, Fraction(1)), WORD_I_TILDE)


#: (not unipotent lower, not unipotent upper) pairs of x, y and sdot words,
#: pure and mixed; the unipotence guards of the maps must refuse each
WRONG_SIDE = (
    (x_tilde((1, 2, 3, 5, 7, 11)), y_word(WORD_I_TILDE, (1, 2, 3, 5, 7, 11))),
    (rep.sdot(1), rep.sdot(2)),
    (rep.wdot(W.w0), rep.wdot(W.w0)),
    (y_word(WORD_I_TILDE, (1, 2, 3, 5, 7, 11)) * rep.x(1, Fraction(1, 3)),
     x_tilde((1, 2, 3, 5, 7, 11)) * rep.y(2, Fraction(-1, 3))),
    (rep.sdot(2) * rep.y(1, Fraction(2)), rep.x(1, Fraction(2)) * rep.sdot_inverse(1)),
)


@pytest.mark.parametrize(
    "not_lower, not_upper", WRONG_SIDE, ids=("pure", "sdot", "w0", "mixed", "sdot-mixed")
)
def test_factorizations_reject_the_wrong_side(not_lower, not_upper):
    with pytest.raises(ValueError, match="alpha_factorize"):
        chamber.alpha_factorize(not_lower, WORD_I_TILDE)
    with pytest.raises(ValueError, match="epsilon_factorize"):
        chamber.epsilon_factorize(not_upper, WORD_I_TILDE)
    with pytest.raises(ValueError, match="alpha_signs expects a unipotent lower"):
        chamber.alpha_signs(not_lower, WORD_I_TILDE)
    with pytest.raises(ValueError, match="lower_signs expects a unipotent lower"):
        chamber.lower_signs(not_lower, WORD_I)
    with pytest.raises(ValueError, match="epsilon_signs expects a unipotent upper"):
        chamber.epsilon_signs(not_upper, WORD_I_TILDE)
    with pytest.raises(ValueError, match="second argument"):
        chamber.flag_equal_opposed(x_tilde((1,) * 6), not_lower)
    with pytest.raises(ValueError, match="first argument"):
        chamber.flag_equal_opposed(not_upper, y_word(WORD_I, (1,) * 6))


def test_factorize_rejects_bad_words():
    with pytest.raises(ValueError):
        chamber.epsilon_factorize(x_tilde((1,) * 6), (1, 2, 1, 2, 1, 1))
    with pytest.raises(ValueError):
        chamber.epsilon_factorize(x_tilde((1,) * 6), (1, 2, 1))


BAD_WORD = (1, 2, 1, 2, 1, 3)


@pytest.mark.parametrize("call", (
    lambda: W.s(3),
    lambda: W.from_word((3,)),
    lambda: enumerate_distinguished((1, 3)),
    lambda: chamber.epsilon_factorize(x_tilde((1,) * 6), BAD_WORD),
    lambda: chamber.alpha_factorize(y_word(WORD_I, (1,) * 6), BAD_WORD),
    lambda: chamber.epsilon_signs(x_tilde((1,) * 6), BAD_WORD),
    lambda: chamber.alpha_signs(y_word(WORD_I, (1,) * 6), BAD_WORD),
    lambda: chamber.lower_signs(y_word(WORD_I, (1,) * 6), BAD_WORD),
), ids=("s", "from_word", "enumerate_distinguished", "epsilon_factorize",
        "alpha_factorize", "epsilon_signs", "alpha_signs", "lower_signs"))
def test_a_bad_letter_in_a_word_is_refused_by_name(call):
    with pytest.raises(ValueError, match="letter must be 1 or 2, not 3"):
        call()


@pytest.mark.parametrize("name", sorted(chamber.CLOSED_FORM_FAMILIES))
def test_closed_alpha_agrees_with_minors(name):
    # seeded by the family's place in the sorted names, so the points do not
    # depend on PYTHONHASHSEED
    rng = random.Random(sorted(chamber.CLOSED_FORM_FAMILIES).index(name))
    for _ in range(25):
        _, _, closed, fac = chamber.redraw(lambda: checks._chamber_draw(name, rng), name)
        assert fac.params == closed


def test_alpha_epsilon_round_trip_both_words():
    rng = random.Random(11)
    for word in (WORD_I, WORD_I_TILDE):
        done = 0
        while done < 10:
            params = tuple(
                rng.choice((1, -1)) * deodhar.sample_magnitude(rng)
                for _ in range(6)
            )
            y = y_word(word, params)
            try:
                x = chamber.alpha_factorize(y, word)
                back = chamber.epsilon_factorize(x.product(), word)
            except chamber.NotFactorizable:
                continue
            assert back.params == params
            assert back.product() == y
            assert chamber.flag_equal_opposed(x.product(), y)
            done += 1


def test_alpha_totally_positive_point():
    y = y_word(WORD_I_TILDE, (1,) * 6)
    fac = chamber.alpha_factorize(y, WORD_I_TILDE)
    assert all(p > 0 for p in fac.params)


def test_flag_equal_opposed_rejects_mismatched_pair():
    assert not chamber.flag_equal_opposed(rep.x(1, Fraction(1)), rep.y(1, Fraction(1)))


@pytest.mark.parametrize("t", (Fraction(3, 5), Fraction(-7)))
def test_flag_equal_opposed_reads_the_subdiagonal(t):
    # y2(t) moves the flag by entries on the subdiagonal of y^-1 x w0dot alone
    xel = x_tilde((1, 2, 3, 5, 7, 11))
    yel = chamber.epsilon_factorize(xel, WORD_I_TILDE).product()
    assert chamber.flag_equal_opposed(xel, yel)
    assert not chamber.flag_equal_opposed(xel, yel * rep.y(2, t))


def _upper_by_six_rows(g):
    """Reference B+ test: rows 1..6 of g's V7 matrix vanish left of the diagonal."""
    rows, _ = g.rows
    return all(not any(row[:i]) for i, row in enumerate(rows[1:], start=1))


def _upper_by_dense_product(g):
    """Dense B+ test: the dense product of g's word is upper triangular."""
    dense = dense_product(g.provenance, rep.build_representations())
    return all(not any(row[:i]) for i, row in enumerate(dense))


def _in_upper_borel(g):
    """The B+ test of the flag identity: B+ e B+ = B+."""
    return deodhar.bruhat_position_plus(g) is W.identity


def _signed_draw(rng):
    return deodhar.sample_magnitude(rng, rng.choice((1, -1)))


def _borel_word(rng):
    """A product of one to four x atoms and coweights: an element of B+."""
    return rep.group_product(
        (rep.x if rng.random() < 0.6 else rep.coweight)(rng.choice((1, 2)), _signed_draw(rng))
        for _ in range(rng.randint(1, 4))
    )


@pytest.mark.parametrize("w", W.elements, ids=lambda w: "".join(map(str, w.word)) or "e")
def test_two_row_borel_test_agrees_with_six_rows_on_each_double_coset(w):
    # b wdot b' lies in B+ iff w is the identity (Bruhat decomposition)
    rng = random.Random(w.index)
    for _ in range(20):
        g = _borel_word(rng) * rep.wdot(w) * _borel_word(rng)
        assert _in_upper_borel(g) == (w is W.identity)
        assert _upper_by_six_rows(g) == _upper_by_dense_product(g) == (w is W.identity)


def test_two_row_borel_test_agrees_with_six_rows_on_mixed_words():
    # b m b' with m a short word in x, y and coweight atoms; b y_i(t) b' lies
    # in a maximal parabolic but not in B+.  Half the words are b m m^-1 b',
    # in B+ although their fold passes through rows that are not triangular.
    rng = random.Random(19)
    seen = set()
    for _ in range(160):
        m = rep.group_product(
            (rep.x, rep.y, rep.coweight)[rng.randrange(3)](rng.choice((1, 2)), _signed_draw(rng))
            for _ in range(rng.randint(1, 3))
        )
        middle = m * m.inverse() if rng.random() < 0.5 else m
        g = _borel_word(rng) * middle * _borel_word(rng)
        expected = _upper_by_six_rows(g)
        assert _in_upper_borel(g) == expected
        seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("t", (Fraction(3, 5), Fraction(-7)))
def test_flag_identity_agrees_with_the_dense_product(t):
    xel = x_tilde((1, 2, 3, 5, 7, 11))
    yel = chamber.epsilon_factorize(xel, WORD_I_TILDE).product()
    for y, expected in ((yel, True), (yel * rep.y(1, t), False), (yel * rep.y(2, t), False)):
        assert chamber.flag_equal_opposed(xel, y) is expected
        assert _upper_by_dense_product(y.inverse() * xel * rep.wdot(W.w0)) is expected


def test_factorization_forbids_zero_params():
    with pytest.raises(chamber.NotFactorizable):
        chamber.Factorization(WORD_I_TILDE, (Fraction(0),) * 6, "lower")


def test_factorization_rejects_a_parameter_count_off_the_word():
    for n in (0, 5, 7):
        with pytest.raises(ValueError, match="%d parameters" % n):
            chamber.Factorization(WORD_I_TILDE, (Fraction(1),) * n, "upper")


def test_closed_alpha_examples_from_tables():
    vals = chamber.closed_form_alpha("12x21x", (1, 2), (3, 5))
    assert vals[0] == Fraction(1, 2) and vals[1] == Fraction(-1, 5)
    vals = chamber.closed_form_alpha("1x12x2", (1, 2), (3, 5))
    assert vals[0] == Fraction(-1, 5)


def test_epsilon_closed_form_is_an_identity_of_rational_functions():
    """At x_2(a)x_1(b)...x_1(f) over Q[a..f] each a_m of the Ansatz, a
    quotient of polynomial pairings, is the closed form's a_m."""
    params = variables()
    point = chamber.Factorization(WORD_I_TILDE, params, "upper").product()
    _, steps, den, values = chamber._pairings(point, WORD_I_TILDE, False)
    assert den == 1
    closed = chamber._epsilon_212121(tuple(Quotient(v) for v in params))
    differ = [
        "a_%d" % m
        for m, ((num, exp, d1, d2, _), form) in enumerate(zip(steps, closed), 1)
        if form != Quotient(values[num] ** exp, values[d1] * values[d2])
    ]
    assert differ == []


@pytest.mark.parametrize("name", chamber.CLOSED_FORM_FAMILIES)
def test_alpha_closed_form_is_an_identity_of_rational_functions(name):
    """At the family's cell point over Q[a..f], with the generators a, b, ...
    as its t and then its m and every sign +1, each a_m of the Ansatz is
    the closed form's a_m."""
    fam = deodhar.family_by_name(name)
    coords = variables()
    t, m = coords[: len(fam.I)], coords[len(fam.I): len(fam.I) + len(fam.K)]
    point = deodhar.cell_point(deodhar.CellId(fam, (1,) * len(t)), t, m)
    _, steps, den, values = chamber._pairings(point, WORD_I_TILDE, True)
    assert den == 1
    closed = chamber.CLOSED_FORM_FAMILIES[name](
        tuple(map(Quotient, t)), tuple(map(Quotient, m))
    )
    differ = [
        "a_%d" % k
        for k, ((num, exp, d1, d2, _), form) in enumerate(zip(steps, closed), 1)
        if form != Quotient(values[num] ** exp, values[d1] * values[d2])
    ]
    assert differ == []


@pytest.mark.parametrize("bad", (0.5, "1/2"))
def test_factorization_refuses_an_inexact_parameter_where_it_is_built(bad):
    """An inexact parameter is refused by the constructor, before ``signs()``
    can read it; ``Poly`` parameters stay accepted."""
    for k in range(6):
        params = (1,) * k + (bad,) + (1,) * (5 - k)
        with pytest.raises(TypeError, match="exact scalar"):
            chamber.Factorization(WORD_I_TILDE, params, "upper")
    assert chamber.Factorization(WORD_I_TILDE, variables(), "lower").params == variables()


#: per closed form, a point at which its first polynomial vanishes:
#: d1 = e+c+a for epsilon, p1 for each alpha family
FIRST_POLYNOMIAL_ZEROS = {
    "epsilon": ((1, 1, 1, 1, -2, 1),),
    "x21x12": ((1, 2), (-1, 1)),  # t1*m2 + m1
    "12x21x": ((1, 1), (-3, 1)),  # 3*t1*m2 + m1
    "1x12x2": ((1, 1), (-1, 1)),  # m1*m2 + t2
    "xx1x1x": ((1, 1, 1, -1), (1,)),  # t2 + t4
    "1x1xxx": ((1, 1, 1, -1), (1,)),  # t2 + t4
    "xxx2x2": ((1, 1, 1, 1), (1,)),  # m1 - t2
    "x2x2xx": ((1, 1, 1, 1), (1,)),  # m1 - t4
}
CLOSED_FORMS = ("epsilon",) + tuple(sorted(chamber.CLOSED_FORM_FAMILIES))


def _closed_form(kind, coords):
    if kind == "epsilon":
        return chamber.closed_form_epsilon(*coords)
    return chamber.closed_form_alpha(kind, *coords)


@pytest.mark.parametrize("kind", CLOSED_FORMS)
def test_a_vanishing_first_polynomial_is_a_chart_miss(kind):
    """The closed form refuses the point, and so does the Ansatz."""
    coords = FIRST_POLYNOMIAL_ZEROS[kind]
    with pytest.raises(chamber.NotFactorizable):
        _closed_form(kind, coords)
    with pytest.raises(chamber.NotFactorizable):
        if kind == "epsilon":
            point = chamber.Factorization(WORD_I_TILDE, coords[0], "upper").product()
            chamber.epsilon_factorize(point, WORD_I_TILDE)
        else:
            t, m = coords
            h = tuple(1 if v > 0 else -1 for v in t)
            cell = deodhar.CellId(deodhar.family_by_name(kind), h)
            chamber.alpha_factorize(deodhar.cell_point(cell, t, m), WORD_I_TILDE)


@pytest.mark.parametrize("bad", (0.5, "1/2", "1/0"))
@pytest.mark.parametrize("kind", CLOSED_FORMS)
def test_closed_forms_refuse_inexact_coordinates(kind, bad):
    coords = FIRST_POLYNOMIAL_ZEROS[kind]
    for k, values in enumerate(coords):
        for j in range(len(values)):
            spoiled = list(coords)
            spoiled[k] = values[:j] + (bad,) + values[j + 1:]
            with pytest.raises(TypeError):
                _closed_form(kind, spoiled)


def _form(kind):
    return chamber._epsilon_212121 if kind == "epsilon" else chamber.CLOSED_FORM_FAMILIES[kind]


@pytest.mark.parametrize("kind", CLOSED_FORMS)
def test_closed_forms_refuse_a_wrong_coordinate_count(kind):
    """One coordinate short or over, in any group, raises a ``ValueError``
    naming the form and the counts it takes."""
    coords = FIRST_POLYNOMIAL_ZEROS[kind]
    takes = " + ".join(str(len(values)) for values in coords)
    message = re.escape("the closed form %s takes %s coordinates" % (_form(kind).__name__, takes))
    for k, values in enumerate(coords):
        for wrong in (values[:-1], values + (1,)):
            with pytest.raises(ValueError, match=message):
                _closed_form(kind, coords[:k] + (wrong,) + coords[k + 1:])


@pytest.mark.parametrize("kind", CLOSED_FORMS)
def test_quotient_path_agrees_with_fraction_arithmetic(kind):
    """On the grid {-1, 1, 2} of each form's coordinates, the closed form
    over unreduced quotients gives the values that ``Fraction`` arithmetic
    gives, and refuses the points where it divides by zero."""
    sizes = tuple(map(len, FIRST_POLYNOMIAL_ZEROS[kind]))
    refused = 0
    for flat in itertools.product((-1, 1, 2), repeat=sum(sizes)):
        coords = (flat,) if len(sizes) == 1 else (flat[: sizes[0]], flat[sizes[0]:])
        try:
            want = _form(kind)(*(tuple(map(Fraction, c)) for c in coords))
        except ZeroDivisionError:
            want = None
        try:
            got = _closed_form(kind, coords)
        except chamber.NotFactorizable:
            got = None
        assert got == want, coords
        refused += got is None
    assert refused > 0


def test_closed_forms_build_one_fraction_per_output(monkeypatch):
    """The forms run no ``Fraction`` arithmetic: ``_exact`` builds the six
    output ``Fraction``s and no other."""
    params = (Fraction(2, 3), Fraction(-5, 7), Fraction(11, 13),
              Fraction(-3, 17), Fraction(19, 5), Fraction(-23, 29))
    t, m = params[:2], params[2:4]
    new = vars(Fraction)["__new__"].__func__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for evaluate in (lambda: chamber.closed_form_epsilon(params),
                     lambda: chamber.closed_form_alpha("x21x12", t, m)):
        built.clear()
        got = evaluate()
        assert len(built) == 6 and len(got) == 6


def test_redraw_returns_first_factorizable_draw():
    draws = iter([chamber.NotFactorizable("outside"), chamber.NotFactorizable("outside"), "inside"])

    def draw():
        value = next(draws)
        if isinstance(value, Exception):
            raise value
        return value

    assert chamber.redraw(draw, "a test point") == "inside"


def test_redraw_gives_up_after_its_budget():
    calls = []

    def draw():
        calls.append(1)
        raise chamber.NotFactorizable("always outside")

    with pytest.raises(RuntimeError, match="a hopeless point"):
        chamber.redraw(draw, "a hopeless point")
    assert len(calls) == chamber.REDRAW_ATTEMPTS == 50


def test_redraw_passes_other_errors_through():
    def draw():
        raise ValueError("not a chart miss")

    with pytest.raises(ValueError):
        chamber.redraw(draw, "a test point")


nonzero = st.fractions(min_value=-20, max_value=20, max_denominator=7).filter(bool)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(deodhar.families()),
    st.sampled_from((WORD_I, WORD_I_TILDE)),
    st.lists(nonzero, min_size=6, max_size=6),
    st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=7), min_size=2, max_size=2),
)
def test_alpha_and_epsilon_are_inverse_on_cell_points(fam, word, t, m):
    t, m = tuple(t[: len(fam.I)]), tuple(m[: len(fam.K)])
    cell = deodhar.CellId(fam, tuple(1 if v > 0 else -1 for v in t))
    point = deodhar.cell_point(cell, t, m)
    try:
        upper = chamber.alpha_factorize(point, word)
        back = chamber.epsilon_factorize(upper.product(), word)
    except chamber.NotFactorizable:
        assume(False)
    assert back.product() == point


def test_hot_paths_build_no_fraction_matrix(monkeypatch):
    """A check-4 point of the epsilon family and of every alpha family (closed
    form, factorization, flag identity, round trip) and a Deodhar chain point
    of every family read integral rows and covectors only."""
    def refuse(*args):
        raise AssertionError("a Fraction matrix was built")

    monkeypatch.setattr(rep, "_fraction_view", refuse)
    with pytest.raises(AssertionError, match="Fraction matrix"):
        rep.sdot(1).m7
    rng = random.Random(4)
    for kind in ("epsilon",) + fixtures.TABLE_ORDER:
        _, point, closed, fac = chamber.redraw(lambda: checks._chamber_draw(kind, rng), kind)
        assert fac.params == closed
        image = fac.product()
        if kind == "epsilon":
            assert chamber.flag_equal_opposed(point, image)
            back = chamber.alpha_factorize(image, WORD_I_TILDE)
        else:
            assert chamber.flag_equal_opposed(image, point)
            back = chamber.epsilon_factorize(image, WORD_I_TILDE)
        assert back.product() == point
    for fam in deodhar.families():
        cell, t, m = checks._random_family_point(fam, rng)
        point = deodhar.cell_point(cell, t, m)
        assert rep.is_unipotent_lower(point)
        assert deodhar.bruhat_position_plus(point) is W.w0
        assert deodhar.verify_cell_chain(cell, t, m)


def test_vanished_minor_is_named():
    # e + c + a = 0: only Delta^{e1-e2}, read first by a_1, vanishes
    with pytest.raises(chamber.NotFactorizable) as info:
        chamber.epsilon_factorize(x_tilde((1, 1, 1, 1, -2, 1)), WORD_I_TILDE)
    err = info.value
    assert err.word == WORD_I_TILDE
    assert err.weight == weight_by_label("e1-e2") == Weight(3, -1)
    assert err.level == 2 and err.position == 1
    # the sign reader shares the pairing and its zero check, so it names the same minor
    with pytest.raises(chamber.NotFactorizable) as info:
        chamber.epsilon_signs(x_tilde((1, 1, 1, 1, -2, 1)), WORD_I_TILDE)
    same = info.value
    assert (same.word, same.level, same.weight, same.position) == (
        err.word, err.level, err.weight, err.position)
    assert str(same) == str(err)


@pytest.mark.parametrize("word", (WORD_I, WORD_I_TILDE), ids=("121212", "212121"))
def test_each_factorization_folds_once(monkeypatch, word):
    params = [Fraction(v) for v in (2, -3, 5, -7, 11, -13)]
    upper = chamber.Factorization(word, params, "upper").product()
    lower = chamber.Factorization(word, params, "lower").product()
    # the wedges and rows the pairings read are folded once per process
    chamber.epsilon_signs(upper, word), chamber.alpha_signs(lower, word)
    calls = []
    fold = rep.apply_covector
    monkeypatch.setattr(rep, "apply_covector", lambda g, rows: calls.append(rows) or fold(g, rows))
    chamber.epsilon_factorize(upper, word)
    assert len(calls) == 1
    chamber.alpha_factorize(lower, word)
    assert len(calls) == 2
    chamber.epsilon_signs(upper, word)
    assert len(calls) == 3
    chamber.alpha_signs(lower, word)
    assert len(calls) == 4
    chamber.lower_signs(lower, word)
    assert len(calls) == 5


@pytest.mark.parametrize("word", (WORD_I, WORD_I_TILDE), ids=("121212", "212121"))
@pytest.mark.parametrize("lowest", (False, True), ids=("highest", "lowest"))
def test_ansatz_lists_each_chamber_weight_once(word, lowest):
    weights, steps = chamber._ansatz_weights(word, lowest)
    prefixes = [W.identity]
    for i in word:
        prefixes.append(prefixes[-1] * W.s(i))
    chamber_weights = {u.act(OMEGA[j]) for u in prefixes for j in (1, 2)}
    assert len(weights) == len(set(weights)) == len(chamber_weights) == 8
    assert set(weights) == {-mu if lowest else mu for mu in chamber_weights}
    assert len(steps) == len(word)
    # every weight is read by some step
    assert {k for num, _, d1, d2, _ in steps for k in (num, d1, d2)} == set(range(8))
    # the den exponent of a step is 0 on letter 1 and 1 on letter 2
    assert [k for *_, k in steps] == [jm - 1 for jm in word]


#: (kind of the point, the quotient map, its sign reader) per direction
DIRECTIONS = (
    ("upper", chamber.epsilon_factorize, chamber.epsilon_signs),
    ("lower", chamber.alpha_factorize, chamber.alpha_signs),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(DIRECTIONS),
    st.sampled_from((WORD_I, WORD_I_TILDE)),
    st.lists(nonzero, min_size=6, max_size=6),
)
def test_sign_readers_agree_with_the_quotients(direction, word, params):
    kind, factorize, signs = direction
    point = chamber.Factorization(word, tuple(params), kind).product()
    try:
        want = factorize(point, word).signs()
    except chamber.NotFactorizable as err:
        with pytest.raises(chamber.NotFactorizable) as info:
            signs(point, word)
        got = info.value
        assert (got.word, got.level, got.weight, got.position) == (
            err.word, err.level, err.weight, err.position)
        return
    assert signs(point, word) == want


def test_sign_paths_build_no_fraction(monkeypatch):
    """The epsilon signs of a fixed upper point, and the mate of an
    overlap-graph sample, are read without a single ``Fraction`` in
    ``chamber`` or ``minors`` and without an Ansatz quotient."""
    xel = x_tilde((2, -3, 5, -7, 11, -13))
    lower = y_word(WORD_I, (2, -3, 5, -7, 11, -13))

    def refuse(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(chamber, "Fraction", refuse)
    monkeypatch.setattr(minors, "Fraction", refuse)
    with pytest.raises(AssertionError, match="a Fraction was built"):
        chamber.epsilon_factorize(xel, WORD_I_TILDE)
    assert chamber.epsilon_signs(xel, WORD_I_TILDE) == "+-+-+-"

    def refuse_quotients(*args):
        raise AssertionError("Ansatz quotients were formed")

    monkeypatch.setattr(chamber, "alpha_factorize", refuse_quotients)
    monkeypatch.setattr(chamber, "epsilon_factorize", refuse_quotients)
    assert components._refactor_signs(lower, "it") == "-+-+-+"


#: the lowest chamber weights P_0..P_7 of y along each word, with their
#: levels, in the order the table of ``lower_signs`` reads them
LOWEST_MINORS = {
    WORD_I_TILDE: (
        ("-e1", 1), ("e2-e1", 2), ("e3-e1", 2), ("e2", 1),
        ("e2-e3", 2), ("-e3", 1), ("e1-e3", 2), ("e1", 1),
    ),
    WORD_I: (
        ("e3-e1", 2), ("e3", 1), ("-e1", 1), ("e3-e2", 2),
        ("-e2", 1), ("e1-e2", 2), ("e1", 1), ("e1-e3", 2),
    ),
}
BOTH_WORDS = pytest.mark.parametrize("word", (WORD_I, WORD_I_TILDE), ids=("121212", "212121"))


def _other(word):
    return WORD_I if word == WORD_I_TILDE else WORD_I_TILDE


def _laurent(values, exps):
    """prod values[i] ** exps[i] as one ``Quotient``."""
    num = den = 1
    for v, e in zip(values, exps):
        if e > 0:
            num = num * v**e
        elif e < 0:
            den = den * v**-e
    return Quotient(num, den)


@BOTH_WORDS
def test_lower_parameters_read_the_pinned_minors(word):
    weights, _ = chamber._ansatz_weights(word, True)
    got = tuple((mu.eps_label(), minors.weight_to_chamber(mu)[1]) for mu in weights)
    assert got == LOWEST_MINORS[word]
    # P_0 and P_2 are the minors at -omega_1 and -omega_2, 1 on U-
    assert {weights[0], weights[2]} == {-OMEGA[1], -OMEGA[2]}


@BOTH_WORDS
def test_lower_parameters_are_an_identity_of_rational_functions(word):
    """With P_0 = P_2 = 1 and P_1, P_3, ..., P_7 the generators a, ..., f,
    x = alpha(y) is folded from the Ansatz's monomial parameters; epsilon
    of x along the word is y again, and each of its parameters, a
    quotient of polynomial pairings of x, is the table's p_k."""
    P = list(variables())
    P[0:0] = [1]
    P[2:2] = [1]
    _, steps = chamber._ansatz_weights(word, True)
    x = rep.GroupElement(
        ("x", jm, Quotient(P[num] ** exp, P[d1] * P[d2]))
        for jm, (num, exp, d1, d2, _) in zip(word, steps)
    )
    _, steps, den, values = chamber._pairings(x, word, False)
    q, table = chamber._LOWER_PARAMETERS[word]
    factors = P + list(q(*P))
    differ = [
        "p_%d" % k
        for k, ((num, exp, d1, d2, kden), exps) in enumerate(zip(steps, table), 1)
        if _laurent(factors, exps)
        != Quotient(values[num] ** exp * den**kden, values[d1] * values[d2])
    ]
    assert differ == []


@BOTH_WORDS
def test_lower_parameters_are_homogeneous_of_degree_zero(word):
    """Weigh P_i by its level: every Q is homogeneous and every p_k of
    degree 0, so the integral pairings, P_i times den**level, give each
    p_k exactly and its sign in particular."""
    t = variables()[0]
    degrees = [level for _, level in LOWEST_MINORS[word]]
    P = [c * t**level for c, level in zip((2, 3, 5, 7, 11, 13, 17, 19), degrees)]
    q, table = chamber._LOWER_PARAMETERS[word]
    for Q in q(*P):
        # positive coefficients cannot cancel, so a second degree would show
        (exps,) = Q.coeffs
        degrees.append(exps[0])
    assert [sum(e * d for e, d in zip(exps, degrees)) for exps in table] == [0] * 6


def _two_step_signs(y, word):
    """The reference: alpha of y along ``word``, its upper product, and the
    epsilon signs of that product along the same word."""
    return chamber.epsilon_signs(chamber.alpha_factorize(y, word).product(), word)


@BOTH_WORDS
def test_lower_signs_agree_with_the_two_step_path(word):
    """On the grid {+-1, +-2}^6 of lower points along the other word, the
    one-fold reader gives the reference's signs and refuses where it
    does.  A vanished minor is named as the reference names it, a
    vanished Q by the first p_k that reads it."""
    q, table = chamber._LOWER_PARAMETERS[word]
    vanished = set()
    for params in itertools.product((1, -1, 2, -2), repeat=6):
        y = y_word(_other(word), params)
        try:
            want = _two_step_signs(y, word)
        except chamber.NotFactorizable as err:
            with pytest.raises(chamber.NotFactorizable) as info:
                chamber.lower_signs(y, word)
            got = info.value
            try:
                chamber.alpha_factorize(y, word)
            except chamber.NotFactorizable:  # a lowest minor vanished
                assert (got.word, got.level, got.weight, got.position) == (
                    err.word, err.level, err.weight, err.position)
                continue
            n = q(*chamber._pairings(y, word, True)[3]).index(0)
            first = next(k for k, exps in enumerate(table, 1) if exps[8 + n])
            assert (got.word, got.level, got.position) == (word, None, first)
            assert str(got).startswith("Q_%d " % (n + 1))
            vanished.add(n)
            continue
        assert chamber.lower_signs(y, word) == want, params
    assert vanished


@BOTH_WORDS
def test_lower_parameters_are_exact_on_the_integral_pairings(word):
    """At random rational lower points, the table evaluated on the integral
    pairings is the two-step path's parameters, not only their signs."""
    q, table = chamber._LOWER_PARAMETERS[word]
    rng = random.Random(23)
    done = 0
    while done < 24:
        params = tuple(
            Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(6)
        )
        y = y_word(_other(word), params)
        try:
            want = chamber.epsilon_factorize(chamber.alpha_factorize(y, word).product(), word).params
        except chamber.NotFactorizable:
            continue
        *_, values = chamber._pairings(y, word, True)
        factors = values + list(q(*values))
        assert tuple(_laurent(factors, exps) for exps in table) == want
        done += 1


def _q_212121_expanded(P0, P1, P2, P3, P4, P5, P6, P7):
    """The Q's of 212121 as expanded sums: the reference for the factored
    ``chamber._q_212121``."""
    return (
        P0**3 * P4 * P6 + P1 * P2 * P5**3 + P2 * P3**3 * P6,
        P0 * P4 * P5**2 + P1 * P5**3 + P3**3 * P6,
        P0**3 * P4**3 * P5**3 + 3 * P0**2 * P1 * P4**2 * P5**4 + 3 * P0 * P1**2 * P4 * P5**5
        + 3 * P0 * P1 * P3**3 * P4 * P5**2 * P6 + P1**3 * P5**6 + 2 * P1**2 * P3**3 * P5**3 * P6
        + P1 * P3**6 * P6**2 + P2 * P3**3 * P4**2 * P5**3,
    )


def _q_121212_expanded(P0, P1, P2, P3, P4, P5, P6, P7):
    """The Q's of 121212 as expanded sums: the reference for the factored
    ``chamber._q_121212``."""
    return (
        P0 * P4 * P6 + P1 * P2 * P5 + P2 * P3 * P6,
        P0 * P4**3 * P5**2 + P1**3 * P5**3 + 3 * P1**2 * P3 * P5**2 * P6
        + 3 * P1 * P3**2 * P5 * P6**2 + P3**3 * P6**3,
        P0 * P4**3 * P5 + P1**3 * P5**2 + 2 * P1**2 * P3 * P5 * P6 + P1 * P3**2 * P6**2
        + P2 * P3 * P4**2 * P5,
    )


EXPANDED_Q = {WORD_I_TILDE: _q_212121_expanded, WORD_I: _q_121212_expanded}


@BOTH_WORDS
def test_factored_q_equal_the_expanded_sums(word):
    q, _ = chamber._LOWER_PARAMETERS[word]
    rng = random.Random(31)
    for n in range(2500):
        # small entries first, where a dropped factor of 1 or -1 would hide
        bits = 120 if n >= 500 else 3
        P = [rng.choice((1, -1)) * rng.randint(0, 2**bits) for _ in range(8)]
        assert q(*P) == EXPANDED_Q[word](*P), P
    # and as polynomials, with the six generators on P_0..P_5, then on P_2..P_7
    for head, tail in (((), (5, 7)), ((2, 3), ())):
        P = [*head, *variables(), *tail]
        assert q(*P) == EXPANDED_Q[word](*P)


def _parities(n, count):
    """The ``count`` bits of n, as signs of ``count`` factors: -1 for a set bit."""
    return tuple(-1 if n >> i & 1 else 1 for i in range(count))


@BOTH_WORDS
def test_lower_sign_masks_read_the_exponent_parities(word):
    """Over every sign pattern of (P_0..P_7, Q_1..Q_3), the parity reader
    gives p_k negative iff the negative factors' exponents in its row of
    ``_LOWER_PARAMETERS`` add up to an odd number."""
    _, table = chamber._LOWER_PARAMETERS[word]
    _, flips = chamber._LOWER_SIGNS[word]
    for n in range(2**11):
        values = _parities(n, 11)
        want = "".join(
            "-" if sum(e for e, v in zip(exps, values) if v < 0) % 2 else "+" for exps in table
        )
        assert chamber._read_signs(values, flips) == want, values


@pytest.mark.parametrize("word", (WORD_I, WORD_I_TILDE), ids=("121212", "212121"))
@pytest.mark.parametrize("lowest", (False, True), ids=("epsilon", "alpha"))
def test_step_masks_read_the_ansatz_rule(word, lowest):
    """Over every sign pattern of the eight pairings, the parity reader
    gives a_m negative iff exp * neg[num] + neg[d1] + neg[d2] is odd."""
    _, steps = chamber._ansatz_weights(word, lowest)
    flips = chamber._step_flips(word, lowest)
    for n in range(2**8):
        values = _parities(n, 8)
        neg = [v < 0 for v in values]
        want = "".join(
            "-" if (exp * neg[num] + neg[d1] + neg[d2]) % 2 else "+"
            for num, exp, d1, d2, _ in steps
        )
        assert chamber._read_signs(values, flips) == want, values


def _reference_params(g, word, lowest):
    """The Ansatz parameters of g along ``word``, each minor evaluated and
    divided on its own, as in the module docstring's formula."""
    read = minors.minor_lower if lowest else minors.minor

    def delta(u, j):
        mu = u.act(OMEGA[j])
        return read(g, -mu if lowest else mu)

    params, u = [], W.identity
    for jm in word:
        nxt = u * W.s(jm)
        jbar = 2 if jm == 1 else 1
        exp = -G2_CARTAN[jbar - 1][jm - 1]
        params.append(delta(nxt, jbar) ** exp / (delta(nxt, jm) * delta(u, jm)))
        u = nxt
    return tuple(params)


@pytest.mark.parametrize("word", (WORD_I, WORD_I_TILDE), ids=("121212", "212121"))
@pytest.mark.parametrize("kind", ("upper", "lower"), ids=("epsilon", "alpha"))
def test_quotient_reader_matches_minor_by_minor_reference(kind, word):
    factorize = chamber.epsilon_factorize if kind == "upper" else chamber.alpha_factorize
    lowest = kind == "lower"
    rng = random.Random(17)
    dens = set()
    done = 0
    while done < 12:
        along = rng.choice((WORD_I, WORD_I_TILDE))
        params = tuple(deodhar.sample_magnitude(rng, rng.choice((1, -1))) for _ in range(6))
        point = chamber.Factorization(along, params, kind).product()
        try:
            got = factorize(point, word).params
        except chamber.NotFactorizable:
            continue
        assert got == _reference_params(point, word, lowest)
        dens.add(chamber._pairings(point, word, lowest)[2])
        done += 1
    # the den exponent 1 steps met a fold denominator that is not 1
    assert max(dens) > 1


@pytest.mark.parametrize("kind", ("upper", "lower"), ids=("epsilon", "alpha"))
def test_quotient_reader_builds_one_fraction_per_parameter(monkeypatch, kind):
    params = (Fraction(2, 3), Fraction(-5, 7), Fraction(11, 13),
              Fraction(-3, 17), Fraction(19, 5), Fraction(-23, 29))
    point = chamber.Factorization(WORD_I_TILDE, params, kind).product()
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(chamber, "Fraction", counting)
    got = chamber._factor_params(point, WORD_I, kind == "lower")
    assert len(built) == 6
    assert got == _reference_params(point, WORD_I, kind == "lower")
