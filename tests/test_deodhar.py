"""Cell parameterizations, rank-profile positions, and chain checks."""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import linalg_reference
from dense_reference import dense_product
from g2cells import chamber, checks, components, deodhar, linalg, rep
from g2cells.weyl import OMEGA, V7_WEIGHTS, W, WORD_I, WORD_I_TILDE, Weight

V7 = rep.build_representations()


def test_families_geometry():
    fams = deodhar.families()
    assert len(fams) == 8
    for fam in fams:
        assert fam.dim + fam.codim == 6
        assert fam.codim in (0, 1, 2)
    assert sorted(f.codim for f in fams) == [0, 1, 1, 1, 1, 2, 2, 2]


def test_param_signatures():
    assert deodhar.family_by_name("x21x12").param_signature() == ("t1", "t2", "m1", "m2")
    assert deodhar.family_by_name("12x21x").param_signature() == ("t1", "m1", "m2", "t2")
    assert deodhar.family_by_name("1x1xxx").param_signature() == ("t1", "m1", "t2", "t3", "t4")
    assert deodhar.family_by_name("xxxxxx").param_signature() == tuple(
        "t%d" % k for k in range(1, 7)
    )


def test_cell_display_round_trip():
    cell = deodhar.cell_by_display("0+*0-*")
    assert cell.family.name == "1x12x2"
    assert cell.h == (1, -1)
    assert cell.display() == "0+*0-*"
    with pytest.raises(KeyError):
        deodhar.cell_by_display("0+0+**")  # no family has J = {1,3}


def test_every_cell_display_round_trips():
    cells = [
        deodhar.CellId(fam, h)
        for fam in deodhar.families()
        for h in itertools.product((1, -1), repeat=len(fam.I))
    ]
    assert len(cells) == 140
    assert len({c.display() for c in cells}) == 140
    for cell in cells:
        assert deodhar.cell_by_display(cell.display()) == cell


def test_cell_point_all_ones_is_unipotent_lower():
    fam = deodhar.family_by_name("xxxxxx")
    cell = deodhar.CellId(fam, (1,) * 6)
    point = deodhar.cell_point(cell, (1,) * 6, ())
    direct = rep.group_product(rep.y(i, Fraction(1)) for i in WORD_I)
    assert point == direct
    assert rep.is_unipotent_lower(point)


@pytest.mark.parametrize("bad", (0.5, "1/2"))
def test_cell_point_refuses_inexact_coordinates(bad):
    cell = deodhar.cell_by_display("0+*0+*")
    for t, m in (((bad, 1), (1, 2)), ((1, bad), (1, 2)), ((1, 2), (bad, 1)), ((1, 2), (1, bad))):
        with pytest.raises(TypeError):
            deodhar.cell_point(cell, t, m)


def test_cell_factors_refuse_an_inexact_t_before_comparing_it():
    """The atoms are built before the zero and sign checks, so a string t
    meets the atom's ``TypeError``, not a failed comparison."""
    cell = deodhar.cell_by_display("0+*0+*")
    with pytest.raises(TypeError, match="exact scalar"):
        deodhar.cell_point(cell, ("1/2", 1), (1, 2))


def test_cell_point_matches_explicit_word():
    # 12x21x: s1. s2. y1(t1) x2(m1) s2.^-1 x1(m2) s1.^-1 y2(t2)
    fam = deodhar.family_by_name("12x21x")
    cell = deodhar.CellId(fam, (1, -1))
    t1, t2, m1, m2 = Fraction(3), Fraction(-2), Fraction(5, 7), Fraction(-1, 3)
    point = deodhar.cell_point(cell, (t1, t2), (m1, m2))
    explicit = (
        rep.sdot(1) * rep.sdot(2) * rep.y(1, t1) * rep.x(2, m1)
        * rep.sdot_inverse(2) * rep.x(1, m2) * rep.sdot_inverse(1) * rep.y(2, t2)
    )
    assert point == explicit
    assert rep.is_unipotent_lower(point)


def test_cell_point_validates_signs():
    fam = deodhar.family_by_name("x21x12")
    cell = deodhar.CellId(fam, (1, -1))
    with pytest.raises(ValueError):
        deodhar.cell_point(cell, (1, 2), (0, 0))  # t2 must be negative
    with pytest.raises(ValueError):
        deodhar.cell_point(cell, (0, -2), (0, 0))  # t1 must be nonzero
    with pytest.raises(ValueError):
        deodhar.cell_point(cell, (1,), (0, 0))  # arity


def test_two_line_keys_name_each_element():
    """The lines w sends to lines 0 and 1 carry the weights w^-1 omega1 and
    w^-1 omega2 - w^-1 omega1, which fix w."""
    assert sorted(deodhar._PIVOTS.values(), key=lambda w: w.index) == list(W.elements)
    for key, w in deodhar._PIVOTS.items():
        assert key == (w.perm.index(0), w.perm.index(1))
        inverse = next(v for v in W.elements if v * w is W.identity)
        first, second = (V7_WEIGHTS[j] for j in key)
        assert first == inverse.act(OMEGA[1])
        assert Weight(first.n1 + second.n1, first.n2 + second.n2) == inverse.act(OMEGA[2])


def test_a_shared_line_key_is_refused():
    # a permutation that agrees with e on lines 0 and 1 but swaps 5 and 6
    impostor = SimpleNamespace(perm=(0, 1, 2, 3, 4, 6, 5))
    with pytest.raises(RuntimeError, match="do not tell"):
        deodhar._by_pivots(W.elements + (impostor,))


def test_mixed_position_examples():
    assert deodhar.bruhat_position_mixed(rep.group_identity()) is W.identity
    assert deodhar.bruhat_position_mixed(rep.x(1, Fraction(1))) is W.identity
    for w in W.elements:
        assert deodhar.bruhat_position_mixed(rep.wdot(w)) is w
        assert w.perm[3] == 3  # the zero weight line is fixed
    # no Weyl element swaps lines 0 and 1 (weights eps1 and -eps3) alone
    swap = [[int(i == j) for j in range(7)] for i in range(7)]
    swap[0], swap[1] = swap[1], swap[0]
    assert linalg.bruhat_permutation_topleft(swap) not in W.by_perm
    # yet its two top rows read as s1, so the positions refuse any matrix
    # that is not a group element, which lies in G2 by construction
    assert deodhar._PIVOTS[(1, 0)] is W.s(1)
    for position in (deodhar.bruhat_position_mixed, deodhar.bruhat_position_plus):
        with pytest.raises(TypeError, match="SimpleNamespace"):
            position(SimpleNamespace(rows=(swap, 1)))


def test_plus_position_examples():
    assert deodhar.bruhat_position_plus(rep.y(1, Fraction(5))) is W.s(1)
    assert deodhar.bruhat_position_plus(rep.y(2, Fraction(-2))) is W.s(2)
    assert deodhar.bruhat_position_plus(rep.wdot(W.w0)) is W.w0
    ones = rep.group_product(rep.y(i, Fraction(1)) for i in WORD_I)
    assert deodhar.bruhat_position_plus(ones) is W.w0


def test_rank_profile_permutation_against_subranks():
    rng = random.Random(9)
    for _ in range(12):
        fam = rng.choice(deodhar.families())
        t = tuple(rng.choice((1, -1)) * deodhar.sample_magnitude(rng) for _ in fam.I)
        m = tuple(rng.choice((1, -1)) * deodhar.sample_magnitude(rng) for _ in fam.K)
        cell = deodhar.CellId(fam, tuple(1 if v > 0 else -1 for v in t))
        g = deodhar.cell_point(cell, t, m)
        mat = g.m7
        rows, den = g.rows
        assert all(isinstance(v, int) for row in rows for v in row)
        assert mat == tuple(tuple(Fraction(v, den) for v in row) for row in rows)
        for A in (mat, rows):
            assert linalg.bruhat_permutation_topleft(A) == \
                linalg_reference.bruhat_permutation_topleft_by_ranks(mat)
            assert linalg.bruhat_permutation_bottomleft(A) == \
                linalg_reference.bruhat_permutation_bottomleft_by_ranks(mat)


def _sample_parameter(rng):
    # zero now and then, so that some factors are the identity
    return rng.choice((0, 1)) * rng.choice((1, -1)) * deodhar.sample_magnitude(rng)


def _random_borel(rng, kind):
    """A random element of B+ (kind 'x') or B- (kind 'y'): a torus element
    times one-parameter factors along the reduced word 121212 of w0."""
    torus = [rep.coweight(i, rng.choice((1, -1)) * deodhar.sample_magnitude(rng)) for i in (1, 2)]
    one = rep.x if kind == "x" else rep.y
    return rep.group_product(torus + [one(i, _sample_parameter(rng)) for i in WORD_I])


@pytest.mark.parametrize("w", W.elements, ids=repr)
def test_positions_agree_with_rank_profiles_on_double_cosets(w):
    """b wdot(w) b' is in B- w B+ for b in B-, and in B+ w B+ for b in B+;
    both two-row positions read w, as the seven-row rank profiles do."""
    rng = random.Random(2000 + w.index)
    for _ in range(20):
        mixed = _random_borel(rng, "y") * rep.wdot(w) * _random_borel(rng, "x")
        assert deodhar.bruhat_position_mixed(mixed) is w
        assert W.by_perm[linalg_reference.bruhat_permutation_topleft_by_ranks(mixed.m7)] is w
        plus = _random_borel(rng, "x") * rep.wdot(w) * _random_borel(rng, "x")
        assert deodhar.bruhat_position_plus(plus) is w
        assert W.by_perm[linalg_reference.bruhat_permutation_bottomleft_by_ranks(plus.m7)] is w
        # w0dot B+ w0dot^-1 = B-: the plus position is w0 times the mixed
        # position of w0dot g
        assert deodhar.bruhat_position_plus(plus) is \
            W.w0 * deodhar.bruhat_position_mixed(rep.wdot(W.w0) * plus)


def test_position_chains_agree_with_dense_prefix_products():
    rng = random.Random(47)
    for fam in deodhar.families():
        for _ in range(3):
            t = tuple(rng.choice((1, -1)) * deodhar.sample_magnitude(rng) for _ in fam.I)
            m = tuple(rng.choice((1, -1)) * deodhar.sample_magnitude(rng) for _ in fam.K)
            cell = deodhar.CellId(fam, tuple(1 if v > 0 else -1 for v in t))
            chain = deodhar.position_chain(cell, t, m)
            assert len(chain) == 7 and chain[0] is W.w0
            dense = linalg_reference.identity(7)
            for z, w in zip(deodhar.cell_factors(cell, t, m), chain[1:]):
                dense = linalg.mat_mul(dense, dense_product(z.provenance, V7))
                p = linalg_reference.bruhat_permutation_topleft_by_ranks(dense)
                assert w is W.w0 * W.by_perm[p]


small_entries = st.integers(-3, 3)
dense_matrices = st.lists(st.lists(small_entries, min_size=7, max_size=7), min_size=7, max_size=7)
# mostly zeros, so the permutations vary and many matrices are singular
sparse_matrices = st.lists(
    st.lists(st.sampled_from((0, 0, 0, 0, 1, -1, 2)), min_size=7, max_size=7), min_size=7, max_size=7
)


def _lpu(args):
    """L * P * U for unit lower L, a permutation matrix P and upper U with a
    nonzero diagonal, whose top-left permutation is P."""
    lower, perm, upper, diagonal = args
    L = [[1 if i == j else (lower[i * 7 + j] if j < i else 0) for j in range(7)] for i in range(7)]
    P = [[1 if perm[j] == i else 0 for j in range(7)] for i in range(7)]
    U = [[diagonal[i] if i == j else (upper[i * 7 + j] if j > i else 0) for j in range(7)]
         for i in range(7)]
    return linalg.mat_mul(linalg.mat_mul(L, P), U)


lpu_matrices = st.tuples(
    st.lists(small_entries, min_size=49, max_size=49),
    st.permutations(range(7)),
    st.lists(small_entries, min_size=49, max_size=49),
    st.lists(st.sampled_from((1, -1, 2, -3)), min_size=7, max_size=7),
).map(_lpu)


def _check_scans(A):
    """Both scans of the block A match the rank profiles, or A, of lower
    row rank, is refused."""
    if linalg_reference.rank(A) < len(A):
        with pytest.raises(ValueError):
            linalg.bruhat_permutation_topleft(A)
        with pytest.raises(ValueError):
            linalg.bruhat_permutation_bottomleft(A)
        return False
    assert linalg.bruhat_permutation_topleft(A) == \
        linalg_reference.bruhat_permutation_topleft_by_ranks(A)
    assert linalg.bruhat_permutation_bottomleft(A) == \
        linalg_reference.bruhat_permutation_bottomleft_by_ranks(A)
    return True


@settings(max_examples=60, deadline=None)
@given(st.one_of(dense_matrices, sparse_matrices, lpu_matrices))
def test_fraction_free_scan_matches_rank_profiles(A):
    A = tuple(map(tuple, A))
    top, bottom = A[:2], A[5:]
    _check_scans(top)
    _check_scans(bottom)
    if not _check_scans(A):
        return
    # on the top or bottom two rows the scan reads the part of the
    # seven-row permutation that lands in them
    full_top = linalg.bruhat_permutation_topleft(A)
    assert linalg.bruhat_permutation_topleft(top) == \
        tuple(i if i < 2 else None for i in full_top)
    full_bottom = linalg.bruhat_permutation_bottomleft(A)
    assert linalg.bruhat_permutation_bottomleft(bottom) == \
        tuple(i - 5 if i >= 5 else None for i in full_bottom)


def test_bareiss_rank_basics():
    assert linalg_reference.rank(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))) == 1
    assert linalg_reference.rank(linalg_reference.identity(5)) == 5
    assert linalg_reference.det(linalg_reference.identity(3)) == 1


def test_position_chain_example():
    fam = deodhar.family_by_name("x21x12")
    cell = deodhar.CellId(fam, (1, 1))
    chain = deodhar.position_chain(cell, (1, 2), (3, 5))
    w0 = W.w0
    expected = (
        w0,
        w0,
        w0 * W.s(2),
        w0 * W.s(2) * W.s(1),
        w0 * W.s(2) * W.s(1),
        w0 * W.s(2),
        w0,
    )
    assert chain == expected
    # the chain is exactly w0 times the subexpression chain
    assert chain == tuple(w0 * s for s in fam.sigma)
    assert deodhar.verify_cell_chain(cell, (1, 2), (3, 5))


def test_chain_all_ones_stays_at_w0():
    fam = deodhar.family_by_name("xxxxxx")
    cell = deodhar.CellId(fam, (1,) * 6)
    chain = deodhar.position_chain(cell, (1,) * 6, ())
    assert all(w is W.w0 for w in chain)


def test_chain_invariants_random_points():
    rng = random.Random(31)
    for fam in deodhar.families():
        for _ in range(8):
            t = tuple(rng.choice((1, -1)) * deodhar.sample_magnitude(rng) for _ in fam.I)
            m = tuple(rng.choice((1, -1)) * deodhar.sample_magnitude(rng) for _ in fam.K)
            cell = deodhar.CellId(fam, tuple(1 if v > 0 else -1 for v in t))
            point = deodhar.cell_point(cell, t, m)
            assert rep.is_unipotent_lower(point)
            assert deodhar.bruhat_position_plus(point) is W.w0
            assert deodhar.verify_cell_chain(cell, t, m)
            # every partial product lies in U- sigma_j dot
            factors = deodhar.cell_factors(cell, t, m)
            for j in range(1, len(factors) + 1):
                g = rep.group_product(factors[:j])
                shifted = g * rep.wdot(fam.sigma[j]).inverse()
                assert rep.is_unipotent_lower(shifted)


def test_cells_of_distinct_families_have_distinct_chains():
    rng = random.Random(13)
    fams = deodhar.families()
    for fam in fams:
        t = tuple(deodhar.sample_magnitude(rng) for _ in fam.I)
        m = tuple(deodhar.sample_magnitude(rng) for _ in fam.K)
        cell = deodhar.CellId(fam, (1,) * len(fam.I))
        chain = deodhar.position_chain(cell, t, m)
        sigma_read = tuple(W.w0 * w for w in chain)
        assert sigma_read == fam.sigma
        for other in fams:
            if other.name != fam.name:
                assert sigma_read != other.sigma



def test_signed_draw_equals_the_signed_product():
    # a sign, then a prime numerator and a prime denominator, drawn in
    # that order and multiplied
    primes = deodhar.PRIMES
    for seed in range(300):
        old, new = random.Random(seed), random.Random(seed)
        for _ in range(6):
            want = old.choice((1, -1)) * Fraction(old.choice(primes), old.choice(primes))
            got = deodhar.sample_magnitude(new, new.choice((1, -1)))
            assert type(got) is Fraction and got == want
        assert new.getstate() == old.getstate()


def _per_call_draw(rng, sign):
    """One signed draw as the per-call expression wrote it: the sign first
    if it is not given, then a prime numerator and a prime denominator."""
    if sign is None:
        sign = rng.choice((1, -1))
    return Fraction(sign * rng.choice(deodhar.PRIMES), rng.choice(deodhar.PRIMES))


def test_signed_draws_replay_the_per_call_expressions():
    pick = random.Random(0)
    for seed in range(200):
        signs = tuple(pick.choice((1, -1, None)) for _ in range(pick.randrange(10)))
        old, new = random.Random(seed), random.Random(seed)
        want = tuple(_per_call_draw(old, s) for s in signs)
        got = deodhar.sample_signed(new, signs)
        assert type(got) is tuple and all(type(v) is Fraction for v in got)
        assert got == want
        assert new.getstate() == old.getstate()
    # pinned at one seed, so that no sampler's stream moves unseen
    got = deodhar.sample_signed(random.Random(42), (1, -1, None, None, 1, -1))
    assert got == (Fraction(73, 7), Fraction(-2, 89), Fraction(-1),
                   Fraction(89, 7), Fraction(79, 89), Fraction(-61, 5))


def _signs_or_refused(read):
    try:
        return read()
    except chamber.NotFactorizable:
        return None


def test_the_samplers_replay_their_per_call_draws():
    """The draw helpers of ``checks`` and ``components`` give the values,
    and leave the stream, that their per-call expressions gave."""
    pick = random.Random(1)
    for seed in range(20):
        for fam in deodhar.families():
            old, new = random.Random(seed), random.Random(seed)
            t = tuple(_per_call_draw(old, None) for _ in fam.I)
            m = tuple(_per_call_draw(old, None) for _ in fam.K)
            cell, got_t, got_m = checks._random_family_point(fam, new)
            assert (got_t, got_m) == (t, m)
            assert cell.h == tuple(1 if v > 0 else -1 for v in t)
            assert new.getstate() == old.getstate()
            old, new = random.Random(seed), random.Random(seed)
            t = tuple(_per_call_draw(old, s) for s in cell.h)
            m = tuple(_per_call_draw(old, None) for _ in fam.K)
            want = _signs_or_refused(
                lambda: chamber.alpha_signs(deodhar.cell_point(cell, t, m), WORD_I_TILDE))
            got = _signs_or_refused(lambda: checks._random_upper_signs(cell, new, False))
            assert got == want
            assert new.getstate() == old.getstate()
        old, new = random.Random(seed), random.Random(seed)
        coords = tuple(_per_call_draw(old, None) for _ in range(6))
        try:
            got = checks._chamber_draw("epsilon", new)[0]
        except chamber.NotFactorizable:
            got = None
        assert got in (coords, None) and new.getstate() == old.getstate()
        signs = "".join(pick.choice("+-") for _ in range(6))
        old, new = random.Random(seed), random.Random(seed)
        want = tuple(_per_call_draw(old, 1 if ch == "+" else -1) for ch in signs)
        assert components._signed_params(signs, new) == want
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("sign", (0, 2, -3))
def test_a_draw_refuses_a_sign_outside_plus_minus_one(sign):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="sign must be 1 or -1, not %d" % sign):
        deodhar.sample_magnitude(rng, sign)
    assert rng.getstate() == state
    with pytest.raises(ValueError, match="sign must be 1 or -1, not %d" % sign):
        deodhar.sample_signed(rng, (sign, 1))
    assert rng.getstate() == state
