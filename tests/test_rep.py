"""The exact representation V7 and the one-parameter subgroups."""

import importlib
import itertools
import json
import math
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import g2cells
import linalg_reference
import weyl_reference
from dense_reference import (
    LARGE_PRIMES,
    atoms,
    dense_product,
    letters,
    nonzero_parameters,
    parameters,
    rationals,
)
from g2cells import chamber, checks, deodhar, linalg, minors, rep
from g2cells.scalars import Poly, variables
from g2cells.weyl import OMEGA, V7_WEIGHTS, W, WORD_I, WORD_I_TILDE, Weight

V7 = rep.build_representations()

nonzero_rationals = rationals.filter(lambda q: q != 0)


def test_dimensions():
    assert V7.dim == 7


def test_weight_multisets():
    short = {(1, 0), (-2, 1), (1, -1), (-1, 0), (2, -1), (-1, 1)}
    got7 = sorted((w.n1, w.n2) for w in V7.weights)
    assert got7 == sorted(list(short) + [(0, 0)])


@pytest.mark.parametrize("R", (V7,), ids=("V7",))
def test_chevalley_relations(R):
    A = ((2, -3), (-1, 2))
    zero = linalg.mat_scale(R.h[1], Fraction(0))
    for i in (1, 2):
        for j in (1, 2):
            assert linalg.commutator(R.e[i], R.f[j]) == (R.h[i] if i == j else zero)
            assert linalg.commutator(R.h[i], R.e[j]) == linalg.mat_scale(
                R.e[j], Fraction(A[i - 1][j - 1])
            )
            assert linalg.commutator(R.h[i], R.f[j]) == linalg.mat_scale(
                R.f[j], Fraction(-A[i - 1][j - 1])
            )


def test_h_is_read_off_the_weights():
    """h_i is the diagonal of the pairings <alpha_i^vee, mu>, not [e_i, f_i],
    so the Chevalley relation [e_i, f_i] = h_i is a test of E and F against
    the weights: with two weights swapped it fails."""
    for i in (1, 2):
        assert V7.h[i] == tuple(
            tuple(mu.pairing(i) if r == c else 0 for c in range(7))
            for r, mu in enumerate(V7_WEIGHTS)
        )
    weights = list(V7_WEIGHTS)
    weights[0], weights[1] = weights[1], weights[0]
    swapped = rep.Representation(weights, V7.e, V7.f)
    assert linalg.commutator(swapped.e[1], swapped.f[1]) != swapped.h[1]
    assert linalg.commutator(V7.e[1], V7.f[1]) == V7.h[1]


@pytest.mark.parametrize("R", (V7,), ids=("V7",))
def test_serre_relations(R):
    for mats in (R.e, R.f):
        t = mats[2]
        for _ in range(4):
            t = linalg.commutator(mats[1], t)
        assert linalg.is_zero_matrix(t)
        t = mats[1]
        for _ in range(2):
            t = linalg.commutator(mats[2], t)
        assert linalg.is_zero_matrix(t)


@pytest.mark.parametrize("R", (V7,), ids=("V7",))
def test_triangularity_of_generators(R):
    for i in (1, 2):
        assert all(
            R.e[i][r][c] == 0 for r in range(R.dim) for c in range(r + 1)
        )
        assert all(
            R.f[i][r][c] == 0 for r in range(R.dim) for c in range(r, R.dim)
        )


def test_weights_strictly_decreasing_in_height():
    heights = [weyl_reference.height(w) for w in V7.weights]
    assert heights == sorted(heights, reverse=True)


def test_nilpotency_degrees_recorded():
    assert V7.nilpotency == {("x", 1): 3, ("x", 2): 2, ("y", 1): 3, ("y", 2): 2}


def test_x_at_zero_is_identity():
    assert rep.x(1, 0) == rep.group_identity()
    assert rep.y(2, 0).m7 == linalg_reference.identity(7)


@settings(max_examples=25, deadline=None)
@given(rationals, rationals, st.sampled_from((1, 2)))
def test_one_parameter_subgroup_law(s, t, i):
    assert rep.x(i, s) * rep.x(i, t) == rep.x(i, s + t)
    assert rep.y(i, s) * rep.y(i, t) == rep.y(i, s + t)


def test_coweight_identity_and_inverse():
    for i in (1, 2):
        assert rep.coweight(i, 1) == rep.group_identity()
        g = rep.coweight(i, Fraction(3, 4))
        assert g * g.inverse() == rep.group_identity()
    with pytest.raises(ValueError):
        rep.coweight(1, 0)


def test_braid_identity_for_w0():
    a = rep.group_product(rep.sdot(i) for i in WORD_I)
    b = rep.group_product(rep.sdot(i) for i in WORD_I_TILDE)
    assert a == b and a.m7 == b.m7
    assert rep.wdot(W.w0) == a


def test_equality_and_hash_across_denominators():
    half = rep.x(1, Fraction(1, 2))
    a, b = half * half, rep.x(1, 1)
    assert a.rows[1] != b.rows[1]  # 16 against 1
    assert a == b
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)  # equality compares folded matrices; no hash is defined
    assert a != rep.x(1, Fraction(1, 2)) and a != rep.x(2, 1)
    w0a = rep.group_product(rep.sdot(i) for i in WORD_I)
    w0b = rep.group_product(rep.sdot(i) for i in WORD_I_TILDE)
    assert w0a == w0b
    g = rep.coweight(1, Fraction(3, 4)) * rep.y(2, Fraction(-5, 7)) * rep.coweight(2, Fraction(-2, 9))
    product = g * g.inverse()
    assert product.rows[1] > 1
    assert product == rep.group_identity()
    assert g != rep.group_identity() and g != "not a group element"


@settings(max_examples=20, deadline=None)
@given(nonzero_rationals, st.sampled_from((1, 2)))
def test_rank_one_factorization_identity(t, i):
    lhs = rep.x(i, t)
    rhs = rep.y(i, 1 / t) * rep.sdot(i) * rep.coweight(i, 1 / t) * rep.y(i, 1 / t)
    assert lhs.m7 == rhs.m7


def test_wdot_representatives_are_distinct():
    assert len({rep.wdot(w).m7 for w in W.elements}) == 12


def test_sdot_conjugation_permutes_weight_spaces():
    for i in (1, 2):
        g = rep.sdot(i)
        inv = g.inverse()
        m, minv = g.m7, inv.m7
        # conjugating the projector onto a weight line lands on the
        # reflected weight's line
        for k, mu in enumerate(V7.weights):
            proj = _diag_basis(V7, k)
            image = linalg.mat_mul(linalg.mat_mul(m, proj), minv)
            target = mu.reflect(i)
            expected_index = V7.weights.index(target)
            for r in range(V7.dim):
                for c in range(V7.dim):
                    if image[r][c] != 0:
                        assert r == c == expected_index


def _diag_basis(R, k):
    return tuple(
        tuple(
            Fraction(1) if r == c == k else Fraction(0) for c in range(R.dim)
        )
        for r in range(R.dim)
    )


def test_determinants_are_one():
    samples = [
        rep.x(1, Fraction(2, 3)) * rep.y(2, Fraction(-5)) * rep.sdot(1),
        rep.wdot(W.w0),
        rep.coweight(2, Fraction(7, 2)),
    ]
    for g in samples:
        assert linalg_reference.det(g.m7) == 1


def _singleton(atom):
    kind = atom[0]
    if kind in ("x", "y", "coweight"):
        return getattr(rep, kind)(atom[1], atom[2])
    return rep.sdot(atom[1]) if kind == "sdot" else rep.sdot_inverse(atom[1])


def _covector_image(g, vecs):
    """The rows vecs . g as Fractions: the denominators of vecs are cleared,
    the int rows are folded by ``apply_covector``, and its integral
    numerators are divided by its denominator."""
    scale = math.lcm(*(Fraction(u).denominator for vec in vecs for u in vec))
    rows, den = rep.apply_covector(g, [[int(u * scale) for u in vec] for vec in vecs])
    assert isinstance(den, int) and den > 0
    assert all(isinstance(n, int) for row in rows for n in row)
    return [tuple(Fraction(n, den * scale) for n in row) for row in rows]


def _dense_images(dense, vecs):
    return [linalg_reference.mat_vec(tuple(zip(*dense)), vec) for vec in vecs]


@settings(max_examples=40, deadline=None)
@given(st.lists(atoms, max_size=7), st.lists(rationals, min_size=7, max_size=7))
def test_lazy_product_matches_dense_product(word, covector):
    g = rep.group_product(_singleton(atom) for atom in word)
    dense = dense_product(word, V7)
    assert g.m7 == dense
    vecs = (tuple(Fraction(k + 1, 2) for k in range(7)), tuple(covector))
    assert _covector_image(g, vecs) == _dense_images(dense, vecs)
    for vec in vecs:
        assert _covector_image(g, [vec]) == _dense_images(dense, [vec])


covector_blocks = st.lists(
    st.lists(st.integers(-6, 6), min_size=7, max_size=7), min_size=1, max_size=3
)


@settings(max_examples=60, deadline=None)
@given(st.lists(atoms, max_size=6), covector_blocks)
def test_covectors_read_the_same_before_and_after_the_matrix_is_kept(word, block):
    g = rep.GroupElement(word)
    walked = rep.apply_covector(g, block)  # folded along the word
    g.rows
    kept = rep.apply_covector(g, block)  # multiplied into the kept matrix
    assert kept == walked
    rows, den = kept
    assert isinstance(den, int) and den > 0
    images = [tuple(Fraction(n, den) for n in row) for row in rows]
    assert images == _dense_images(dense_product(word, V7), block)


@settings(max_examples=40, deadline=None)
@given(st.lists(atoms, max_size=6))
def test_a_kept_matrix_serves_every_row_reader_without_a_fold(word):
    readers = (minors.highest_row, minors.lowest_row,
               deodhar.bruhat_position_mixed, deodhar.bruhat_position_plus)
    walked = [read(rep.GroupElement(word)) for read in readers]  # warms minors._lowest_rows
    g = rep.GroupElement(word)
    g.rows

    def refuse(*args):
        raise AssertionError("a row block was folded along the word")

    with mock.patch.object(rep, "_fold_rows", refuse):
        assert [read(g) for read in readers] == walked


#: x, y and coweight atoms with int parameters, which fold as p/1
int_atoms = st.one_of(
    st.tuples(st.sampled_from(("x", "y")), letters, st.integers(-30, 30)),
    st.tuples(st.just("coweight"), letters, st.integers(-30, 30).filter(bool)),
)
row_blocks = st.lists(
    st.lists(st.integers(-9, 9), min_size=7, max_size=7), min_size=1, max_size=7
)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.one_of(atoms, int_atoms), max_size=7), row_blocks)
def test_fold_kernels_match_the_dense_product(word, block):
    rows, den = rep._fold_rows(block, word)
    assert isinstance(den, int) and den > 0
    assert all(type(n) is int for row in rows for n in row)
    images = [tuple(Fraction(n, den) for n in row) for row in rows]
    assert images == _dense_images(dense_product(word, V7), block)


#: every fixed block the package folds: the unit rows, whose fold is the
#: matrix, and rows 0 and 1 of the identity and of wdot(w0)
FIXED_BLOCKS = (rep.Block(rep.UNIT_ROWS), minors._row_block(False), minors._row_block(True))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(atoms, int_atoms), max_size=7))
def test_literal_block_kernels_match_the_caller_rows_kernel(word):
    """A fixed block folded from the literals written into its kernel reads
    the same numerators over the same den as the same rows folded as the
    caller's, for words of every atom kind."""
    for block in FIXED_BLOCKS:
        assert rep._fold_rows(block, word) == rep._fold_rows([list(r) for r in block.entries], word)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(atoms, int_atoms), max_size=7), row_blocks)
def test_folds_construct_no_fraction(word, block):
    made = []
    new = Fraction.__new__
    kept = vars(Fraction)["__new__"]

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        Fraction(1, 3)  # the probe shows that the counter is live
        probe = len(made)
        rep._fold_rows(block, word)
    finally:
        Fraction.__new__ = kept
    assert probe == 1 and len(made) == probe


def _evaluate(value, point):
    """A ``Poly`` (or an int) at the rational values ``point`` of a, ..., f."""
    if isinstance(value, int):
        return Fraction(value)
    return sum(
        (c * math.prod(Fraction(v) ** e for v, e in zip(point, exps))
         for exps, c in value.coeffs.items()),
        Fraction(0),
    )


def test_fold_kernels_carry_polynomial_parameters():
    a, b, c, d, e, f = variables()
    word = (("x", 1, a), ("y", 2, b), ("sdot", 1), ("x", 2, c * d), ("sdot_inv", 2),
            ("y", 1, e), ("coweight", 2, Fraction(-3, 5)), ("x", 1, f), ("sdot", 2))
    point = (2, Fraction(-1, 3), Fraction(5, 7), -4, Fraction(3, 2), 7)
    numeric = [atom[:2] + (_evaluate(atom[2], point),) if atom[0] in ("x", "y") else atom
               for atom in word]
    block = [[(-1) ** j * (j + k) for j in range(7)] for k in range(3)]
    rows, den = rep._fold_rows(block, word)
    assert all(isinstance(n, (int, Poly)) for row in rows for n in row)
    images = [tuple(_evaluate(n, point) / den for n in row) for row in rows]
    assert images == _dense_images(dense_product(numeric, V7), block)


@pytest.mark.parametrize("kind", ("x", "y"))
def test_polynomial_atoms_cancel_their_inverses(kind):
    a, b, c, d, *_ = variables()
    for i in (1, 2):
        for t in (a, b, c * d + 1):
            g = getattr(rep, kind)(i, t)
            rows, den = (g * g.inverse()).rows
            assert den == 1
            assert [list(row) for row in rows] == [list(row) for row in rep.UNIT_ROWS]
            assert any(isinstance(n, Poly) for row in rows for n in row)  # carried as Polys


@pytest.mark.parametrize("R", (V7,), ids=("V7",))
def test_integral_rows_at_large_prime_denominators(R):
    p, q = LARGE_PRIMES[2], LARGE_PRIMES[1]
    word = (("y", 1, Fraction(-p, q)), ("x", 2, Fraction(q, p)), ("coweight", 1, Fraction(-q, p)),
            ("sdot", 2), ("coweight", 2, Fraction(p, LARGE_PRIMES[0])), ("x", 1, Fraction(1, q)))
    # both coweights pair negatively with some weight, so both eigenvalue
    # denominators enter the common denominator
    for i in (1, 2):
        assert any(mu.pairing(i) < 0 for mu in R.weights)
        assert any(mu.pairing(i) > 0 for mu in R.weights)
    g = rep.GroupElement(word)
    dense = dense_product(word, R)
    assert g.m7 == dense
    vec = tuple(Fraction((-1) ** k * (k + 2), 3 * k + 1) for k in range(R.dim))
    assert _covector_image(g, [vec]) == _dense_images(dense, [vec])


@pytest.mark.parametrize("t", (Fraction(-3, 7), Fraction(5, 1000003), Fraction(-(2**61 - 1), 4)))
def test_torus_kernel_folds_its_eigenvalues_over_a_positive_int(t):
    # the caller-rows kernel and the kernel of the unit rows written in as literals
    for i, block in itertools.product((1, 2), (None, rep.Block(rep.UNIT_ROWS))):
        kernel = rep._word_kernel((("coweight", i),), block)
        rows, den = kernel(rep.UNIT_ROWS, (("coweight", i, t),))
        assert type(den) is int and den > 0
        assert all(type(n) is int for row in rows for n in row)
        expected = [[t ** mu.pairing(i) if r == c else 0 for c in range(7)]
                    for r, mu in enumerate(V7.weights)]
        assert [[Fraction(n, den) for n in row] for row in rows] == expected


def test_words_of_one_shape_share_one_kernel():
    """The kernel cache is keyed by a word's shape, never by a parameter: a
    second word of one shape, with other parameters, folds through the
    kernel the first compiled, and the cache does not grow."""
    rng = random.Random(11)

    def draw():
        return rng.choice((1, -1)) * deodhar.sample_magnitude(rng)

    rep._word_kernel.cache_clear()
    rep.GroupElement([("y", 1, draw()), ("coweight", 2, draw()), ("sdot", 1), ("x", 2, 4)]).rows
    first = rep._word_kernel.cache_info()
    for _ in range(20):
        word = [("y", 1, draw()), ("coweight", 2, draw()), ("sdot", 1), ("x", 2, draw())]
        g = rep.GroupElement(word)
        assert g.m7 == dense_product(word, V7)
    last = rep._word_kernel.cache_info()
    assert (last.misses, last.currsize) == (first.misses, first.currsize)
    assert last.hits == first.hits + 20


def test_a_word_is_one_element_of_its_checked_atoms():
    a = variables()[0]
    g = rep.word("y", (1, 2, 1), (Fraction(2, 3), -5, a))
    assert g.provenance == (("y", 1, Fraction(2, 3)), ("y", 2, -5), ("y", 1, a))
    assert g.provenance == rep.group_product(
        map(rep.y, (1, 2, 1), (Fraction(2, 3), -5, a))).provenance
    assert rep.word("sdot", WORD_I) == rep.wdot(W.w0)
    assert rep.word("sdot_inv", ()).provenance == ()
    assert rep.word("coweight", (2, 1), (3, Fraction(1, 2))) == rep.coweight(2, 3) * rep.coweight(
        1, Fraction(1, 2))
    for letters, params, error, match in (
        ((1, 3), (1, 2), ValueError, "letter"),
        ((1, 2), (1,), ValueError, "parameters"),
        ((1, 2), (1, 0.5), TypeError, "exact"),
    ):
        with pytest.raises(error, match=match):
            rep.word("x", letters, params)
    with pytest.raises(ValueError, match="nonzero"):
        rep.word("coweight", (1, 2), (2, 0))
    with pytest.raises(TypeError):
        rep.word("coweight", (1,), (a,))
    with pytest.raises(ValueError, match="kind"):
        rep.word("z", (1,), (1,))
    with pytest.raises(ValueError, match="no parameter"):
        rep.word("sdot", (1,), (1,))


def test_provenance_regenerates_matrices():
    word = (("x", 1, Fraction(1, 2)), ("sdot", 2), ("y", 1, Fraction(-3, 7)),
            ("coweight", 2, Fraction(5, 3)), ("sdot_inv", 1))
    g = rep.group_product(_singleton(atom) for atom in word)
    assert g.provenance == word
    assert g.m7 == dense_product(word, V7)
    inv = g.inverse()
    assert g * inv == rep.group_identity()
    assert (g * inv).m7 == linalg_reference.identity(7)


@settings(max_examples=25, deadline=None)
@given(st.lists(atoms, max_size=5), nonzero_parameters, letters)
def test_equality_through_cancelling_pairs(word, t, i):
    g = rep.GroupElement(word)
    padded = g * rep.x(i, t) * rep.coweight(i, t) * rep.coweight(i, 1 / t) * rep.x(i, -t)
    assert padded == g


def _cell_word(cell, t, m):
    """The atoms of z_1 ... z_6, spelled out from the family's index sets."""
    fam = cell.family
    ti, mi = iter(t), iter(m)
    words = []
    for j, letter in enumerate(fam.word, start=1):
        if j in fam.I:
            words.append((("y", letter, next(ti)),))
        elif j in fam.J:
            words.append((("sdot", letter),))
        else:
            words.append((("x", letter, next(mi)), ("sdot_inv", letter)))
    return words


def test_prefix_points_match_dense_prefix_products():
    rng = random.Random(31)
    for fam in deodhar.families():
        for _ in range(3):
            cell, t, m = checks._random_family_point(fam, rng)
            words = _cell_word(cell, t, m)
            factors = deodhar.cell_factors(cell, t, m)
            prefixes = [rep.group_product(factors[:k]) for k in range(1, len(factors) + 1)]
            assert len(prefixes) == len(words) == 6
            dense = linalg_reference.identity(7)
            for k, g in enumerate(prefixes, start=1):
                dense = linalg.mat_mul(dense, dense_product(words[k - 1], V7))
                assert g.provenance == sum(words[:k], ())
                assert g.m7 == dense
            assert deodhar.cell_point(cell, t, m) == prefixes[-1]


#: rows 0 and 1 of the identity, kept, as a chain folds them: the kernels
#: of its prefix reads are keyed by the block itself
TOP_ROWS = rep.Block(rep.UNIT_ROWS[:2])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(deodhar.families()), st.data())
def test_prefix_blocks_equal_the_per_factor_folds(fam, data):
    """Rows 0 and 1 read after every factor of a mixed word, from one fold
    of the whole word, equal the rows carried through the factors one
    fold at a time, each over the product of the factors' dens.  The
    words are cell points, spelled out per factor, so their shapes are
    the eight family layouts."""
    t = data.draw(st.lists(nonzero_parameters, min_size=len(fam.I), max_size=len(fam.I)))
    m = data.draw(st.lists(parameters, min_size=len(fam.K), max_size=len(fam.K)))
    cell = deodhar.CellId(fam, tuple(1 if v > 0 else -1 for v in t))
    words = _cell_word(cell, t, m)
    ends = tuple(itertools.accumulate(map(len, words)))
    point = deodhar.cell_point(cell, t, m)
    assert point.provenance == sum(words, ())
    prefixes, dens = rep.apply_covector(point, TOP_ROWS, ends)
    assert len(prefixes) == len(dens) == 6
    rows, den = [list(row) for row in rep.UNIT_ROWS[:2]], 1
    for word, prefix, prefix_den in zip(words, prefixes, dens):
        rows, factor_den = rep.apply_covector(rep.GroupElement(word), rows)
        den *= factor_den
        assert (prefix, prefix_den) == (rows, den)
    # the factors are the point cut at the same ends
    assert [z.provenance for z in deodhar.cell_factors(cell, t, m)] == words


def test_prefix_reads_take_a_block_without_wedges():
    g = rep.x(1, 2) * rep.y(2, 3)
    for rows in (rep.UNIT_ROWS[:2], minors.minor_reader(V7_WEIGHTS[:1], False)):
        with pytest.raises(ValueError, match="without wedges"):
            rep.apply_covector(g, rows, (1, 2))
    # an end may be 0, the block itself, and ends may repeat
    prefixes, dens = rep.apply_covector(g, TOP_ROWS, (0, 2, 2))
    assert prefixes[0] == [list(row) for row in rep.UNIT_ROWS[:2]] and dens[0] == 1
    assert prefixes[1] == prefixes[2] == rep.apply_covector(g, rep.UNIT_ROWS[:2])[0]


def test_a_mixed_word_is_one_checked_element():
    a = variables()[0]
    g = rep.word(("y", "sdot", "x", "sdot_inv", "coweight"), (1, 2, 2, 2, 1),
                 (Fraction(2, 3), a, Fraction(-1, 4)))
    assert g.provenance == (("y", 1, Fraction(2, 3)), ("sdot", 2), ("x", 2, a),
                            ("sdot_inv", 2), ("coweight", 1, Fraction(-1, 4)))
    assert rep.word(("sdot", "sdot_inv"), (1, 2)) == rep.sdot(1) * rep.sdot_inverse(2)
    for kinds, letters, params, error, match in (
        (("y", "z"), (1, 2), (1,), ValueError, "kind"),
        (("y", "sdot"), (1,), (1,), ValueError, "kinds for"),
        (("y", "sdot"), (1, 3), (1,), ValueError, "letter"),
        (("y", "sdot", "x"), (1, 2, 1), (1,), ValueError, "parameters"),
        (("sdot", "sdot_inv"), (1, 2), (), ValueError, "no parameter"),
        (("y", "coweight"), (1, 2), (0.5, 0), TypeError, "exact"),
        (("y", "coweight"), (1, 2), (1, a), TypeError, "exact"),
        (("y", "coweight"), (1, 2), (1, 0), ValueError, "nonzero"),
    ):
        with pytest.raises(error, match=match):
            rep.word(kinds, letters, params)


def test_element_repr_spells_each_atom():
    g = (rep.x(1, Fraction(2, 3)) * rep.y(2, -5) * rep.sdot(1) * rep.sdot_inverse(2)
         * rep.coweight(1, Fraction(-1, 4)))
    assert repr(g) == "GroupElement(x1(2/3), y2(-5), s1., s2.^-1, coweight1(-1/4))"
    assert repr(rep.group_identity()) == "GroupElement(1)"


def test_a_cold_verify_evicts_no_kernel(child_env):
    """``g2cells verify`` in a fresh interpreter compiles each kernel key it
    meets once: every lookup that missed is still cached."""
    script = "\n".join((
        "import contextlib, io",
        "from g2cells import cli, rep",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = cli.main(['verify'])",
        "info = rep._word_kernel.cache_info()",
        "print(code, info.misses, info.currsize, info.maxsize)",
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=child_env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    code, misses, currsize, maxsize = map(int, proc.stdout.split())
    assert code == 0
    assert misses == currsize <= maxsize


def test_products_fold_without_dense_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("a dense matrix product ran after set-up")

    rep._atom_terms.cache_clear()  # the Weyl rows too are folded, not multiplied
    rep._word_kernel.cache_clear()
    monkeypatch.setattr(linalg, "mat_mul", refuse)
    g = rep.x(1, Fraction(2, 3)) * rep.sdot(2) * rep.coweight(1, Fraction(-5)) * rep.y(2, 7)
    h = g * rep.sdot_inverse(1) * g.inverse()
    for el in (g, h):
        assert len(el.m7) == 7
        assert len(rep.apply_covector(el, el.rows[0][:2])[0]) == 2


def _rep_dicts():
    """Size of every dict held by rep or by V7."""
    out = {name: len(obj) for name, obj in vars(rep).items()
           if isinstance(obj, dict) and not name.startswith("__")}
    out.update(("V7." + name, len(obj)) for name, obj in vars(V7).items() if isinstance(obj, dict))
    return out


def _lru_caches():
    """Every lru_cache defined in a module of g2cells, by "module.name"."""
    out = {}
    for info in pkgutil.iter_modules(g2cells.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("g2cells." + info.name)
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                out["%s.%s" % (info.name, name)] = obj
    return out


#: every lru_cache of the package and the most entries it may hold: the
#: size of its key space, or its maxsize where the key space is unbounded
CACHE_BOUNDS = {
    "rep.build_representations": 1,
    "rep._atom_terms": 10,  # five kinds (x, y, coweight, sdot, sdot_inv) x two letters
    "rep._word_kernel": 64,  # word shapes are unbounded: its maxsize
    "rep.wdot": len(W.elements),
    "minors._extremal_by_weight": 12,  # six chamber weights per level
    "minors._lowest_rows": 1,  # rows 0 and 1 of wdot(w0)
    "minors._row_block": 2,  # the rows 0 and 1 of each direction
    "minors._chamber_reader": 2,  # the 12 chamber minors of each direction
    "chamber._ansatz_weights": 4,  # two words x two directions
    "deodhar.families": 1,
    "deodhar._factor_atoms": 8,  # the (word, layout) of each family: its maxsize
    "deodhar._signed_draws": 1,
    "components._figure1": 4,  # (samples, seed) is unbounded: its maxsize
}


def test_caches_stay_bounded():
    caches = _lru_caches()
    assert set(caches) == set(CACHE_BOUNDS), "a cache is missing from the bound table"
    before = _rep_dicts()
    rng = random.Random(5)
    kinds = ("x", "y", "coweight", "sdot", "sdot_inv")
    for n in range(1000):
        word = []
        for _ in range(4):
            kind, i = rng.choice(kinds), rng.choice((1, 2))
            if kind in ("sdot", "sdot_inv"):
                word.append((kind, i))
            else:
                word.append((kind, i, rng.choice((1, -1)) * deodhar.sample_magnitude(rng)))
        g = rep.group_product(_singleton(atom) for atom in word)
        g.m7
        if n % 10 == 0:
            for level in (1, 2):
                for w in W.elements:
                    mu = w.act(OMEGA[level])
                    minors.minor(g, mu)
                    minors.minor_lower(g, mu)
    for word in (WORD_I, WORD_I_TILDE):
        for _ in range(5):
            params = [rng.choice((1, -1)) * deodhar.sample_magnitude(rng) for _ in word]
            for factorization in (chamber.Factorization(word, params, "upper"),
                                  chamber.Factorization(word, params, "lower")):
                point = factorization.product()
                try:
                    if factorization.kind == "upper":
                        chamber.epsilon_factorize(point, word)
                    else:
                        chamber.alpha_factorize(point, word)
                except chamber.NotFactorizable:
                    pass
    # refused keys raise, and an exception is not cached
    for bad in (lambda: chamber.epsilon_factorize(rep.x(1, 2), (1, 1, 2, 1, 2, 1)),
                lambda: minors._extremal_by_weight(2, 0),
                lambda: minors.weight_to_chamber(Weight(2, 0))):
        with pytest.raises(ValueError):
            bad()
    for w in W.elements:
        rep.wdot(w).m7
        deodhar.bruhat_position_plus(rep.wdot(w))
    minors.symbolic_minors()
    deodhar.families()
    assert _rep_dicts() == before
    for name, cache in caches.items():
        info = cache.cache_info()
        assert info.currsize <= CACHE_BOUNDS[name], name
        assert info.maxsize is None or info.maxsize <= CACHE_BOUNDS[name], name


@pytest.mark.parametrize("make", (rep.x, rep.y, rep.coweight), ids=("x", "y", "coweight"))
def test_parametric_atoms_refuse_bad_letters_and_inexact_parameters(make):
    for i in (0, 3):
        with pytest.raises(ValueError, match="letter"):
            make(i, Fraction(2, 3))
    with pytest.raises(TypeError):
        make(1, 0.5)
    with pytest.raises(TypeError):
        make(2, 2.0)
    with pytest.raises(TypeError):
        make(1, 0.0)
    for t in (2, Fraction(2, 3)):
        assert make(2, t).provenance == ((make.__name__, 2, t),)


def test_parameter_types_of_each_constructor():
    a = variables()[0]
    assert rep.x(1, a).provenance == (("x", 1, a),)
    assert rep.y(2, a).provenance == (("y", 2, a),)
    # a torus element's den (pq)^K must be a positive int: no polynomial parameter
    with pytest.raises(TypeError):
        rep.coweight(1, a)
    with pytest.raises(ValueError, match="nonzero"):
        rep.coweight(1, 0)


@pytest.mark.parametrize("make", (rep.sdot, rep.sdot_inverse), ids=("sdot", "sdot_inverse"))
def test_weyl_representatives_refuse_bad_letters(make):
    for i in (0, 3):
        with pytest.raises(ValueError, match="letter"):
            make(i)
    assert make(1).provenance == (("sdot" if make is rep.sdot else "sdot_inv", 1),)


def test_triangularity_predicates():
    assert rep.is_unipotent_lower(rep.y(1, Fraction(5)))
    assert rep.is_unipotent_upper(rep.x(2, Fraction(-3)))
    # Borel membership is read off the plus position: B+ e B+ = B+
    assert deodhar.bruhat_position_plus(rep.sdot(1)) is not W.identity
    assert deodhar.bruhat_position_plus(rep.coweight(1, Fraction(2))) is W.identity
    # a diagonal entry off den, on either side
    assert not rep.is_unipotent_upper(rep.coweight(1, Fraction(2)))
    assert not rep.is_unipotent_lower(rep.coweight(1, Fraction(2)))
    assert not rep.is_unipotent_lower(rep.y(1, Fraction(2)) * rep.coweight(2, Fraction(3)))
    # a unit diagonal with an entry on the other side of it
    assert not rep.is_unipotent_upper(rep.y(1, Fraction(5)) * rep.x(2, Fraction(1)))
    assert not rep.is_unipotent_lower(rep.x(2, Fraction(-3)) * rep.y(1, Fraction(1)))


def _unipotent_by_m7(g, lower):
    """Unipotence read from the folded 7x7 matrix alone."""
    m = g.m7
    return all(
        m[i][j] == (1 if i == j else 0)
        for i in range(7)
        for j in (range(i, 7) if lower else range(i + 1))
    )


one_kind_words = st.sampled_from(("x", "y")).flatmap(
    lambda kind: st.lists(st.tuples(st.just(kind), letters, parameters), max_size=6)
)
cancelling_pairs = st.one_of(
    st.tuples(st.sampled_from(("x", "y")), letters, parameters).map(
        lambda a: [a, (a[0], a[1], -a[2])]
    ),
    letters.map(lambda i: [("sdot", i), ("sdot_inv", i)]),
)
mixed_words = st.lists(
    st.one_of(atoms.map(lambda a: [a]), cancelling_pairs), max_size=5
).map(lambda chunks: [a for chunk in chunks for a in chunk])


@settings(max_examples=80, deadline=None)
@given(st.one_of(one_kind_words, mixed_words))
def test_unipotence_from_the_word_matches_m7(word):
    g = rep.GroupElement(word)
    assert rep.is_unipotent_lower(g) == _unipotent_by_m7(g, lower=True)
    assert rep.is_unipotent_upper(g) == _unipotent_by_m7(g, lower=False)


def test_unipotence_of_pure_words_needs_no_fold(monkeypatch):
    def refuse(*args):
        raise AssertionError("a 7x7 matrix was folded")

    monkeypatch.setattr(rep.GroupElement, "rows", property(refuse))
    lower = rep.y(1, Fraction(2, 3)) * rep.y(2, Fraction(-5)) * rep.y(1, Fraction(-2, 3))
    upper = rep.x(2, Fraction(7, 11)) * rep.x(1, Fraction(-1))
    assert rep.is_unipotent_lower(lower) and rep.is_unipotent_upper(upper)
    assert rep.is_unipotent_lower(rep.group_identity())
    assert rep.is_unipotent_upper(rep.group_identity())
    with pytest.raises(AssertionError, match="folded"):
        rep.is_unipotent_lower(lower * rep.sdot(1) * rep.sdot_inverse(1))


def test_generators_and_divided_powers_are_ints():
    for mats in (V7.e, V7.f, V7.h):
        for mat in mats.values():
            assert all(type(v) is int for row in mat for v in row)
    for terms in V7._int_terms.values():
        assert terms and all(type(v) is int for term in terms for v in term)


@pytest.mark.parametrize("level", (1, 2), ids=("V7", "Lambda2V7"))
def test_representations_are_built_over_ints(level):
    """The extremal wedge of every chamber weight of the level is ints."""
    for w in W.elements:
        mu = w.act(OMEGA[level])
        cols, coeff = minors._extremal_by_weight(mu.n1, mu.n2)
        assert coeff
        assert type(coeff) is int and len(cols) == level
        assert all(type(c) is int for c in cols) and list(cols) == sorted(set(cols))


def test_build_representations_constructs_no_fraction(child_env):
    # a fresh interpreter, so that no cache of this session is cleared
    script = "\n".join((
        "import fractions",
        "from g2cells import rep",
        "made = []",
        "new = fractions.Fraction.__new__",
        "def counting(cls, *args, **kwargs):",
        "    made.append(args)",
        "    return new(cls, *args, **kwargs)",
        "fractions.Fraction.__new__ = staticmethod(counting)",
        "fractions.Fraction(1, 3)",
        "probe = len(made)",
        "rep.build_representations()",
        "print(probe, len(made) - probe)",
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=child_env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    # the probe shows that the counter is live; the build makes no Fraction
    assert proc.stdout.split() == ["1", "0"]


def test_divided_power_off_the_lattice_raises():
    # E^2 has the entry 1 at (0, 2), and 1 / 2! is not an integer
    e = ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    zero = {1: ((0, 0, 0),) * 3, 2: ((0, 0, 0),) * 3}
    weights = (Weight(1, 0), Weight(0, 0), Weight(-1, 0))
    with pytest.raises(ArithmeticError):
        rep.Representation(weights, {1: e, 2: zero[2]}, zero)
    doubled = tuple(tuple(2 * v for v in row) for row in e)
    R = rep.Representation(weights, {1: doubled, 2: zero[2]}, zero)
    assert R._int_terms[("x", 1)] == ((1, 0, 1, 2), (1, 1, 2, 2), (2, 0, 2, 2))


def test_a_non_nilpotent_generator_raises_at_once(monkeypatch):
    # E cycles the basis with weights 2, 2, 6, so E^3 = 24 I is integral
    # over 3! but nonzero: the powers stop at k = dim = 3 instead of
    # running on until E^5 / 5! leaves the lattice
    e = ((0, 2, 0), (0, 0, 2), (6, 0, 0))
    zero = ((0, 0, 0),) * 3
    weights = (Weight(1, 0), Weight(0, 0), Weight(-1, 0))
    with pytest.raises(ArithmeticError, match="not nilpotent: its power 3"):
        rep.Representation(weights, {1: e, 2: zero}, {1: zero, 2: zero})
    # a zero test that never sees zero cannot keep the loop running either
    nilpotent = ((0, 2, 0), (0, 0, 2), (0, 0, 0))
    monkeypatch.setattr(linalg, "is_zero_matrix", lambda m: False)
    with pytest.raises(ArithmeticError, match="not nilpotent: its power 3"):
        rep.Representation(weights, {1: nilpotent, 2: zero}, {1: zero, 2: zero})


def test_generator_fixture_matches_committed_file():
    """The six Chevalley matrices of V7 equal the committed integer lists."""
    committed = json.loads((Path(__file__).parent / "chevalley_generators.json").read_text())
    v7 = rep.build_representations()
    mats = {"e": v7.e, "f": v7.f, "h": v7.h}
    built = {
        "V7": {
            name + str(i): [list(row) for row in mats[name][i]]
            for name in ("e", "f", "h")
            for i in (1, 2)
        }
    }
    assert committed == built
