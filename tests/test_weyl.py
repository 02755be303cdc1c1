"""Weyl group combinatorics, checked against independent brute force."""

import itertools

import pytest
from hypothesis import given, strategies as st

from g2cells import weyl
from g2cells.weyl import (
    ALPHA,
    G2_CARTAN,
    OMEGA,
    W,
    WORD_I,
    WORD_I_TILDE,
    Weight,
    enumerate_distinguished,
    weight_by_label,
)
from weyl_reference import bruhat_leq, reduced_words, subexpression_by_name


# -- an independent model: the group generated by the two reflection
#    matrices on fundamental-weight coordinates ---------------------------

S1 = ((-1, 0), (1, 1))
S2 = ((1, 3), (0, -1))


def mat2(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def close_matrix_group():
    gens = {1: S1, 2: S2}
    eye = ((1, 0), (0, 1))
    elements = {eye: ()}
    frontier = [eye]
    while frontier:
        new = []
        for m in frontier:
            for i, g in gens.items():
                q = mat2(m, g)
                if q not in elements:
                    elements[q] = elements[m] + (i,)
                    new.append(q)
        frontier = new
    return elements


MATRIX_GROUP = close_matrix_group()


def test_group_order_and_longest():
    assert len(W.elements) == 12
    assert len(MATRIX_GROUP) == 12
    assert W.w0.length == 6


def test_multiplication_against_matrix_model():
    def to_matrix(el):
        m = ((1, 0), (0, 1))
        for i in el.word:
            m = mat2(m, {1: S1, 2: S2}[i])
        return m

    for u in W.elements:
        for w in W.elements:
            assert to_matrix(u * w) == mat2(to_matrix(u), to_matrix(w))


def test_multiply_examples():
    s1, s2 = W.s(1), W.s(2)
    assert s1 * s1 is W.identity
    assert s1 * W.from_word((2, 1, 2, 1, 2)) is W.w0
    v = W.from_word((1, 2, 1))
    assert (v * v).length <= 6


def test_lengths_change_by_one():
    for w in W.elements:
        for i in (1, 2):
            assert abs((w * W.s(i)).length - w.length) == 1


def test_canonical_words_are_lex_least_reduced():
    for w in W.elements:
        words = reduced_words(w)
        assert w.word == min(words)
        assert all(len(word) == w.length for word in words)
    # the table is in (length, word) order and ends at w0
    keys = [(w.length, w.word) for w in W.elements]
    assert keys == sorted(keys)
    assert W.w0 is W.elements[-1]


def test_w0_negates_all_weights():
    for n1, n2 in ((1, 0), (0, 1), (3, -2), (-1, 4)):
        assert W.w0.act(Weight(n1, n2)) == Weight(-n1, -n2)


# -- Bruhat order ---------------------------------------------------------


def brute_force_leq(u, w):
    """Subword check over all reduced words of both elements."""
    for wword in reduced_words(w):
        for uword in reduced_words(u):
            for positions in itertools.combinations(range(len(wword)), len(uword)):
                if tuple(wword[p] for p in positions) == uword:
                    return True
    return u.length == 0


def test_bruhat_examples():
    assert bruhat_leq(W.s(1), W.from_word((1, 2)))
    assert not bruhat_leq(W.w0, W.s(1))
    assert not bruhat_leq(W.from_word((1, 2, 1)), W.from_word((2, 1, 2)))


def test_bruhat_matches_brute_force():
    for u in W.elements:
        for w in W.elements:
            assert bruhat_leq(u, w) == brute_force_leq(u, w), (u, w)


def test_bruhat_is_an_order_refined_by_length():
    for u in W.elements:
        assert bruhat_leq(u, u)
        for w in W.elements:
            if bruhat_leq(u, w) and u != w:
                assert u.length < w.length
            if bruhat_leq(u, w) and bruhat_leq(w, u):
                assert u == w


@given(st.lists(st.sampled_from((1, 2)), max_size=10))
def test_from_word_is_a_homomorphism(word):
    word = tuple(word)
    for cut in range(len(word) + 1):
        assert W.from_word(word) == W.from_word(word[:cut]) * W.from_word(word[cut:])


def test_braid_relation():
    assert W.from_word(WORD_I) == W.from_word(WORD_I_TILDE)


# -- distinguished subexpressions ----------------------------------------

EXPECTED_NAMES = {
    "xxxxxx", "1x1xxx", "x2x2xx", "xx1x1x",
    "xxx2x2", "1x12x2", "12x21x", "x21x12",
}


def brute_force_distinguished(word):
    """All subexpressions for 1, filtered by the definition directly."""
    out = []
    for choices in itertools.product((0, 1), repeat=len(word)):
        chain = [W.identity]
        ok = True
        for take, letter in zip(choices, word):
            step = chain[-1] * W.s(letter)
            nxt = step if take else chain[-1]
            if not bruhat_leq(nxt, step):
                ok = False
                break
            chain.append(nxt)
        if ok and len(chain) == len(word) + 1 and chain[-1] is W.identity:
            out.append(tuple(chain))
    return out


def test_distinguished_against_brute_force():
    for word in (WORD_I, (1, 2, 1), (2, 1), ()):
        got = {s.sigma for s in enumerate_distinguished(word)}
        assert got == set(brute_force_distinguished(word))


def test_distinguished_names_and_chains():
    subs = enumerate_distinguished(WORD_I)
    assert {s.name for s in subs} == EXPECTED_NAMES
    x21x12 = subexpression_by_name(WORD_I, "x21x12")
    assert x21x12.sigma_names() == ("e", "e", "s2", "s2*s1", "s2*s1", "s2", "e")
    assert x21x12.I == (1, 4) and x21x12.J == (2, 3) and x21x12.K == (5, 6)


def test_each_role_is_read_off_the_chain_once():
    """A subexpression stores its word and chain; the layout, the index
    sets and the name are read off the chain once, and equal chains give
    equal subexpressions."""
    x21x12 = subexpression_by_name(WORD_I, "x21x12")
    assert x21x12.layout == "t00tmm"
    assert x21x12.param_signature() == ("t1", "t2", "m1", "m2")
    for attr in ("layout", "I", "J", "K", "name"):
        assert getattr(x21x12, attr) is getattr(x21x12, attr)
    fresh = weyl.Subexpression(x21x12.word, x21x12.sigma)
    assert fresh == x21x12 and hash(fresh) == hash(x21x12)
    assert (fresh.name, fresh.I, fresh.J, fresh.K) == ("x21x12", (1, 4), (2, 3), (5, 6))


def test_distinguished_counts_and_balance():
    for word in (WORD_I, WORD_I_TILDE):
        subs = enumerate_distinguished(word)
        assert len(subs) == 8
        for s in subs:
            assert len(s.I) + len(s.J) + len(s.K) == 6
            assert len(s.J) == len(s.K)


def test_distinguished_small_words():
    assert [s.name for s in enumerate_distinguished(())] == [""]
    assert {s.name for s in enumerate_distinguished((1, 2, 1))} == {"xxx", "1x1"}


def test_distinguished_rejects_unreduced_word():
    with pytest.raises(ValueError):
        enumerate_distinguished((1, 1))


def test_root_datum_tables():
    for i in (1, 2):
        for j in (1, 2):
            assert ALPHA[j].pairing(i) == G2_CARTAN[i - 1][j - 1]
            assert OMEGA[j].pairing(i) == (1 if i == j else 0)
    # only the two letters pair: 3 is not read as 2
    for i in (0, 3):
        with pytest.raises(ValueError, match="letter"):
            OMEGA[2].pairing(i)


def test_weight_by_label_inverts_eps_label():
    labels = ["e%d" % i for i in (1, 2, 3)] + ["-e%d" % i for i in (1, 2, 3)]
    labels += ["e%d-e%d" % ij for ij in itertools.permutations((1, 2, 3), 2)]
    for label in labels:
        assert weight_by_label(label).eps_label() == label
    assert weight_by_label("e1") == OMEGA[1]
    assert weight_by_label("e1-e3") == OMEGA[2]
    with pytest.raises(KeyError):
        weight_by_label("e1+e2")
