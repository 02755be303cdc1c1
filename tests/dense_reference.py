"""The dense oracle for folded group products, and random words to test it on.

Every atom is a full matrix built from the Chevalley generators and
multiplied with ``linalg.mat_mul``, sharing nothing with the sparse fold
of ``rep``.  The strategies draw words over all five atom kinds, with
parameters from a small rational range and from large prime
denominators.
"""

from fractions import Fraction

from hypothesis import strategies as st

import linalg_reference
from g2cells import linalg


def dense_exp(mat, t):
    """exp(t * mat) for a nilpotent mat, summed until the powers vanish."""
    n = len(mat)
    out = linalg_reference.identity(n)
    term = linalg_reference.identity(n)
    k = 0
    while True:
        k += 1
        term = linalg.mat_scale(linalg.mat_mul(term, mat), Fraction(t) / k)
        if linalg.is_zero_matrix(term):
            return out
        out = linalg.mat_add(out, term)


def dense_atom(atom, R):
    kind, i = atom[0], atom[1]
    if kind == "x":
        return dense_exp(R.e[i], atom[2])
    if kind == "y":
        return dense_exp(R.f[i], atom[2])
    if kind == "coweight":
        t = Fraction(atom[2])
        return tuple(
            tuple(t ** mu.pairing(i) if r == c else Fraction(0) for c in range(R.dim))
            for r, mu in enumerate(R.weights)
        )
    s = 1 if kind == "sdot" else -1
    e, f = dense_exp(R.e[i], s), dense_exp(R.f[i], -s)
    return linalg.mat_mul(linalg.mat_mul(e, f), e)


def dense_product(atoms, R):
    out = linalg_reference.identity(R.dim)
    for atom in atoms:
        out = linalg.mat_mul(out, dense_atom(atom, R))
    return out


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonzero_rationals = rationals.filter(lambda q: q != 0)

#: primes far beyond the sampling pool, so that every power of a
#: denominator the integral rows carry is a large integer
LARGE_PRIMES = (1000003, 998244353, 2**61 - 1)
large_prime_rationals = st.builds(
    Fraction, st.integers(-(10**12), 10**12), st.sampled_from(LARGE_PRIMES)
)
parameters = st.one_of(rationals, large_prime_rationals)
nonzero_parameters = parameters.filter(lambda q: q != 0)

letters = st.sampled_from((1, 2))
atoms = st.one_of(
    st.tuples(st.sampled_from(("x", "y")), letters, parameters),
    st.tuples(st.just("coweight"), letters, nonzero_parameters),
    st.tuples(st.sampled_from(("sdot", "sdot_inv")), letters),
)
