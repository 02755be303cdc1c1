"""Weyl group oracles that only the tests use.

Every reduced word of every element, by brute force over all words of
length up to that of w0; Bruhat order by the subword property on the
canonical reduced word; a distinguished subexpression looked up by its
name; and the height of a weight.  The package reads none of them.
"""

import itertools

from g2cells.weyl import W, enumerate_distinguished

_REDUCED_WORDS = {el: [] for el in W.elements}
for _length in range(W.w0.length + 1):
    for _word in itertools.product((1, 2), repeat=_length):
        _el = W.from_word(_word)
        if _el.length == _length:
            _REDUCED_WORDS[_el].append(_word)


def reduced_words(el):
    return tuple(_REDUCED_WORDS[el])


def bruhat_leq(u, w):
    """True iff u <= w in Bruhat order (subword property)."""
    if u.length > w.length:
        return False
    for uw in reduced_words(u):
        # greedy left-to-right subsequence embedding
        it = iter(w.word)
        if all(any(x == letter for x in it) for letter in uw):
            return True
    return False


def subexpression_by_name(word, name):
    for sub in enumerate_distinguished(word):
        if sub.name == name:
            return sub
    raise KeyError(name)


def height(mu):
    """Coefficient sum in the simple-root basis (weight = root lattice here)."""
    # mu = c1*alpha1 + c2*alpha2 with alpha1 = (2,-1), alpha2 = (-3,2)
    c1 = 2 * mu.n1 + 3 * mu.n2
    c2 = mu.n1 + 2 * mu.n2
    return c1 + c2
