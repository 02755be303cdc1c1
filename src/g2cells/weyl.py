"""Weyl group combinatorics for the rank-2 root system of type G2.

The group (dihedral of order 12) is realized by its faithful permutation
action on the seven weights of V7 (``V7_WEIGHTS``), which are its basis
lines.  Equality and multiplication reduce to permutation composition,
and a permutation of the basis lines read off a matrix names its element
through ``W.by_perm``; so do the two lines it sends to lines 0 and 1
(``W.by_top_preimages``) and the two it sends to lines 6 and 5
(``W.by_bottom_preimages``).  ``W.elements`` lists the group in
(length, word) order with lex-least reduced words, so ``W.w0`` is its
last element and a minimal representative is the first element that
fits.  Distinguished subexpressions are enumerated depth-first, exact
and instant at this size.  Bruhat order on the group is not part of the
package: the relative positions of flags are read from rank profiles
of two rows (``deodhar``).

Weights are stored in fundamental-weight coordinates (n1, n2), i.e.
mu = n1*omega1 + n2*omega2, with the conventions

    omega1 = eps1,   omega2 = 2*eps1 + eps2 = eps1 - eps3,
    alpha1 = -eps2 (short),   alpha2 = eps2 - eps3 (long),
    eps1 + eps2 + eps3 = 0,

under which <alpha_i^vee, alpha_j> reproduces the Cartan matrix
[[2, -3], [-1, 2]] and <alpha_i^vee, omega_j> = delta_ij.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


#: the Cartan matrix, A[i-1][j-1] = <alpha_i^vee, alpha_j>
G2_CARTAN = ((2, -3), (-1, 2))


@dataclass(frozen=True, order=True)
class Weight:
    """An integral weight n1*omega1 + n2*omega2."""

    n1: int
    n2: int

    def pairing(self, i):
        """<alpha_i^vee, self>."""
        return self.n1 if i == 1 else self.n2

    def reflect(self, i):
        c = self.pairing(i)
        a = ALPHA[i]
        return Weight(self.n1 - c * a.n1, self.n2 - c * a.n2)

    def __sub__(self, other):
        return Weight(self.n1 - other.n1, self.n2 - other.n2)

    def __neg__(self):
        return Weight(-self.n1, -self.n2)

    def eps_label(self):
        """The epsilon label, such as 'e1' or 'e3-e2', of a chamber weight."""
        return _EPS_LABELS[self]


#: simple roots and fundamental weights in fundamental-weight coordinates
ALPHA = {1: Weight(2, -1), 2: Weight(-3, 2)}
OMEGA = {1: Weight(1, 0), 2: Weight(0, 1)}


_EPS = {1: Weight(1, 0), 2: Weight(-2, 1), 3: Weight(1, -1)}

_EPS_LABELS = {}
for _i in (1, 2, 3):
    _EPS_LABELS[_EPS[_i]] = "e%d" % _i
    _EPS_LABELS[-_EPS[_i]] = "-e%d" % _i
for _i, _j in itertools.permutations((1, 2, 3), 2):
    _EPS_LABELS[_EPS[_i] - _EPS[_j]] = "e%d-e%d" % (_i, _j)
_WEIGHT_BY_LABEL = {label: mu for mu, label in _EPS_LABELS.items()}


def weight_by_label(label):
    """The weight with epsilon label ``label``, such as 'e1', '-e3' or 'e3-e2'."""
    return _WEIGHT_BY_LABEL[label]


#: V7 basis weights, strictly decreasing height: eps1, -eps3, -eps2, 0,
#: eps2, eps3, -eps1.  The Weyl group permutes them and fixes line 3.
V7_WEIGHTS = (
    Weight(1, 0),
    Weight(-1, 1),
    Weight(2, -1),
    Weight(0, 0),
    Weight(-2, 1),
    Weight(1, -1),
    Weight(-1, 0),
)


class WeylElement:
    """An element of the G2 Weyl group in canonical form.

    Canonical form is the lexicographically least reduced word; elements
    are interned, so identity comparison is reliable for equal elements.
    """

    __slots__ = ("perm", "word", "length", "_group", "index")

    def __init__(self, group, perm, word, index):
        self.perm = perm            # perm[j] = k: sends V7_WEIGHTS[j] to V7_WEIGHTS[k]
        self.word = word            # canonical (lex-least) reduced word
        self.length = len(word)
        self._group = group
        self.index = index

    def __mul__(self, other):
        return self._group.product(self, other)

    def act(self, weight):
        """Apply the reflection word to a weight (rightmost letter first)."""
        for i in reversed(self.word):
            weight = weight.reflect(i)
        return weight

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        if not self.word:
            return "e"
        return "*".join("s%d" % i for i in self.word)


def _by_preimages(elements, lines):
    """Each element keyed by the lines its permutation sends to ``lines``;
    a key shared by two elements raises ``RuntimeError``."""
    table = {}
    for el in elements:
        key = tuple(el.perm.index(i) for i in lines)
        if key in table:
            raise RuntimeError("lines %s do not tell %r from %r" % (lines, table[key], el))
        table[key] = el
    return table


class WeylGroup:
    """The Weyl group of type G2 with all tables precomputed."""

    def __init__(self):
        s_perm = {}
        for i in (1, 2):
            s_perm[i] = tuple(
                V7_WEIGHTS.index(mu.reflect(i)) for mu in V7_WEIGHTS
            )
        id_perm = tuple(range(len(V7_WEIGHTS)))

        def compose(p, q):
            # (p after q): apply q first
            return tuple(p[k] for k in q)

        # breadth-first closure: the queue is in (length, word) order and each
        # word gets letter 1 appended before letter 2, so the first word to
        # reach a permutation is its lex-least reduced word
        words = {id_perm: ()}
        queue = [id_perm]
        for perm in queue:
            for i in (1, 2):
                q = compose(perm, s_perm[i])  # right multiplication by s_i
                if q not in words:
                    words[q] = words[perm] + (i,)
                    queue.append(q)

        self.elements = tuple(
            WeylElement(self, perm, words[perm], k) for k, perm in enumerate(queue)
        )
        self.by_perm = {el.perm: el for el in self.elements}
        # the lines that w sends to lines 0 and 1, and to lines 6 and 5: the
        # pivots of two rows of a matrix in B- wdot B+, or in B+ wdot B+
        # (``deodhar``)
        self.by_top_preimages = _by_preimages(self.elements, (0, 1))
        self.by_bottom_preimages = _by_preimages(self.elements, (6, 5))
        self.identity = self.elements[0]
        self.w0 = self.elements[-1]
        self._s = {1: self.by_perm[s_perm[1]], 2: self.by_perm[s_perm[2]]}

        n = len(self.elements)
        self._mult = [[None] * n for _ in range(n)]
        for a in self.elements:
            for b in self.elements:
                self._mult[a.index][b.index] = self.by_perm[compose(a.perm, b.perm)]

    # -- group operations -------------------------------------------------

    def s(self, i):
        return self._s[i]

    def product(self, a, b):
        return self._mult[a.index][b.index]

    def from_word(self, word):
        el = self.identity
        for i in word:
            el = self.product(el, self._s[i])
        return el

    def is_reduced(self, word):
        return self.from_word(word).length == len(word)


#: the shared G2 Weyl group instance
W = WeylGroup()

#: the two reduced words of the longest element
WORD_I = (1, 2, 1, 2, 1, 2)
WORD_I_TILDE = (2, 1, 2, 1, 2, 1)


@dataclass(frozen=True)
class Subexpression:
    """A distinguished subexpression for 1 of a reduced word.

    ``sigma`` has length N+1 with sigma[0] = identity.  The index sets
    I, J, K (1-based positions) partition {1..N}: position j is in I if
    the letter is skipped, in J if it increases length, in K if it
    decreases length.
    """

    word: tuple
    sigma: tuple
    I: tuple
    J: tuple
    K: tuple

    @property
    def name(self):
        """Positions show the taken letter, skipped positions show 'x'."""
        taken = set(self.J) | set(self.K)
        return "".join(
            str(self.word[j - 1]) if j in taken else "x"
            for j in range(1, len(self.word) + 1)
        )

    @property
    def codim(self):
        return len(self.J)

    @property
    def dim(self):
        return len(self.I) + len(self.K)

    def sigma_names(self):
        return tuple(repr(s) for s in self.sigma)

    def param_signature(self):
        """Parameter names in position order, e.g. ('t1','t2','m1','m2')."""
        names = []
        ti = mi = 0
        for j in range(1, len(self.word) + 1):
            if j in self.I:
                ti += 1
                names.append("t%d" % ti)
            elif j in self.K:
                mi += 1
                names.append("m%d" % mi)
        return tuple(names)


def enumerate_distinguished(word):
    """All distinguished subexpressions for 1 of a reduced word.

    Enumeration is depth-first with 'skip' explored before 'take' at
    each position, which makes the output order deterministic.
    """
    word = tuple(word)
    if not W.is_reduced(word):
        raise ValueError("word %r is not reduced" % (word,))
    N = len(word)
    out = []

    def walk(j, chain):
        if j > N:
            if chain[-1] is W.identity:
                I, J, K = [], [], []
                for k in range(1, N + 1):
                    prev, cur = chain[k - 1], chain[k]
                    if cur == prev:
                        I.append(k)
                    elif cur.length > prev.length:
                        J.append(k)
                    else:
                        K.append(k)
                out.append(
                    Subexpression(word, tuple(chain), tuple(I), tuple(J), tuple(K))
                )
            return
        prev = chain[-1]
        nxt = prev * W.s(word[j - 1])
        if nxt.length > prev.length:
            # skipping is allowed only when taking the letter would go up
            walk(j + 1, chain + [prev])
        walk(j + 1, chain + [nxt])

    walk(1, [W.identity])
    return out
