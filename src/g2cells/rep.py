"""Exact matrix model of the group of type G2.

The group is carried in ``V7``, the 7-dimensional fundamental
representation with highest weight omega1, built from explicit
Chevalley generator matrices.  V7 is faithful, so a group element is
its 7x7 matrix; the minors of level 2 are 2x2 minors of that matrix
(V(omega2) sits in the exterior square of V7, see ``minors``), so no
second representation is built.  The basis is ordered by strictly
decreasing weight height, so every e_i is strictly upper triangular
and every f_i strictly lower.

The representation is built over Python ints.  The generators are
integer matrices, and so are their divided powers E^k/k!: the basis
spans Kostant's Z-form, a lattice stable under every divided power.
The k! of a divided power is an exact division and raises
``ArithmeticError`` on a remainder.  Each one-parameter subgroup keeps
one divided-power table, ``Representation._int_terms``: the entries
(k, row, col, value) of E^k/k!.

One-parameter subgroups are exact truncated exponentials (the
generators are nilpotent) and torus elements are diagonal in the weight
basis.  A group element is the word of generator atoms that produced
it: products concatenate words, inverses reverse them, and a matrix is
folded from the word only when it is first read.  Dense matrix
products run only while the representation is built.  Only this module
writes an atom or builds a ``GroupElement`` from a word: the rest of
the package starts from ``word``, which builds the atoms along a word of
letters as one element, of one kind or of a kind per letter (a Deodhar
cell point is one such word), from its one-letter cases ``x``, ``y``,
``sdot``, ``sdot_inverse`` and ``coweight``, or from ``wdot``, joins
elements with ``*`` or ``group_product`` and cuts one into its factors
with ``split``.  ``word`` refuses a letter outside {1, 2}
(``ValueError``) and a parameter that is not an int, ``Fraction`` or,
for x and y, ``Poly`` (``TypeError``) before the element is built,
checking each once.

Each of the ten (kind, letter) pairs has one integer term table,
``_atom_terms``: the terms (r, c, v, a, b) saying that entry (r, c) of
the atom's matrix at t = p/q, times the atom's scale p^A q^B, is
v p^a q^b.  x_i and y_i take theirs from the divided powers, scaled by
q^K, the Weyl representatives from their signed permutations, scaled
by 1, and the torus from the pairings of the weights, scaled by
(pq)^K.  The shape of a word is its sequence of (kind, letter) pairs.
One builder, ``_word_source``, writes the tables of a shape's atoms as
one straight-line kernel that carries each row through every atom in
local variables, each column of each step one unrolled sum of
int-scaled entries.  A kernel folds the caller's rows, or a fixed
``Block`` built once by its reader: the unit rows, whose fold is the
matrix, or rows 0 and 1 of the identity or of wdot(w0).  A block's
entries are written into the source as literals, so a zero entry drops
its terms and an int entry folds into the monomial it multiplies, and a
block with wedges returns the chamber pairings of its folded rows 0 and
1 (``minors``) in place of the rows.  A block without wedges may be
read after chosen atoms as well, the ends of a word's factors: the
kernel returns the block after each such prefix, over the product of
the prefix's scales, so a Deodhar position chain is one kernel call.
``_word_kernel`` compiles each kernel once, keyed by the shape, the
block and the ends, never by a parameter, in a bounded LRU cache.
There is one fold, ``_fold_rows``: it carries a block of row vectors as
Python int numerators over one common denominator along the whole word
in one call of its kernel, and no fold builds a ``Fraction``.

There is one reader of rows of an element, ``apply_covector``: a block
of int covectors times g, or times each of g's prefixes.  The minors
and both Bruhat positions fold the blocks of rows 0 and 1 of the
identity or of wdot(w0), and so read rows 0 and 1 of g or of wdot(w0) g,
or their pairings; a position chain reads rows 0 and 1 of every prefix
of g that ends a factor.  The whole matrix, ``GroupElement.rows``, is
the seven unit rows folded once and kept; only the unipotence
predicates, ``==`` and the ``Fraction`` view ``m7`` read it.  Once it
is kept, ``apply_covector`` multiplies a block of rows into it instead
of walking the word again; pairings and prefixes are always folded
along the word.  A word made only of x atoms lies in U+ and one
made only of y atoms in U-, so the unipotence predicates read such
words without folding a matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import pairwise, repeat

from . import linalg
from .scalars import EXACT_SCALARS
from .weyl import V7_WEIGHTS

__all__ = [
    "Representation",
    "GroupElement",
    "build_representations",
    "word",
    "x",
    "y",
    "sdot",
    "sdot_inverse",
    "coweight",
    "wdot",
    "group_identity",
    "group_product",
    "split",
    "apply_covector",
    "Block",
    "UNIT_ROWS",
    "is_unipotent_upper",
    "is_unipotent_lower",
]


def _unit(i, j, c=1, n=7):
    return tuple(tuple(c if (r, s) == (i, j) else 0 for s in range(n)) for r in range(n))


def _exact_div(a, b):
    """a // b for ints that b must divide: a remainder would leave the lattice."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("%s / %s is not integral" % (a, b))
    return q


def _madd(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = linalg.mat_add(out, m)
    return out


# Chevalley generators of the 7-dimensional representation in the basis
# of V7_WEIGHTS, normalized so that the lattice spanned by the basis is stable
# under all divided powers e_i^k / k!, f_i^k / k!.
_E1_7 = _madd(_unit(0, 1), _unit(2, 3, 2), _unit(3, 4), _unit(5, 6))
_F1_7 = _madd(_unit(1, 0), _unit(3, 2), _unit(4, 3, 2), _unit(6, 5))
_E2_7 = _madd(_unit(1, 2), _unit(4, 5))
_F2_7 = _madd(_unit(2, 1), _unit(5, 4))


class Representation:
    """An exact matrix representation with a weight-ordered basis; ``h[i]`` is
    the diagonal of the pairings <alpha_i^vee, mu> over ``weights``, not
    [e_i, f_i], so [e_i, f_i] = h_i tests E and F against the weights."""

    def __init__(self, weights, e, f):
        self.dim = len(weights)
        self.weights = tuple(weights)
        self.e = dict(e)
        self.f = dict(f)
        self.h = {i: tuple(tuple(mu.pairing(i) if r == c else 0 for c in range(self.dim))
                           for r, mu in enumerate(self.weights)) for i in (1, 2)}
        # the one divided-power table, read only by term_table: the
        # nonzero entries (k, r, c, value) of E^k / k! for k = 1, 2, ...
        # until the powers vanish, each an exact quotient, so a power off
        # the lattice raises ArithmeticError; a nilpotent E has E^dim = 0,
        # so a power that has not vanished by then raises it too
        self._int_terms = {}
        self.nilpotency = {}
        for kind, mats in (("x", self.e), ("y", self.f)):
            for i in (1, 2):
                terms = []
                power, k, fact = mats[i], 1, 1
                while not linalg.is_zero_matrix(power):
                    if k == self.dim:
                        raise ArithmeticError(
                            "the generator of %s%d is not nilpotent: its power %d is nonzero"
                            % (kind, i, k)
                        )
                    terms.extend(
                        (k, r, c, _exact_div(v, fact))
                        for r, row in enumerate(power)
                        for c, v in enumerate(row)
                        if v
                    )
                    k += 1
                    fact *= k
                    power = linalg.mat_mul(power, mats[i])
                self._int_terms[(kind, i)] = tuple(terms)
                self.nilpotency[(kind, i)] = k

    def term_table(self, kind, i):
        """The integer term table of x_i, y_i or the torus alpha_i^vee:
        ((A, B), terms), each term (r, c, v, a, b) saying that entry (r, c)
        of the atom's matrix at t = p/q, times its scale p^A q^B, is
        v p^a q^b.

        x_i and y_i are scaled by q^K, K = nilpotency - 1: their unit
        diagonal is q^K and an entry v of E^k/k! is v p^k q^(K-k).  The
        torus entry t^n, n = <alpha_i^vee, mu>, is p^(K+n) q^(K-n) over
        (pq)^K, K the largest |n| rounded up to an even number, so that
        (pq)^K is positive.
        """
        if kind == "coweight":
            pairings = [mu.pairing(i) for mu in self.weights]
            top = max(map(abs, pairings))
            top += top % 2
            return (top, top), [(r, r, 1, top + n, top - n) for r, n in enumerate(pairings)]
        top = self.nilpotency[(kind, i)] - 1
        return (0, top), [(r, r, 1, 0, top) for r in range(self.dim)] + [
            (r, c, v, k, top - k) for k, r, c, v in self._int_terms[(kind, i)]
        ]


@lru_cache(maxsize=None)
def build_representations():
    """The representation V7, built once and shared read-only."""
    return Representation(V7_WEIGHTS, {1: _E1_7, 2: _E2_7}, {1: _F1_7, 2: _F2_7})


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _atom_terms(kind, i):
    """((A, B), terms), the integer term table of the atoms (kind, i, ...):
    the Weyl representatives' signed permutations with scale 1, else
    ``Representation.term_table``.  Kept for the ten (kind, letter) pairs,
    since every shape that holds the pair reads it."""
    if kind in ("sdot", "sdot_inv"):
        return (0, 0), _weyl_terms(kind, i)
    return build_representations().term_table(kind, i)


class Block:
    """A fixed block of int row vectors, built once by its reader and kept.

    ``entries`` holds the rows, and ``wedges`` is None or a tuple of
    wedges (columns, coefficient), one per pairing of the folded rows 0
    and 1 to read.  A block's kernel writes its entries into the source
    as literals and, given wedges, returns the pairings in place of the
    rows.  The kernel cache hashes a block by identity, so a lookup
    hashes no entry.
    """

    __slots__ = ("entries", "wedges")

    def __init__(self, entries, wedges=None):
        self.entries = tuple(map(tuple, entries))
        self.wedges = None if wedges is None else tuple(wedges)


def _total(parts):
    """The sum of ``parts``, ints and expressions: an int, or one expression
    with the ints added up at its end."""
    if len(parts) < 2:
        return parts[0] if parts else 0
    const = sum(part for part in parts if type(part) is int)
    terms = [part for part in parts if type(part) is str]
    return " + ".join(terms + ["%d" % const] * bool(const)) if terms else const


def _listed(items):
    # the source of a list of ints and expressions
    return "[%s]" % ", ".join(map(str, items))


def _product(coeff, *factors):
    """coeff times ``factors``, ints and names: an int, or a product with
    the ints folded into the coefficient, which goes first, as a ``Poly``
    takes it."""
    names = [f for f in factors if type(f) is str]
    for f in factors:
        if type(f) is int:
            coeff *= f
    if not coeff or not names:
        return coeff
    product = "*".join(names)
    if coeff == 1:
        return product
    return "%d*%s" % (coeff, product if len(names) == 1 else "(%s)" % product)


def _word_source(shape, block, ends=None):
    """The source of ``kernel(rows, atoms)``, the fold of every word of
    ``shape``, its sequence of (kind, letter) pairs, from their integer
    term tables alone.

    For each atom j that has a scale, it reads p<j> and q<j> off t<j> =
    atoms[j][2] and names each monomial v p^a q^b of the atom once, as
    s<k> (or as p<j> or q<j> itself).  It carries each row through the
    atoms in local variables, each column one unrolled sum (a bare entry
    is renamed, not copied), and returns the folded rows with den, the
    product of the atoms' scales.  With ``block`` None the kernel folds
    the caller's ``rows``, one list per row, u<j>_<c> being column c after
    j atoms.  A ``Block`` is written in as literals, row k's entries
    named u<j>_<c>_<k>: a zero entry drops its terms and an int entry
    folds into the monomial it multiplies.  Given wedges, each atom
    writes only the columns that a later atom or a wedge reads, and the
    kernel returns per wedge the pairing of the folded rows 0 and 1,
    coeff*top[c] at level 1 and
    coeff*(top[a]*low[b]) + -coeff*(top[b]*low[a]) at level 2, in place
    of the rows.  Given ``ends``, counts of atoms, a block without wedges
    returns its rows after each prefix of the word that many atoms long,
    rows that the fold carries anyway, with the product of the scales of
    the prefix's atoms as its den.
    """
    head, tables, scales, names = ["def kernel(rows, atoms):"], [], [], {}

    def monomial(j, v, a, b):
        if (j, v, a, b) not in names:
            factors = ["%d" % v] * (v != 1) + ["p%d" % j] * a + ["q%d" % j] * b
            if len(factors) == 1:
                names[j, v, a, b] = factors[0]
            else:
                names[j, v, a, b] = "s%d" % len(names)
                head.append("    %s = %s" % (names[j, v, a, b], "*".join(factors)))
        return names[j, v, a, b]

    for j, (kind, i) in enumerate(shape):
        (top_p, top_q), terms = _atom_terms(kind, i)
        if top_p or top_q:
            head += ["    t%d = atoms[%d][2]" % (j, j),
                     "    p%d = t%d.numerator" % (j, j),
                     "    q%d = t%d.denominator" % (j, j)]
            scales.append((j, monomial(j, 1, top_p, top_q)))
        tables.append(terms)

    def fold(row, suffix, body, keep=None):
        # ``row`` after each count of atoms, each entry an int or a name;
        # the last atom leaves expressions, or names only the columns in
        # ``keep`` and each atom before it only the columns the next reads
        after = [row]
        live = [keep]
        for terms in reversed(tables[1:]):
            live.append(None if keep is None else {r for r, c, *_ in terms if c in live[-1]})
        for j, (terms, read) in enumerate(zip(tables, reversed(live)), 1):
            columns = [[] for _ in range(7)]
            for r, c, v, a, b in terms:
                entry = row[r]
                if entry == 0 or read is not None and c not in read:
                    continue
                if a or b:
                    columns[c].append(monomial(j - 1, entry * v, a, b) if type(entry) is int
                                      else "%s*%s" % (entry, monomial(j - 1, v, a, b)))
                else:
                    columns[c].append(entry * v if type(entry) is int
                                      else {1: "", -1: "-"}.get(v, "%d*" % v) + entry)
            row = [_total(column) for column in columns]
            if j < len(tables) or keep is not None:
                for c, value in enumerate(row):
                    if type(value) is str and not value.isidentifier():
                        row[c] = "u%d_%d%s" % (j, c, suffix)
                        body.append("%s = %s" % (row[c], value))
            after.append(row)
        return after

    def den(end):
        return "*".join(name for j, name in scales if j < end) or "1"

    if ends is not None and (block is None or block.wedges is not None):
        raise ValueError("only a Block without wedges is read after prefixes")

    body = []
    if block is None:
        names_0 = ["u0_%d" % c for c in range(7)]
        row = fold(names_0, "", body)[-1]
        head += ["    out = []", "    for %s in rows:" % ", ".join(names_0)]
        body = ["    " + line for line in body + ["out.append(%s)" % _listed(row)]]
        out = "out"
    elif block.wedges is None:
        after = [fold(entries, "_%d" % k, body) for k, entries in enumerate(block.entries)]
        if ends is None:
            out = _listed(_listed(rows[-1]) for rows in after)
        else:
            out = _listed(_listed(_listed(rows[end]) for rows in after) for end in ends)
    else:
        top = fold(block.entries[0], "_0", body, {c for cols, _ in block.wedges for c in cols})[-1]
        low = fold(block.entries[1], "_1", body,
                   {c for cols, _ in block.wedges if len(cols) == 2 for c in cols})[-1]
        out = _listed(_product(coeff, top[cols[0]]) if len(cols) == 1 else _total(
                          [_product(coeff, top[cols[0]], low[cols[1]]),
                           _product(-coeff, top[cols[1]], low[cols[0]])])
                      for cols, coeff in block.wedges)
    return "\n".join(head + ["    " + line for line in body]) + "\n    return %s, %s\n" % (
        out, den(len(shape)) if ends is None else _listed(map(den, ends)))


@lru_cache(maxsize=64)
def _word_kernel(shape, block, ends=None):
    """The straight-line fold of the words of ``shape`` for ``block``, a
    ``Block`` or None for caller rows, read after the prefixes ``ends``
    or at the end, compiled on first use from ``_word_source``.  Keyed by
    the shape, the block and the ends, never by a parameter, and bounded:
    the least recently used of more than 64 keys is compiled again when
    next met.  A cold ``g2cells verify`` meets 58 keys, the most of any
    command or benchmark workload, so none of them evicts.  This is the
    package's one ``exec``."""
    namespace = {}
    name = "<kernel %s>" % " ".join("%s%d" % pair for pair in shape)
    exec(compile(_word_source(shape, block, ends), name, "exec"), namespace)
    return namespace["kernel"]


def _fold_rows(rows, atoms, ends=None):
    """(rows . (product of the atoms' matrices) * den, den), over the integers.

    ``rows`` is a block of integer row vectors, or a ``Block``, whose
    kernel returns its pairings in place of the rows if it has wedges.
    The word is folded by the one kernel of its shape and block, which
    multiplies the rows by each atom's matrix times its scale in turn,
    and returns ``den``, the product of the scales.  So the rows stay
    integral (or ``Poly``s with integral coefficients) and no ``Fraction``
    is built.  Given ``ends``, it returns the rows after each of those
    prefixes of the word, with the den of each.  This is the package's
    only fold.
    """
    block = rows if type(rows) is Block else None
    return _word_kernel(tuple([atom[:2] for atom in atoms]), block, ends)(rows, atoms)


#: the unit rows e_0, ..., e_6 of V7: every block of unit covectors that is
#: folded is a slice of it
UNIT_ROWS = tuple(tuple(int(j == i) for j in range(7)) for i in range(7))
#: the seven unit rows as a block, whose fold is the whole matrix
_UNIT_BLOCK = Block(UNIT_ROWS)


def _weyl_terms(kind, i):
    """The term table (r, c, v, 0, 0) of sdot_i = x_i(1) y_i(-1) x_i(1), or
    of its inverse, folded once for its term table: a signed permutation."""
    s = 1 if kind == "sdot" else -1
    rows, den = _fold_rows(UNIT_ROWS, (("x", i, s), ("y", i, -s), ("x", i, s)))
    if den != 1:
        raise ArithmeticError("Weyl representative of %s%d is not integral" % (kind, i))
    return [(r, c, v, 0, 0) for r, row in enumerate(rows) for c, v in enumerate(row) if v]


def _fraction_view(rows, den):
    """The matrix rows / den with ``Fraction`` entries, for callers that read
    ``m7``."""
    return tuple(tuple(Fraction(v, den) for v in row) for row in rows)


def _invert_atom(atom):
    kind = atom[0]
    if kind == "x":
        return ("x", atom[1], -atom[2])
    if kind == "y":
        return ("y", atom[1], -atom[2])
    if kind == "sdot":
        return ("sdot_inv", atom[1])
    if kind == "sdot_inv":
        return ("sdot", atom[1])
    if kind == "coweight":
        t = atom[2]
        return ("coweight", atom[1], Fraction(1) / Fraction(t))
    raise ValueError("unknown atom %r" % (atom,))


class GroupElement:
    """A group element, carried as the word of atoms that produced it.

    ``provenance`` is the word of generator atoms that produced the
    element.  Products concatenate words.  ``rows`` is the V7 matrix as
    integral rows over one common denominator, the unit rows folded
    along the word when it is first read, and kept in ``kept`` (None
    until then).  ``m7`` is a ``Fraction`` view of it, built anew each
    time it is read.
    """

    __slots__ = ("provenance", "kept")

    def __init__(self, provenance):
        self.provenance = tuple(provenance)
        self.kept = None

    @property
    def rows(self):
        """The V7 matrix as (rows, den): integral rows over a positive int."""
        if self.kept is None:
            rows, den = _fold_rows(_UNIT_BLOCK, self.provenance)
            self.kept = tuple(map(tuple, rows)), den
        return self.kept

    @property
    def m7(self):
        return _fraction_view(*self.rows)

    def __mul__(self, other):
        return GroupElement(self.provenance + other.provenance)

    def inverse(self):
        return GroupElement([_invert_atom(a) for a in reversed(self.provenance)])

    def __eq__(self, other):
        # V7 is faithful for G2, so the 7x7 matrix identifies the element;
        # a / da == b / db is compared as a * db == b * da
        if not isinstance(other, GroupElement):
            return False
        (a, da), (b, db) = self.rows, other.rows
        return all(
            u * db == v * da for ra, rb in zip(a, b) for u, v in zip(ra, rb)
        )

    def __repr__(self):
        return "GroupElement(%s)" % (", ".join(map(_atom_repr, self.provenance)) or "1")


def _atom_repr(atom):
    if atom[0] == "sdot":
        return "s%d." % atom[1]
    if atom[0] == "sdot_inv":
        return "s%d.^-1" % atom[1]
    return "%s%d(%s)" % (atom[0], atom[1], atom[2])


def split(g, ends):
    """The elements of the pieces of g's word that end after ``ends[k]``
    atoms, in order: g's factors, whose product is g if the last end is
    the length of the word."""
    return [GroupElement(g.provenance[start:end]) for start, end in pairwise((0, *ends))]


def group_identity():
    return GroupElement(())


def group_product(elements):
    """The product of the elements in order: one element, whose word is
    the concatenation of their words.  The word is gathered in a list:
    built from a generator, it kept about 0.1 MiB more memory resident."""
    return GroupElement([atom for g in elements for atom in g.provenance])


#: the parameter types of each atom kind; the Weyl representatives take none
_PARAMETER_TYPES = {
    "x": EXACT_SCALARS,
    "y": EXACT_SCALARS,
    "coweight": (int, Fraction),
    "sdot": None,
    "sdot_inv": None,
}


def word(kinds, letters, params=None):
    """The product of the atoms along ``letters``, as one element.

    ``kinds`` is one kind for every letter, or a sequence of kinds, one
    per letter.  An x, y or coweight atom takes the next parameter t of
    ``params``, as x_i(t), y_i(t) or coweight(i, t); sdot_i and sdot_i^-1
    take none, so a word of them alone takes no ``params``.

    Every kind, letter and parameter is checked once, before the element
    is built: an unknown kind, a count of kinds other than that of the
    letters and a letter outside {1, 2} raise ``ValueError``, and so do a
    count of parameters other than that of the atoms that take one and,
    after every parameter's type, a zero torus parameter; a parameter
    that is not an int, ``Fraction`` or, for x and y, ``Poly`` raises
    ``TypeError``.
    """
    one = type(kinds) is str
    kinds = (kinds,) if one else tuple(kinds)
    for kind in kinds:
        if kind not in _PARAMETER_TYPES:
            raise ValueError("unknown atom kind %r" % (kind,))
    letters = tuple(letters)
    if not one and len(kinds) != len(letters):
        raise ValueError("%d kinds for %d letters" % (len(kinds), len(letters)))
    for i in letters:
        if i not in (1, 2):
            raise ValueError("letter must be 1 or 2, not %r" % (i,))
    takers = list(filter(_PARAMETER_TYPES.get, kinds))
    if not takers:
        if params is not None:
            raise ValueError("%s atoms take no parameter" % "/".join(dict.fromkeys(kinds)))
        return GroupElement(zip(repeat(kinds[0]) if one else kinds, letters))
    params = tuple(params)
    if one:
        takers *= len(letters)
    if len(params) != len(takers):
        raise ValueError("%d parameters for %d atoms that take one" % (len(params), len(takers)))
    exact = repeat(_PARAMETER_TYPES[kinds[0]]) if one else map(_PARAMETER_TYPES.get, takers)
    for t, types in zip(params, exact):
        if not isinstance(t, types):
            raise TypeError("parameter must be an exact scalar, not %r" % (t,))
    if "coweight" in kinds and any(t == 0 for t, kind in zip(params, takers) if kind == "coweight"):
        raise ValueError("coweight argument must be nonzero")
    if one:
        return GroupElement(zip(takers, letters, params))
    t = iter(params)
    return GroupElement([(kind, i, next(t)) if _PARAMETER_TYPES[kind] else (kind, i)
                         for kind, i in zip(kinds, letters)])


def x(i, t):
    """One-parameter subgroup exp(t e_i), t an int, ``Fraction`` or ``Poly``."""
    return word("x", (i,), (t,))


def y(i, t):
    """One-parameter subgroup exp(t f_i), t an int, ``Fraction`` or ``Poly``."""
    return word("y", (i,), (t,))


def sdot(i):
    """The Weyl representative x_i(1) y_i(-1) x_i(1)."""
    return word("sdot", (i,))


def sdot_inverse(i):
    return word("sdot_inv", (i,))


def coweight(i, t):
    """The torus element with eigenvalue t^<alpha_i^vee, mu> on weight mu,
    t a nonzero int or ``Fraction``: the letter and the type are checked
    before the zero test."""
    return word("coweight", (i,), (t,))


@lru_cache(maxsize=None)
def wdot(w):
    """Representative of w, the product of sdot along any reduced word."""
    return word("sdot", w.word)


def apply_covector(g, rows, ends=None):
    """rows . g for a block of int row vectors or a ``Block``, the one reader
    of rows of an element: (numerators, den), entry j of row k of rows . g
    being numerators[k][j] / den with den a positive int.  The block is
    folded along the word until the matrix is kept, and multiplied into
    the kept matrix after: the fold is linear in the block, so both give
    the same numerators over the same den.  A ``Block`` with wedges gives
    (pairings, den) instead, always folded along the word.

    Given ``ends``, a tuple of atom counts, a ``Block`` without wedges
    gives (blocks, dens) from one fold along the word: blocks[k] over
    dens[k] is rows . g_k, g_k the product of the first ends[k] atoms of
    g's word."""
    if ends is not None:
        return _fold_rows(rows, g.provenance, ends)
    if type(rows) is Block:
        if g.kept is None or rows.wedges is not None:
            return _fold_rows(rows, g.provenance)
        rows = rows.entries
    elif g.kept is None:
        return _fold_rows(rows, g.provenance)
    matrix, den = g.kept
    out = []
    for row in rows:
        acc = [0] * 7
        for u, line in zip(row, matrix):
            if u:
                acc = [a + u * v for a, v in zip(acc, line)]
        out.append(acc)
    return out, den


# ---------------------------------------------------------------------------
# unipotence predicates, read from the integral rows in one scan: a unit
# diagonal entry equals the denominator.  Membership in B+ is not tested
# here: bruhat_position_plus(g) is W.identity decides it (B+ e B+ = B+).
# ---------------------------------------------------------------------------


def is_unipotent_upper(g):
    # a product of x atoms lies in U+, so such a word needs no fold
    if all(atom[0] == "x" for atom in g.provenance):
        return True
    rows, den = g.rows
    return all(row[i] == den and not any(row[:i]) for i, row in enumerate(rows))


def is_unipotent_lower(g):
    # a product of y atoms lies in U-, so such a word needs no fold
    if all(atom[0] == "y" for atom in g.provenance):
        return True
    rows, den = g.rows
    return all(row[i] == den and not any(row[i + 1:]) for i, row in enumerate(rows))
