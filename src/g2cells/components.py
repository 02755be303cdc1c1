"""Connected components of the intersection of the opposed big cells.

The intersection is covered, up to codimension >= 2, by the two open
subsets swept out by the sign cells of the lower factorizations along
the words 121212 and 212121.  Components are therefore recovered by
sampling points in each sign cell, re-factorizing along the other word
and recording which sign cells overlap (``build_overlap_graph``).
Only ``compute_figure1`` samples, so only it is cached, for a few
``(samples, seed)`` pairs, and its partition is the one way to every
stage above the graph.  Kept on the partition, this module recomputes

* the letter-to-number bijection, found by pushing one test point per
  letter through the epsilon map, and
* the classification of all 140 Deodhar cells, sending a sample point
  of each cell through the alpha map and reading the six signs.

A draw outside the chart is redrawn (``chamber.redraw``); a fixed test
point moves to fresh primes.  Every result is compared against the
reference tables in ``fixtures``; a mismatch is an error, never a
silent renumbering.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import chamber, deodhar, fixtures, rep
from .weyl import WORD_I, WORD_I_TILDE

__all__ = [
    "SignVector",
    "OverlapGraph",
    "ComponentPartition",
    "ClassificationReport",
    "build_overlap_graph",
    "connected_components",
    "compute_figure1",
    "ALL_SIGNS",
]

WORDS = {"i": WORD_I, "it": WORD_I_TILDE}

#: all 64 sign strings, in a fixed display order (+ before -)
ALL_SIGNS = tuple(
    "".join(choice)
    for choice in itertools.product("+-", repeat=6)
)


@dataclass(frozen=True)
class SignVector:
    """One sign cell of a lower factorization: a word tag plus six signs."""

    word: str   # "i" for 121212, "it" for 212121
    signs: str  # six characters '+'/'-'

    def __repr__(self):
        return "(%s, %s)" % (self.word, self.signs)


@dataclass
class OverlapGraph:
    samples: int
    seed: int
    nodes: tuple
    edges: set

    def adjacency(self):
        adj = {node: set() for node in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def _lower_point(word, signs, rng):
    params = tuple(
        (1 if ch == "+" else -1) * deodhar.sample_magnitude(rng)
        for ch in signs
    )
    return rep.group_product(
        rep.y(i, t) for i, t in zip(WORDS[word], params)
    )


def _refactor_signs(point, word):
    """Signs of the lower factorization of the point along the given word."""
    upper = chamber.alpha_factorize(point, WORDS[word])
    return chamber.epsilon_factorize(upper.product(), WORDS[word]).signs()


def build_overlap_graph(samples=8, seed=42):
    """Sample each of the 128 sign cells and join overlapping cells.

    For every cell of one word, points are re-factorized along the other
    word; the resulting sign cell meets the sampled one, giving an edge.
    Each sample is redrawn until it factorizes, up to
    ``chamber.REDRAW_ATTEMPTS`` draws.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    edges = set()
    nodes = tuple(
        SignVector(word, signs) for word in ("i", "it") for signs in ALL_SIGNS
    )
    for word, other in (("i", "it"), ("it", "i")):
        for signs in ALL_SIGNS:
            node = SignVector(word, signs)
            for _ in range(samples):
                mate = chamber.redraw(
                    lambda: _refactor_signs(_lower_point(word, signs, rng), other),
                    "sign cell %r" % (node,),
                )
                edges.add(frozenset((node, SignVector(other, mate))))
    return OverlapGraph(samples, seed, nodes, edges)


@dataclass
class ComponentPartition:
    """The numbered components; the stages above them are kept once read."""

    components: dict        # number -> frozenset of SignVector
    graph: OverlapGraph

    def component_of(self, node):
        for num, members in self.components.items():
            if node in members:
                return num
        raise KeyError(node)

    def sizes(self):
        return tuple(
            len(self.components[k]) for k in sorted(self.components)
        )

    @cached_property
    def bijection(self):
        out = {}
        for letter in sorted(fixtures.UPPER_COMPONENTS):
            mags = _magnitudes(fixtures.UPPER_TEST_MAGNITUDES)
            signs = chamber.redraw(
                lambda: _epsilon_signs(fixtures.UPPER_COMPONENTS[letter][0], next(mags)),
                "the test point of letter %s" % letter,
            )
            out[letter] = self.component_of(SignVector("it", signs))
        if sorted(out.values()) != list(range(1, 12)):
            raise AssertionError("letter matching is not a bijection")
        return out

    def classify(self, cell):
        if cell.codim == 0:
            number = self.component_of(SignVector("i", cell.display()))
            return CellRecord(cell.display(), cell.family.name, 0, "", "", number)
        return _classify_positive_codim(cell, self.bijection)

    @cached_property
    def classification_tables(self):
        return {
            name: tuple(self.classify(cell) for cell in _all_cells_of_family(name))
            for name in fixtures.TABLE_ORDER
        }

    @cached_property
    def euler_report(self):
        records = [self.classify(cell) for cell in _all_cells_of_family("xxxxxx")]
        records += itertools.chain.from_iterable(self.classification_tables.values())
        counts = {num: [0, 0, 0] for num in range(1, 12)}
        for record in records:
            counts[record.component][record.codim] += 1
        totals = [sum(c[k] for c in counts.values()) for k in range(3)]
        if totals != [64, 64, 12]:
            raise AssertionError("codimension bookkeeping is off: %r" % (totals,))
        per_component = {
            num: (n0, n1, n2, n0 - n1 + n2)
            for num, (n0, n1, n2) in counts.items()
        }
        return ClassificationReport(tuple(records), per_component)


def _fixture_partition():
    out = {}
    for num, (icells, itcells) in fixtures.FIGURE1.items():
        members = {SignVector("i", s) for s in icells}
        members |= {SignVector("it", s) for s in itcells}
        out[num] = frozenset(members)
    return out


class PartitionTooFine(Exception):
    """The sampled graph is missing edges; more samples may merge blocks."""


def connected_components(graph):
    """Partition the graph into its blocks, numbered to match the fixture.

    A block that meets two fixture components is a hard error carrying
    the block.  Otherwise each block takes the number of its fixture
    component, and more blocks than components raises
    ``PartitionTooFine`` (more sampling can only merge blocks, so
    retrying is sound).
    """
    expected = _fixture_partition()
    home = {node: num for num, members in expected.items() for node in members}
    adj = graph.adjacency()
    blocks = []
    seen = set()
    for node in graph.nodes:
        if node in seen:
            continue
        stack = [node]
        block = set()
        while stack:
            cur = stack.pop()
            if cur not in block:
                block.add(cur)
                stack.extend(adj[cur] - block)
        seen |= block
        homes = {home[n] for n in block}
        if len(homes) != 1:
            raise AssertionError(
                "component partition disagrees with the reference table: "
                "block %s spreads over %s" % (sorted(map(repr, block)), sorted(homes))
            )
        blocks.append((homes.pop(), frozenset(block)))
    numbers = [num for num, _ in blocks]
    if len(numbers) != len(expected):
        split = sorted({num for num in numbers if numbers.count(num) > 1})
        raise PartitionTooFine("components %s are split in the sampled graph" % split)
    return ComponentPartition(dict(sorted(blocks)), graph)


def compute_figure1(samples=8, seed=42):
    """The component partition, doubling the sample count on near misses.

    Equal arguments, however passed, give the same cached partition.
    """
    return _figure1(samples, seed)


@lru_cache(maxsize=4)  # a few (samples, seed) pairs
def _figure1(samples, seed):
    while True:
        graph = build_overlap_graph(samples, seed)
        try:
            return connected_components(graph)
        except PartitionTooFine:
            if samples >= 64:
                raise
            samples *= 2


def _magnitudes(first, used=()):
    """Magnitudes of a test point: ``first``, then the next unused primes."""
    yield tuple(first)
    fresh = [p for p in deodhar.PRIMES if p not in set(first) | set(used)]
    for end in range(len(first), len(fresh) + 1, len(first)):
        yield tuple(fresh[end - len(first):end])
    raise RuntimeError("prime magnitude pool exhausted")


# ---------------------------------------------------------------------------
# the bijection
# ---------------------------------------------------------------------------


def _epsilon_signs(signs, magnitudes):
    """Signs of epsilon at the upper point with these signs and magnitudes."""
    params = tuple(
        (1 if ch == "+" else -1) * Fraction(mag)
        for ch, mag in zip(signs, magnitudes)
    )
    xel = rep.group_product(rep.x(i, t) for i, t in zip(WORD_I_TILDE, params))
    closed = chamber.closed_form_epsilon(params)
    fac = chamber.epsilon_factorize(xel, WORD_I_TILDE)
    if fac.params != closed:
        raise AssertionError("closed epsilon form drifted from the minors")
    return fac.signs()


# ---------------------------------------------------------------------------
# classification of the 140 Deodhar cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellRecord:
    cell: str        # display string
    family: str
    codim: int
    signs: str       # six upper parameter signs ('' for codim 0)
    letter: str      # '' for codim 0
    component: int


def _upper_signs(cell, t, m):
    """The six signs of alpha at the cell point (t, m) and their upper letter."""
    signs = chamber.alpha_factorize(deodhar.cell_point(cell, t, m), WORD_I_TILDE).signs()
    return signs, fixtures.UPPER_LETTER[signs]


def _classify_positive_codim(cell, bijection):
    fam = cell.family
    t_mags = fixtures.CLASSIFY_T_MAGNITUDES[len(fam.I)]
    t = tuple(s * Fraction(mag) for s, mag in zip(cell.h, t_mags))
    mags = _magnitudes(fixtures.CLASSIFY_M_MAGNITUDES[len(fam.K)], used=t_mags)
    signs, letter = chamber.redraw(
        lambda: _upper_signs(cell, t, tuple(map(Fraction, next(mags)))),
        "the test point of cell %s" % cell.display(),
    )
    return CellRecord(cell.display(), fam.name, fam.codim, signs, letter, bijection[letter])


def _all_cells_of_family(name):
    fam = deodhar.family_by_name(name)
    for h in itertools.product((1, -1), repeat=len(fam.I)):
        yield deodhar.CellId(fam, h)


@dataclass
class ClassificationReport:
    records: tuple                 # all 140 CellRecords
    per_component: dict            # number -> (n0, n1, n2, chi)

    def total_euler(self):
        return sum(v[3] for v in self.per_component.values())
