"""Connected components of the intersection of the opposed big cells.

The intersection is covered, up to codimension >= 2, by the two open
subsets swept out by the sign cells of the lower factorizations along
the words 121212 and 212121.  Components are therefore recovered by
sampling points in each sign cell, re-factorizing along the other word
and recording which sign cells overlap (``build_overlap_graph``).
Wherever only the signs of a factorization are read, they come from
``chamber.epsilon_signs``, ``chamber.alpha_signs`` or
``chamber.lower_signs``, which form no quotient.  A sample is one
table draw per parameter (``deodhar.sample_signed``), one element
of the six y atoms (``rep.word``) and one fold of that lower point,
through the one kernel of its word's shape: the signs of its
factorization along the other word are read off the fold's eight
lowest minors and three positive polynomials Q of them, with no upper
point built in between.
Only ``compute_figure1`` samples, so only it is cached, for a few
``(samples, seed)`` pairs, and its partition is the one way to every
stage above the graph.  Kept on the partition, this module computes

* the upper map, sending each of the 64 upper sign cells along 212121
  to the component that epsilon sends its random points to,
* the letter-to-number bijection, read off the upper map, and
* the classification of all 140 Deodhar cells, looking the alpha signs
  at one fixed point of each cell up in the upper map.

A random draw outside the chart is redrawn (``chamber.redraw``); a
fixed point outside it is an error.  Every result is compared against
the reference tables in ``fixtures``; a mismatch is an error, never a
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
    "fixture_partition",
    "ALL_SIGNS",
]

WORDS = {"i": WORD_I, "it": WORD_I_TILDE}

#: random points per upper sign cell of ``ComponentPartition.upper``, drawn
#: from a stream of their own so that the graph's samples do not move
UPPER_DRAWS = 4

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


def _signed_params(signs, rng):
    """Six random parameters with the given signs."""
    return deodhar.sample_signed(rng, [1 if ch == "+" else -1 for ch in signs])


def _lower_point(word, signs, rng):
    """A random point of a lower sign cell: one ``rep.word`` of its six y
    atoms, as ``chamber.Factorization(..., "lower").product()`` builds it."""
    return rep.word("y", WORDS[word], _signed_params(signs, rng))


def _upper_mate(signs, rng):
    """Signs of epsilon at a random point of an upper sign cell along 212121."""
    point = rep.word("x", WORD_I_TILDE, _signed_params(signs, rng))
    return chamber.epsilon_signs(point, WORD_I_TILDE)


def _refactor_signs(point, word):
    """Signs of the lower factorization of the point along the given word,
    read off one fold of the point (``chamber.lower_signs``)."""
    return chamber.lower_signs(point, WORDS[word])


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
    def upper(self):
        """Upper sign string along 212121 -> the component epsilon sends it to."""
        rng = random.Random(self.graph.seed)
        out = {}
        for signs in ALL_SIGNS:
            what = "upper sign cell %s" % signs
            reached = set()
            for _ in range(UPPER_DRAWS):
                mate = chamber.redraw(lambda: _upper_mate(signs, rng), what)
                reached.add(self.component_of(SignVector("it", mate)))
            out[signs] = _sole(reached, what)
        return out

    @cached_property
    def bijection(self):
        """Letter -> the one component that all its upper sign cells reach."""
        out = {
            letter: _sole({self.upper[signs] for signs in cells}, "letter %s" % letter)
            for letter, cells in sorted(fixtures.UPPER_COMPONENTS.items())
        }
        if sorted(out.values()) != list(range(1, 12)):
            raise AssertionError("letter matching is not a bijection: %s" % out)
        return out

    def classify(self, cell):
        """The record of a cell; one of positive codimension is read off the
        alpha signs at its fixed point, looked up in the upper map."""
        fam = cell.family
        if fam.codim == 0:
            number = self.component_of(SignVector("i", cell.display()))
            return CellRecord(cell.display(), fam.name, 0, "", "", number)
        t_mags = fixtures.CLASSIFY_T_MAGNITUDES[len(fam.I)]
        t = tuple(s * Fraction(mag) for s, mag in zip(cell.h, t_mags))
        m = tuple(map(Fraction, fixtures.CLASSIFY_M_MAGNITUDES[len(fam.K)]))
        point = deodhar.cell_point(cell, t, m)
        try:
            signs = chamber.alpha_signs(point, WORD_I_TILDE)
        except chamber.NotFactorizable as exc:
            raise RuntimeError(
                "the fixed point of cell %s is not factorizable: %s" % (cell.display(), exc)
            ) from exc
        return CellRecord(
            cell.display(), fam.name, fam.codim, signs,
            fixtures.UPPER_LETTER[signs], self.upper[signs],
        )

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


def _sole(numbers, what):
    """The one number in ``numbers``, the components ``what`` reaches; more is an error."""
    if len(numbers) != 1:
        raise AssertionError("%s reaches components %s" % (what, sorted(numbers)))
    return next(iter(numbers))


def fixture_partition():
    """The reference partition of ``fixtures.FIGURE1``: number -> frozenset of SignVector."""
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
    expected = fixture_partition()
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
