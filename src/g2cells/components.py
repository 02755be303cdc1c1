"""Connected components of the intersection of the opposed big cells.

The intersection is covered, up to codimension >= 2, by the two open
subsets swept out by the sign cells of the lower factorizations along
the words 121212 and 212121.  Components are therefore recovered by
sampling points in each sign cell, re-factorizing along the other word
and recording which sign cells overlap (``build_overlap_graph``).

On top of the component graph this module recomputes

* the letter grouping of the upper-side sign cells (the mirror of the
  graph's 212121 columns),
* the letter-to-number bijection, found by pushing one test point per
  letter through the epsilon map, and
* the classification of all 140 Deodhar cells, sending a sample point
  of each cell through the alpha map and reading the six signs.

Every result is compared against the reference tables in ``fixtures``;
a mismatch is an error, never a silent renumbering.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    "upper_letter_groups",
    "match_plus_components",
    "classify_cell",
    "classification_tables",
    "euler_report",
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
    partners: dict  # node -> sorted tuple of partner sign strings observed

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
    lower = chamber.epsilon_factorize(upper.product(), WORDS[word])
    return fixtures.string_of_signs(lower.signs())


def build_overlap_graph(samples=8, seed=42):
    """Sample each of the 128 sign cells and join overlapping cells.

    For every cell of one word, points are re-factorized along the other
    word; the resulting sign cell meets the sampled one, giving an edge.
    Non-factorizable samples are redrawn, up to 50 attempts per cell.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    edges = set()
    partners = {}
    nodes = tuple(
        SignVector(word, signs) for word in ("i", "it") for signs in ALL_SIGNS
    )
    for word, other in (("i", "it"), ("it", "i")):
        for signs in ALL_SIGNS:
            node = SignVector(word, signs)
            seen = set()
            got = 0
            attempts = 0
            while got < samples:
                attempts += 1
                if attempts > 50:
                    raise RuntimeError(
                        "cell %r exhausted its resample budget" % (node,)
                    )
                point = _lower_point(word, signs, rng)
                try:
                    mate_signs = _refactor_signs(point, other)
                except chamber.NotFactorizable:
                    continue
                mate = SignVector(other, mate_signs)
                edges.add(frozenset((node, mate)))
                seen.add(mate_signs)
                got += 1
            partners[node] = tuple(sorted(seen))
    return OverlapGraph(samples, seed, nodes, edges, partners)


@dataclass
class ComponentPartition:
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
    """Partition the graph and number the blocks to match the fixture.

    Raises ``PartitionTooFine`` when every computed block sits inside a
    fixture block but some fixture block is split (more sampling can
    only merge blocks, so retrying is sound).  Any other mismatch is a
    hard error carrying a diff.
    """
    adj = graph.adjacency()
    blocks = []
    seen = set()
    for node in graph.nodes:
        if node in seen:
            continue
        stack = [node]
        comp = set()
        while stack:
            cur = stack.pop()
            if cur in comp:
                continue
            comp.add(cur)
            stack.extend(adj[cur] - comp)
        seen |= comp
        blocks.append(frozenset(comp))

    expected = _fixture_partition()
    by_membership = {}
    for block in blocks:
        homes = {num for num, members in expected.items() if block & members}
        if len(homes) != 1 or not block <= expected[min(homes)]:
            raise AssertionError(
                "component partition disagrees with the reference table: "
                "block %s spreads over %s" % (sorted(map(repr, block)), sorted(homes))
            )
        by_membership.setdefault(min(homes), []).append(block)
    for num, parts in by_membership.items():
        merged = frozenset().union(*parts)
        if merged != expected[num]:
            raise PartitionTooFine(
                "component %d is split into %d sampled blocks" % (num, len(parts))
            )
    if len(by_membership) != len(expected):
        raise AssertionError("missing components entirely")
    return ComponentPartition(
        {num: expected[num] for num in sorted(expected)}, graph
    )


@lru_cache(maxsize=None)
def compute_figure1(samples=8, seed=42):
    """The component partition, doubling the sample count on near misses."""
    while True:
        graph = build_overlap_graph(samples, seed)
        try:
            return connected_components(graph)
        except PartitionTooFine:
            if samples >= 64:
                raise
            samples *= 2


# ---------------------------------------------------------------------------
# upper-side letter components and the bijection
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def upper_letter_groups(samples=8, seed=42):
    """Letter grouping of the upper sign cells along the word 212121.

    By the symmetry between the two unipotent radicals, two upper cells
    are connected exactly when the corresponding lower cells are, so the
    grouping is the 212121 column of the component partition.  The
    result is asserted against the fixture before letters are assigned.
    """
    partition = compute_figure1(samples, seed)
    columns = {}
    for num, members in partition.components.items():
        columns[num] = frozenset(
            node.signs for node in members if node.word == "it"
        )
    groups = {}
    for letter, signs in fixtures.UPPER_COMPONENTS.items():
        target = frozenset(signs)
        matches = [num for num, col in columns.items() if col == target]
        if len(matches) != 1:
            raise AssertionError(
                "upper grouping for letter %s not recovered" % letter
            )
        groups[letter] = target
    return groups


def _letter_of_upper_signs(signs, samples=8, seed=42):
    for letter, group in upper_letter_groups(samples, seed).items():
        if signs in group:
            return letter
    raise KeyError(signs)


@lru_cache(maxsize=None)
def match_plus_components(samples=8, seed=42):
    """The bijection letter -> component number, found via epsilon.

    One representative sign pattern per letter is evaluated at the
    magnitudes (1, 2, 3, 5, 7, 11); the epsilon image is a lower sign
    cell along 212121 whose component number is read off the partition.
    """
    partition = compute_figure1(samples, seed)
    groups = upper_letter_groups(samples, seed)
    out = {}
    for letter in sorted(groups):
        rep_signs = fixtures.UPPER_COMPONENTS[letter][0]
        magnitudes = fixtures.UPPER_TEST_MAGNITUDES
        attempt = 0
        while True:
            attempt += 1
            params = tuple(
                (1 if ch == "+" else -1) * Fraction(mag)
                for ch, mag in zip(rep_signs, magnitudes)
            )
            xel = rep.group_product(
                rep.x(i, t) for i, t in zip(WORD_I_TILDE, params)
            )
            try:
                closed = chamber.closed_form_epsilon(params)
                fac = chamber.epsilon_factorize(xel, WORD_I_TILDE)
            except chamber.NotFactorizable:
                if attempt > 5:
                    raise
                magnitudes = _next_primes(magnitudes)
                continue
            if fac.params != closed:
                raise AssertionError("closed epsilon form drifted from the minors")
            image = SignVector("it", fixtures.string_of_signs(fac.signs()))
            out[letter] = partition.component_of(image)
            break
    if sorted(out.values()) != list(range(1, 12)):
        raise AssertionError("letter matching is not a bijection")
    return out


def _next_primes(magnitudes):
    pool = [p for p in deodhar.PRIMES if p > max(magnitudes)]
    if len(pool) < len(magnitudes):
        raise RuntimeError("prime magnitude pool exhausted")
    return tuple(pool[: len(magnitudes)])


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


def _classify_positive_codim(cell, samples=8, seed=42):
    fam = cell.family
    t_mags = fixtures.CLASSIFY_T_MAGNITUDES[len(fam.I)]
    m_mags = list(fixtures.CLASSIFY_M_MAGNITUDES[len(fam.K)])
    t = tuple(s * Fraction(mag) for s, mag in zip(cell.h, t_mags))
    used = set(t_mags) | set(m_mags)
    while True:
        point = deodhar.cell_point(cell, t, tuple(Fraction(m) for m in m_mags))
        try:
            fac = chamber.alpha_factorize(point, WORD_I_TILDE)
            break
        except chamber.NotFactorizable:
            # move the free coordinates to the next unused primes
            fresh = [p for p in deodhar.PRIMES if p not in used]
            if len(fresh) < len(m_mags):
                raise
            m_mags = fresh[: len(m_mags)]
            used |= set(m_mags)
    signs = fixtures.string_of_signs(fac.signs())
    letter = _letter_of_upper_signs(signs, samples, seed)
    number = match_plus_components(samples, seed)[letter]
    return CellRecord(cell.display(), fam.name, fam.codim, signs, letter, number)


def classify_cell(cell, samples=8, seed=42):
    """The component record of one Deodhar cell.

    Codimension-0 cells are located directly in the overlap graph; the
    others go through a sample point and the alpha factorization.
    """
    if isinstance(cell, str):
        cell = deodhar.cell_by_display(cell)
    if cell.codim == 0:
        partition = compute_figure1(samples, seed)
        number = partition.component_of(SignVector("i", cell.display()))
        return CellRecord(cell.display(), cell.family.name, 0, "", "", number)
    return _classify_positive_codim(cell, samples, seed)


def _all_cells_of_family(fam):
    for h in itertools.product((1, -1), repeat=len(fam.I)):
        yield deodhar.CellId(fam, h)


@lru_cache(maxsize=None)
def classification_tables(samples=8, seed=42):
    """Records for the 76 positive-codimension cells, grouped by family."""
    out = {}
    for name in fixtures.TABLE_ORDER:
        fam = deodhar.family_by_name(name)
        out[name] = tuple(
            classify_cell(cell, samples, seed) for cell in _all_cells_of_family(fam)
        )
    return out


@dataclass
class ClassificationReport:
    records: tuple                 # all 140 CellRecords
    per_component: dict            # number -> (n0, n1, n2, chi)

    def total_euler(self):
        return sum(v[3] for v in self.per_component.values())


@lru_cache(maxsize=None)
def euler_report(samples=8, seed=42):
    """Classify all 140 cells and tally Euler characteristics."""
    records = []
    fam0 = deodhar.family_by_name("xxxxxx")
    for cell in _all_cells_of_family(fam0):
        records.append(classify_cell(cell, samples, seed))
    for name in fixtures.TABLE_ORDER:
        records.extend(classification_tables(samples, seed)[name])
    counts = {num: [0, 0, 0] for num in range(1, 12)}
    for record in records:
        counts[record.component][record.codim] += 1
    totals = [0, 0, 0]
    for num in counts:
        for c in range(3):
            totals[c] += counts[num][c]
    if totals != [64, 64, 12]:
        raise AssertionError("codimension bookkeeping is off: %r" % (totals,))
    per_component = {
        num: (n0, n1, n2, n0 - n1 + n2)
        for num, (n0, n1, n2) in counts.items()
    }
    return ClassificationReport(tuple(records), per_component)
