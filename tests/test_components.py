"""Component graph, letter matching, classification, Euler numbers."""

import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest

from g2cells import chamber, components, deodhar, fixtures, rep
from g2cells.components import SignVector
from g2cells.weyl import OMEGA, WORD_I, WORD_I_TILDE

SAMPLES, SEED = 8, 42


@pytest.fixture(scope="module")
def partition():
    return components.compute_figure1(SAMPLES, SEED)


@pytest.fixture(scope="module")
def report(partition):
    return partition.euler_report


def _classify(partition, display):
    return partition.classify(deodhar.cell_by_display(display))


def test_partition_sizes(partition):
    assert partition.sizes() == (2, 2, 2, 2, 16, 16, 16, 16, 16, 16, 24)
    assert sum(partition.sizes()) == 128


def test_partition_matches_reference(partition):
    for num, (icells, itcells) in fixtures.FIGURE1.items():
        expected = {SignVector("i", s) for s in icells}
        expected |= {SignVector("it", s) for s in itcells}
        assert partition.components[num] == frozenset(expected), num


def test_expected_edges_present(partition):
    graph = partition.graph
    assert frozenset((SignVector("i", "++++++"), SignVector("it", "++++++"))) in graph.edges
    assert frozenset((SignVector("i", "+-+-+-"), SignVector("it", "-+-+-+"))) in graph.edges


#: SHA-256 of the sorted edge reprs of build_overlap_graph(8, 42), joined
#: by newlines; any change to the sample stream or to the arithmetic
#: behind a sample moves it
EDGES_SHA256 = "792a9a187823ed1d718ee98a125e6fb68deb8dd311507fe79906c70034020ec4"


def test_full_overlap_graph_is_pinned(partition):
    edges = sorted(repr(sorted(edge, key=repr)) for edge in partition.graph.edges)
    assert len(edges) == 261
    assert hashlib.sha256("\n".join(edges).encode()).hexdigest() == EDGES_SHA256


def test_overlap_samples_fold_no_matrix(partition, monkeypatch):
    def refuse(*args):
        raise AssertionError("a 7x7 matrix was folded")

    monkeypatch.setattr(rep.GroupElement, "rows", property(refuse))
    rng = random.Random(11)
    for word, other in (("i", "it"), ("it", "i")):
        for signs in ("++++++", "+-+-+-", "--+-++"):
            mate = chamber.redraw(
                lambda: components._refactor_signs(components._lower_point(word, signs, rng), other),
                "sign cell %s" % signs,
            )
            node, image = SignVector(word, signs), SignVector(other, mate)
            assert partition.component_of(image) == partition.component_of(node)


def test_edges_stay_inside_components(partition):
    for edge in partition.graph.edges:
        nums = {partition.component_of(n) for n in edge}
        assert len(nums) == 1


def test_overlap_is_symmetric_under_reseeding(partition):
    # a point of a 121212 cell that lands in a 212121 cell factors back
    # to the original sign vector
    rng = random.Random(4)
    for signs in ("++++++", "+-+-+-", "-++---"):
        params = tuple(
            (1 if ch == "+" else -1) * deodhar.sample_magnitude(rng)
            for ch in signs
        )
        y = rep.group_product(rep.y(i, t) for i, t in zip(WORD_I, params))
        x = chamber.alpha_factorize(y, WORD_I_TILDE)
        mate = chamber.epsilon_factorize(x.product(), WORD_I_TILDE)
        assert mate.product() == y
        back = chamber.epsilon_factorize(
            chamber.alpha_factorize(mate.product(), WORD_I).product(), WORD_I
        )
        assert back.signs() == signs


def test_upper_letter_groups_match_reference(partition):
    # the 212121 columns of the computed partition, one per letter
    columns = [
        frozenset(node.signs for node in members if node.word == "it")
        for members in partition.components.values()
    ]
    for letter, cells in fixtures.UPPER_COMPONENTS.items():
        assert columns.count(frozenset(cells)) == 1, letter


def test_bijection(partition):
    assert partition.bijection == fixtures.BIJECTION


def test_classification_tables_match_reference(partition):
    tables = partition.classification_tables
    for name, expected_rows in fixtures.CLASSIFICATION_TABLES.items():
        got = {(r.cell, r.signs, r.letter, r.component) for r in tables[name]}
        expected = {
            (cell, signs, letter, fixtures.BIJECTION[letter])
            for cell, signs, letter in expected_rows
        }
        assert got == expected, name


def test_spec_level_classification_examples(partition):
    r = _classify(partition, "0+*0+*")
    assert (r.signs, r.letter, r.component) == ("---+++", "K", 11)
    r = _classify(partition, "++0+*+")
    assert (r.signs, r.letter, r.component) == ("+-+++-", "H", 8)
    r = _classify(partition, "+00+**")
    assert (r.signs, r.letter, r.component) == ("-+++-+", "F", 6)


def test_codim0_classification_uses_graph(partition):
    record = _classify(partition, "++++++")
    assert record.component == 1 and record.codim == 0
    record = _classify(partition, "+-+-+-")
    assert record.component == 3
    record = _classify(partition, "-+-+-+")
    assert record.component == 4


def test_euler_report_counts(report):
    for num in range(1, 12):
        assert report.per_component[num] == fixtures.EULER_TABLE[num]
    assert report.total_euler() == 12
    assert len(report.records) == 140


def test_component_cell_grouping_matches_reference(report):
    by_component = {num: ([], [], []) for num in range(1, 12)}
    for record in report.records:
        by_component[record.component][record.codim].append(record.cell)
    for num, groups in by_component.items():
        for c in range(3):
            assert set(groups[c]) == set(fixtures.COMPONENT_CELLS[num][c]), (num, c)


def test_counting_remarks(report):
    pairs = {frozenset((5, 6)), frozenset((7, 8)), frozenset((9, 10))}
    for fam in deodhar.families():
        comps = [r.component for r in report.records if r.family == fam.name]
        if fam.codim == 2:
            assert len(comps) == 4
            assert comps.count(11) == 2
            assert frozenset(c for c in comps if c != 11) in pairs
        elif fam.codim == 1:
            assert len(comps) == 16
            for comp in range(5, 11):
                assert comps.count(comp) == 2
            assert comps.count(11) == 4


def test_classification_point_independent(partition):
    rng = random.Random(99)
    for display in ("0+*0-*", "-+0-*-", "+00-**", "---0+*"):
        cell = deodhar.cell_by_display(display)
        base = _classify(partition, display)
        done = 0
        while done < 6:
            t = tuple(s * deodhar.sample_magnitude(rng) for s in cell.h)
            m = tuple(
                rng.choice((0, 1, -1)) * deodhar.sample_magnitude(rng)
                for _ in cell.family.K
            )
            point = deodhar.cell_point(cell, t, m)
            try:
                fac = chamber.alpha_factorize(point, WORD_I_TILDE)
            except chamber.NotFactorizable:
                continue
            assert partition.upper[fac.signs()] == base.component
            done += 1


def test_fixture_internal_coherence():
    # the upper letter groups are exactly the 212121 columns of the figure
    for letter, number in fixtures.BIJECTION.items():
        column_of = {
            "A": 1, "B": 2, "C": 3, "D": 4, "E": 5, "F": 6,
            "G": 7, "H": 8, "I": 9, "J": 10, "K": 11,
        }
        assert set(fixtures.UPPER_COMPONENTS[letter]) == set(
            fixtures.FIGURE1[column_of[letter]][1]
        )
    # the component cell lists agree with the classification tables
    for name, rows in fixtures.CLASSIFICATION_TABLES.items():
        for cell, signs, letter in rows:
            num = fixtures.BIJECTION[letter]
            codim = cell.count("0")
            assert cell in fixtures.COMPONENT_CELLS[num][codim], (name, cell)
    # each codimension layer has the right total size
    totals = [0, 0, 0]
    for groups in fixtures.COMPONENT_CELLS.values():
        for c in range(3):
            totals[c] += len(groups[c])
    assert totals == [64, 64, 12]
    # Euler numbers are the alternating sums of the table that lists them
    for num, (n0, n1, n2, chi) in fixtures.EULER_TABLE.items():
        assert chi == n0 - n1 + n2
        assert (n0, n1, n2) == tuple(
            len(fixtures.COMPONENT_CELLS[num][c]) for c in range(3)
        )


def test_graph_input_validation():
    with pytest.raises(ValueError):
        components.build_overlap_graph(samples=0)


def _refuse_every_other_call(monkeypatch, name):
    """Patch ``chamber.<name>`` to raise NotFactorizable on its 1st, 3rd, ... call."""
    original = getattr(chamber, name)
    calls = []

    def flaky(*args):
        calls.append(args)
        if len(calls) % 2:
            raise chamber.NotFactorizable("refused by the test")
        return original(*args)

    monkeypatch.setattr(chamber, name, flaky)
    return calls


def test_upper_survives_refused_epsilon_draws(partition, monkeypatch):
    calls = _refuse_every_other_call(monkeypatch, "epsilon_signs")
    fresh = components.ComponentPartition(partition.components, partition.graph)
    assert fresh.upper == partition.upper
    assert len(calls) == 2 * 64 * components.UPPER_DRAWS


def test_upper_map_matches_the_letters(partition):
    assert sorted(partition.upper) == sorted(components.ALL_SIGNS)
    for signs in components.ALL_SIGNS:
        assert partition.upper[signs] == fixtures.BIJECTION[fixtures.UPPER_LETTER[signs]], signs


def test_bijection_rejects_a_wrong_letter_grouping(partition, monkeypatch):
    fresh = components.ComponentPartition(partition.components, partition.graph)
    reference = fixtures.UPPER_COMPONENTS
    e, f = reference["E"], reference["F"]
    swapped = dict(reference, E=(f[0],) + e[1:], F=(e[0],) + f[1:])
    monkeypatch.setattr(fixtures, "UPPER_COMPONENTS", swapped)
    with pytest.raises(AssertionError, match=r"letter E reaches components \[5, 6\]"):
        fresh.bijection
    merged = dict(reference, B=reference["A"])
    monkeypatch.setattr(fixtures, "UPPER_COMPONENTS", merged)
    with pytest.raises(AssertionError, match="not a bijection"):
        fresh.bijection


def test_refused_fixed_point_names_the_cell(partition, monkeypatch):
    def refuse(*args):
        raise chamber.NotFactorizable("the level-2 minor eps1+eps2 read by a_3 vanishes")

    monkeypatch.setattr(chamber, "alpha_signs", refuse)
    cell = deodhar.cell_by_display("0+*0+*")
    with pytest.raises(RuntimeError, match=r"cell 0\+\*0\+\* .*level-2 minor"):
        partition.classify(cell)


def test_compute_figure1_caches_one_partition_per_arguments():
    assert components.compute_figure1() is components.compute_figure1(SAMPLES, SEED)
    assert components.compute_figure1(samples=SAMPLES, seed=SEED) is components.compute_figure1()
    report = components.compute_figure1().euler_report
    assert report is components.compute_figure1(SAMPLES, SEED).euler_report


def test_compute_figure1_hands_out_read_only_tables():
    # the partition is shared by every later caller, so no reader may edit it
    partition = components.compute_figure1()
    with pytest.raises(AttributeError):
        components.compute_figure1().components.pop(1)
    with pytest.raises(AttributeError):
        components.compute_figure1().graph.edges.clear()
    report = partition.euler_report
    for table in (partition.upper, partition.bijection, partition.classification_tables,
                  report.per_component):
        with pytest.raises(TypeError):
            table[next(iter(table))] = None
    for record, field in ((partition, "components"), (partition.graph, "edges"),
                          (report, "per_component")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, {})
    assert components.compute_figure1().sizes() == (2, 2, 2, 2, 16, 16, 16, 16, 16, 16, 24)
    assert components.compute_figure1().euler_report.total_euler() == 12


@pytest.mark.parametrize("word, other", (("i", "it"), ("it", "i")))
def test_lowest_pairings_at_minus_omega_are_powers_of_den(word, other):
    """At every lower point a graph sample draws, the pairings of the other
    word at -omega_1 and -omega_2, P_0 and P_2 in some order, are den and
    den**2: positive, so their masks in ``chamber._LOWER_SIGNS`` never act."""
    target = components.WORDS[other]
    weights, *_ = chamber._ansatz_weights(target, True)
    levels = tuple(1 if weights[k] == -OMEGA[1] else 2 for k in (0, 2))
    # P_0 is -omega_1 along 212121 and -omega_2 along 121212
    assert levels == ((1, 2) if target == WORD_I_TILDE else (2, 1))
    rng = random.Random(SEED)
    for signs in components.ALL_SIGNS:
        y = components._lower_point(word, signs, rng)
        _, _, den, values = chamber._pairings(y, target, True)
        assert (values[0], values[2]) == (den ** levels[0], den ** levels[1]), signs


def test_figure1_doubles_the_samples_until_the_partition_closes(monkeypatch):
    built = []
    original = components.build_overlap_graph

    def recording(samples, seed):
        built.append(samples)
        return original(samples, seed)

    monkeypatch.setattr(components, "build_overlap_graph", recording)
    partition = components.compute_figure1(2, SEED)
    assert built == [2, 4]
    assert partition.graph.samples == 4
    assert partition.components == components.fixture_partition()


def test_figure1_gives_up_after_64_samples(monkeypatch):
    built = []

    def stub(samples, seed):
        built.append(samples)
        return components.OverlapGraph(samples, seed, (), set())

    def too_fine(graph):
        raise components.PartitionTooFine("split by the test")

    monkeypatch.setattr(components, "build_overlap_graph", stub)
    monkeypatch.setattr(components, "connected_components", too_fine)
    with pytest.raises(components.PartitionTooFine, match="split by the test"):
        components.compute_figure1(16, 1234)
    assert built == [16, 32, 64]


@pytest.mark.parametrize("seed", (0, 59, 1234))
def test_other_seeds_give_the_same_partition_and_euler_table(partition, report, seed):
    other = components.compute_figure1(SAMPLES, seed)
    assert other.sizes() == partition.sizes()
    assert other.bijection == partition.bijection
    assert other.euler_report.per_component == report.per_component


def test_components_cache_is_bounded():
    maxsize = components._figure1.cache_info().maxsize
    assert maxsize is not None and maxsize <= 8


def test_partition_gates_on_hand_made_graphs(partition):
    graph = partition.graph
    bare = components.OverlapGraph(graph.samples, graph.seed, graph.nodes, set())
    with pytest.raises(components.PartitionTooFine, match=r"\[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11\]"):
        components.connected_components(bare)
    across = frozenset((SignVector("i", "++++++"), SignVector("i", "+-+-+-")))  # 1 and 3
    crossed = components.OverlapGraph(
        graph.samples, graph.seed, graph.nodes, graph.edges | {across}
    )
    with pytest.raises(AssertionError, match="spreads over"):
        components.connected_components(crossed)


def test_one_graph_sample_builds_no_fraction(monkeypatch):
    # the six draws pick from the signed table, built by the first draw;
    # the mate's signs are read off the integral pairings of one fold
    deodhar.sample_magnitude(random.Random(0))
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(chamber, "Fraction", counting)
    monkeypatch.setattr(deodhar, "Fraction", counting)
    rng = random.Random(5)
    for word, other, signs in (("i", "it", "+-+--+"), ("it", "i", "-++-+-")):
        built.clear()
        point = components._lower_point(word, signs, rng)
        assert len(built) == 0
        components._refactor_signs(point, other)
        assert len(built) == 0


def test_one_graph_sample_builds_one_element_and_one_kernel_lookup_per_fold(monkeypatch):
    # the lower point is one rep.word of six y atoms, and its one fold looks
    # up one kernel, by the word's shape; the rows of wdot(w0) and the
    # wedges that the fold reads are warmed first by the same samples,
    # since they are folded once per process
    samples = (("i", "it", "+-+--+"), ("it", "i", "-++-+-"))
    for word, other, signs in samples:
        point = components._lower_point(word, signs, random.Random(5))
        components._refactor_signs(point, other)
    elements, lookups, folds = [], [], []
    init, kernel, fold = rep.GroupElement.__init__, rep._word_kernel, rep._fold_rows
    monkeypatch.setattr(rep.GroupElement, "__init__",
                        lambda self, word: elements.append(word) or init(self, word))
    monkeypatch.setattr(rep, "_word_kernel",
                        lambda shape, *key: lookups.append(shape) or kernel(shape, *key))
    monkeypatch.setattr(rep, "_fold_rows", lambda rows, atoms: folds.append(atoms) or fold(rows, atoms))
    rng = random.Random(5)
    for word, other, signs in samples:
        for log in (elements, lookups, folds):
            log.clear()
        components._refactor_signs(components._lower_point(word, signs, rng), other)
        assert len(elements) == 1
        assert len(folds) == 1
        assert lookups == [tuple(("y", i) for i in components.WORDS[word])]


def test_one_graph_sample_calls_its_q_once_and_constructs_no_fraction(monkeypatch):
    # the mate's signs evaluate the three Q's of the other word in one call,
    # and nothing in the sample constructs a Fraction: a first pass of the
    # same samples builds the draw table and compiles the kernels
    samples = (("i", "it", "+-+--+"), ("it", "i", "-++-+-"))

    def run(rng, word, other, signs):
        return components._refactor_signs(components._lower_point(word, signs, rng), other)

    warm = random.Random(5)
    for sample in samples:
        run(warm, *sample)
    calls, built = [], []
    for word, (q, flips) in list(chamber._LOWER_SIGNS.items()):
        counting_q = (lambda *P, q=q, word=word: calls.append(word) or q(*P))
        monkeypatch.setitem(chamber._LOWER_SIGNS, word, (counting_q, flips))
    new = vars(Fraction)["__new__"].__func__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(
        lambda cls, *args, **kwargs: built.append(args) or new(cls, *args, **kwargs)))
    rng = random.Random(5)
    for sample in samples:
        calls.clear()
        run(rng, *sample)
        assert calls == [components.WORDS[sample[1]]]
        assert built == []


def _signs_or_none(read):
    try:
        return read()
    except chamber.NotFactorizable:
        return None


@pytest.mark.parametrize("seed", (0, 42))
def test_sample_points_are_their_factorizations(seed):
    # the lower point and the upper mate's point are the products that
    # Factorization builds from the same draws, atom for atom
    fast, slow = random.Random(seed), random.Random(seed)

    def draws(signs):
        return tuple(deodhar.sample_magnitude(slow, 1 if ch == "+" else -1) for ch in signs)

    for word in ("i", "it"):
        for signs in components.ALL_SIGNS:
            point = components._lower_point(word, signs, fast)
            want = chamber.Factorization(components.WORDS[word], draws(signs), "lower").product()
            assert point.provenance == want.provenance
            assert fast.getstate() == slow.getstate()
    for signs in components.ALL_SIGNS:
        mate = _signs_or_none(lambda: components._upper_mate(signs, fast))
        point = chamber.Factorization(WORD_I_TILDE, draws(signs), "upper").product()
        assert mate == _signs_or_none(lambda: chamber.epsilon_signs(point, WORD_I_TILDE))
        assert fast.getstate() == slow.getstate()
