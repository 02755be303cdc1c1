"""The acceptance suite: every verification criterion in one place.

Each check returns quietly or raises ``CheckFailed`` (an
``AssertionError``) with a description of the mismatch.  Every
comparison goes through ``require``, an explicit raise, so running
under ``python -O`` still compares everything.  ``run_all`` collects
the outcomes, so the command line ``verify`` and the test suite share
one source of truth.  All arithmetic is exact; there are no
tolerances anywhere.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import chamber, components, deodhar, fixtures, linalg, minors, rep
from .weyl import G2_CARTAN, W, WORD_I, WORD_I_TILDE, enumerate_distinguished


#: points per family of check 4, fresh points per cell and chain points
#: per family of check 9
POINTS_PER_FAMILY, RESAMPLES, CHAIN_POINTS = 100, 10, 50


class CheckFailed(AssertionError):
    """A computed result disagrees with its reference."""


def require(ok, message, *args):
    """Raise ``CheckFailed`` with ``message % args`` unless ``ok``.

    The message is formatted only on failure.
    """
    if not ok:
        raise CheckFailed(message % args if args else message)


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str


def check_distinguished_subexpressions():
    """The eight subexpressions of 121212, with names and chains."""
    subs = enumerate_distinguished(WORD_I)
    got = {s.name: s.sigma_names() for s in subs}
    require(
        got == fixtures.DISTINGUISHED_I,
        "subexpression sets differ: %s",
        set(fixtures.DISTINGUISHED_I) ^ set(got) or got,
    )
    for s in subs:
        require(
            len(s.J) == len(s.K),
            "index sets of %s are inconsistent",
            s.name,
        )
    require(
        len(enumerate_distinguished(WORD_I_TILDE)) == 8,
        "the opposite word must also have 8 subexpressions",
    )


def check_representations():
    """Chevalley relations of E and F against the weights (h_i is diagonal
    in their pairings), Serre, braid and rank-1 factorization identities."""
    R = rep.build_representations()
    zero = linalg.mat_scale(R.h[1], 0)
    for i in (1, 2):
        for j in (1, 2):
            lhs = linalg.commutator(R.e[i], R.f[j])
            rhs = R.h[i] if i == j else zero
            require(lhs == rhs, "[e%d, f%d]", i, j)
            require(
                linalg.commutator(R.h[i], R.e[j])
                == linalg.mat_scale(R.e[j], G2_CARTAN[i - 1][j - 1]),
                "[h%d, e%d]", i, j,
            )
            require(
                linalg.commutator(R.h[i], R.f[j])
                == linalg.mat_scale(R.f[j], -G2_CARTAN[i - 1][j - 1]),
                "[h%d, f%d]", i, j,
            )
    for mats in (R.e, R.f):
        t = mats[2]
        for _ in range(4):
            t = linalg.commutator(mats[1], t)
        require(linalg.is_zero_matrix(t), "quartic Serre relation")
        t = mats[1]
        for _ in range(2):
            t = linalg.commutator(mats[2], t)
        require(linalg.is_zero_matrix(t), "quadratic Serre relation")
    w0a = rep.word("sdot", WORD_I)
    w0b = rep.word("sdot", WORD_I_TILDE)
    require(w0a == w0b, "braid identity for w0dot")
    rng = random.Random(2024)
    for _ in range(20):
        t, = deodhar.sample_signed(rng, (None,))
        for i in (1, 2):
            lhs = rep.x(i, t)
            rhs = rep.y(i, 1 / t) * rep.sdot(i) * rep.coweight(i, 1 / t) * rep.y(i, 1 / t)
            require(lhs == rhs, "rank-1 factorization identity at t=%s, i=%d", t, i)


def check_symbolic_minors():
    """The 12 minors of the symbolic sextuple product, verbatim."""
    got = minors.symbolic_minors()
    expected = fixtures.minor_polynomials()
    require(set(got) == set(expected), "minor labels differ: %s", set(got) ^ set(expected))
    for label in expected:
        require(
            got[label] == expected[label],
            "minor %s: %s != %s", label, got[label], expected[label],
        )


def _random_family_point(fam, rng):
    coords = deodhar.sample_signed(rng, (None,) * (len(fam.I) + len(fam.K)))
    t, m = coords[:len(fam.I)], coords[len(fam.I):]
    cell = deodhar.CellId(fam, tuple(1 if v > 0 else -1 for v in t))
    return cell, t, m


def _chamber_draw(kind, rng):
    """A random point of check 4: its coordinates, the point, the closed form
    and the factorization, for ``kind`` "epsilon" or an alpha family name."""
    if kind == "epsilon":
        coords = deodhar.sample_signed(rng, (None,) * 6)
        point = chamber.Factorization(WORD_I_TILDE, coords, "upper").product()
        closed = chamber.closed_form_epsilon(coords)
        return coords, point, closed, chamber.epsilon_factorize(point, WORD_I_TILDE)
    cell, t, m = _random_family_point(deodhar.family_by_name(kind), rng)
    point = deodhar.cell_point(cell, t, m)
    closed = chamber.closed_form_alpha(kind, t, m)
    return (t, m), point, closed, chamber.alpha_factorize(point, WORD_I_TILDE)


def check_chamber_consistency():
    """Theorem factorizations match closed forms and round-trip exactly."""
    rng = random.Random(90210)
    for kind in ("epsilon",) + fixtures.TABLE_ORDER:
        for _ in range(POINTS_PER_FAMILY):
            coords, point, closed, fac = chamber.redraw(
                lambda: _chamber_draw(kind, rng), "a point of %s" % kind
            )
            require(fac.params == closed, "closed form drift on %s at %s", kind, coords)
            image = fac.product()
            if kind == "epsilon":
                require(chamber.flag_equal_opposed(point, image), "flag identity (epsilon)")
                back = chamber.alpha_factorize(image, WORD_I_TILDE)
            else:
                require(chamber.flag_equal_opposed(image, point), "flag identity (alpha)")
                back = chamber.epsilon_factorize(image, WORD_I_TILDE)
            require(back.product() == point, "round trip on %s", kind)
    # total positivity: all-positive input gives all-positive output
    ones = tuple(Fraction(1) for _ in range(6))
    xel = chamber.Factorization(WORD_I_TILDE, ones, "upper").product()
    require(
        chamber.epsilon_signs(xel, WORD_I_TILDE) == "++++++",
        "epsilon of a totally positive point is not positive",
    )
    yel = chamber.Factorization(WORD_I_TILDE, ones, "lower").product()
    require(
        chamber.alpha_signs(yel, WORD_I_TILDE) == "++++++",
        "alpha of a totally positive point is not positive",
    )


def check_component_graph():
    """The 128-cell partition equals the reference figure exactly."""
    partition = components.compute_figure1()
    require(
        partition.sizes() == (2, 2, 2, 2, 16, 16, 16, 16, 16, 16, 24),
        "component sizes differ: %s",
        partition.sizes(),
    )
    require(
        partition.components == components.fixture_partition(),
        "component membership differs",
    )


def check_bijection():
    got = components.compute_figure1().bijection
    require(got == fixtures.BIJECTION, "bijection differs: %s", got)


def check_classification():
    """All seven family tables, including intermediate sign vectors."""
    tables = components.compute_figure1().classification_tables
    for name, rows in tables.items():
        got = {(r.cell, r.signs, r.letter, r.component) for r in rows}
        expected = {
            (cell, signs, letter, fixtures.BIJECTION[letter])
            for cell, signs, letter in fixtures.CLASSIFICATION_TABLES[name]
        }
        require(
            got == expected,
            "classification table %s differs: %s", name, got ^ expected,
        )


def check_euler():
    report = components.compute_figure1().euler_report
    for num in range(1, 12):
        require(
            report.per_component[num] == fixtures.EULER_TABLE[num],
            "component %d: %s", num, report.per_component[num],
        )
    require(report.total_euler() == 12, "total Euler characteristic %s", report.total_euler())
    # full per-cell grouping
    by_component = {num: ([], [], []) for num in range(1, 12)}
    for record in report.records:
        by_component[record.component][record.codim].append(record.cell)
    for num, groups in by_component.items():
        expected = fixtures.COMPONENT_CELLS[num]
        for c in range(3):
            require(
                set(groups[c]) == set(expected[c]),
                "component %d codim %d cells differ", num, c,
            )


def _random_upper_signs(cell, rng, zero_m):
    """The upper signs of alpha at a random point of the cell, m = 0 if ``zero_m``."""
    t = deodhar.sample_signed(rng, cell.h)
    if zero_m:
        m = tuple(Fraction(0) for _ in cell.family.K)
    else:
        m = deodhar.sample_signed(rng, (None,) * len(cell.family.K))
    return chamber.alpha_signs(deodhar.cell_point(cell, t, m), WORD_I_TILDE)


def check_property_suites():
    """Point independence, chain verification, and the counting remarks."""
    rng = random.Random(777)
    partition = components.compute_figure1()
    report = partition.euler_report
    # point independence of the classification: every cell keeps its
    # component at RESAMPLES fresh interior points (zero m at the first draw)
    for record in report.records:
        cell = deodhar.cell_by_display(record.cell)
        draws = itertools.count()
        for _ in range(RESAMPLES):
            signs = chamber.redraw(
                lambda: _random_upper_signs(cell, rng, zero_m=next(draws) == 0),
                "a point of cell %s" % record.cell,
            )
            require(
                partition.upper[signs] == record.component,
                "cell %s reclassified at upper signs %s", record.cell, signs,
            )
    # Deodhar chain invariants
    for fam in deodhar.families():
        for _ in range(CHAIN_POINTS):
            cell, t, m = _random_family_point(fam, rng)
            factors = deodhar.cell_factors(cell, t, m)
            point = rep.group_product(factors)
            require(rep.is_unipotent_lower(point), "cell point of %s is not unipotent lower", cell)
            require(
                deodhar.bruhat_position_plus(point) is W.w0,
                "cell point of %s is not in B+ w0 B+", cell,
            )
            require(
                deodhar.verify_factor_chain(cell, factors), "chain of %s at %s %s fails", cell, t, m
            )
    # counting remarks on the computed report
    pair_components = {frozenset((5, 6)), frozenset((7, 8)), frozenset((9, 10))}
    for fam in deodhar.families():
        comps = [r.component for r in report.records if r.family == fam.name]
        if fam.codim == 2:
            require(comps.count(11) == 2, "codim-2 family %s", fam.name)
            others = frozenset(c for c in comps if c != 11)
            require(others in pair_components, "codim-2 family %s pairs", fam.name)
        elif fam.codim == 1:
            for comp, n in [(comp, 2) for comp in range(5, 11)] + [(11, 4)]:
                require(
                    comps.count(comp) == n,
                    "component %d holds %d cells of %s", comp, comps.count(comp), fam.name,
                )
    require(all(r.codim <= 2 for r in report.records), "a cell has codimension above 2")


CHECKS = (
    (1, "distinguished subexpressions of 121212", check_distinguished_subexpressions),
    (2, "representation identities", check_representations),
    (3, "symbolic generalized minors", check_symbolic_minors),
    (4, "chamber ansatz consistency", check_chamber_consistency),
    (5, "component graph partition", check_component_graph),
    (6, "letter-to-component bijection", check_bijection),
    (7, "cell classification tables", check_classification),
    (8, "Euler characteristics", check_euler),
    (9, "property suites", check_property_suites),
)


def run_all(progress):
    """Run every acceptance criterion; returns a list of CheckResult.

    Each result is also passed to ``progress`` as soon as its check ends.
    """
    results = []
    for number, name, fn in CHECKS:
        try:
            fn()
            results.append(CheckResult(number, name, True, ""))
        except Exception as exc:  # report, never swallow silently
            results.append(CheckResult(number, name, False, str(exc)))
        progress(results[-1])
    return results
