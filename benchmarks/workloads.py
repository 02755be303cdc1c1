"""The three benchmark workloads: streams of small requests, each with an exact gate.

A request is one sample point of a pipeline stage, the unit the
package's own checks loop over.  Requests go round a fixed cycle (the
128 sign cells, or the eight cell families), so every run holds the
same mix of kinds whatever its length; the seed only draws the
parameters.  Each request raises when its result disagrees with the
reference tables in ``fixtures`` or with an independent computation.

* ``graph``: one overlap-graph sample, as ``build_overlap_graph`` draws
  it: a lower point of one sign cell, its alpha factorization along the
  other word, the dense upper product and its epsilon factorization.
  The mate sign cell must lie in the same component of Figure 1 as the
  sampled one.  This is about 80% of the ``figure1`` pipeline.
* ``roundtrip``: one point of check 4 (chamber consistency): closed
  forms against the minor factorizations, the flag identity and both
  inverse round trips, for the epsilon family and the seven alpha
  families.  No ``components`` work.
* ``chains``: one point of the Deodhar chain part of check 9: the cell
  point, its unipotence, its ``B+ w0 B+`` position and the chain of
  partial products, whose full 7x7 matrices are read.

``serve(kind, rng)`` draws and serves one request, redrawing
non-factorizable samples as the package's checks do, and returns a
summary of the verified result.  ``inputs`` gives the requests a run
serves, each with a seed of its own, so that a request can be served
again with exactly the same draws.
"""

from __future__ import annotations

import random

from g2cells import chamber, checks, components, deodhar, fixtures, rep
from g2cells.weyl import W, WORD_I_TILDE

#: redraws allowed per request, as in ``build_overlap_graph``
ATTEMPTS = 50
#: the caches of ``rep`` keyed by sample parameters
POINT_CACHES = ("_ATOM_CACHE", "_SPARSE_CACHE")


class GateError(AssertionError):
    """A request's result disagrees with the reference."""


def _gate(ok, message):
    if not ok:
        raise GateError(message)


def _figure1_components():
    out = {}
    for num, (icells, itcells) in fixtures.FIGURE1.items():
        out.update({("i", s): num for s in icells})
        out.update({("it", s): num for s in itcells})
    return out


def _redraw(draw):
    """Call ``draw`` until it stops raising NotFactorizable."""
    for _ in range(ATTEMPTS):
        try:
            return draw()
        except chamber.NotFactorizable:
            continue
    raise RuntimeError("no factorizable sample in %d draws" % ATTEMPTS)


class Graph:
    """Overlap-graph samples, cycling through the 128 sign cells."""

    def __init__(self):
        self.kinds = tuple(
            (word, other, signs)
            for word, other in (("i", "it"), ("it", "i"))
            for signs in components.ALL_SIGNS
        )
        self.component = _figure1_components()

    def serve(self, kind, rng):
        word, other, signs = kind

        def draw():
            point = components._lower_point(word, signs, rng)
            return components._refactor_signs(point, other)

        mate = _redraw(draw)
        _gate(
            self.component[(other, mate)] == self.component[(word, signs)],
            "sample of (%s, %s) meets (%s, %s) in another component" % (word, signs, other, mate),
        )
        return mate


class Roundtrip:
    """Chamber-consistency points: the epsilon family, then the seven alpha families."""

    def __init__(self):
        self.kinds = ("epsilon",) + tuple(fixtures.TABLE_ORDER)

    def serve(self, kind, rng):
        return _redraw(lambda: self._epsilon(rng) if kind == "epsilon" else self._alpha(kind, rng))

    @staticmethod
    def _epsilon(rng):
        params = tuple(rng.choice((1, -1)) * deodhar.sample_magnitude(rng) for _ in range(6))
        xel = rep.group_product(rep.x(i, t) for i, t in zip(WORD_I_TILDE, params))
        closed = chamber.closed_form_epsilon(params)
        fac = chamber.epsilon_factorize(xel, WORD_I_TILDE)
        _gate(fac.params == closed, "epsilon closed form drift at %s" % (params,))
        yel = fac.product()
        _gate(chamber.flag_equal_opposed(xel, yel), "flag identity (epsilon) at %s" % (params,))
        back = chamber.alpha_factorize(yel, WORD_I_TILDE)
        _gate(back.product() == xel, "alpha then epsilon round trip at %s" % (params,))
        return fac.params

    @staticmethod
    def _alpha(name, rng):
        cell, t, m = checks._random_family_point(deodhar.family_by_name(name), rng)
        point = deodhar.cell_point(cell, t, m)
        closed = chamber.closed_form_alpha(name, t, m)
        fac = chamber.alpha_factorize(point, WORD_I_TILDE)
        _gate(fac.params == closed, "alpha closed form drift on %s at %s %s" % (name, t, m))
        xel = fac.product()
        _gate(chamber.flag_equal_opposed(xel, point), "flag identity (alpha) on %s" % name)
        back = chamber.epsilon_factorize(xel, WORD_I_TILDE)
        _gate(back.product() == point, "epsilon then alpha round trip on %s" % name)
        return fac.params


class Chains:
    """Deodhar chain points, cycling through the eight cell families."""

    def __init__(self):
        self.kinds = deodhar.families()

    def serve(self, fam, rng):
        cell, t, m = checks._random_family_point(fam, rng)
        point = deodhar.cell_point(cell, t, m)
        _gate(rep.is_unipotent_lower(point), "cell point of %s is not unipotent lower" % (cell,))
        _gate(deodhar.bruhat_position_plus(point) is W.w0, "cell point of %s is not in B+ w0 B+" % (cell,))
        _gate(deodhar.verify_cell_chain(cell, t, m), "chain of %s at %s %s fails" % (cell, t, m))
        return point.m7


WORKLOADS = {"graph": Graph, "roundtrip": Roundtrip, "chains": Chains}


def clear_point_caches():
    """Empty the atom caches of ``rep``, which are keyed by sample parameters.

    Served again, a request would otherwise find its atoms cached, and
    its cost would depend on what was served before it.
    """
    for name in POINT_CACHES:
        getattr(rep, name, {}).clear()


def inputs(workload, seed, n):
    """The first ``n`` inputs of a workload's stream: (kind, seed of the request's RNG).

    The kinds go round their cycle; each request draws its parameters
    from an RNG of its own, so serving an input again repeats exactly
    the same computation.
    """
    rng = random.Random(seed)
    return [(workload.kinds[j % len(workload.kinds)], rng.getrandbits(64)) for j in range(n)]
