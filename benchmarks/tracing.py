"""Per-layer spans and counters, recorded from outside the g2cells package.

``Tracer`` replaces chosen functions and methods by thin wrappers that
time each call, and puts every original back on exit.  Names are
patched where callers look them up: ``chamber`` binds ``highest_row``,
``lowest_row`` and ``pair_row_with_weight`` at import, so those are
wrapped on ``chamber``; patching ``minors`` would miss every call.

``FractionCounter`` counts calls of ``Fraction._mul``, ``Fraction._add``
and ``Fraction.__new__``.  Its wrappers cost about as much as the
arithmetic they count, so it runs in a pass of its own and never
inside the timed spans.  The counts depend on the Python version,
because the internals of ``fractions`` do.
"""

from __future__ import annotations

import fractions
from time import perf_counter

import workloads
from g2cells import chamber, components, deodhar, linalg, rep

#: (owner, attribute, span name); one span name may cover several callables
PATCHES = (
    (rep.GroupElement, "__mul__", "rep.mul"),
    (rep.GroupElement, "__init__", "rep.fold"),
    (rep, "group_product", "rep.group_product"),
    (rep, "apply_covector", "rep.apply_covector"),
    (linalg, "mat_mul", "linalg.mat_mul"),
    (linalg, "bruhat_permutation_topleft", "linalg.bruhat"),
    (linalg, "bruhat_permutation_bottomleft", "linalg.bruhat"),
    (chamber, "highest_row", "minors.row"),
    (chamber, "lowest_row", "minors.row"),
    (chamber, "pair_row_with_weight", "minors.pair"),
    (chamber, "alpha_factorize", "chamber.alpha"),
    (chamber, "epsilon_factorize", "chamber.epsilon"),
    (chamber.Factorization, "product", "chamber.product"),
    (chamber, "closed_form_alpha", "chamber.closed_form"),
    (chamber, "closed_form_epsilon", "chamber.closed_form"),
    (chamber, "flag_equal_opposed", "chamber.flag_equal"),
    (deodhar, "cell_point", "deodhar.cell_point"),
    (deodhar, "bruhat_position_plus", "deodhar.bruhat_position"),
    (deodhar, "bruhat_position_mixed", "deodhar.bruhat_position"),
    (deodhar, "verify_cell_chain", "deodhar.verify_cell_chain"),
    (components, "_lower_point", "components.lower_point"),
    (components, "_refactor_signs", "components.refactor"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in PATCHES))

#: counters derived from the spans or read after each request, with their units
COUNTERS = (
    ("chamber.not_factorizable", "count"),
    ("chamber.yield", "ratio"),
    ("components.graph_yield", "ratio"),
    ("rep.atom_cache_entries", "count"),
)

FRACTION_OPS = ("mul", "add", "new")

# span record fields
_NAME, _START, _END, _PARENT, _CHILD_S, _OUTER, _RAISED = range(7)


def span_metric_units():
    """(name, unit) of every metric of a traced pass: ``Tracer.summary`` and
    ``rep.atom_cache_entries``, which the worker reads after each request."""
    out = []
    for name in SPAN_NAMES:
        out += [(name + ".calls", "count"), (name + ".total_s", "s"), (name + ".self_s", "s")]
    return out + list(COUNTERS)


def atom_cache_entries():
    """Entries in the atom caches of ``rep``."""
    return sum(len(getattr(rep, name, ())) for name in workloads.POINT_CACHES)


class Tracer:
    """Context manager that records one span per call of every patched name.

    A span is kept in memory as a list: name, start, end, index of the
    enclosing span (-1 at top level), seconds covered by its child
    spans, whether no span of the same name encloses it, and whether
    the call raised.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = {}
        self._saved = []

    def __enter__(self):
        for owner, attr, name in PATCHES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active

        def span(*args, **kwargs):
            parent = stack[-1] if stack else -1
            depth = active.get(name, 0)
            active[name] = depth + 1
            record = [name, 0.0, 0.0, parent, 0.0, depth == 0, True]
            stack.append(len(spans))
            spans.append(record)
            record[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                record[_RAISED] = False
                return result
            finally:
                record[_END] = end = perf_counter()
                stack.pop()
                active[name] = depth
                if parent >= 0:
                    spans[parent][_CHILD_S] += end - record[_START]

        return span

    def summary(self):
        """Per-name calls, total seconds and self seconds, plus the span counters.

        ``total_s`` sums the outermost spans of a name only, so a call
        nested in another of the same name is not counted twice.
        """
        calls = dict.fromkeys(SPAN_NAMES, 0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        own = dict.fromkeys(SPAN_NAMES, 0.0)
        raised = dict.fromkeys(SPAN_NAMES, 0)
        for record in self.spans:
            name = record[_NAME]
            duration = record[_END] - record[_START]
            calls[name] += 1
            own[name] += duration - record[_CHILD_S]
            if record[_OUTER]:
                total[name] += duration
            raised[name] += record[_RAISED]
        out = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = calls[name]
            out[name + ".total_s"] = total[name]
            out[name + ".self_s"] = own[name]
        attempted = calls["chamber.alpha"] + calls["chamber.epsilon"]
        failed = raised["chamber.alpha"] + raised["chamber.epsilon"]
        out["chamber.not_factorizable"] = failed
        out["chamber.yield"] = (attempted - failed) / attempted if attempted else 0.0
        # an overlap-graph sample is accepted when its refactorization returns
        drawn = calls["components.refactor"]
        out["components.graph_yield"] = (drawn - raised["components.refactor"]) / drawn if drawn else 0.0
        return out


class FractionCounter:
    """Context manager counting ``Fraction._mul``, ``_add`` and ``__new__`` calls.

    ``a * b`` and ``a + b`` reach ``_mul`` and ``_add`` through closures
    built when ``fractions`` is imported, so the closure cells are
    swapped, not the class attributes.
    """

    def __init__(self):
        self.counts = dict.fromkeys(FRACTION_OPS, 0)
        self._cells = []
        self._new = None

    def __enter__(self):
        cls = fractions.Fraction
        counts = self.counts
        for op, dunder in (("mul", "__mul__"), ("add", "__add__")):
            original = getattr(cls, "_" + op)
            cell = next(
                (c for c in getattr(cls, dunder).__closure__ or () if c.cell_contents is original),
                None,
            )
            if cell is None:
                raise RuntimeError("Fraction.%s does not call Fraction._%s on this Python" % (dunder, op))
            cell.cell_contents = self._counting(op, original)
            self._cells.append((cell, original))
        self._new = vars(cls)["__new__"]
        new = self._new.__func__

        def counting_new(klass, *args, **kwargs):
            counts["new"] += 1
            return new(klass, *args, **kwargs)

        cls.__new__ = staticmethod(counting_new)
        return self

    def _counting(self, op, fn):
        counts = self.counts

        def counting(a, b):
            counts[op] += 1
            return fn(a, b)

        return counting

    def __exit__(self, *exc_info):
        for cell, original in self._cells:
            cell.cell_contents = original
        self._cells.clear()
        if self._new is not None:
            fractions.Fraction.__new__ = self._new
            self._new = None
        return False
