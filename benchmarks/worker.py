"""One measurement of the g2cells benchmark, in a fresh interpreter.

    python3 benchmarks/worker.py setup --reps N
    python3 benchmarks/worker.py run   --workload NAME --seed N --seconds S
    python3 benchmarks/worker.py trace --workload NAME --seed N --seconds S

* ``setup`` imports ``g2cells`` and builds the representations N + 1
  times, dropping the package modules in between, and times each.  The
  first import also loads the standard library and may compile
  bytecode, so ``run.py`` drops it.  It also times a fresh
  ``WeylGroup()``.
* ``run`` serves the workload's ``PASS_REQUESTS`` inputs once to warm
  up, then pass after pass for S seconds, timing every request.
* ``trace`` serves one warm-up pass, then plain and ``tracing.Tracer``
  passes in turn for S seconds, then one ``tracing.FractionCounter``
  pass.  Every pass serves the same inputs, so its counts repeat.

Every request starts with the atom caches empty
(``workloads.clear_point_caches``).  The last line of stdout is one
JSON object.  A request that fails its gate is counted and reported,
never dropped; the worker exits non-zero only when it cannot measure at
all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import random
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: requests in one pass, per workload: whole cycles of its kinds, about 2 s
PASS_REQUESTS = {"graph": 128, "roundtrip": 64, "chains": 128}
#: failed requests whose error text is reported
ERRORS_SHOWN = 5
#: rounds of the integer part of the reference loop
REFERENCE_ROUNDS = 20
#: timings of the reference loop of which ``reference`` keeps the best
REFERENCE_REPEATS = 3


def reference():
    """Seconds taken by a fixed loop of exact rational sums, about 0.5 ms
    on a 2-vCPU Intel Xeon host when it runs fast.

    It runs between measurements, so that a time can be given relative
    to the speed of the host at that moment; the best of a few timings
    keeps a single preempted one out.  Most of it works in plain
    integers and a quarter in ``Fraction``: a slow phase of the host
    slows the package's requests more than the first and less than the
    second.  It uses nothing of the package, so no change to the package
    moves it.
    """
    best = math.inf
    for _ in range(REFERENCE_REPEATS):
        start = perf_counter()
        for _ in range(REFERENCE_ROUNDS):
            num, den = 0, 1
            for i in range(1, 40):
                a, b = 3 * i + 1, (i + 7) * (i + 1)
                num, den = num * b + a * den, den * b
                g = math.gcd(num, den)
                num //= g
                den //= g
        total = Fraction(0)
        for i in range(1, 20):
            total += Fraction(3 * i + 1, i + 7) * Fraction(i, i + 1)
        best = min(best, perf_counter() - start)
    return best


def setup(reps):
    """Times of ``import g2cells`` plus ``build_representations()``, each with
    the mean time of the reference loop just before and just after it."""
    setup_s, build_s, tables_s, around = [], [], [], []
    before = reference()
    for _ in range(reps + 1):
        for name in [m for m in sys.modules if m == "g2cells" or m.startswith("g2cells.")]:
            del sys.modules[name]
        gc.collect()
        start = perf_counter()
        import g2cells  # noqa: F401  (the import is what is timed)
        from g2cells import rep, weyl

        imported = perf_counter()
        rep.build_representations()
        built = perf_counter()
        weyl.WeylGroup()
        setup_s.append(built - start)
        build_s.append(built - imported)
        tables_s.append(perf_counter() - built)
        after = reference()
        around.append((before + after) / 2)
        before = after
    return {"setup_s": setup_s, "build_s": build_s, "tables_s": tables_s, "around": around}


class Server:
    """Serves one workload's requests in passes and keeps the tally of failures."""

    def __init__(self, name, seed):
        import workloads

        self.workloads = workloads
        self.workload = workloads.WORKLOADS[name]()
        self.inputs = workloads.inputs(self.workload, seed, PASS_REQUESTS[name])
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.last_reference = reference()

    def serve(self, kind, request_seed):
        """Seconds taken, the mean time of the reference loop just before and
        just after, and the verified result (None on failure)."""
        self.workloads.clear_point_caches()
        rng = random.Random(request_seed)
        self.attempted += 1
        start = perf_counter()
        try:
            result = self.workload.serve(kind, rng)
        except Exception as exc:  # a failed request is counted, never dropped
            self.failed += 1
            if len(self.errors) < ERRORS_SHOWN:
                self.errors.append("%r: %s: %s" % (kind, type(exc).__name__, exc))
            result = None
        took = perf_counter() - start
        before, self.last_reference = self.last_reference, reference()
        return took, (before + self.last_reference) / 2, result

    def one_pass(self, recorder=None, after=None):
        """Serve every input once: per-request seconds, the reference loop's
        time around each, and a digest of the results."""
        digest = hashlib.sha256()
        seconds, around = [], []
        with recorder or contextlib.nullcontext():
            for kind, request_seed in self.inputs:
                took, reference_s, result = self.serve(kind, request_seed)
                seconds.append(took)
                around.append(reference_s)
                digest.update(repr(result).encode())
                if after is not None:
                    after()
        return seconds, around, digest.hexdigest()

    def tally(self):
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}


def run(server, seconds):
    """Per-request times of every timed pass, and the digests of all passes."""
    *_, digest = server.one_pass()  # warm-up: fills the tables that every request shares
    digests, passes, around = {digest}, [], []
    start = perf_counter()
    while len(passes) < 2 or perf_counter() - start < seconds:
        took, reference_s, digest = server.one_pass()
        passes.append(took)
        around.append(reference_s)
        digests.add(digest)
    out = server.tally()
    out.update(
        passes=passes,
        around=around,
        elapsed_s=perf_counter() - start,
        digests=sorted(digests),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return out


def trace(server, seconds):
    """Plain and traced passes in turn, then one pass counting ``Fraction`` calls."""
    import tracing

    *_, digest = server.one_pass()  # warm-up
    digests, plain, spans, layers = {digest}, [], [], []
    start = perf_counter()
    while not spans or perf_counter() - start < seconds:
        took, _, digest = server.one_pass()
        plain.append(sum(took))
        digests.add(digest)
        tracer, entries = tracing.Tracer(), []
        took, _, digest = server.one_pass(tracer, lambda: entries.append(tracing.atom_cache_entries()))
        spans.append(sum(took))
        digests.add(digest)
        summary = tracer.summary()
        summary["rep.atom_cache_entries"] = sum(entries)
        layers.append(summary)
    counter = tracing.FractionCounter()
    took, _, digest = server.one_pass(counter)
    digests.add(digest)
    out = server.tally()
    out.update(
        requests_per_pass=len(server.inputs),
        plain_s=plain,
        spans_s=spans,
        counts_s=sum(took),
        layers=layers,
        fractions=counter.counts,
        digests=sorted(digests),
        units=dict(tracing.span_metric_units()),
    )
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        out = setup(args.reps)
    else:
        import g2cells  # noqa: F401
        from g2cells import rep

        rep.build_representations()
        server = Server(args.workload, args.seed)
        if args.mode == "run":
            out = run(server, args.seconds)
        else:
            out = trace(server, args.seconds)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
