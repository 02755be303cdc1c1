"""The g2cells benchmark: one workload, timed end to end or traced per layer.

    python3 benchmarks/run.py --workload graph --seed 42 --seconds 20 --trace 0

A workload is a fixed set of small requests drawn from the seed
(``workloads.py``), each one sample point of a pipeline stage with its
own exact gate.  The load is a closed loop from one process: one
client, no extra threads, the next request sent when the last one is
verified.  A pass serves every request of the set once, and a run
serves pass after pass, so every request is timed many times on
exactly the same input.

A run starts two fresh interpreters (``worker.py``), one after the
other: the first times the set-up, ``import g2cells`` plus
``rep.build_representations()``, ``SETUP_REPS`` times; the second
serves the workload.

On a shared two-vCPU Intel Xeon host, any CPU-bound loop runs at one
speed for a while, from under a second to minutes, then up to about 1.8
times slower, on either vCPU.  So the end-to-end times are given at
reference speed: each measured time is scaled by ``REFERENCE_S`` over
the time of a fixed reference loop (``worker.reference``) run just
before and just after it.  The loop uses nothing of the package, so a
change to the package moves the scaled time as it moves the measured
one.  The text lines give the measured times too.

* ``--trace 0`` prints the end-to-end metrics: ``latency_ms``, the mean
  over the set of each request's median over the passes; ``setup_s``,
  the median of the set-ups; and ``peak_rss_mib``.
* ``--trace 1`` runs untraced and traced passes in turn and prints the
  per-layer metrics, measured, not scaled: span times are medians over
  the traced passes, counts must agree exactly between all of them, and
  ``trace.overhead_s`` is the traced pass time minus the untraced one.

The last line of stdout is one JSON object; README.md lists every
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("graph", "roundtrip", "chains")
DEFAULT_SEEDS = {"graph": 42, "roundtrip": 90210, "chains": 777}
#: timed set-ups of a run, after one that is not counted
SETUP_REPS = 15
#: the reference loop's time on a 2-vCPU Intel Xeon host in its fast phases
REFERENCE_S = 0.0005
#: seconds a worker may take beyond the measured ones
WORKER_SLACK_S = 60


class WorkerError(RuntimeError):
    """A worker could not measure: the run has no result."""


def call_worker(args, timeout):
    cmd = [sys.executable, str(HERE / "worker.py")] + [str(a) for a in args]
    # a fixed hash seed makes set iteration, and so every count, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise WorkerError("worker %s exited %d: %s" % (args[0], proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values):
    """(percentile, value) of the highest percentile with ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name, values, unit):
    line = "%-28s median %.6g %s, n=%d" % (name, statistics.median(values), unit, len(values))
    found = tail(values)
    if found is None:
        return line + " (too few samples for a tail percentile)"
    return line + ", p%.4g %.6g %s" % (found[0], found[1], unit)


def at_reference_speed(seconds, reference_s):
    """Seconds scaled to a host on which the reference loop takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / reference_s


def end_to_end(out, setup):
    passes = out["passes"]
    scaled = [map(at_reference_speed, took, around) for took, around in zip(passes, out["around"])]
    # one request's times over the passes, scaled
    latency = [1000.0 * statistics.median(times) for times in zip(*scaled)]
    every = [1000.0 * t for took in passes for t in took]
    setup_s = list(map(at_reference_speed, setup["setup_s"][1:], setup["around"][1:]))
    metrics = {
        "latency_ms": (statistics.fmean(latency), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mib": (out["peak_rss_mib"], "MiB"),
    }
    print("%-28s %.6g ms at reference speed: mean over %d requests of each one's median over %d passes" % (
        "latency_ms", metrics["latency_ms"][0], len(latency), len(passes)))
    print(describe("measured, every request", every, "ms"))
    print("%-28s %.6g 1/s, %d requests in %.3f s" % (
        "throughput", len(every) / out["elapsed_s"], len(every), out["elapsed_s"]))
    print(describe("setup_s at reference speed", setup_s, "s"))
    print(describe("setup_s measured", setup["setup_s"][1:], "s"))
    print(describe("reference loop", [r for around in out["around"] for r in around], "s"))
    print("%-28s %.6g MiB" % ("peak_rss_mib", metrics["peak_rss_mib"][0]))
    return metrics


def per_layer(out, setup):
    """Span times are medians over the traced passes; counts must agree exactly."""
    metrics = {
        "weyl.tables_s": (statistics.median(setup["tables_s"][1:]), "s"),
        "rep.build_representations_s": (statistics.median(setup["build_s"][1:]), "s"),
    }
    for name, unit in out["units"].items():
        values = [layers[name] for layers in out["layers"]]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        elif len(set(values)) == 1:
            metrics[name] = (values[0], unit)
        else:
            raise WorkerError("%s differs between traced passes: %s" % (name, values))
    for op, n in out["fractions"].items():
        metrics["scalars.fraction_" + op] = (n, "count")
    plain, spans = statistics.median(out["plain_s"]), statistics.median(out["spans_s"])
    metrics["trace.overhead_s"] = (spans - plain, "s")
    print("%-28s %d requests; plain %.4f s, spans %.4f s (%+.1f%%), counts %.4f s; %d pass pairs" % (
        "traced pass", out["requests_per_pass"], plain, spans, 100.0 * (spans - plain) / plain,
        out["counts_s"], len(out["spans_s"]),
    ))
    for name, (value, unit) in metrics.items():
        print("%-40s %.6g %s" % (name, value, unit))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "g2cells" / "__init__.py").is_file():
        sys.exit("benchmark: no g2cells sources under %s" % (ROOT / "src"))
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    try:
        setup = call_worker(["setup", "--reps", SETUP_REPS], WORKER_SLACK_S)
        out = call_worker(
            ["trace" if args.trace else "run", "--workload", args.workload, "--seed", seed,
             "--seconds", args.seconds],
            args.seconds + WORKER_SLACK_S,
        )
        print("workload %s, seed %d, python %s, nproc %d, %s" % (
            args.workload, seed, platform.python_version(), len(os.sched_getaffinity(0)),
            platform.machine(),
        ))
        metrics = per_layer(out, setup) if args.trace else end_to_end(out, setup)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        sys.exit("benchmark: %s" % exc)

    for error in out["errors"]:
        print("failed request %s" % error)
    digests = out["digests"]
    if len(digests) > 1:
        print("passes over the same inputs verified different results: %s" % digests)
    print("%-28s %d/%d" % ("fail_ratio", out["failed"], out["attempted"]))
    print(json.dumps({
        "correct": out["failed"] == 0 and len(digests) == 1,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
