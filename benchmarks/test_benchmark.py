"""Self-test of the benchmark, about three minutes on two cores:

    python3 -m pytest benchmarks -q

It shows that tracing restores everything it patches, that traced and
untraced passes verify identical results, that two traced runs give
identical counts, that every workload passes its gates at its default
seed and at another one, that every run prints exactly the metrics
``BENCHMARK.json`` declares, and that the benchmark fails without the
package sources.
"""

import fractions
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402  (needs the package sources on the path)

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def bench(workload, trace, seed=None, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), "--workload", workload,
           "--seconds", "0", "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fraction_internals():
    cls = fractions.Fraction
    cells = [c.cell_contents for op in (cls.__mul__, cls.__add__) for c in op.__closure__]
    return [vars(cls)["__new__"]] + cells


def test_tracers_restore_every_patched_attribute():
    originals = [vars(owner)[attr] for owner, attr, _ in tracing.PATCHES]
    with tracing.Tracer():
        patched = [vars(owner)[attr] for owner, attr, _ in tracing.PATCHES]
    assert not any(a is b for a, b in zip(patched, originals))
    assert all(a is b for a, b in zip(originals, [vars(o)[a] for o, a, _ in tracing.PATCHES]))

    before = fraction_internals()
    with tracing.FractionCounter() as counter:
        value = fractions.Fraction(1, 2) * fractions.Fraction(2, 3) + 1
    assert value == fractions.Fraction(4, 3)
    assert counter.counts["mul"] == 1 and counter.counts["add"] == 1
    assert counter.counts["new"] >= 3
    assert all(a is b for a, b in zip(before, fraction_internals()))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_at_another_seed_reports_the_end_to_end_metrics(workload):
    out = result(bench(workload, 0, seed=1))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_match_untraced_results_and_repeat_their_counts(workload):
    first, second = result(bench(workload, 1)), result(bench(workload, 1))
    # a run is correct only if its plain, traced and counting passes
    # verified the same results
    assert first["correct"] and second["correct"]
    declared = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert {name: m["unit"] for name, m in first["metrics"].items()} == declared
    for name, metric in first["metrics"].items():
        if metric["unit"] != "s":
            assert metric == second["metrics"][name], name


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in MANIFEST["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("chains", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
