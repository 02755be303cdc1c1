"""Command line behavior: formats, determinism, exit codes."""

import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from g2cells import checks, cli, deodhar, fixtures
from g2cells.scalars import parse_rational

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_distinguished_rows(capsys):
    code, out = run_cli(["distinguished", "--word", "121212"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9  # header + 8 rows
    names = {line.split()[0] for line in lines[1:]}
    assert names == set(fixtures.DISTINGUISHED_I)


def test_distinguished_rejects_bad_word(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["distinguished", "--word", "131212"])
    assert exc.value.code == 2


def test_epsilon_output(capsys):
    code, out = run_cli(["epsilon", "--params", "1,2,3,5,7,11"], capsys)
    assert code == 0
    assert out.split()[0] == "1/11"
    code, out = run_cli(["epsilon", "--params", "0,0,0,0,0,0"], capsys)
    assert code == 0
    assert out.strip() == "not-factorizable"


def test_epsilon_rejects_wrong_parameter_count(capsys):
    code = cli.main(["epsilon", "--params", "1,2,3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "g2cells epsilon: error: --params gives 3 values for the 6 letters of --word"
    ]


def test_alpha_rejects_wrong_parameter_count(capsys):
    code = cli.main(["alpha", "--family", "x21x12", "--params", "1,2,3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "g2cells alpha: error: family x21x12 takes 4 parameters (t1,t2,m1,m2), got 3"
    ]


def test_usage_errors_exit_2_without_traceback(child_env):
    for argv in (
        ["cell-point", "--family", "x21x12", "--params", "1,2,3,5,7"],
        ["alpha", "--family", "nosuch", "--params", "1,2,3,5"],
        ["alpha", "--family", "x21x12", "--params", "0,2,3,5"],
        ["epsilon", "--params", "1,2,3,5,7,1/0"],
        ["epsilon", "--params", "1,2,3,5,7,11", "--word", "1212"],
        ["classify", "--signs", "0+*0+"],
        ["classify", "--signs", "0+0+**"],
        ["classify", "--signs", ""],
        ["graph", "--samples", "0"],
        ["distinguished", "--word", "1122"],
        ["epsilon", "--params", "1,2,3,5,7,11", "--out", "/nonexistent/dir/f"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "g2cells"] + argv,
            env=child_env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("g2cells %s: error: " % argv[0])


@pytest.mark.parametrize("command", ("cells", "verify"))
def test_closed_stdout_exits_1_without_traceback(child_env, command):
    # the read end is closed before the child starts, so its first write to
    # stdout meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "g2cells", command],
            env=child_env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


def test_malformed_values_name_the_token(capsys):
    for argv, token in (
        (["graph", "--samples", "abc"], "'abc'"),
        (["distinguished", "--word", "1a2"], "'1a2'"),
        (["epsilon", "--params", "1,2,3,5,7,11", "--word", "12a212"], "'12a212'"),
        (["cell-point", "--family", "x21x12", "--params", "1,x,3,5,7,11"], "'x'"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        message = captured.err.splitlines()[-1]
        assert message.startswith("g2cells %s: error: argument " % argv[0]), message
        assert token in message and not re.search(r"\b_\w", message), message


@pytest.mark.parametrize("token", ("1.5", "1e3", "2/3/4"))
def test_params_error_names_the_accepted_forms(token, capsys):
    # 1.5 and 1e3 are rationals too, so the message names the forms it reads
    with pytest.raises(SystemExit) as exc:
        cli.main(["epsilon", "--params", "1,2,3,5,7," + token])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "g2cells epsilon: error: argument --params: "
        "the parameter %r is not an integer or p/q" % token
    )


def test_epsilon_parses_fraction_strings(capsys):
    code, out = run_cli(["epsilon", "--params", "1/2,2,3,5,7,11/3"], capsys)
    assert code == 0
    assert len(out.split()) == 6


def test_alpha_output(capsys):
    code, out = run_cli(["alpha", "--family", "x21x12", "--params", "1,2,3,5"], capsys)
    assert code == 0
    assert out.split()[0] == "-1/5"


def test_cell_point_output(capsys):
    code, out = run_cli(
        ["cell-point", "--family", "x21x12", "--params", "1,2,3,5"], capsys
    )
    assert code == 0
    assert "chain-valid      True" in out


def test_cell_point_folds_its_chain_once(capsys, monkeypatch):
    calls = []
    fold = deodhar.factor_chain
    monkeypatch.setattr(deodhar, "factor_chain", lambda factors: calls.append(1) or fold(factors))
    code, out = run_cli(["cell-point", "--family", "x21x12", "--params", "1,2,3,5"], capsys)
    assert code == 0 and "chain-valid      True" in out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["epsilon", "--params", "-1,2,3,5,7,11"],
        ["alpha", "--family", "x21x12", "--params", "-1,2,3,5"],
        ["cell-point", "--family", "x21x12", "--params", "-1,2,3,5"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_leading_parameter(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0
    bound = argv[:-2] + ["--params=" + argv[-1]]
    assert run_cli(bound, capsys) == (0, out)
    expected = {
        "epsilon": "1/9 9/55 -6655/36 -2/1155 735/4 -2/385\n",
        "alpha": "-1/5 -5/2 -8/85 17/14 343/68 2/7\n",
    }
    if argv[0] in expected:
        assert out == expected[argv[0]]
    else:
        assert "cell             -00+**" in out and "chain-valid      True" in out


def test_readme_commands_parse():
    """Every command line in README's command block is accepted by the parser."""
    block = re.search(r"## Command line.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    commands = [line for line in block.splitlines() if line.startswith("g2cells ")]
    assert len(commands) >= 10
    parser = cli.build_parser()
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        assert parser.parse_args(argv).command == argv[0], line


@given(st.sampled_from(deodhar.families()), st.integers(0, 12))
def test_split_params_checks_the_arity(fam, count):
    params = tuple(range(1, count + 1))
    if count == 6 - len(fam.J):
        t, m = cli._split_params(fam, params)
        assert (len(t), len(m)) == (len(fam.I), len(fam.K))
    else:
        with pytest.raises(cli.UsageError):
            cli._split_params(fam, params)


@given(st.fractions())
def test_parse_rational_round_trip(q):
    assert parse_rational(str(q)) == q


def test_minors_output(capsys):
    code, out = run_cli(["minors"], capsys)
    assert code == 0
    assert "-e3    = b + d + f" in out
    assert "e3-e1  = a*b^3*c^2*d^3*e" in out


def test_euler_csv(capsys):
    code, out = run_cli(["euler", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["component", "codim0", "codim1", "codim2", "euler"]
    assert len(rows) == 12
    assert rows[11] == ["11", "12", "16", "6", "2"]


def test_bijection_text(capsys):
    code, out = run_cli(["bijection"], capsys)
    assert code == 0
    assert "I       10" in out and "J       9" in out


def test_classify_json_round_trip(capsys):
    code, out = run_cli(["classify", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 76
    by_cell = {row["cell"]: row for row in payload}
    assert by_cell["0+*0+*"]["component"] == 11
    assert by_cell["0+*0+*"]["signs"] == "---+++"
    assert set(payload[0]) == {"cell", "family", "signs", "letter", "component", "codim"}


def test_classify_single_cell(capsys):
    code, out = run_cli(["classify", "--signs", "+00+**"], capsys)
    assert code == 0
    assert "F" in out and "6" in out


def test_graph_deterministic(capsys):
    code1, out1 = run_cli(["graph", "--format", "json"], capsys)
    code2, out2 = run_cli(["graph", "--format", "json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert len(payload) == 22  # 11 components x 2 word columns


def test_out_file(tmp_path, capsys):
    target = tmp_path / "euler.csv"
    code, out = run_cli(["euler", "--format", "csv", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("component,")


def test_console_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "g2cells", "minors"],
        env=child_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "b + d + f" in proc.stdout


#: SHA-256 of the stdout of each command at its default arguments
DEFAULT_STDOUT_SHA256 = {
    "graph": "cf14ddd66f56d6a3e3e88b9411dc7d4c0659becdf592d7fdf388cda16772744c",
    "bijection": "af4d44a9d67563ed132ce61fb7efb640c41509d158ba1dd2c0e7584cc18ebd0b",
    "classify": "189cd72507ee514314be26e548cb582e75af9aff977645234e3ad8a7cf5ebab3",
    "euler": "bcbd35bc97bb7e62fc573a655889acc4c7c250c4f636ad6f94d51b294e78aa2c",
    "minors": "3f0dde81b52c9fd89e56b9e8c164520dca1e3e4a0036c994faf7e4b00b2fda3f",
    "cells": "2513a2bd3b9fb653a8a947dc6b0edb87861f7dacd737ae6040dcf137d9ec50c6",
    "distinguished": "0e71b00fc477a12e0b042d330eced9f92bcd67d39bd00d4dd41fbfa9c7d74806",
    "verify": "8e673a515ed71b5be1d39094445d391f7a813ce13223b56671a01cdb917b1011",
}


@pytest.mark.parametrize(
    "command, digest", DEFAULT_STDOUT_SHA256.items(), ids=list(DEFAULT_STDOUT_SHA256)
)
def test_default_outputs_are_pinned(command, digest, capsys):
    code, out = run_cli([command], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_passes_without_assert_statements(child_env):
    """Under ``python -O``, which strips ``assert``, ``verify`` still passes
    every check and prints the pinned report."""
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "g2cells", "verify"],
        env=child_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEFAULT_STDOUT_SHA256["verify"]


#: what ``verify`` reports for two fake checks, one failing
FAKE_CHECKS = (
    checks.CheckResult(1, "first", True, ""),
    checks.CheckResult(2, "second", False, "went wrong"),
)
FAKE_LINES = ["[PASS] 1. first", "[FAIL] 2. second\n       went wrong"]
FAKE_REPORT = "\n".join(FAKE_LINES + ["verified 1/2 checks"]) + "\n"


@pytest.fixture
def fake_checks(monkeypatch, capsys):
    """Swap in two fake checks; returns what was written as each one ended."""
    seen = []

    def run_all(progress):
        for result in FAKE_CHECKS:
            progress(result)
            seen.append(capsys.readouterr())
        return list(FAKE_CHECKS)

    monkeypatch.setattr(checks, "run_all", run_all)
    return seen


def test_verify_text_streams_each_line_once(fake_checks, capsys):
    code = cli.main(["verify"])
    last = capsys.readouterr()
    assert code == 1
    assert [c.out for c in fake_checks] == [line + "\n" for line in FAKE_LINES]
    assert "".join(c.out for c in fake_checks) + last.out == FAKE_REPORT
    assert [c.err for c in fake_checks] + [last.err] == ["", "", ""]


@pytest.mark.parametrize("fmt", ("json", "csv"))
def test_verify_tables_keep_progress_on_stderr(fake_checks, capsys, fmt):
    code = cli.main(["verify", "--format", fmt])
    last = capsys.readouterr()
    assert code == 1
    assert [c.err for c in fake_checks] == [line + "\n" for line in FAKE_LINES]
    assert last.err == "verified 1/2 checks\n"
    assert [c.out for c in fake_checks] == ["", ""]
    if fmt == "json":
        assert [row["passed"] for row in json.loads(last.out)] == [True, False]
    else:
        assert last.out.splitlines()[0] == "number,name,passed,detail"


def test_verify_out_file_keeps_progress_on_stderr(fake_checks, capsys, tmp_path):
    target = tmp_path / "report.txt"
    code = cli.main(["verify", "--out", str(target)])
    last = capsys.readouterr()
    assert code == 1
    assert "".join(c.err for c in fake_checks) + last.err == FAKE_REPORT
    assert "".join(c.out for c in fake_checks) + last.out == ""
    assert target.read_text() == FAKE_REPORT
