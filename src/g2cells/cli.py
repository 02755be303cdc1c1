"""Command line front end with exact rational input and output.

Rational parameters are given as comma-separated ``p/q`` or integer
strings and are parsed losslessly.  Output is deterministic: identical
inputs and seed produce byte-identical output.  Data goes to stdout,
diagnostics to stderr; ``--out FILE`` redirects the data stream.  Bad
input ends the run with a one-line message on stderr and exit code 2,
and a reader that closes stdout early ends it with exit code 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import chamber, checks, components, deodhar, fixtures, minors, rep
from .scalars import parse_rational
from .weyl import W, WORD_I_TILDE, enumerate_distinguished


def _parse_word(text):
    try:
        word = tuple(int(ch) for ch in text.replace(",", ""))
    except ValueError:
        raise argparse.ArgumentTypeError("words use the letters 1 and 2, got %r" % text)
    if any(i not in (1, 2) for i in word):
        raise argparse.ArgumentTypeError("words use the letters 1 and 2")
    if not W.is_reduced(word):
        raise argparse.ArgumentTypeError("the word %s is not reduced" % text)
    return word


class UsageError(Exception):
    """Input that parses but does not fit the command."""


def _parse_w0_word(text):
    word = _parse_word(text)
    if len(word) != W.w0.length:
        raise argparse.ArgumentTypeError("the word must be a reduced word of w0: 121212 or 212121")
    return word


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be an integer, got %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _parse_params(text):
    params = []
    for piece in text.split(","):
        try:
            params.append(parse_rational(piece))
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError("a parameter has denominator 0")
        except ValueError:
            raise argparse.ArgumentTypeError("the parameter %r is not an integer or p/q" % piece)
    return tuple(params)


def _emit(args, text):
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError("cannot write --out %s: %s" % (args.out, exc.strerror))


def _tabular(args, header, rows):
    """Render rows as aligned text, json, or csv per --format."""
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps(payload, indent=1) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    widths = [
        max(len(str(h)), *(len(str(row[k])) for row in rows)) if rows else len(str(h))
        for k, h in enumerate(header)
    ]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _subexpression_row(sub):
    """The name, chain, index sets I, J, K, dim and codim of a subexpression."""
    return (
        sub.name,
        " ".join(sub.sigma_names()),
        ",".join(map(str, sub.I)) or "-",
        ",".join(map(str, sub.J)) or "-",
        ",".join(map(str, sub.K)) or "-",
        sub.dim,
        sub.codim,
    )


def cmd_distinguished(args):
    rows = [_subexpression_row(sub) for sub in enumerate_distinguished(args.word)]
    _emit(args, _tabular(args, ("name", "chain", "I", "J", "K", "dim", "codim"), rows))
    return 0


def cmd_cells(args):
    rows = [
        _subexpression_row(fam) + (",".join(fam.param_signature()),)
        for fam in deodhar.families()
    ]
    header = ("family", "chain", "I", "J", "K", "dim", "codim", "params")
    _emit(args, _tabular(args, header, rows))
    return 0


def _split_params(fam, params):
    roles = fam.layout.replace("0", "")
    if len(params) != len(roles):
        raise UsageError(
            "family %s takes %d parameters (%s), got %d"
            % (fam.name, len(roles), ",".join(fam.param_signature()), len(params))
        )
    return tuple(tuple(v for v, r in zip(params, roles) if r == role) for role in "tm")


def _cell_point(args):
    """The cell, its coordinates t and m, its factors and the point named by
    --family and --params."""
    try:
        fam = deodhar.family_by_name(args.family)
    except KeyError:
        raise UsageError(
            "unknown family %r (one of %s)"
            % (args.family, ", ".join(f.name for f in deodhar.families()))
        )
    t, m = _split_params(fam, args.params)
    if any(v == 0 for v in t):
        raise UsageError("the t parameters of family %s must be nonzero" % fam.name)
    cell = deodhar.CellId(fam, tuple(1 if v > 0 else -1 for v in t))
    factors = deodhar.cell_factors(cell, t, m)
    return cell, t, m, factors, rep.group_product(factors)


def cmd_cell_point(args):
    cell, t, m, factors, point = _cell_point(args)
    chain = deodhar.factor_chain(factors)
    lines = [
        "cell             %s" % cell.display(),
        "unipotent-lower  %s" % rep.is_unipotent_lower(point),
        "in-big-cell      %s" % (deodhar.bruhat_position_plus(point) is W.w0),
        "chain            %s" % " ".join(repr(w) for w in chain),
        "chain-valid      %s" % (chain == deodhar.expected_chain(cell)),
    ]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_minors(args):
    table = minors.symbolic_minors()
    lines = []
    for label in minors.LEVEL1_LABELS + minors.LEVEL2_LABELS:
        lines.append("%-6s = %s" % (label, table[label]))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_epsilon(args):
    if len(args.params) != len(args.word):
        raise UsageError(
            "--params gives %d values for the %d letters of --word"
            % (len(args.params), len(args.word))
        )
    try:
        xel = chamber.Factorization(args.word, args.params, "upper").product()
        values = chamber.epsilon_factorize(xel, args.word).params
    except chamber.NotFactorizable:
        _emit(args, "not-factorizable\n")
        return 0
    if tuple(args.word) == WORD_I_TILDE:
        checks.require(
            values == chamber.closed_form_epsilon(args.params),
            "epsilon minors disagree with the closed form at %s", args.params,
        )
    _emit(args, " ".join(str(v) for v in values) + "\n")
    return 0


def cmd_alpha(args):
    cell, t, m, _, point = _cell_point(args)
    fam = cell.family
    try:
        values = chamber.alpha_factorize(point, args.word).params
    except chamber.NotFactorizable:
        _emit(args, "not-factorizable\n")
        return 0
    if tuple(args.word) == WORD_I_TILDE and fam.codim > 0:
        checks.require(
            values == chamber.closed_form_alpha(fam.name, t, m),
            "alpha minors disagree with the closed form on %s at %s %s", fam.name, t, m,
        )
    _emit(args, " ".join(str(v) for v in values) + "\n")
    return 0


def cmd_graph(args):
    partition = components.compute_figure1(args.samples, args.seed)
    rows = []
    for num in sorted(partition.components):
        members = partition.components[num]
        for word in ("i", "it"):
            cells = sorted(n.signs for n in members if n.word == word)
            rows.append((num, "121212" if word == "i" else "212121", " ".join(cells)))
    _emit(args, _tabular(args, ("component", "word", "cells"), rows))
    return 0


def cmd_bijection(args):
    bij = components.compute_figure1(args.samples, args.seed).bijection
    rows = [(letter, number) for letter, number in sorted(bij.items())]
    _emit(args, _tabular(args, ("letter", "component"), rows))
    return 0


def cmd_classify(args):
    if args.signs is not None:
        try:
            cell = deodhar.cell_by_display(args.signs)
        except (KeyError, ValueError) as exc:
            raise UsageError("--signs %r: %s" % (args.signs, exc.args[0]))
        records = [components.compute_figure1(args.samples, args.seed).classify(cell)]
    else:
        tables = components.compute_figure1(args.samples, args.seed).classification_tables
        records = [r for name in fixtures.TABLE_ORDER for r in tables[name]]
    rows = [(r.cell, r.family, r.signs, r.letter, r.component, r.codim) for r in records]
    _emit(
        args,
        _tabular(args, ("cell", "family", "signs", "letter", "component", "codim"), rows),
    )
    return 0


def cmd_euler(args):
    report = components.compute_figure1(args.samples, args.seed).euler_report
    rows = [
        (num,) + report.per_component[num] for num in sorted(report.per_component)
    ]
    _emit(args, _tabular(args, ("component", "codim0", "codim1", "codim2", "euler"), rows))
    return 0


def cmd_verify(args):
    # a text report to stdout is written line by line as the checks end;
    # any other report is written at the end, after progress on stderr
    live = args.format == "text" and not args.out
    stream = sys.stdout if live else sys.stderr
    lines = []

    def report(line):
        print(line, file=stream, flush=True)
        lines.append(line)

    def progress(result):
        status = "PASS" if result.passed else "FAIL"
        line = "[%s] %d. %s" % (status, result.number, result.name)
        if not result.passed:
            line += "\n       %s" % result.detail
        report(line)

    results = checks.run_all(progress)
    ok = all(r.passed for r in results)
    report("verified %d/%d checks" % (sum(r.passed for r in results), len(results)))
    if args.format != "text":
        rows = [(r.number, r.name, r.passed, r.detail) for r in results]
        _emit(args, _tabular(args, ("number", "name", "passed", "detail"), rows))
    elif not live:
        _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="g2cells",
        description="Deodhar cells and connected components of the opposed "
        "big-cell intersection in the real G2 flag variety, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write output to a file instead of stdout")
        return p

    p = add("distinguished", cmd_distinguished, help="list distinguished subexpressions")
    p.add_argument("--word", type=_parse_word, default=(1, 2, 1, 2, 1, 2))
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = add("cells", cmd_cells, help="list the eight Deodhar cell families")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = add("cell-point", cmd_cell_point, help="evaluate and check one cell point")
    p.add_argument("--family", required=True)
    p.add_argument("--params", type=_parse_params, required=True,
                   help="comma-separated rationals in the family's signature order")

    add("minors", cmd_minors, help="print the twelve symbolic generalized minors")

    p = add("epsilon", cmd_epsilon, help="factorization parameters of the epsilon map")
    p.add_argument("--params", type=_parse_params, required=True,
                   help="six rationals a,b,c,d,e,f")
    p.add_argument("--word", type=_parse_w0_word, default=WORD_I_TILDE)

    p = add("alpha", cmd_alpha, help="factorization parameters of the alpha map")
    p.add_argument("--family", required=True)
    p.add_argument("--params", type=_parse_params, required=True)
    p.add_argument("--word", type=_parse_w0_word, default=WORD_I_TILDE)

    for name, fn, helptext in (
        ("graph", cmd_graph, "connected components of the 128 sign cells"),
        ("bijection", cmd_bijection, "match upper letter components to numbers"),
        ("classify", cmd_classify, "classify Deodhar cells into components"),
        ("euler", cmd_euler, "Euler characteristics per component"),
    ):
        p = add(name, fn, help=helptext)
        p.add_argument("--samples", type=_positive_int, default=8)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        if name == "classify":
            p.add_argument("--signs", help="classify a single cell display string")

    p = add("verify", cmd_verify, help="run every acceptance check")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    return parser


def _bind_params(argv):
    """Attach each ``--params`` value to its flag, as ``--params=VALUE``.

    argparse takes a separate value with a leading minus sign, such as
    ``-1,2,3,5``, for an option; bound to the flag it is read as a value.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--params" and not token.startswith("--"):
            out[-1] = "--params=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_bind_params(sys.argv[1:] if argv is None else argv))
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print("g2cells %s: error: %s" % (args.command, exc), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout is gone: drop what is left unwritten
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
