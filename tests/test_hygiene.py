"""Source-level guards on the package."""

import ast
import dataclasses
import io
import itertools
import re
import sys
import tokenize
from pathlib import Path

import pytest

from g2cells import chamber, deodhar, minors, rep
from g2cells.weyl import V7_WEIGHTS, WORD_I, Subexpression

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "g2cells").glob("*.py"))
#: the package modules that import, and the test modules
IMPORTERS = [p for p in SOURCES if p.name != "__init__.py"] + sorted(
    (ROOT / "tests").glob("*.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    """``python -O`` strips ``assert``, so no runtime check may use it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], "%s has assert statements at lines %s" % (path.name, lines)


def _imported_names(tree):
    """(name, line) of every name an import binds, outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported_names(tree):
    """The strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", IMPORTERS, ids=[p.name for p in IMPORTERS])
def test_no_unused_imports(path):
    """Every imported name is read, in the package and in its tests;
    ``__init__`` only re-exports, so it is left out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= _exported_names(tree)
    unused = [(name, line) for name, line in _imported_names(tree) if name not in read]
    assert unused == [], "%s imports names it never reads: %s" % (path.name, unused)


def _defined_names(tree):
    """(name, line) of every module-level def, class and assignment target."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node.lineno


def test_no_unread_module_names():
    """Every module-level name is read somewhere in the package or exported."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        (name, line, filename)
        for filename, tree in trees.items()
        for name, line in _defined_names(tree)
        if name not in read | _exported_names(tree)
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unread == [], "module-level names nothing reads: %s" % unread


#: the ``__all__`` of each package module that has one
LISTED = {p: names for p in SOURCES if (names := _exported_names(ast.parse(p.read_text())))}


@pytest.mark.parametrize("path", list(LISTED), ids=[p.name for p in LISTED])
def test_every_listed_name_is_defined(path):
    """A deleted function leaves no stale ``__all__`` entry behind."""
    tree = ast.parse(path.read_text(), filename=str(path))
    stale = sorted(LISTED[path] - {name for name, _ in _defined_names(tree)})
    assert stale == [], "%s lists names it does not define: %s" % (path.name, stale)


def test_the_package_reexports_only_listed_names():
    """Every name ``g2cells`` re-exports from a module with an ``__all__``
    is listed there."""
    init = ROOT / "src" / "g2cells" / "__init__.py"
    unlisted = []
    for node in ast.parse(init.read_text(), filename=str(init)).body:
        if isinstance(node, ast.ImportFrom):
            listed = LISTED.get(init.with_name(node.module + ".py"))
            if listed:
                unlisted += [(node.module, a.name) for a in node.names if a.name not in listed]
    assert unlisted == [], "re-exported names missing from __all__: %s" % unlisted


def test_benchmark_patches_resolve():
    """Every name the benchmark tracer wraps is still defined where it is patched."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    for owner, attr, span in tracing.PATCHES:
        assert callable(vars(owner).get(attr)), "%s: %r has no %s" % (span, owner, attr)


def test_no_private_reads_across_modules():
    """Outside ``self`` and ``cls``, no code reads a single-underscore attribute."""
    reads = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            ):
                reads.append((path.name, node.lineno, node.attr))
    assert reads == [], "private attributes read across modules: %s" % reads


def test_only_deodhar_reads_the_prime_pool():
    """No package module but ``deodhar`` reads ``PRIMES``: every random
    parameter is drawn by ``deodhar.sample_signed``, the one draw path."""
    reads = [
        (path.name, node.lineno)
        for path in SOURCES
        if path.name != "deodhar.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id == "PRIMES")
        or (isinstance(node, ast.Attribute) and node.attr == "PRIMES")
    ]
    assert reads == [], "the prime pool read outside deodhar: %s" % reads


def test_scalars_holds_the_only_quotient_class():
    """No package or test module but ``scalars`` defines a division: the
    closed forms and their identity tests share its one ``Quotient``."""
    dividers = [
        (path.relative_to(ROOT).as_posix(), node.lineno)
        for path in SOURCES + sorted((ROOT / "tests").glob("*.py"))
        if path.name != "scalars.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name in ("__truediv__", "__rtruediv__")
    ]
    assert dividers == [], "division defined outside scalars: %s" % dividers


#: the names through which only ``rep`` reads rows of an element: the
#: matrix, the slot that keeps it, its ``Fraction`` view and the fold
ROW_READERS = {"rows", "kept", "m7", "_fold_rows"}


def test_rows_of_an_element_are_read_only_through_apply_covector():
    """Outside ``rep``, the package reads rows of an element through
    ``rep.apply_covector`` alone: one row reader."""
    reads = []
    for path in SOURCES:
        if path.name == "rep.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ROW_READERS:
                reads.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.Name) and node.id == "_fold_rows":
                reads.append((path.name, node.lineno, node.id))
    assert reads == [], "rows of an element read outside rep: %s" % reads


def _calls_by_owner(tree, names):
    """(enclosing def, line) of every call of a builtin in ``names``; None
    stands for module level."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                    and child.func.id in names:
                found.append((owner, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(tree, None)
    return found


def test_only_the_kernel_compiler_runs_generated_source():
    """``exec``, ``eval`` and ``compile`` are called only by ``rep._word_kernel``."""
    calls = {
        (path.name, owner)
        for path in SOURCES
        for owner, _ in _calls_by_owner(
            ast.parse(path.read_text(), filename=str(path)), {"exec", "eval", "compile"}
        )
    }
    assert calls == {("rep.py", "_word_kernel")}


#: every name a kernel's source may spell: four keywords, its parameters,
#: the list it builds and its append, each atom's parameter t<j> with its
#: numerator p<j> and denominator q<j>, the monomials s<k> and the entries
#: u<j>_<c> of a caller's row, or u<j>_<c>_<k> of row k of a fixed block,
#: after j atoms
KERNEL_NAME = re.compile(
    r"def|for|in|return|kernel|rows|atoms|out|append|numerator|denominator"
    r"|[tpqs]\d+|u\d+_\d+(?:_\d+)?"
)
KERNEL_OPS = {"(", ")", "[", "]", ",", ":", "=", "*", "+", "-", "."}


@pytest.mark.parametrize("kind", ("x", "y", "coweight", "sdot", "sdot_inv"))
@pytest.mark.parametrize("letter", (1, 2))
def test_kernel_source_is_built_from_integer_tables(kind, letter):
    """A kernel's source, from the one builder, is integer literals and
    arithmetic on its rows and its parameters' numerators and denominators,
    and nothing else: for the one-atom word and for words of several
    atoms around it, folding caller rows, each fixed block the package
    folds and the pairings of the chamber minors."""
    atom = (kind, letter)
    readers = [minors.minor_reader(weights, lowest)
               for lowest in (False, True)
               for weights in (chamber._ansatz_weights(WORD_I, lowest)[0], V7_WEIGHTS[:1])]
    blocks = (None, rep.Block(rep.UNIT_ROWS), rep.Block(rep.UNIT_ROWS[:2]),
              rep.Block(minors.lowest_row(rep.group_identity())[0]), *readers)
    for shape, block in itertools.product(
            ((atom,), (atom, atom), (("y", 1), atom, ("sdot", 2), ("coweight", 1), atom)), blocks):
        source = rep._word_source(shape, block)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                assert KERNEL_NAME.fullmatch(tok.string), tok
            elif tok.type == tokenize.NUMBER:
                assert tok.string.isdigit(), tok
            elif tok.type == tokenize.OP:
                assert tok.string in KERNEL_OPS, tok
            else:
                assert tok.type in (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                                    tokenize.DEDENT, tokenize.ENDMARKER), tok


def _assert_kernel_tokens(source):
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert KERNEL_NAME.fullmatch(tok.string), tok
        elif tok.type == tokenize.NUMBER:
            assert tok.string.isdigit(), tok
        elif tok.type == tokenize.OP:
            assert tok.string in KERNEL_OPS, tok
        else:
            assert tok.type in (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                                tokenize.DEDENT, tokenize.ENDMARKER), tok


@pytest.mark.parametrize("fam", deodhar.families(), ids=lambda fam: fam.name)
def test_chain_kernel_source_is_built_from_integer_tables(fam):
    """The kernel that reads a cell point's rows after each factor, from the
    one builder, is made of the same tokens as every other kernel."""
    kinds, letters, ends, _ = deodhar._factor_atoms(fam.word, fam.layout)
    _assert_kernel_tokens(rep._word_source(tuple(zip(kinds, letters)), deodhar._TOP_ROWS, ends))


#: the index sets of a subexpression, each a read of its one layout
INDEX_SETS = {"I", "J", "K"}


def test_positions_are_read_off_the_one_layout():
    """No module asks whether a position is in I, J or K: every reader walks
    ``Subexpression.layout``, and a subexpression stores its chain alone."""
    tests = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn))
                and isinstance(right, ast.Attribute)
                and right.attr in INDEX_SETS
                for op, right in zip(node.ops, node.comparators)
            ):
                tests.append((path.name, node.lineno))
    assert tests == [], "membership tests on an index set: %s" % tests
    assert [f.name for f in dataclasses.fields(Subexpression)] == ["word", "sigma"]
