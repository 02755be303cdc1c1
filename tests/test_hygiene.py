"""Source-level guards on the package."""

import ast
import sys
from pathlib import Path

import pytest

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


#: the names through which only ``rep`` reads rows of an element: the kept
#: matrix, its ``Fraction`` view, the body of ``apply_covector`` and the fold
ROW_READERS = {"rows", "m7", "left_multiply", "_fold_rows"}


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
