"""Source-level guards on the package."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "g2cells").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    """``python -O`` strips ``assert``, so no runtime check may use it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], "%s has assert statements at lines %s" % (path.name, lines)


def test_benchmark_patches_resolve():
    """Every name the benchmark tracer wraps is still defined where it is patched."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    for owner, attr, span in tracing.PATCHES:
        assert callable(vars(owner).get(attr)), "%s: %r has no %s" % (span, owner, attr)
