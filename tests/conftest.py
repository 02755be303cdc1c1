"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def child_env():
    """The environment of a child interpreter, with this checkout's ``src``
    first on its path, so it imports the package under test."""
    paths = (str(SRC), os.environ.get("PYTHONPATH"))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
