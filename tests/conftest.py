"""Fixtures shared by the test modules, and a time limit on each test."""

import contextlib
import os
import signal
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: seconds that collecting one module, or one phase of a test (setup, call,
#: teardown), may run before it fails; the slowest test takes about one
TIME_LIMIT_S = 60


@contextlib.contextmanager
def _time_limit(nodeid):
    """Turn a run past ``TIME_LIMIT_S`` into a failure naming ``nodeid``:
    a real-time alarm is armed around the block.  Where ``SIGALRM`` is
    missing or the block runs off the main thread, there is no limit."""
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        pytest.fail("%s ran past the %d-s limit" % (nodeid, TIME_LIMIT_S), pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# a hang while a module is imported (a module-level representation) or
# while a fixture of any scope is set up is limited as well as the test
@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    with _time_limit(collector.nodeid):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    with _time_limit(item.nodeid):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with _time_limit(item.nodeid):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item, nextitem):
    with _time_limit(item.nodeid):
        return (yield)


@pytest.fixture
def child_env():
    """The environment of a child interpreter, with this checkout's ``src``
    first on its path, so it imports the package under test."""
    paths = (str(SRC), os.environ.get("PYTHONPATH"))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
