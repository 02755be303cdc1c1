"""Acceptance suite: one test per verification criterion.

Every criterion is exact (zero tolerance); each test prints its own
pass line so a full run reads as a checklist.
"""

import inspect

import pytest

from g2cells import checks


@pytest.mark.parametrize(
    "number,name,fn",
    checks.CHECKS,
    ids=["criterion-%d" % n for n, _, _ in checks.CHECKS],
)
def test_acceptance_criterion(number, name, fn):
    try:
        fn()
    except AssertionError as exc:
        print("[FAIL] %d. %s: %s" % (number, name, exc))
        raise
    print("[PASS] %d. %s" % (number, name))


def test_checks_take_no_arguments():
    """Every check runs at its one fixed set of seeds and sizes."""
    for number, name, fn in checks.CHECKS:
        assert not inspect.signature(fn).parameters, (number, name)
