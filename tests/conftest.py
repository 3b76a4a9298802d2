"""A per-test time bound: a test that runs past TEST_TIMEOUT_S seconds ends the run.

A walk that stops making progress would otherwise hang the suite.  When the
bound passes, faulthandler writes every thread's stack to stderr and exits
with status 1.  The stack goes to a copy of the stderr that pytest
configures with, not to a test's captured stderr, which the exit would
lose.  Stdlib only: no timeout plugin is needed.
"""

import faulthandler
import os
import sys

import pytest

TEST_TIMEOUT_S = 120

_stderr_fd = None


def pytest_configure(config):
    global _stderr_fd
    _stderr_fd = os.dup(sys.stderr.fileno())


@pytest.fixture(autouse=True)
def _time_bound():
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()
