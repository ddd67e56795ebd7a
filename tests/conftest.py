import faulthandler
import os

import pytest

import _acceptance_log

# A test still running after this many seconds is taken to hang: every
# thread's stack goes to stderr and the run exits non-zero.  The slowest test
# takes a few seconds.  faulthandler times it from a watchdog thread, so tests
# that set their own SIGALRM are unaffected.
HANG_LIMIT_S = 300

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture points fd 2 at a temp file during each test, so keep a
    # copy of the real stderr for the traceback
    config.stash[_STDERR_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=item.config.stash[_STDERR_FD])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def pytest_terminal_summary(terminalreporter):
    if _acceptance_log.LINES:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_log.LINES:
            terminalreporter.write_line(line)
