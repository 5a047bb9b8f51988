"""Shared test fixtures."""

import contextlib
import signal

import pytest


def _alarm(signum, frame):
    raise TimeoutError()


@contextlib.contextmanager
def _bounded(seconds):
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError:
        pytest.fail("did not end within %d s" % seconds)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="session")
def time_bound():
    """time_bound(seconds): a context that fails the test when its body
    runs longer than `seconds`.  A search that hangs on bad input also
    grows in memory (the Farey search that used to hang at (0, 0, 0) grows
    by ~100 MB/s), so bounds are kept to a few seconds."""
    return _bounded
