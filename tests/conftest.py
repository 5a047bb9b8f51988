"""Shared test fixtures."""

import contextlib
import random
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


def _reduced_word(seed: int, n: int) -> str:
    """A seeded cyclically reduced word of n >= 1 letters: each letter is
    drawn from those that cancel neither the letter before it nor, for
    the last, the first."""
    rng = random.Random(seed)
    w = rng.choice("abAB")
    while len(w) < n:
        w += rng.choice([c for c in "abAB" if c != w[-1].swapcase()
                         and (len(w) < n - 1 or c != w[0].swapcase())])
    return w


@pytest.fixture(scope="session")
def reduced_word():
    """reduced_word(seed, n): a seeded cyclically reduced word of n
    letters, the generic long word of the trace compiler."""
    return _reduced_word
