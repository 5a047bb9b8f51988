"""Shared test fixtures."""

import contextlib
import math
import random
import signal

import pytest

from teichlab.farey import normalize_slope


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


def _farey_parents(p: int, q: int):
    """Farey parents of p/q (q >= 2): (u,v), (p-u, q-v) with pv - qu = 1."""
    v = pow(p, -1, q)
    u = (p * v - 1) // q
    return (u, v), (p - u, q - v)


def _farey_relation(p: int, q: int):
    """The slopes s1, s2 and s1 - s2 of the vertex relation
    t(p, q) = t(s1) t(s2) - t(s1 - s2), s1 + s2 = (p, q), each normalized,
    for a slope off the basis (1, 0), (0, 1), (1, 1), (-1, 1)."""
    if q >= 2:
        s1, s2 = _farey_parents(p, q)
    else:
        s1 = (1, 0) if p > 1 else (-1, 0)
        s2 = (p - s1[0], 1)
    return (normalize_slope(*s1), normalize_slope(*s2),
            normalize_slope(s1[0] - s2[0], s1[1] - s2[1]))


def _slope_trace(t, slope, memo=None):
    """Trace of the simple closed curve of slope (p, q) at the triple t, by
    the Farey vertex relation from the basis traces, in the arithmetic of
    t (exact ints at an integral triple, mpf at an mpf one).  The path is
    walked with an explicit stack; memo, keyed by normalized slope, may be
    shared between calls at one triple.  A float trace that overflows is
    a ValueError."""
    x, y, z = t
    if memo is None:
        memo = {}
    basis = {(1, 0): x, (0, 1): y, (1, 1): z, (-1, 1): x * y - z}
    top = normalize_slope(*slope)
    stack = [top]
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
        elif s in basis:
            memo[s] = basis[s]
        else:
            parts = _farey_relation(*s)
            todo = [c for c in parts if c not in memo]
            if todo:
                stack += todo
            else:
                a, b, c = (memo[r] for r in parts)
                memo[s] = a * b - c
    v = memo[top]
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError("the trace of slope %r overflows a float" % (slope,))
    return v


@pytest.fixture(scope="session")
def slope_trace():
    """slope_trace(t, slope, memo=None): a slope's trace by the Farey
    vertex relation, the independent oracle of the Farey walk and of the
    trace plan of slope words."""
    return _slope_trace


@pytest.fixture(scope="session")
def farey_parents():
    """farey_parents(p, q): the Farey parents of p/q, q >= 2."""
    return _farey_parents


def _twist_node(mark, k: int):
    """node(n) = T^n(mark) = (x, y_n, y_(n+1)) for the marking triple
    mark = (x, y_0, y_1) of ints scaled by 2^k: T takes s' to s + s', so
    y_n = tr(s' + n s) and y_(n+1) = x y_n - y_(n-1).  The recursion is
    extended one step at a time from the nodes known, so each y_n is
    rounded along the path the twist walk takes to it."""
    x = mark[0]
    ys = {0: mark[1], 1: mark[2]}
    lo, hi = 0, 1

    def node(n):
        nonlocal lo, hi
        while hi < n + 1:
            hi += 1
            ys[hi] = (x * ys[hi - 1] >> k) - ys[hi - 2]
        while lo > n:
            lo -= 1
            ys[lo] = (x * ys[lo + 1] >> k) - ys[lo + 2]
        return (x, ys[n], ys[n + 1])
    return node


@pytest.fixture(scope="session")
def twist_node():
    """twist_node(mark, k): the function n -> T^n(mark) on a marking
    triple of the Farey walk, in its 2^-k fixed point, one recursion step
    at a time: the twist family's nodes, apart from the lockstep walk."""
    return _twist_node
