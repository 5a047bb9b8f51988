"""SL(2,R) representation engine.

Words in the free group on a, b are strings over {a, A, b, B} with capitals
denoting inverses.  Traces of words are computed two ways: numerically from
explicit matrices, and symbolically from the trace coordinates
(x, y, z) = (Tr A, Tr B, Tr AB) by recursive trace-identity reduction
    Tr(UV) + Tr(UV^{-1}) = Tr(U) Tr(V),
compiled once per word into a straight-line plan that is evaluated in
int, float or mpmath arithmetic, or on ints scaled by 2^k (fixed point).
The symbolic route keeps integer inputs exact (all operations are ring
operations), which the Markoff bridge relies on.

Geodesic lengths use the normalization 2 cosh(l/2) = |Tr|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

_INV = str.maketrans("aAbB", "AaBb")
_DROP_LETTERS = str.maketrans("", "", "aAbB")


class WordError(ValueError):
    pass


def invert_word(w: str) -> str:
    return w[::-1].translate(_INV)


def reduce_word(w: str) -> str:
    """Freely reduce: cancel adjacent inverse pairs.

    Each pass cancels the pairs aA, Aa, bB, Bb by C-level str.replace, and
    passes repeat until the word stops shrinking: a cancellation can expose
    another across it, so a^n A^n takes n passes, but a word pushed by
    twists cancels in a few."""
    bad = w.translate(_DROP_LETTERS)
    if bad:
        raise WordError("bad letter %r" % bad[0])
    n = len(w) + 1
    while len(w) < n:
        n = len(w)
        w = w.replace("aA", "").replace("Aa", "").replace(
            "bB", "").replace("Bb", "")
    return w


def concat_reduced(u: str, v: str) -> str:
    """Concatenate two reduced words, cancelling at the join."""
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and u[i - 1] == v[j].translate(_INV):
        i -= 1
        j += 1
    return u[:i] + v[j:]


def cyclic_reduce(w: str) -> str:
    w = reduce_word(w)
    while len(w) >= 2 and w[0] == w[-1].translate(_INV):
        w = w[1:-1]
    return w


def canonical_cyclic(w: str) -> str:
    """Canonical form of the unoriented conjugacy class of w.

    Minimum over all rotations of the cyclic reduction of w and of its
    inverse, under the letter order a < b < A < B (positive words first).
    Two words name the same unoriented closed curve iff their canonical
    forms coincide.  swapcase turns that order into the order of code
    points, and turns the inverse (w reversed, swapcase) into w reversed;
    a least rotation starts with the least letter, so only those are
    compared.
    """
    w = cyclic_reduce(w)
    rots = []
    for u in (w.swapcase(), w[::-1]):
        c = min(u, default="")
        rots += [u[i:] + u[:i] for i in range(len(u)) if u[i] == c]
    return min(rots, default="").swapcase()


def _n_caps(w: str) -> int:
    return sum(1 for c in w if c in "AB")


@dataclass(frozen=True)
class Mat2:
    """Unimodular 2x2 real matrix."""

    a: float
    b: float
    c: float
    d: float

    def trace(self):
        return self.a + self.d

    def __matmul__(self, o: "Mat2") -> "Mat2":
        return Mat2(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                    self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def inv(self) -> "Mat2":
        # det = 1
        return Mat2(self.d, -self.b, -self.c, self.a)


IDENT = Mat2(1.0, 0.0, 0.0, 1.0)


def trace_word_numeric(A: Mat2, B: Mat2, w: str) -> float:
    """Trace of the matrix product spelled by w (capitals = inverses)."""
    mats = {"a": A, "A": A.inv(), "b": B, "B": B.inv()}
    m = IDENT
    for ch in reduce_word(w):
        m = m @ mats[ch]
    return m.trace()


@dataclass(frozen=True)
class FrickeTriple:
    """Trace coordinates (Tr A, Tr B, Tr AB) of a rank-2 representation."""

    x: float
    y: float
    z: float

    @property
    def kappa(self):
        """Commutator trace x^2 + y^2 + z^2 - xyz - 2 (boundary invariant)."""
        x, y, z = self.x, self.y, self.z
        return x * x + y * y + z * z - x * y * z - 2

    def astuple(self):
        return (self.x, self.y, self.z)


def _rotations(w: str):
    for i in range(len(w)):
        yield w[i:] + w[:i]


# plan registers of the generator traces x = Tr a and y = Tr b
_GEN_REG = {"a": 0, "b": 1}


def _compile(w: str):
    """Straight-line plan (instrs, out) of the trace polynomial of w.

    The trace-identity reduction branches only on the word, never on the
    values, so it runs once per word and the plan serves every triple in
    every arithmetic.  Registers 0, 1, 2 hold x, y, z; instrs[i] sets
    register i + 3 to ("k", c, 0), the integer c, or to (op, j, k), the
    product ("*") or difference ("-") of two earlier registers.  Canonical
    cyclic subwords get one register each, as do repeated instructions.
    """
    instrs = []
    regs = {}
    memo = {}

    def emit(ins):
        r = regs.get(ins)
        if r is None:
            r = regs[ins] = len(instrs) + 3
            instrs.append(ins)
        return r

    def tr(w):
        key = canonical_cyclic(w)
        r = memo.get(key)
        if r is not None:
            return r
        # work on the representative with the fewest inverse letters so that
        # rule 1 strictly reduces their count (termination)
        w = key
        iw = invert_word(w)
        if _n_caps(iw) < _n_caps(w):
            w = iw
        n = len(w)
        if n == 0:
            r = emit(("k", 2, 0))
        elif n == 1:
            r = _GEN_REG[w.lower()]
        elif w in ("ab", "ba"):
            r = 2
        elif rot := next((u for u in _rotations(w) if u[-1] in "AB"), None):
            # rule 1: an inverse letter somewhere -- rotate it to the end:
            #   Tr(P g^-1) = Tr(g) Tr(P) - Tr(P g)
            g, P = rot[-1].lower(), rot[:-1]
            r = emit(("-", emit(("*", _GEN_REG[g], tr(cyclic_reduce(P)))),
                      tr(cyclic_reduce(concat_reduced(P, g)))))
        elif rot := next((u for u in _rotations(w) if u[-1] == u[-2]), None):
            # positive word. rule 2: a doubled letter -- rotate "gg" to the end:
            #   Tr(P g g) = Tr(g) Tr(P g) - Tr(P)
            g, P = rot[-1], rot[:-2]
            r = emit(("-", emit(("*", _GEN_REG[g], tr(cyclic_reduce(P + g)))),
                      tr(cyclic_reduce(P))))
        elif n % 2:
            raise WordError("unreachable word form %r" % w)
        else:
            # rule 3: alternating positive word (ab)^k, Chebyshev recursion
            #   Tr((ab)^(j+1)) = z Tr((ab)^j) - Tr((ab)^(j-1))
            t0, t1 = emit(("k", 2, 0)), 2
            for _ in range(n // 2 - 1):
                t0, t1 = t1, emit(("-", emit(("*", 2, t1)), t0))
            r = t1
        memo[key] = r
        return r

    out = tr(w)
    return tuple(instrs), out


# plans of recent words; words outside the cache are recompiled
_trace_plan = functools.lru_cache(maxsize=1024)(_compile)


def _plan_eval(plan, x, y, z):
    """Evaluate a plan in whatever arithmetic the inputs carry (exact for
    ints: the trace polynomial has integer coefficients)."""
    instrs, out = plan
    vals = [x, y, z]
    for op, j, k in instrs:
        if op == "*":
            vals.append(vals[j] * vals[k])
        elif op == "-":
            vals.append(vals[j] - vals[k])
        else:
            vals.append(j)
    return vals[out]


def _plan_eval_fixed(plan, x, y, z, k):
    """Evaluate a plan on ints scaled by 2^k: each product shifts right by
    k, each constant left by k.  Exact for k = 0."""
    instrs, out = plan
    vals = [x, y, z]
    for op, i, j in instrs:
        if op == "*":
            vals.append(vals[i] * vals[j] >> k)
        elif op == "-":
            vals.append(vals[i] - vals[j])
        else:
            vals.append(i << k)
    return vals[out]


def _plan_eval_bounded(plan, x, y, z, errs, k):
    """_plan_eval_fixed together with an upper bound, in units of 2^-k, on
    the error of its output from bounds errs on the errors of x, y, z:
    returns (tr, err).

    With |a - A| <= e_a and |b - B| <= e_b, a product is off by at most
    (|a| e_b + |b| e_a + e_a e_b) / 2^k, rounded up, plus the unit its
    shift drops; a difference by e_a + e_b; a constant is exact.
    """
    instrs, out = plan
    vals = [x, y, z]
    errs = list(errs)
    for op, i, j in instrs:
        if op == "*":
            a, b, ea, eb = vals[i], vals[j], errs[i], errs[j]
            vals.append(a * b >> k)
            errs.append((abs(a) * eb + abs(b) * ea + ea * eb >> k) + 2)
        elif op == "-":
            vals.append(vals[i] - vals[j])
            errs.append(errs[i] + errs[j])
        else:
            vals.append(i << k)
            errs.append(0)
    return vals[out], errs[out]


# longest cyclically reduced word trace_word_fricke compiles
MAX_WORD_LEN = 10_000


def trace_word_fricke(t: FrickeTriple | tuple, w: str):
    """Trace of the word w at trace coordinates t, by trace-identity reduction.

    Exact for integer coordinates (the trace polynomial has integer
    coefficients).  Evaluates the word's compiled plan.  WordError if w
    is longer than MAX_WORD_LEN even after cyclic reduction.
    """
    if len(w) > MAX_WORD_LEN and len(cyclic_reduce(w)) > MAX_WORD_LEN:
        raise WordError("word length %d exceeds cap %d"
                        % (len(cyclic_reduce(w)), MAX_WORD_LEN))
    if isinstance(t, FrickeTriple):
        t = t.astuple()
    return _plan_eval(_trace_plan(w), *t)


def trace_word_fixed(t: tuple, w: str, k: int) -> int:
    """The trace of w, scaled by 2^k, at a triple of ints scaled by 2^k.

    Each product rounds down by less than 2^-k, an error the later products
    carry along; k = 0 is exact integer arithmetic.
    """
    return _plan_eval_fixed(_trace_plan(w), *t, k)


def length_trace(tr) -> float:
    """Geodesic length from trace: l = 2 arccosh(|tr|/2).

    Takes floats and ints of any size: from 10^15 on, arccosh(t/2) = log t
    up to O(t^-2), and math.log takes ints beyond the float range.
    """
    t = abs(tr)
    if t < 2:
        raise ValueError("|trace| = %g < 2: elliptic/parabolic, no geodesic length" % t)
    if t < 1e15:
        return 2.0 * math.acosh(t / 2.0)
    return 2.0 * math.log(t)


def trace_of_length(ell: float) -> float:
    """Inverse of length_trace on trace >= 2: returns 2 cosh(l/2)."""
    if ell < 0:
        raise ValueError("length must be >= 0")
    return 2.0 * math.cosh(ell / 2.0)


def rep_from_fricke(t: FrickeTriple) -> tuple[Mat2, Mat2]:
    """A realizing pair (A, B) in the fixed normal form: A diagonal, B with a
    unit corner entry (B_21 = 1).

    Requires |x| > 2 (A hyperbolic); otherwise raises naming the failed
    discriminant.  B has det ps - q = 1 for every q, so reducible triples
    (q = 0, kappa = 2) are realized too.
    """
    x, y, z = t.x, t.y, t.z
    disc = x * x - 4.0
    if disc <= 0:
        raise ValueError(
            "cannot realize with A diagonal: discriminant x^2 - 4 = %g <= 0" % disc)
    lam = (x + math.sqrt(disc)) / 2.0
    A = Mat2(lam, 0.0, 0.0, 1.0 / lam)
    # B = [[p, q], [1, s]],  p + s = y,  lam p + s / lam = z
    p = (z - y / lam) / (lam - 1.0 / lam)
    s = y - p
    B = Mat2(p, p * s - 1.0, 1.0, s)
    return A, B

