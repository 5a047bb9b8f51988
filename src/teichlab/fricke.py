"""SL(2,R) representation engine.

Words in the free group on a, b are strings over {a, A, b, B} with capitals
denoting inverses.  Traces of words are computed two ways: numerically from
explicit matrices, and symbolically from the trace coordinates
(x, y, z) = (Tr A, Tr B, Tr AB) by one walk along the word in the group
algebra, where Cayley-Hamilton keeps every product in the span of
I, A, B, AB.  The walk is compiled once per word into a straight-line plan
(_compile) that is evaluated in int, float or mpmath arithmetic, or on
lists of ints scaled by 2^k (fixed point), many triples in one pass.  The
symbolic route keeps integer inputs exact (all operations are ring
operations), which the Markoff bridge relies on.

The fixed-point paths, the chart's certified lengths and the twist walk,
evaluate a second plan of the same trace: the walk's polynomial put in
Fricke normal form, reduced by the commutator relation
xyz = x^2 + y^2 + z^2 - 2 - kappa until no monomial holds all of x, y and
z, with kappa = Tr[A, B] as a fourth input.  It is the trace on the level
surface of that kappa, and it drops the large monomials that cancel there,
so it needs fewer bits for the same error.  Words past NORMAL_MAX_LEN
letters keep the walk's plan.  One builder (_builder) builds both plans.

Geodesic lengths use the normalization 2 cosh(l/2) = |Tr|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

_INV = str.maketrans("aAbB", "AaBb")
_DROP_LETTERS = str.maketrans("", "", "aAbB")
_PASSES = 8  # str.replace passes of reduce_word before its stack loop


class WordError(ValueError):
    pass


def invert_word(w: str) -> str:
    return w[::-1].translate(_INV)


def reduce_word(w: str) -> str:
    """Freely reduce: cancel adjacent inverse pairs.

    Passes of C-level str.replace cancel aA, Aa, bB, Bb until the word stops
    shrinking.  A cancellation can expose another across it, so a^n A^n
    would take n passes: after _PASSES, a stack of letters finishes."""
    bad = w.translate(_DROP_LETTERS)
    if bad:
        raise WordError("bad letter %r" % bad[0])
    for _ in range(_PASSES):
        n = len(w)
        w = w.replace("aA", "").replace("Aa", "").replace(
            "bB", "").replace("Bb", "")
        if len(w) == n:
            return w
    out = [""]
    for c in w:
        out.pop() if out[-1] == c.swapcase() else out.append(c)
    return "".join(out)


def cyclic_reduce(w: str) -> str:
    w = reduce_word(w)
    i = 0
    while 2 * i + 1 < len(w) and w[i] == w[-1 - i].swapcase():
        i += 1
    return w[i:len(w) - i]


def canonical_cyclic(w: str) -> str:
    """Canonical form of the unoriented conjugacy class of w.

    Minimum over all rotations of the cyclic reduction of w and of its
    inverse, under the letter order a < b < A < B (positive words first).
    Two words name the same unoriented closed curve iff their canonical
    forms coincide.  swapcase turns that order into the order of code
    points, and turns the inverse (w reversed, swapcase) into w reversed.

    Only the rotations that start at a longest run c^r of the least
    letter c are compared: a rotation starting at a shorter run c^s has a
    letter above c at place s where these have c, so a least rotation
    starts with the most copies of c.  The run is found on the doubled
    word, which holds every cyclic run; a word of one repeated letter is
    its own only rotation.
    """
    w = cyclic_reduce(w)
    rots = []
    for u in (w.swapcase(), w[::-1]):
        n, uu = len(u), u + u
        c = run = min(u, default="")
        while len(run) < n and run + c in uu:
            run += c
        i = uu.find(run)
        while 0 <= i < n:
            rots.append(uu[i:i + n])
            i = uu.find(run, i + 1)
    return min(rots, default="").swapcase()


def word_abelianization(w: str) -> tuple[int, int]:
    w = reduce_word(w)
    return (w.count("a") - w.count("A"), w.count("b") - w.count("B"))


def is_peripheral_word(w: str) -> bool:
    w = cyclic_reduce(w)
    if word_abelianization(w) != (0, 0) or len(w) % 4 != 0 or not w:
        return False
    k = len(w) // 4
    return canonical_cyclic(w) == canonical_cyclic("abAB" * k)


def trace_word_numeric(A, B, w: str):
    """Trace of the matrix product spelled by w (capitals = inverses) in the
    unimodular 2x2 matrices A, B, each a tuple (a, b, c, d) of its rows;
    exact for int entries."""
    mats = {"a": A, "A": (A[3], -A[1], -A[2], A[0]),
            "b": B, "B": (B[3], -B[1], -B[2], B[0])}
    p, q, r, s = 1, 0, 0, 1
    for ch in reduce_word(w):
        a, b, c, d = mats[ch]
        p, q, r, s = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
    return p + s


@dataclass(frozen=True)
class FrickeTriple:
    """Trace coordinates (Tr A, Tr B, Tr AB) of a rank-2 representation."""

    x: float
    y: float
    z: float

    @property
    def kappa(self):
        """Commutator trace x^2 + y^2 + z^2 - xyz - 2 (boundary invariant)."""
        return _kappa_slack(self.astuple())[0]

    def astuple(self):
        return (self.x, self.y, self.z)


def _kappa_slack(t):
    """(kappa, slack): kappa of the triple t and how far rounding may move
    it, 0 at ints and 1e-9 max(1, s) at floats, where the cubic is rounded
    to a few units in the last place of s = x^2 + y^2 + z^2.  Past the
    float range kappa is nan or infinite and the slack infinite."""
    x, y, z = t
    s = x * x + y * y + z * z
    kappa = s - x * y * z - 2
    return kappa, 0 if isinstance(kappa, int) else 1e-9 * max(1.0, s)


# longest cyclically reduced word a plan is compiled for
MAX_WORD_LEN = 10_000

_SWAP = str.maketrans("abAB", "baBA")  # a <-> b: x and y exchange
_REG = 1 << 40


def _builder():
    """(add, mul, out) of one plan (_compile): add(u, v) and mul(u, v) are
    the values of u + v and u v, out(v) the plan whose output is v.

    A value is an int v: the constant v when |v| < _REG, else register
    |v| - _REG with the sign of v, so -v negates it.  Constants fold, zeros
    drop, a factor +-1 is a sign and v - v is 0.  A constant that meets a
    register is set once, as |v|, its sign in the instruction; a negative
    output becomes 0 - v.  Repeated instructions are shared."""
    regs = {}  # instruction -> its register + _REG, in the order emitted

    def emit(op, i, j):
        if op in "*+" and i > j:
            i, j = j, i
        return regs.setdefault((op, i - _REG, j - _REG), len(regs) + 4 + _REG)

    def reg(v):  # v as a signed register
        if abs(v) >= _REG:
            return v
        r = emit("k", abs(v) + _REG, _REG)
        return r if v >= 0 else -r

    def mul(u, v):
        if abs(u) < _REG:
            u, v = v, u
        if abs(v) < _REG and (abs(u) < _REG or -2 < v < 2):
            return u * v
        r = emit("*", abs(u), abs(reg(v)))  # u is a register here
        return r if (u > 0) == (v > 0) else -r

    def add(u, v):
        if not (u and v) or abs(u) < _REG > abs(v):
            return u + v
        u, v = reg(u), reg(v)
        if u == -v:
            return 0
        if (u > 0) == (v > 0):
            r = emit("+", abs(u), abs(v))
            return r if u > 0 else -r
        return emit("-", max(u, v), -min(u, v))

    def out(v):
        r = reg(v)
        r = r if r > 0 else emit("-", reg(0), -r)
        return tuple(regs), r - _REG

    return add, mul, out


def _walk(w: str, x: int, y: int):
    """The plan (instrs, out) of the trace of the cyclically reduced word w,
    built by _builder, with x and y the registers of Tr a and Tr b.

    The walk holds the product of the letters read so far as
    c0 I + c1 A + c2 B + c3 AB and right-multiplies it by each letter, by
    A^2 = xA - I, B^2 = yB - I, BA = yA + xB + (z - xy)I - AB and
    A^-1 = xI - A, B^-1 = yI - B; the trace is 2c0 + x c1 + y c2 + z c3.
    """
    add, mul, out = _builder()

    def fma(u, g, v):  # u + g v
        return add(u, mul(g, v))

    X, Y, Z = x + _REG, y + _REG, 2 + _REG
    D = 0  # z - xy, emitted at its first use
    c0, c1, c2, c3 = 1, 0, 0, 0
    for c in w:
        if c == "b":
            c0, c1, c2, c3 = -c2, -c3, fma(c0, Y, c2), fma(c1, Y, c3)
        elif c == "B":
            c0, c1, c2, c3 = fma(c2, Y, c0), fma(c3, Y, c1), -c0, -c1
        else:
            if c2 and not D:
                D = fma(Z, X, -Y)
            if c == "a":
                c0, c1, c2, c3 = (fma(fma(-c1, D, c2), Y, -c3),
                                  fma(fma(fma(c0, X, c1), Y, c2), Z, c3),
                                  fma(c3, X, c2), -c2)
            else:
                c0, c1, c2, c3 = (fma(fma(fma(c1, X, c0), Y, c3), D, -c2),
                                  -fma(fma(c0, Y, c2), Z, c3),
                                  -c3, fma(c2, X, c3))
    return out(fma(fma(fma(add(c0, c0), X, c1), Y, c2), Z, c3))


def _compile(w: str):
    """Straight-line plan (instrs, out) of the trace polynomial of w.

    Registers 0, 1, 2 hold x, y, z, and register 3 kappa, which only a
    normal-form plan (_compile_normal) reads; instrs[i] sets register i + 4 to
    ("k", c, 0), the integer c, or to (op, j, k), the product ("*"),
    difference ("-") or sum ("+") of two earlier registers (_builder).  The
    plan depends only on the word, so it serves every triple in every
    arithmetic.  Eight forms of w have its trace: w, its reverse (the
    transposes), its inverse and its reverse inverse, each also with a and
    b swapped (x and y exchanged).  Each is walked (_walk) once from its
    first rotation that starts a(b|B), and the shortest plan is kept, so
    compiling is linear in the word.  WordError if w is longer than
    MAX_WORD_LEN after cyclic reduction.
    """
    w = cyclic_reduce(w)
    if len(w) > MAX_WORD_LEN:
        raise WordError("word length %d exceeds cap %d"
                        % (len(w), MAX_WORD_LEN))
    plans = []
    for v in (w, w[::-1], w.swapcase(), invert_word(w)):
        for u, x, y in ((v, 0, 1), (v.translate(_SWAP), 1, 0)):
            i = min((j for j in map((u + u[:1]).find, ("ab", "aB"))
                     if j >= 0), default=0)
            plans.append(_walk(u[i:] + u[:i], x, y))
    return min(plans, key=lambda plan: len(plan[0]))


# plans of recent words; words outside the cache are recompiled
_trace_plan = functools.lru_cache(maxsize=1024)(_compile)


# longest cyclically reduced word whose plan is put in normal form; longer
# words keep their group-algebra plan, which grows linearly with the word.
# Over 50 seeded reduced words of each length, the median normal-form plan
# takes 31 products against the walk's 38.5 at 16 letters, 41 against 44.5
# at 18 and 57.5 against 50 at 20, and grows faster from there
NORMAL_MAX_LEN = 16


def _normal_poly(plan):
    """The trace polynomial of a group-algebra plan in Fricke normal form:
    {(a, b, c, d): coefficient} for the monomials x^a y^b z^c kappa^d,
    none of them divisible by xyz.

    The plan is expanded product by product, and every monomial divisible
    by xyz is rewritten by the commutator relation
    xyz = x^2 + y^2 + z^2 - 2 - kappa, which lowers its degree in x, y, z
    by 1 or 3, until none is left.  Modulo that relation the monomials
    without an xyz factor are a basis (its leading term is xyz in any
    degree order, and one polynomial is a Groebner basis of its ideal), so
    the form is unique.  The rewrites are memoized for one expansion."""
    memo = {}

    def rewrite(m):
        got = memo.get(m)
        if got is None:
            a, b, c, d = m
            got = {}
            for t, s in (((a + 1, b - 1, c - 1, d), 1),
                         ((a - 1, b + 1, c - 1, d), 1),
                         ((a - 1, b - 1, c + 1, d), 1),
                         ((a - 1, b - 1, c - 1, d), -2),
                         ((a - 1, b - 1, c - 1, d + 1), -1)):
                for u, v in (rewrite(t) if min(t[:3]) else {t: 1}).items():
                    got[u] = got.get(u, 0) + s * v
            memo[m] = got
        return got

    def times(p, q):
        out = {}
        for (a, b, c, d), u in p.items():
            for (e, f, g, h), v in q.items():
                m = (a + e, b + f, c + g, d + h)
                if min(m[:3]):
                    for m2, w in rewrite(m).items():
                        out[m2] = out.get(m2, 0) + u * v * w
                else:
                    out[m] = out.get(m, 0) + u * v
        return {m: v for m, v in out.items() if v}

    def plus(p, q, s):
        out = dict(p)
        for m, v in q.items():
            out[m] = out.get(m, 0) + s * v
        return {m: v for m, v in out.items() if v}

    instrs, out = plan
    vals = [{(1, 0, 0, 0): 1}, {(0, 1, 0, 0): 1}, {(0, 0, 1, 0): 1},
            {(0, 0, 0, 1): 1}]
    for op, i, j in instrs:
        if op == "*":
            vals.append(times(vals[i], vals[j]))
        elif op == "k":
            vals.append({(0, 0, 0, 0): i} if i else {})
        else:
            vals.append(plus(vals[i], vals[j], 1 if op == "+" else -1))
    return vals[out]


def _emit_poly(poly, n: int = 1):
    """A plan (instrs, out) of T_n(t), built by _builder, for the
    polynomial t = poly ({(a, b, c, d): coefficient} in x, y, z, kappa:
    registers 0-3), with T_1(t) = t, T_0 = 2 and
    T_(j+1) = t T_j - T_(j-1), the trace of the n-th power of a word of
    trace t.  t is taken by Horner's rule in x, then in y, z and kappa
    within each coefficient; a gap of g powers multiplies by the shared
    power v^g, and a coefficient +-1 costs no product."""
    add, mul, out = _builder()

    def power(r, g):  # r^g, its powers shared by every gap
        return functools.reduce(mul, [r + _REG] * g)

    def horner(p, var):
        if var == 4:
            return p.get((0, 0, 0, 0), 0)
        parts = {}
        for m, v in p.items():
            parts.setdefault(m[var], {})[m[:var] + (0,) + m[var + 1:]] = v
        acc, last = 0, None
        for e in sorted(parts, reverse=True):
            if last is not None:
                acc = mul(acc, power(var, last - e))
            acc = add(acc, horner(parts[e], var + 1))
            last = e
        return mul(acc, power(var, last)) if last else acc

    t = t_n = horner(poly, 0)
    t_last = 2
    for _ in range(n - 1):
        t_n, t_last = add(mul(t, t_n), -t_last), t_n
    return out(t_n)


def _compile_normal(w: str):
    """The plan of w's trace polynomial in Fricke normal form (_normal_poly),
    with kappa in register 3, for a word of at most NORMAL_MAX_LEN letters
    after cyclic reduction; a longer word gets its group-algebra plan
    (_trace_plan), which never reads register 3.

    On the level surface kappa(x, y, z) = K both plans give the trace, but
    the group-algebra plan sums monomials that the commutator relation
    cancels: aabAb's is x^2yz - x^3 - xy^2 - xz^2 + 3x + yz, which is
    yz + (1 - K) x there (Horowitz 1972).  At large coordinates those
    monomials dwarf the trace, so a fixed-point evaluation of the normal
    form needs fewer bits for the same error.

    The n-th power of a word u is compiled as T_n of u's normal form
    (_emit_poly): expanded, its monomials would cancel again wherever u is
    short, as (aB)^4 does at large x and y, where xy - z = tr aB is small.
    WordError as _compile."""
    w = cyclic_reduce(w)
    if len(w) > NORMAL_MAX_LEN:
        return _trace_plan(w)
    n = next((len(w) // p for p in range(1, len(w))
              if len(w) % p == 0 and w[:p] * (len(w) // p) == w), 1)
    return _emit_poly(_normal_poly(_trace_plan(w[:len(w) // n])), n)


# normal-form plans of recent words
_normal_plan = functools.lru_cache(maxsize=1024)(_compile_normal)


def _plan_eval(plan, x, y, z, kappa=None):
    """Evaluate a plan in whatever arithmetic the inputs carry (exact for
    ints: the trace polynomial has integer coefficients).  kappa, the
    commutator trace of (x, y, z), is read only by a normal-form plan."""
    instrs, out = plan
    vals = [x, y, z, kappa]
    for op, j, k in instrs:
        if op == "*":
            vals.append(vals[j] * vals[k])
        elif op == "-":
            vals.append(vals[j] - vals[k])
        else:
            vals.append(vals[j] + vals[k] if op == "+" else j)
    return vals[out]


def _plan_eval_fixed(plan, xs, ys, zs, kappa, k):
    """Evaluate a plan at the triples (xs[i], ys[i], zs[i]) of ints scaled
    by 2^k, all of commutator trace kappa (an int scaled by 2^k, read only
    by a normal-form plan), one pass over lists: the list of the traces,
    scaled by 2^k.  Each product shifts right by k, each constant left by
    k; each product rounds down by less than 2^-k, an error the later
    products carry along, and k = 0 is exact integer arithmetic.  A
    register's list is dropped after the last instruction that reads it,
    so that a wide pass holds a few lists at a time."""
    instrs, out = plan
    last = {}
    for n, (op, i, j) in enumerate(instrs):
        if op != "k":
            last[i] = last[j] = n
    last[out] = len(instrs)
    vals = [xs, ys, zs, [kappa] * len(xs)]
    for n, (op, i, j) in enumerate(instrs):
        if op == "k":
            vals.append([i << k] * len(xs))
            continue
        if op == "*":
            vals.append([a * b >> k for a, b in zip(vals[i], vals[j])])
        elif op == "-":
            vals.append([a - b for a, b in zip(vals[i], vals[j])])
        else:
            vals.append([a + b for a, b in zip(vals[i], vals[j])])
        if last[i] == n:
            vals[i] = None
        if last[j] == n:
            vals[j] = None
    return vals[out]


def _plan_eval_bounded(plan, x, y, z, kappa, errs, k):
    """_plan_eval_fixed at one point together with an upper bound, in
    units of 2^-k, on the error of its output from bounds
    errs = (e_x, e_y, e_z, e_kappa) on the errors of the inputs: returns
    (tr, err).

    With |a - A| <= e_a and |b - B| <= e_b, a product is off by at most
    (|a| e_b + |b| e_a + e_a e_b) / 2^k, rounded up, plus the unit its
    shift drops; a difference or a sum by e_a + e_b; a constant is exact.
    The bound holds for the trace at any exact (X, Y, Z, K) within errs
    on which the plan's polynomial is the trace: for a normal-form plan,
    any point of the level surface kappa(X, Y, Z) = K.
    """
    instrs, out = plan
    vals = [x, y, z, kappa]
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
            vals.append(vals[i] + vals[j] if op == "+" else i << k)
            errs.append(errs[i] + errs[j] if op == "+" else 0)
    return vals[out], errs[out]


def trace_word_fricke(t: FrickeTriple | tuple, w: str):
    """Trace of the word w at trace coordinates t, from its trace polynomial.

    Exact for integer coordinates (the trace polynomial has integer
    coefficients).  Evaluates the word's compiled plan.  WordError if w
    is longer than MAX_WORD_LEN even after cyclic reduction.
    """
    if isinstance(t, FrickeTriple):
        t = t.astuple()
    return _plan_eval(_trace_plan(w), *t)


def length_trace(tr) -> float:
    """Geodesic length from trace: l = 2 arccosh(|tr|/2).

    Takes floats and ints of any size: from 10^15 on, arccosh(t/2) = log t
    up to O(t^-2), and math.log takes ints beyond the float range.  A nan
    or infinite trace (an overflowed float evaluation) is a ValueError.
    """
    t = abs(tr)
    if t < 2:
        raise ValueError("|trace| = %g < 2: elliptic/parabolic, no geodesic length" % t)
    if t < 1e15:
        return 2.0 * math.acosh(t / 2.0)
    if t < math.inf:  # exact for ints of any size; false for nan and inf
        return 2.0 * math.log(t)
    raise ValueError("trace %r is not finite: no geodesic length" % tr)


def _trace_length(tr: int, k: int, w: str) -> float:
    """l = 2 arccosh(|tr|/2) for the trace of w held as an int scaled by
    2^k; a trace within 1e-9 of parabolic is rounding at a cusp-like node.
    Below |tr| = 3 (simple curves only: Yamada), 4 asinh(sqrt(|tr| - 2)/2)
    keeps the digits of the exact margin that a float |tr| would lose."""
    tr = abs(tr)
    if tr < 2 << k:
        if tr * 10 ** 9 > (2 * 10 ** 9 - 1) << k:
            return 0.0
        raise ArithmeticError("non-hyperbolic trace %.8g for %r along the "
                              "orbit" % (tr / (1 << k), w))
    if tr < 3 << k:
        return 4.0 * math.asinh(math.sqrt((tr - (2 << k)) / (1 << k)) / 2.0)
    if tr.bit_length() - k < 1000:
        return length_trace(tr / (1 << k))
    return length_trace(tr >> k)  # beyond the float range: 2 log t


def rep_from_fricke(t: FrickeTriple) -> tuple[tuple, tuple]:
    """A realizing pair (A, B), rows as in trace_word_numeric, in the fixed
    normal form: A diagonal, B with a unit corner entry (B_21 = 1).

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
    A = (lam, 0.0, 0.0, 1.0 / lam)
    # B = [[p, q], [1, s]],  p + s = y,  lam p + s / lam = z
    p = (z - y / lam) / (lam - 1.0 / lam)
    s = y - p
    B = (p, p * s - 1.0, 1.0, s)
    return A, B

