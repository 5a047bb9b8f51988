"""Marked hyperbolic structures on the one-holed torus and four-holed sphere
in Fenchel-Nielsen coordinates (interior curve length l, twist tau in length
units), with curve lengths, twist flows, elementary re-marking moves and
the symplectic-volume check.

One-holed torus chart (boundary length l1, 0 = cusp): the induced trace
coordinates are

    x = 2 cosh(l/2)
    y = 2 m cosh(tau/2),   z = 2 m cosh((l + tau)/2)
    m = sqrt(2 cosh(l1/2) + 2 cosh l) / (2 sinh(l/2))

which satisfy x^2+y^2+z^2-xyz-2 = -2 cosh(l1/2) identically; at a cusp
m = coth(l/2) and the transversal relation cosh(l_beta/2) =
cosh(tau/2) coth(l/2) holds with zero twist offset.  Twist tau -> tau + l
realizes the Dehn twist exactly (slope relabel (p,q) -> (p+q, q)).

The chart is computed once, in fixed point with error bounds
(_chart_fixed); every torus curve length is certified through it
(_gamma_length_fn), and fricke_triple is its float view.  Its
exponentials come from a short integer kernel with a proven relative
error (_exp_man), so the chart reads no mpmath.

Four-holed sphere chart (boundaries l1..l4, interior curve pairing
(l1,l2 | l3,l4)): lengths of the two standard transversals come from the
two-hexagon route: seam perpendiculars a_i from boundary to interior curve,
the arc over the interior geodesic, then the half-trace formula

    cosh(l_delta/2) = sinh(l1/2) sinh(l3/2) cosh(d_tau)
                      - cosh(l1/2) cosh(l3/2).

The second transversal (pairing (l1,l4)) uses the same construction with the
opposite-side foot, offset by l/2 along the interior curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import farey
from .fricke import (FrickeTriple, _kappa_slack, _normal_plan,
                     _plan_eval_bounded, _trace_length, cyclic_reduce,
                     is_peripheral_word)
from .hyptrig import (HexDomainError, arc_over_geodesic,
                      arc_over_geodesic_inverse, hexagon_side, seam_F1)

S11 = "S11"
S04 = "S04"
# relative tolerance of surface_from_triple's transversal check
CHART_TOL = 1e-8


@dataclass(frozen=True)
class SurfacePoint:
    """A marked hyperbolic structure in Fenchel-Nielsen coordinates."""

    kind: str
    boundaries: tuple[float, ...]
    ell: float
    tau: float

    def __post_init__(self):
        if self.kind not in (S11, S04):
            raise ValueError("kind must be %r or %r" % (S11, S04))
        nb = 1 if self.kind == S11 else 4
        if len(self.boundaries) != nb:
            raise ValueError("%s needs %d boundary lengths" % (self.kind, nb))
        for b in self.boundaries:
            if b < 0 or not math.isfinite(b):
                raise ValueError("boundary lengths must be >= 0 (0 = cusp)")
        if not (self.ell > 0 and math.isfinite(self.ell)):
            raise ValueError("interior curve length must be positive")
        if not math.isfinite(self.tau):
            raise ValueError("twist must be finite")


@dataclass(frozen=True)
class CurveOnSurface:
    """A curve label.

    On the torus: a primitive slope (p,q) or a word over {a,A,b,B}; the
    coordinate curve is slope (1,0), the standard transversal (0,1).
    On the sphere: one of the labels "interior", "delta" (transversal
    pairing boundaries 1,3), "delta2" (pairing 1,4), "b1".."b4".
    """

    kind: str
    slope: tuple[int, int] | None = None
    word: str | None = None
    label: str | None = None

    def __post_init__(self):
        if self.kind == S11:
            if (self.slope is None) == (self.word is None):
                raise ValueError("torus curve needs exactly one of slope, word")
            if self.slope is not None:
                object.__setattr__(self, "slope", farey.normalize_slope(*self.slope))
        elif self.kind == S04:
            if self.label not in ("interior", "delta", "delta2", "b1", "b2", "b3", "b4"):
                raise ValueError("bad sphere curve label %r" % self.label)
        else:
            raise ValueError("kind must be %r or %r" % (S11, S04))


def torus_curve(spec) -> CurveOnSurface:
    if isinstance(spec, str):
        return CurveOnSurface(S11, word=spec)
    return CurveOnSurface(S11, slope=tuple(spec))


# ---------------------------------------------------------------------------
# one-holed torus


_EXP_MEMO_CAP = 64  # entries of a length function's memo: a line is ~35 points
_EXP_HEADROOM = 32  # bits taken above a request, for the next few to reuse


def _exp_man(a: float, p: int) -> tuple[int, int]:
    """e^a for a float a >= 0 and p >= 64 bits, as (man, exp): man 2^exp
    is at most e^a and within 2^-p relative of it.

    a = n 2^-t exactly (float.as_integer_ratio).  With a < 2^up, up =
    max(0, binary exponent of a), and r = isqrt(p) // 2 >= 4, x = a 2^-j
    for j = up + r is below 2^-r; in fixed point at w = p + j + g bits,
    X = floor(x 2^w).  The series is mpmath's exp_basecase: S0 = sum
    x^2i/(2i)! and S1 = sum x^2i/(2i+1)!, two terms a step, each step two
    floor divisions of the running term by the terms' indices and one
    product by X2 = floor(X^2 2^-w), until the term floors to 0; then
    S = S0 + floor(S1 X 2^-w) ~ e^x 2^w.  e^a is S squared j times.

    Error, in units of 2^-w.  Every rounding floors a non-negative
    number, so each computed value is at most its true one.  x 2^w - X
    < 1, so x^2 2^w - X2 < 2x + 1.  The running term (below 2^w) errs by
    at most E y + 3 after a product (y = x^2 <= 2^-8) and E / i + 1
    after a division by i >= 2, so by at most 3.1 throughout; when it
    floors to 0 its true value is at most 3.1 and the true tails of S0
    and S1 are below 2.  Over N steps S0 and S1 so err by at most 3N + 2,
    S1 X by (3N + 2) x + S1 2^-w + 1 < 3N/16 + 4, and S by at most
    4N + 6: S = e^x 2^w (1 - rho0), 0 <= rho0 <= (4N + 6) 2^-w, as
    e^x >= 1.  The term before step i is below 2^(w - 2r(i+1)), so
    N <= w // 2r + 1.

    Squaring a value (1 - rho) V and flooring it to w bits, or to scale
    2^-w while V >= 1 is below 2^47, gives (1 - rho)^2 (1 - eta) V^2 >=
    (1 - 2 rho - eta) V^2 with 0 <= eta < 2^-(w-1): the relative error
    at most doubles and gains 2^-(w-1).  After j squarings it is below
    2^j (rho0 + 2^-(w-1)) <= (4N + 8) 2^-(p+g).  The guard g = bit length
    of p + j + 64 covers 4N + 8 <= 2w / r + 12 <= p + j + 64, so the
    error is below 2^-p.

    The first squarings run at scale 2^-w while the value is below
    e^32 < 2^47; the last max(0, up - 5), past it, keep w bits.
    """
    n, d = a.as_integer_ratio()
    t = d.bit_length() - 1
    up = max(0, n.bit_length() - t)
    r = math.isqrt(p) >> 1
    j = up + r
    w = p + j + (p + j + 64).bit_length()
    x = (n << w) >> t + j
    x2 = x * x >> w
    s0 = s1 = 1 << w
    i, term = 2, x2
    while term:
        term //= i
        s0 += term
        term //= i + 1
        s1 += term
        i += 2
        term = term * x2 >> w
    s = s0 + (s1 * x >> w)
    top = max(0, up - 5)
    for _ in range(j - top):
        s = s * s >> w
    exp = -w
    for _ in range(top):
        s *= s
        drop = s.bit_length() - w
        s >>= drop
        exp = 2 * exp + drop
    return s, exp


def _exp_fixed(h: float, k: int, memo: dict) -> tuple[tuple[int, int], ...]:
    """(e^h, e^-h) as ints scaled by 2^k, each with a bound on its error in
    units of 2^-k: ((e^h, err), (e^-h, err)).

    e^|h| comes from _exp_man at p = k + 8, below it by less than
    e^|h| 2^-(k+8) units, inside the e^|h| 2^-(k+7) that the bound allows;
    with a unit for the flooring shift to scale 2^k, (big >> k + 7) + 2
    bounds it.  Its inverse, from one integer division, is within 3 units.
    The chart's products carry m's rounding to about e^|h| units already
    (_chart_fixed), so the e^|h| / ln 2 bits that an absolute 2^-k would
    need buy nothing.

    memo, a dict its caller keeps (_gamma_length_fn, fricke_triple), maps
    |h| to the mantissa, exponent and bits of e^|h| at the most bits asked
    so far.  A first request stores exactly k + 8 bits.  _exp_man runs
    again only when an entry holds fewer than k + 8 bits, and then takes
    k + 8 + _EXP_HEADROOM: an exponential asked for again at more bits
    (e^(ell/2) along a twist line, a raised try 32 bits up at least) will
    likely be asked again, and the next few requests shift the stored
    mantissa down; e^(tau/2) of a _tau_measure line's point is never
    reused, and pays no headroom.  A mantissa taken at P >= k + 8 bits is
    within 2^-P <= 2^-(k+8) relative of e^|h|, so after the shift the same
    (big >> k + 7) + 2 bounds it; and the inverse, 2^2k // big, keeps its
    3 units, which rest only on that relative error and on big >= 2^k.
    Past _EXP_MEMO_CAP the least recently used entry goes.
    """
    a = abs(h)
    got = memo.pop(a, None)
    if got is None or got[2] < k + 8:
        bits = k + 8 if got is None else k + 8 + _EXP_HEADROOM
        got = (*_exp_man(a, bits), bits)
    memo[a] = got  # last in the dict's order: the most recently used
    if len(memo) > _EXP_MEMO_CAP:
        del memo[next(iter(memo))]
    man, exp, _ = got
    s = exp + k
    big = man << s if s >= 0 else man >> -s
    pair = ((big, (big >> k + 7) + 2), ((1 << 2 * k) // big, 3))
    return pair if h >= 0 else pair[::-1]


def _chart_fixed(l1: float, ell: float, tau: float, k: int, memo: dict):
    """Trace coordinates (x, y, z) of the torus chart at (ell, tau), as ints
    scaled by 2^k, and bounds (ex, ey, ez) on their errors in units of
    2^-k: with v = e^(ell/2) and u = e^(tau/2),

        x = v + 1/v,  y = m (u + 1/u),  z = m (uv + 1/(uv)),
        m = sqrt(2 cosh(l1/2) + v^2 + v^-2) / (v - 1/v)

    (m = coth(ell/2) at a cusp).  uv is the product of the two fixed-point
    exponentials, never e^((ell+tau)/2) of the rounded float sum, which
    would break the kappa identity that ties z to x and y.

    In the thin part m ~ 2/ell divides by v - 1/v ~ ell, so the chart
    works g = 2 log2(1/ell) guard bits finer than 2^-k.  The bounds carry
    every rounding: the exponentials (_exp_fixed's own bounds for v, 1/v,
    u, 1/u and the two of cosh(l1/2)), the squares, the isqrt (l1 > 0), the
    division for m, the products for y and z, and the final shift by g.
    The exponentials are exact to 2^-(k+7) relative, not to 2^-k absolute:
    y and z already carry m's few units of rounding times u + 1/u, about
    e^(|tau|/2) units.  The caller picks k and keeps the memo (_exp_fixed).
    """
    g = 2 * max(0, -math.frexp(ell)[1])
    n = k + g
    (v, ev), (vi, evi) = _exp_fixed(float(ell) / 2, n, memo)
    (u, eu), (ui, eui) = _exp_fixed(float(tau) / 2, n, memo)
    if l1 == 0.0:
        r = v + vi  # the square root is exact at a cusp
        er = ev + evi
    else:
        (c, ec), (ci, eci) = _exp_fixed(float(l1) / 2, n, memo)
        s = c + ci + (v * v + vi * vi >> n)
        es = ec + eci + (ev * (2 * v + ev) + evi * (2 * vi + evi) >> n) + 2
        r = math.isqrt(s << n)
        # |sqrt(s 2^n) - sqrt(S 2^n)| <= 2^n |s - S| / r, plus the floor
        er = (es << n) // r + 2
    d = v - vi
    ed = ev + evi
    m = (r << n) // d
    em = (er << n) // d + ((r + er) * ed << n) // (d * (d - ed)) + 3
    w = u + ui
    ew = eu + eui
    p = u * v + ui * vi >> n
    ep = (eu * v + ev * u + eu * ev + eui * vi + evi * ui + eui * evi
          >> n) + 2
    return ((v + vi >> g, m * w >> n + g, m * p >> n + g),
            ((ev + evi >> g) + 2, (m * ew + w * em + em * ew >> n + g) + 2,
             (m * ep + p * em + em * ep >> n + g) + 2))


def _chart_kappa(l1: float, k: int, memo: dict):
    """(kappa, err): the chart's commutator trace -2 cosh(l1/2) as an int
    scaled by 2^k, and a bound on its error in units of 2^-k, from
    _exp_fixed's two exponentials; exactly -2^(k+1) at a cusp."""
    if l1 == 0.0:
        return -(2 << k), 0
    (c, ec), (ci, eci) = _exp_fixed(float(l1) / 2, k, memo)
    return -(c + ci), ec + eci


def _certified_length(tr: int, e: int, k: int, w: str):
    """The length of the trace tr of w, both ints scaled by 2^k, when its
    error bound e fixes it: e 2^60 <= tr - 2 and the float lengths at
    tr - 2e and tr + 2e agree.  A finer evaluation, whose error is smaller,
    lies in that interval and so gives this length bit for bit.  None when
    the bound does not decide."""
    if tr - (2 << k) < e << 60:
        return None
    length = _trace_length(tr - 2 * e, k, w)
    return length if length == _trace_length(tr + 2 * e, k, w) else None


# the chart's bound on |ell| + |tau| and l1: a first guess takes ~0.7 bits per
# unit; the first aabAb length of an f takes 5-10 ms at 10^4 and 0.4-0.65 s
# at 10^5 on a 2-core Xeon VM, integer-valued coordinates alike, a next one
# 0.25 away 1-2 ms (APL rays reach ~1200)
CHART_MAX = 1e5
_MAX_RAISES = 64  # a^n at the smallest float ell: 33 tries, >= 63 bits apart


def _chart_size(l1: float, ell: float, tau: float) -> float:
    """|ell| + |tau|; ValueError off the chart (CHART_MAX; at ell / 2 = 0
    the chart's m divides by v - 1/v = 0)."""
    size = abs(ell) + abs(tau)
    if not (size <= CHART_MAX and abs(l1) <= CHART_MAX) or ell / 2 == 0:
        raise ValueError("(ell, tau, l1) = (%r, %r, %r) is off the chart: "
                         "|ell| + |tau| and l1 at most %g, ell not 0"
                         % (ell, tau, l1, CHART_MAX))
    return size


def _gamma_length_fn(gamma: str, l1: float):
    """(ell, tau) -> l_gamma on the torus chart, in fixed point at the
    precision the trace needs.

    The trace is gamma's normal-form plan (fricke._normal_plan) at the
    chart's (x, y, z) and kappa = -2 cosh(l1/2) (_chart_kappa), each with
    its error bound.  The true chart point lies on the level surface of the
    true kappa, where the plan's polynomial is the trace, so the plan's
    bound holds for the trace there; and the plan drops the monomials that
    cancel on that surface, which is most of the bits a group-algebra plan
    needs at large coordinates (aabAb: about 1150 bits at an APL ray top,
    against about 430).

    A length is returned only when the chart-and-plan error bound e (units
    of 2^-k) certifies it (_certified_length); else k rises by the bits the
    margin |tr| - 2 lacks plus 64 (at least 32), up to _MAX_RAISES times,
    then ArithmeticError.  A trivial or peripheral gamma (trace +-2 at a
    cusp: no k decides) and a point off the chart are a ValueError.

    The first try of f's first point is the guess k0 = 96 bits plus the
    bits of the coordinates, (|ell| + |tau|) / (2 ln 2) + 8.  After each
    certified point f records the least k at which that point's bound
    would have certified it: the bits of e barely depend on k, those of
    the margin grow one for one with it, so that k is about
    e.bit_length() + 62 - margin.bit_length() + k.  The next point starts
    at that k plus 32, scaled by the ratio of the two points' guesses, and
    never below 96 bits (at a few bits the chart's v - 1/v rounds to 0).
    The bits above 64 that a point needs grow about linearly along a ray,
    at rho bits per unit of |ell| + |tau| (rho = the last point's need above
    64 over its size); a point off the last one's ray, by `off` units from
    the last point scaled to its size, starts 2 rho off bits higher, as the
    gradient points at the top of an APL ray do, but at most the guess
    higher (after a point of subnormal size the ratio of the sizes and so
    the term overflow).  The raise rule catches a start too low.  Every
    length is certified at any k, and a finer evaluation lies inside the
    certified interval (_certified_length), so the start moves only the
    work, never a length.

    f keeps its own bounded memo of the chart's exponentials (_exp_fixed):
    along a twist line e^(ell/2) is taken again only when a point asks for
    more bits than it holds, and is shifted down otherwise.  The memo and
    the recorded k die with f; the lengths are certified, so they depend
    on neither.
    """
    if not cyclic_reduce(gamma) or is_peripheral_word(gamma):
        raise ValueError("gamma=%r is peripheral or trivial" % gamma)
    plan = _normal_plan(gamma)
    memo = {}
    last = []  # the last point's least certifying k, guess, ell, tau, size

    def f(ell, tau):
        size = _chart_size(l1, ell, tau)
        guess = 104 + math.ceil(size / (2 * math.log(2)))
        k = guess
        if last:
            need, guess0, ell0, tau0, size0 = last
            r = size / size0
            off = abs(ell - r * ell0) + abs(tau - r * tau0)
            extra = 2 * max(0, need - 64) * off / size0
            # at most a fresh first guess; the test is also false when a
            # subnormal size0 overflows r or extra (inf, or inf * 0 = nan)
            k = max(96, (need + 32) * guess // guess0
                    + (math.ceil(extra) if extra < guess else guess))
        for _ in range(_MAX_RAISES + 1):
            t, errs = _chart_fixed(l1, ell, tau, k, memo)
            kappa, ek = _chart_kappa(l1, k, memo)
            tr, e = _plan_eval_bounded(plan, *t, kappa, (*errs, ek), k)
            tr = abs(tr)
            length = _certified_length(tr, e, k, gamma)
            margin = tr - (2 << k)
            if length is not None:
                last[:] = (e.bit_length() + 62 - margin.bit_length() + k,
                           guess, ell, tau, size)
                return length
            # a margin inside the error bounds |tr| - 2 only from above;
            # then take |tr| - 2 >= 1, as at all but the shortest curves
            mbits = abs(margin).bit_length()
            if margin <= 2 * e:
                mbits = min(mbits, k)
            k += max(32, e.bit_length() - mbits + 64)
        raise ArithmeticError("no precision up to %d bits fixes the length "
                              "of %r at (%r, %r)" % (k, gamma, ell, tau))
    return f


def fricke_triple(X: SurfacePoint) -> FrickeTriple:
    """(x, y, z) = (Tr a, Tr b, Tr ab) of the torus chart marking (a the
    coordinate curve, b the transversal), the float view of _chart_fixed
    (_float_chart)."""
    if X.kind != S11:
        raise ValueError("fricke_triple is defined for the torus chart")
    return _float_chart(X, False)


def _float_chart(X: SurfacePoint, moved: bool) -> FrickeTriple:
    """The torus chart's triple at X, or when moved the triple (y, x,
    xy - z) of the basis swap, formed from _chart_fixed's ints and bounds
    (xy - z cancels most of xy at large coordinates, which floats would
    lose): at a k from 64 up whose bounds are at most 2^-60 of their
    coordinates, each rounded once (int true division rounds correctly).
    A point on the chart whose traces pass the float range is a ValueError
    too, as soon as one try bounds a trace past 2^1024, or at the
    rounding."""
    l1 = X.boundaries[0]
    _chart_size(l1, X.ell, X.tau)
    k, memo = 64, {}
    while True:
        t, errs = _chart_fixed(l1, X.ell, X.tau, k, memo)
        if moved:
            (x, y, z), (ex, ey, ez) = t, errs
            t = (y, x, (x * y >> k) - z)
            errs = (ey, ex,
                    (abs(x) * ey + abs(y) * ex + ex * ey >> k) + ez + 2)
        past = any((abs(v) - e).bit_length() > k + 1024
                   for v, e in zip(t, errs))
        if not past and all(e << 60 <= abs(v) for v, e in zip(t, errs)):
            try:
                return FrickeTriple(*(v / (1 << k) for v in t))
            except OverflowError:
                past = True
        if past:
            raise ValueError("(ell, tau, l1) = (%r, %r, %r) is past the "
                             "float range: a trace exceeds 2^1024"
                             % (X.ell, X.tau, l1))
        k += max(e.bit_length() + 61 - v.bit_length()
                 for v, e in zip(t, errs))


def surface_from_triple(t: FrickeTriple, l1: float) -> SurfacePoint:
    """Invert the torus chart: recover (l, tau) from trace coordinates.

    l1 must match the boundary invariant kappa = -2 cosh(l1/2) of the
    triple up to its rounding (_kappa_slack; checked, as is the float
    range).  The twist sign is fixed by the third trace.
    """
    x, y, z = abs(t.x), abs(t.y), abs(t.z)
    if x <= 2.0:
        raise ValueError("coordinate-curve trace must exceed 2")
    want = -2.0 * math.cosh(l1 / 2.0)
    # in floats, as want is: an int kappa would get no slack for its rounding
    kappa, slack = _kappa_slack([float(v) for v in t.astuple()])
    if not abs(kappa - want) <= slack < math.inf:
        raise ValueError("triple has kappa=%g, boundary l1=%g needs %g"
                         % (kappa, l1, want))
    ell = 2.0 * math.acosh(x / 2.0)
    m = math.sqrt(2.0 * math.cosh(l1 / 2.0) + 2.0 * math.cosh(ell)) \
        / (2.0 * math.sinh(ell / 2.0))
    # z = y cosh(l/2) + 2m sinh(l/2) sinh(tau/2): solving for sinh(tau/2)
    # stays full precision through tau = 0 (acosh of y/2m does not) and
    # carries the twist sign
    s = (z - y * math.cosh(ell / 2.0)) / (2.0 * m * math.sinh(ell / 2.0))
    tau = 2.0 * math.asinh(s)
    yp = 2.0 * m * math.cosh(tau / 2.0)
    if not abs(yp - y) <= CHART_TOL * max(1.0, y):
        raise ValueError("transversal trace inconsistent with chart (off by %g)"
                         % abs(yp - y))
    return SurfacePoint(S11, (l1,), ell, tau)


# ---------------------------------------------------------------------------
# four-holed sphere trigonometric route


def _sphere_delta_length(X: SurfacePoint, second: bool) -> float:
    """Length of the transversal pairing boundaries (1,3) or, with second
    set, (1,4)."""
    l1, l2, l3, l4 = X.boundaries
    if min(l1, l2, l3, l4) <= 0.0:
        raise HexDomainError(
            "transversal lengths on a cusped four-holed sphere are outside "
            "the trigonometric route's domain")
    bo, bf = (l4, l3) if second else (l3, l4)
    a1 = seam_F1(l1 / 2.0, X.ell / 2.0, l2 / 2.0)
    a2 = seam_F1(bo / 2.0, X.ell / 2.0, bf / 2.0)
    # the opposite-side foot sits half way along the curve
    t = X.tau + X.ell / 2.0 if second else X.tau
    # the half-trace formula is the crossed hexagon identity
    return 2.0 * hexagon_side("crossed", l1 / 2.0, bo / 2.0,
                              arc_over_geodesic(a1, a2, t))


# ---------------------------------------------------------------------------
# lengths


def curve_length(X: SurfacePoint, c: CurveOnSurface) -> float:
    """Geodesic length of c on X."""
    if c.kind != X.kind:
        raise ValueError("curve kind %r does not match surface kind %r"
                         % (c.kind, X.kind))
    if X.kind == S11:
        if c.slope == (1, 0):
            return X.ell
        word = c.word if c.slope is None else farey.slope_word(*c.slope)
        return _gamma_length_fn(word, X.boundaries[0])(X.ell, X.tau)
    if c.label == "interior":
        return X.ell
    if c.label in ("b1", "b2", "b3", "b4"):
        return X.boundaries[int(c.label[1]) - 1]
    return _sphere_delta_length(X, second=(c.label == "delta2"))


# ---------------------------------------------------------------------------
# flows and moves


def twist_flow(X: SurfacePoint, t: float) -> SurfacePoint:
    return replace(X, tau=X.tau + t)


def dehn_twist(X: SurfacePoint) -> SurfacePoint:
    """Twist by the full curve length; equals the Dehn twist along the
    coordinate curve (curves relabel by dehn_twist_slope_map)."""
    return twist_flow(X, X.ell)


def dehn_twist_slope_map(p: int, q: int) -> tuple[int, int]:
    return farey.normalize_slope(p + q, q)


def elementary_move(X: SurfacePoint) -> SurfacePoint:
    """Re-mark X with the standard transversal as new coordinate curve.

    The hyperbolic structure is unchanged; only the chart changes.  Torus:
    the trace coordinates transform by the basis swap (x,y,z)->(y,x,xy-z),
    formed in the chart's fixed point (_float_chart), and the chart is
    inverted.  Sphere: the new interior curve is the
    (1,3)-transversal, the boundary order becomes (l1,l3,l2,l4), the new
    twist is recovered from the arc construction with its sign fixed by the
    second transversal's length (which both charts can see).
    """
    if X.kind == S11:
        return surface_from_triple(_float_chart(X, True), X.boundaries[0])
    l1, l2, l3, l4 = X.boundaries
    new_ell = _sphere_delta_length(X, second=False)
    old_alpha = X.ell
    old_d2 = _sphere_delta_length(X, second=True)
    nb = (l1, l3, l2, l4)
    # in the new chart the old interior curve is the (1,3)-transversal:
    # invert its half-trace formula for the arc, then the arc for |tau'|
    d = seam_F1(l1 / 2.0, l2 / 2.0, old_alpha / 2.0)
    a1 = seam_F1(l1 / 2.0, new_ell / 2.0, l3 / 2.0)
    a2 = seam_F1(l2 / 2.0, new_ell / 2.0, l4 / 2.0)
    abs_tau = arc_over_geodesic_inverse(a1, a2, d)
    best = None
    for s in (1.0, -1.0):
        Y = SurfacePoint(S04, nb, new_ell, s * abs_tau)
        err = abs(_sphere_delta_length(Y, second=True) - old_d2)
        if best is None or err < best[0]:
            best = (err, Y)
    err, Y = best
    if err > 1e-6 * max(1.0, old_d2):
        raise HexDomainError("re-marking inconsistent: second transversal off by %g" % err)
    return Y


# ---------------------------------------------------------------------------
# symplectic check


def _move_coords(X: SurfacePoint) -> tuple[float, float]:
    Y = elementary_move(X)
    return Y.ell, Y.tau


def wolpert_check(X: SurfacePoint, h: float = 1e-5) -> float:
    """|det J - 1| for the central-difference Jacobian of the elementary
    move in (l, tau); the move preserves dl ^ dtau so the contract is
    <= 1e-5 at generic points.

    Near a twist-sign wall the differencing straddles a corner; that is
    reported by raising, and the caller retries with a smaller step.
    """
    scale = max(1.0, X.ell, abs(X.tau))
    hh = h * scale
    lp = replace(X, ell=X.ell + hh)
    lm = replace(X, ell=X.ell - hh)
    tp = replace(X, tau=X.tau + hh)
    tm = replace(X, tau=X.tau - hh)
    (l_lp, t_lp), (l_lm, t_lm) = _move_coords(lp), _move_coords(lm)
    (l_tp, t_tp), (l_tm, t_tm) = _move_coords(tp), _move_coords(tm)
    j11 = (l_lp - l_lm) / (2 * hh)
    j12 = (l_tp - l_tm) / (2 * hh)
    j21 = (t_lp - t_lm) / (2 * hh)
    j22 = (t_tp - t_tm) / (2 * hh)
    det = j11 * j22 - j12 * j21
    if abs(abs(det) - 1.0) > 0.5:
        raise ArithmeticError(
            "step %g straddles a twist-sign wall (det=%g); retry smaller" % (hh, det))
    return abs(abs(det) - 1.0)
