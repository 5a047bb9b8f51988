"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible under pytest -s; under
plain pytest the captured line is shown on failure).  Tolerances are the
pinned contract values; loosening them is not an option here.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import teichlab.fn_surface as fs
import teichlab.hyptrig as ht
import teichlab.markoff as mk
import teichlab.orbit as ob
from teichlab import apl, farey
from teichlab.fricke import (FrickeTriple, rep_from_fricke,
                             trace_word_fricke, trace_word_numeric)

MODULAR = (3.0, 3.0, 3.0)
SAMPLE_XS = [(3.0, 3.0, 3.0), (3.2, 3.5, 4.1), (5.0, 3.1, 7.2)]


def report(n, ok, detail):
    line = "[criterion %2d] %s: %s" % (n, "PASS" if ok else "FAIL", detail)
    print(line, flush=True)
    assert ok, line


def rng_for(tag):
    return np.random.Generator(np.random.Philox(key=[0xACC, tag]))


def test_criterion_01_markoff_exactness():
    import time
    t0 = time.time()
    tree = mk.enumerate_triples(10 ** 4)
    brute = mk.brute_force_triples(10 ** 4)
    dt = time.time() - t0
    # identical sorted triple lists pin the counts at every x <= 10^4
    ok = tree == brute and dt < 10.0
    report(1, ok, "tree enumeration == O(x^2) oracle up to 1e4 "
           "(%d triples, %.1fs)" % (len(tree), dt))


def test_criterion_02_growth():
    import time
    t0 = time.time()
    bounds = [10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12]
    samples = [(b, mk.enumerate_count(b)) for b in bounds]
    dt = time.time() - t0
    norms = [c / math.log(b) ** 2 for (b, c) in samples]
    # each grid step spans three decades
    drifts = [abs(n2 / n1 - 1.0) / 3.0 for n1, n2 in zip(norms, norms[1:])]
    C, rep = mk.fit_growth(samples)
    ok = (dt < 60.0 and max(drifts) < 0.15 and C > 0
          and rep["max_relative_residual"] < 0.2)
    report(2, ok, "counts %s in %.1fs; drift/decade %.3f; C=%.4f resid=%.3f"
           % ([c for (_, c) in samples], dt, max(drifts), C,
              rep["max_relative_residual"]))


def test_criterion_03_trace_engine():
    rng = rng_for(3)
    worst = 0.0
    for _ in range(10_000):
        x, y, z = (float(v) for v in rng.uniform(2.1, 6.0, size=3))
        n = int(rng.integers(1, 21))
        w = "".join(rng.choice(list("abAB"), size=n))
        t = FrickeTriple(x, y, z)
        A, B = rep_from_fricke(t)
        sym = trace_word_fricke(t, w)
        num = trace_word_numeric(A, B, w)
        worst = max(worst, abs(sym - num) / max(1.0, abs(num)))
    exact = all(
        trace_word_fricke((x, y, z), "abAB")
        == x * x + y * y + z * z - x * y * z - 2
        for x in range(2, 7) for y in range(2, 7) for z in range(3, 7))
    ok = worst <= 1e-8 and exact
    report(3, ok, "10^4 symbolic-vs-matrix traces, worst rel %.2e; "
           "commutator identity exact on 100 integer triples" % worst)


def test_criterion_04_markoff_trace_bridge():
    bad = 0
    for (p, q, r) in mk.enumerate_triples(10 ** 6):
        x, y, z = 3 * p, 3 * q, 3 * r
        if x * x + y * y + z * z - x * y * z - 2 != -2:
            bad += 1
    report(4, bad == 0, "kappa(3p,3q,3r) = -2 exactly on all triples to 1e6")


def test_criterion_05_hexagon_kernel():
    rng = rng_for(5)
    worst_rt = 0.0
    for _ in range(10_000):
        ta, tb, cc = (float(v) for v in rng.uniform(0.2, 4.0, size=3))
        c = ht.hexagon_side("convex", ta, tb, cc)
        back = ht.hexagon_side("crossed", ta, tb, c)
        worst_rt = max(worst_rt, abs(back - cc) / max(1.0, cc))
    s = math.acosh(2.0)
    reg = abs(ht.hexagon_side("convex", s, s, s) - s)

    sups = []
    for floor in (10.0, 20.0, 40.0):
        sup = 0.0
        for i in range(9):
            for j in range(9):
                for k in range(9):
                    x = floor * (1.0 + i / 4.0)
                    y = floor * (1.0 + j / 4.0)
                    z = floor * (1.0 + k / 4.0)
                    e, _ = ht.E_approx(x, y, z)
                    sup = max(sup, abs(e - ht.log_sinh_F1(x, y, z)))
        sups.append(sup)
    monotone = all(math.isfinite(s) for s in sups) \
        and sups[0] >= sups[1] >= sups[2]

    viol = 0
    for _ in range(10_000):
        x, y, z = (float(v) for v in rng.uniform(50.0 + 1e-9, 200.0, size=3))
        eps = float(rng.uniform(0.01, 0.9))
        xp, yp, zp = (v * (1.0 + eps) ** float(rng.uniform(-1.0, 1.0))
                      for v in (x, y, z))
        d = abs(ht.log_sinh_F1(x, y, z) - ht.log_sinh_F1(xp, yp, zp))
        if d > 5.0 * eps * max(x, y, z):
            viol += 1
    ok = worst_rt <= 1e-9 and reg <= 1e-12 and monotone and viol == 0
    report(5, ok, "round-trip sup %.1e; regular root %.1e; "
           "PL sup-residuals %s non-increasing; 5eps bound violations %d"
           % (worst_rt, reg, ["%.3f" % s for s in sups], viol))


def _wolpert_at(X):
    for h in (1e-5, 1e-6, 1e-7):
        try:
            return fs.wolpert_check(X, h)
        except (ht.HexDomainError, ValueError, ArithmeticError):
            continue
    return math.inf


def test_criterion_06_wolpert():
    rng = rng_for(6)
    worst = 0.0
    for _ in range(100):
        X = fs.SurfacePoint("S11", (float(rng.uniform(0.0, 1.5)),),
                            float(rng.uniform(0.5, 3.0)),
                            float(rng.uniform(-2.0, 2.0)))
        worst = max(worst, _wolpert_at(X))
    for _ in range(100):
        X = fs.SurfacePoint("S04",
                            tuple(float(v) for v in rng.uniform(0.3, 2.0, size=4)),
                            float(rng.uniform(1.0, 4.0)),
                            float(rng.uniform(-2.0, 2.0)))
        worst = max(worst, _wolpert_at(X))
    report(6, worst <= 1e-5,
           "elementary-move Jacobian |det-1| sup %.2e at 100+100 points" % worst)


def test_criterion_07_dehn_twist():
    rng = rng_for(7)
    slopes = farey.slopes_up_to_depth(3)[:20]
    worst = 0.0
    for _ in range(5):
        X = fs.SurfacePoint("S11", (float(rng.uniform(0.0, 1.0)),),
                            float(rng.uniform(0.7, 2.5)),
                            float(rng.uniform(-1.5, 1.5)))
        Y = fs.dehn_twist(X)
        for (p, q) in slopes:
            lx = fs.curve_length(X, fs.torus_curve(fs.dehn_twist_slope_map(p, q)))
            ly = fs.curve_length(Y, fs.torus_curve((p, q)))
            worst = max(worst, abs(lx - ly) / max(1.0, lx))

    convex_ok = True
    X0 = fs.SurfacePoint("S11", (0.0,), 1.5, 0.0)
    for slope in [(0, 1), (1, 1), (2, 1), (1, 2)]:
        vals = [fs.curve_length(fs.twist_flow(X0, t), fs.torus_curve(slope))
                for t in [i * 0.25 - 3.0 for i in range(25)]]
        d2 = [a - 2 * b + c for a, b, c in zip(vals, vals[1:], vals[2:])]
        convex_ok = convex_ok and min(d2) > 0
    ok = worst <= 1e-9 and convex_ok
    report(7, ok, "20-curve spectra under tw^l vs relabel, sup rel %.1e; "
           "twist second differences all positive" % worst)


def test_criterion_08_simple_counting():
    ratios = []
    for X in SAMPLE_XS:
        c1 = ob.count_simple(X, 50.0)
        c2 = ob.count_simple(X, 100.0)
        ratios.append(c2 / c1)
    sys_len = 2.0 * math.acosh(1.5)
    at_systole = ob.count_simple(MODULAR, sys_len + 1e-6)
    ok = all(3.8 <= r <= 4.2 for r in ratios) and at_systole == 3
    report(8, ok, "s_X(100)/s_X(50) = %s; modular count above systole = %d"
           % (["%.3f" % r for r in ratios], at_systole))


def test_criterion_09_constant_independence():
    L = 60.0
    spreads = []
    details = []
    for g in ["a", "aab"]:
        vals = []
        for X in SAMPLE_XS:
            c = ob.count_orbit_word(X, g, L).counts[-1]
            vals.append(c / (L * L * ob.thurston_ball_B(X)))
        spread = (max(vals) - min(vals)) / (sum(vals) / len(vals))
        spreads.append(spread)
        details.append("%s: %.2f%%" % (g, 100 * spread))
    # B is normalized so that #{integral multicurves of length <= L} /
    # (L^2 B(X)) -> 1; the lattice-point error is O(1/L), about 2% at L = 30
    # and so about 0.5% at L = 120, inside the 1% bound
    M = 120.0
    norms = [ob.integral_multicurve_count(X, M) / (M * M * ob.thurston_ball_B(X))
             for X in SAMPLE_XS]
    ok = all(s <= 0.05 for s in spreads) and \
        all(abs(n - 1.0) <= 0.01 for n in norms)
    report(9, ok, "s_X(L,gamma)/(L^2 B(X)) spread across X "
           + ", ".join(details) + "; multicurves(120)/(120^2 B(X)) = "
           + ", ".join("%.4f" % n for n in norms))


def test_criterion_10_word_orbit_oracle():
    ok = True
    details = []
    for gamma in ["abaB", "aabAb"]:
        for L in [6.0, 9.0, 12.0]:
            rep = ob.count_orbit_word(MODULAR, gamma, L)
            brute = ob.count_orbit_word_bruteforce(MODULAR, gamma, L)
            ok = ok and rep.counts[-1] == brute and rep.prune_violations == 0
        details.append("%s@L12=%d" % (gamma, rep.counts[-1]))
    report(10, ok, "count_orbit_word == word-ball brute force, "
           "zero pruning violations (%s)" % ", ".join(details))


def test_criterion_11_ball_volume():
    v50 = ob.ball_length_region_volume("aabAb", 50.0)
    v100 = ob.ball_length_region_volume("aabAb", 100.0)
    ratio = v100 / v50
    # the samples are the same for any worker count
    vol, avg, se = ob.ball_volume_and_average("aabAb", 30.0,
                                              mc_samples=1000, seed=0,
                                              workers=2)
    sigmas = abs(avg - vol) / se
    ok = 3.8 <= ratio <= 4.2 and sigmas <= 3.0
    report(11, ok, "vol(100)/vol(50) = %.3f; MC average vs area integral: "
           "%.1f vs %.1f (%.2f sigma)" % (ratio, avg, vol, sigmas))


def test_criterion_12_cone_counting():
    X = SAMPLE_XS[1]
    ms = [-1, 0, 1, 3]
    c60 = [ob.cone_count(X, m, 60.0) for m in ms]
    c120 = [ob.cone_count(X, m, 120.0) for m in ms]
    ratio = c120[1] / c60[1]
    stable = len(set(c60)) == 1 and len(set(c120)) == 1
    ok = 3.6 <= ratio <= 4.4 and stable
    report(12, ok, "cone count x%.3f under L->2L; per-m counts %s / %s"
           % (ratio, c60, c120))


def test_criterion_13_apl_rationality():
    rng = rng_for(13)
    radii = [5.0 * 10 ** (2.0 * i / 7.0) for i in range(8)]
    all_ok = True
    details = []
    for gamma in ["a", "aab", "abaB"]:
        walls = [w.u_mid for w in apl.wall_scan(gamma).walls]
        good = 0
        tried = 0
        while tried < 20:
            u = float(rng.uniform(-2.3, 2.3))
            if any(abs(u - w) < 0.15 for w in walls):
                continue
            tried += 1
            x0 = (float(rng.uniform(0.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
            fit = apl.ray_fit(gamma, x0, (1.0, u), radii)
            if fit.rational["grad_ell"]["ok"] and fit.rational["grad_tau"]["ok"]:
                good += 1
        all_ok = all_ok and good >= 19
        stable = apl.wall_scan(gamma, grid_n=64).wall_count == \
            apl.wall_scan(gamma, grid_n=128).wall_count
        all_ok = all_ok and stable
        details.append("%s: %d/20 rational, walls stable %s" % (gamma, good, stable))
    report(13, all_ok, "; ".join(details))


def test_criterion_14_determinism(tmp_path):
    outs = []
    for w in ("1", "4", "16"):
        out = tmp_path / ("acc_w%s.json" % w)
        env = dict(os.environ, TEICHLAB_WORKERS=w)
        r = subprocess.run(
            [sys.executable, "-m", "teichlab.cli", "acceptance",
             "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    passed = json.loads(outs[0])["pass"]
    report(14, ok and passed,
           "acceptance battery byte-identical across workers 1/4/16, all checks pass")
