"""Driver plumbing: config precedence, outputs, exit codes."""

import contextlib
import io
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import tempfile
import types

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from teichlab import _util, cli


def run_main(args):
    return cli.main(args)


class TestConfig:
    def test_defaults(self, capsys):
        assert run_main(["markoff-count"]) == 0
        assert "count=7" in capsys.readouterr().out

    def test_flag_overrides_default(self, capsys):
        assert run_main(["markoff-count", "--bound", "1000"]) == 0
        assert "count=13" in capsys.readouterr().out

    def test_file_then_flag(self, tmp_path, capsys):
        cf = tmp_path / "exp.cfg"
        cf.write_text("bound = 1000\nnorm = max\n")
        assert run_main(["markoff-count", "--config", str(cf)]) == 0
        assert "count=13" in capsys.readouterr().out
        # flags win over the file
        assert run_main(["markoff-count", "--config", str(cf),
                         "--bound", "100"]) == 0
        assert "count=7" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path):
        cf = tmp_path / "exp.cfg"
        cf.write_text("bogus = 1\n")
        assert run_main(["markoff-count", "--config", str(cf)]) == 1
        # an unknown flag or command is a config error too
        assert run_main(["markoff-count", "--bogus", "1"]) == 1
        assert run_main(["no-such-command"]) == 1

    def test_invalid_value_exit_1(self):
        assert run_main(["markoff-count", "--bound", "minus-one"]) == 1
        assert run_main(["count-simple", "--x", "3,3"]) == 1
        assert run_main(["markoff-count", "--norm", "median"]) == 1


class TestCommands:
    def test_count_simple(self, capsys):
        assert run_main(["count-simple", "--x", "3,3,3", "--L", "2.0"]) == 0
        assert "count=3" in capsys.readouterr().out

    def test_count_word_report(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert run_main(["count-word", "--x", "3,3,3", "--word", "abaB",
                         "--L", "8", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "ORB1"
        assert doc["counts"][-1] == 6

    def test_markoff_csv(self, tmp_path):
        out = tmp_path / "triples.csv"
        assert run_main(["markoff-count", "--bound", "100",
                         "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "p,q,r"
        assert len(rows) == 8  # header + 7 triples

    def test_apl_ray_json(self, capsys):
        assert run_main(["apl-ray", "--word", "aab", "--dir", "1,0",
                         "--radii", "10:1000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "APL1"
        assert doc["rational"]["slope"]["ok"]

    def test_checks_pass(self, capsys):
        assert run_main(["hexagon-check", "--trials", "20"]) == 0
        assert run_main(["wolpert-check", "--trials", "10"]) == 0
        assert run_main(["twist-convexity", "--word", "b"]) == 0
        capsys.readouterr()

    def test_ball_volume(self, capsys):
        assert run_main(["ball-volume", "--word", "aabAb", "--L", "12.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("vol=")
        assert float(out.split("=", 1)[1]) > 0

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_cone_count_signed_m(self, m, capsys):
        assert run_main(["cone-count", "--x", "3,3,3", "--m", m,
                         "--L", "20"]) == 0
        assert "count=" in capsys.readouterr().out

    def test_bx_huge_traces(self, capsys):
        # a torus point with traces ~5e16, where the slope (-1, 1) of trace
        # t^2 - t must not be formed as a cancelling xy - (xy - z)
        t = "5.164605048998411e16"
        assert run_main(["bx", "--x", ",".join([t] * 3)]) == 0
        assert capsys.readouterr().out.startswith("B=")

    def test_bx_thin_draw(self, capsys):
        # MC draw 4 of seed 917568896 (l ~ 0.0097), where a quadrature over
        # directions did not converge
        assert run_main(["bx", "--x", "2.000023663063033,411.15203570182683,"
                         "411.16556518273023"]) == 0
        assert capsys.readouterr().out.startswith("B=")

    @pytest.mark.parametrize("cmd", ["count-simple", "cone-count"])
    def test_trace_bound_overflow_exit_1(self, cmd, capsys):
        # 2 cosh(L/2) is beyond the float range at L = 2000
        assert run_main([cmd, "--x", "3,3,3", "--L", "2000"]) == 1
        assert "L must be at most 1419.5654" in capsys.readouterr().err

    @pytest.mark.parametrize("x", ["3,3,3", "3.2,3.5,4.1"])
    @pytest.mark.parametrize("L", ["2000", "2e307", "1e308"])
    def test_count_word_trace_bound_overflow_exit_1(self, x, L, capsys):
        # L is checked before the count sizes its precision from it
        assert run_main(["count-word", "--x", x, "--word", "aabAb",
                         "--L", L]) == 1
        assert "L must be at most 1419.5654" in capsys.readouterr().err

    def test_count_word_huge_L_small_memory(self):
        # at a float X, L = 1e10 once sized a fixed point of ~6e10 bits
        # (~7.8 GB) before any check of L; under a 1 GB address-space cap
        # a regression fails fast with a MemoryError
        cap = 1 << 30
        r = subprocess.run(
            [sys.executable, "-m", "teichlab.cli", "count-word", "--x",
             "3.2,3.5,4.1", "--word", "aabAb", "--L", "1e10"],
            capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (cap, cap)))
        assert r.returncode == 1, r.stderr
        assert "L must be at most 1419.5654" in r.stderr
        assert "Traceback" not in r.stderr

    def test_count_word_tiny_L(self, capsys):
        # the normalized counts divided by L^2, which underflows to 0
        assert run_main(["count-word", "--x", "87,-267,-267", "--word",
                         "aabAb", "--L", "1e-269"]) == 0
        assert "count=0" in capsys.readouterr().out

    def test_ball_volume_seed_zero(self, monkeypatch, capsys):
        seen = {}

        def fake(gamma, L, **kwargs):
            seen.update(kwargs)
            return 1.0, 1.0, 0.1
        monkeypatch.setattr(cli.orbit, "ball_volume_and_average", fake)
        assert run_main(["ball-volume", "--mc-samples", "1000"]) == 0
        assert seen["seed"] == 0 and seen["mc_samples"] == 1000
        assert capsys.readouterr().out.startswith("vol=")

    def test_bad_integers_exit_1(self):
        assert run_main(["cone-count", "--m", "0.5"]) == 1
        assert run_main(["ball-volume", "--mc-samples", "1000",
                         "--seed", "-1"]) == 1

    def test_twist_convexity_needs_twist_crossing(self, capsys):
        # length is convex along the twist for every curve crossing a, so a
        # non-simple word is checked; words without a b-letter and the
        # boundary abAB do not cross a
        assert run_main(["twist-convexity", "--word", "aabAb"]) == 0
        for word in ("a", "aaA", "bB", "abAB"):
            assert run_main(["twist-convexity", "--word", word]) == 1, word
        # at large ell the second differences of b are below the rounding
        # of its lengths, which is not a convexity failure
        assert run_main(["twist-convexity", "--word", "b",
                         "--ell", "800"]) == 0
        capsys.readouterr()

    def test_twist_convexity_at_subnormal_ell(self, capsys):
        # the grid's points share one length function, whose start after a
        # point of subnormal size stays finite
        assert run_main(["twist-convexity", "--word", "aabAb",
                         "--ell", "1e-320"]) == 0
        assert "min_second_diff=" in capsys.readouterr().out

    # the chart and the trace bound 2 cosh(L/2) mirror the sign of ell, l1
    # and L, so a negative value would silently run at its absolute value;
    # ell = 0 is the degenerate torus
    @pytest.mark.parametrize("args", [
        ["twist-convexity", "--ell=0"],
        ["twist-convexity", "--ell=-1.5"],
        ["twist-convexity", "--l1=-0.7"],
        ["ball-volume", "--L", "8", "--l1=-0.7"],
        ["ball-volume", "--L=-5"],
        ["apl-ray", "--l1=-0.7"],
        ["wall-scan", "--l1=-0.7"],
        ["count-simple", "--L=-5"],
        ["cone-count", "--L=-5"],
        ["count-word", "--L=0"],
    ])
    def test_bad_lengths_exit_1(self, args, capsys):
        assert run_main(args) == 1
        key = args[-1].split("=")[0][2:]
        assert "config error: %s must be" % key in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_twist_convexity_grid_too_small(self, n, capsys):
        # a second difference needs three grid points
        assert run_main(["twist-convexity", "--grid-n", n]) == 1
        assert "grid_n must be an integer >= 3" in capsys.readouterr().err

    def test_grid_cap_at_parsing_helpers(self):
        # a grid or radius list is built, and a length evaluated at each
        # point, only once its size is known to be at most GRID_MAX
        cap = cli.GRID_MAX
        assert cli._as_int({"grid_n": str(cap)}, "grid_n", 1, cap) == cap
        for n in (cap + 1, 10 ** 9):
            with pytest.raises(cli.ConfigError, match="at most %d" % cap):
                cli._as_int({"grid_n": str(n)}, "grid_n", 1, cap)
        with pytest.raises(cli.ConfigError, match="at most %d" % cap):
            cli._radii_from_spec("10:1000:%d" % (cap + 1))

    @pytest.mark.parametrize("text, want", [
        ("9007199254740993", 9007199254740993), ("1e30", 10 ** 30),
        ("1000.0", 1000)])
    def test_int_options_keep_every_digit(self, text, want):
        # read exactly, not through a float: 2^53 + 1 is no float, and
        # float 1e30 is 1000000000000000019884624838656
        assert cli._as_int({"seed": text}, "seed", 0) == want

    @pytest.mark.parametrize("text, message", [
        ("2.5", "seed must be an integer >= 0"),
        ("inf", "seed must be finite")])
    def test_int_options_reject(self, text, message):
        with pytest.raises(cli.ConfigError, match=message):
            cli._as_int({"seed": text}, "seed", 0)

    def test_radii_count_read_as_int_option(self, capsys):
        # the n of --radii lo:hi:n is read as every integer option is
        # (_as_int): 1e3 is 1000 samples, where int("1e3") raised
        assert run_main(["apl-ray", "--radii", "1:1000:1e3"]) == 0
        assert len(json.loads(capsys.readouterr().out)["lengths"]) == 1000

    def test_grid_n_read_as_int_option(self, capsys):
        assert run_main(["wall-scan", "--grid-n", "1e3"]) == 0
        assert "walls=" in capsys.readouterr().out

    @pytest.mark.parametrize("n, message", [
        ("3", "radii must be an integer >= 4"),
        ("2.5", "radii must be an integer >= 4"),
        ("x", "radii must be numeric")])
    def test_radii_count_rejected(self, n, message, capsys):
        assert run_main(["apl-ray", "--radii", "10:1000:" + n]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["wall-scan", "--grid-n", "{n}"],
        ["twist-convexity", "--grid-n", "{n}"],
        ["apl-ray", "--radii", "10:1000:{n}"],
    ])
    def test_grid_cap_exit_1(self, args, capsys, time_bound):
        args = [a.format(n=cli.GRID_MAX + 1) for a in args]
        with time_bound(3):
            assert run_main(args) == 1
        assert "at most %d" % cli.GRID_MAX in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["hexagon-check", "--trials", "{n}"],
        ["wolpert-check", "--trials", "{n}"],
        ["ball-volume", "--mc-samples", "{n}"],
    ])
    @pytest.mark.parametrize("n", [cli.SAMPLES_MAX + 1, "1e12"])
    def test_samples_cap_exit_1(self, args, n, capsys, time_bound):
        # each builds a list of its trials or samples before any work, so a
        # count above SAMPLES_MAX is rejected while the options are read
        args = [a.format(n=n) for a in args]
        with time_bound(3):
            assert run_main(args) == 1
        err = capsys.readouterr().err
        assert "at most %d" % cli.SAMPLES_MAX in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("span", ["0", "-3"])
    def test_twist_convexity_span_positive(self, span, capsys):
        # span 0 checks tau = 0 only; a negative span mirrors the grid
        assert run_main(["twist-convexity", "--span=" + span]) == 1
        assert "span must be > 0" in capsys.readouterr().err

    def test_markoff_fit_bounds_at_least_2(self, capsys):
        # each count is normalized by log(b)^2, zero at b = 1
        assert run_main(["markoff-fit", "--bounds", "1,10,100"]) == 1
        assert "bounds must be an integer >= 2" in capsys.readouterr().err
        assert run_main(["markoff-fit", "--bounds", "10,100.5"]) == 1

    @pytest.mark.parametrize("cmd", ["apl-ray", "wall-scan"])
    def test_apl_rejects_peripheral_word(self, cmd, capsys):
        # the boundary curve abAB has length 0 everywhere
        assert run_main([cmd, "--word", "abAB"]) == 1
        assert "peripheral" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["apl-ray", "wall-scan", "twist-convexity",
                                     "ball-volume", "count-word"])
    def test_word_over_cap_exit_1(self, cmd, reduced_word, capsys,
                                  time_bound):
        # the cap is checked where the trace plan is compiled, so every
        # command that compiles one meets it, as a config error
        with time_bound(10):
            assert run_main([cmd, "--word", reduced_word(23, 10_001)]) == 1
        assert "exceeds cap" in capsys.readouterr().err

    def test_twist_convexity_generic_word(self, reduced_word, capsys,
                                          time_bound):
        # a generic 50-letter word compiles to a plan linear in its
        # length (335 instructions), so its 33 lengths take well under 5 s
        with time_bound(5):
            assert run_main(["twist-convexity", "--word",
                             reduced_word(23, 50)]) == 0
        assert "min_second_diff" in capsys.readouterr().out

    def test_twist_convexity_thin_part(self, capsys):
        # at ell = 1e-40 the lengths of aaBabb need more bits than the
        # coordinates' size suggests; the error bound finds them
        assert run_main(["twist-convexity", "--word", "aaBabb",
                         "--ell", "1e-40"]) == 0
        capsys.readouterr()

    # outside the chart's domain: non-finite, beyond CHART_MAX (the first
    # try alone would need ~10^300 bits), or ell = 0 on the ray
    @pytest.mark.parametrize("args", [
        ["apl-ray", "--x0=0,inf"],
        ["apl-ray", "--dir=1,nan"],
        ["apl-ray", "--l1=1e308"],
        ["apl-ray", "--radii=1:1e300:5"],
        ["apl-ray", "--radii=1:inf"],
        ["apl-ray", "--x0=-10,0"],
        ["wall-scan", "--l1=1e300"],
        ["twist-convexity", "--ell=1e300"],
        ["twist-convexity", "--span=1e300"],
        ["twist-convexity", "--ell=5e-324"],
        ["ball-volume", "--L=1e300"],
    ])
    def test_chart_domain_exit_1(self, args, capsys, time_bound):
        with time_bound(3):
            assert run_main(args) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["count-simple", "--x=0,0,0", "--L=5"],
        ["bx", "--x=2,2,2"],
        ["cone-count", "--x=-3,3,3"],
        ["count-word", "--x=2.5,2.5,2.5", "--word=aabAb"],
    ])
    def test_non_torus_point_exit_1(self, args, capsys, time_bound):
        # off the torus points the Farey search never ends and the ball
        # area divides by zero
        with time_bound(3):
            assert run_main(args) == 1
        assert "not a torus point" in capsys.readouterr().err


# a command takes --out, --workers and --seed only where it writes a file,
# fans out to workers or draws samples; elsewhere each is an unknown key
_UNREAD_KEYS = (
    [(cmd, "out") for cmd in ("count-simple", "bx", "cone-count",
                              "ball-volume", "hexagon-check",
                              "wolpert-check", "twist-convexity")]
    + [(cmd, "workers") for cmd in ("markoff-count", "markoff-fit",
                                    "count-simple", "count-word", "bx",
                                    "cone-count", "apl-ray", "wall-scan",
                                    "twist-convexity", "report")]
    + [(cmd, "seed") for cmd in ("markoff-count", "markoff-fit",
                                 "count-simple", "count-word", "bx",
                                 "cone-count", "apl-ray", "wall-scan",
                                 "hexagon-check", "wolpert-check",
                                 "twist-convexity", "acceptance", "report")])


@pytest.mark.parametrize("cmd,key", _UNREAD_KEYS)
def test_unread_key_rejected(cmd, key, tmp_path, capsys):
    out = tmp_path / "r.out"
    value = str(out) if key == "out" else "2"
    assert run_main([cmd, "--" + key, value]) == 1
    cf = tmp_path / "exp.cfg"
    cf.write_text("%s = %s\n" % (key, value))
    assert run_main([cmd, "--config", str(cf)]) == 1
    assert "unknown config key: %r" % key in capsys.readouterr().err
    assert not out.exists()


# torus points, moved by a permutation and an even sign flip in the fuzz
_TORUS = [(3, 3, 3), (3, 4, 5), (3, 3, 6), (4, 4, 4)]
_SIGNS = [(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)]


def _torus_triples():
    return st.builds(lambda t, p, s: tuple(t[i] * e for i, e in zip(p, s)),
                     st.sampled_from(_TORUS), st.permutations(range(3)),
                     st.sampled_from(_SIGNS))


# the chart commands: each key is left at its default or drawn, one value
# per comma-separated component, from the finite, non-finite and huge
_CHART_KEYS = {"apl-ray": [("x0", 2), ("dir", 2), ("l1", 1)],
               "wall-scan": [("l1", 1)],
               "twist-convexity": [("ell", 1), ("l1", 1), ("span", 1)]}
_CHART_VALUES = ["-1", "0", "0.5", "3", "inf", "-inf", "nan", "1e300"]


@st.composite
def _argv(draw):
    ints = st.integers(-12, 12)
    cmd = draw(st.sampled_from(["count-simple", "bx", "cone-count",
                                "count-word"] + list(_CHART_KEYS)))
    if cmd in _CHART_KEYS:
        argv = [cmd, "--word=%s" % draw(st.sampled_from(
            ["aab", "abaB", "aBab", "a", "abAB"]))]
        for key, n in _CHART_KEYS[cmd]:
            v = draw(st.one_of(st.none(), st.lists(
                st.sampled_from(_CHART_VALUES), min_size=n, max_size=n)))
            if v is not None:
                argv.append("--%s=%s" % (key, ",".join(v)))
        return argv, False
    x = draw(st.one_of(st.tuples(ints, ints, ints), _torus_triples()))
    argv = [cmd, "--x=%d,%d,%d" % x]
    if cmd != "bx":
        argv.append("--L=%d" % draw(st.integers(-3, 8)))
    if cmd == "cone-count":
        argv.append("--m=%d" % draw(ints))
    if cmd == "count-word":
        argv.append("--word=%s" % draw(st.one_of(
            st.sampled_from(["a", "aab", "abaB", "aabAb", "abAB"]),
            st.text("abABc", max_size=6))))
    # an unknown key, as a flag or in a config file
    unknown = draw(st.sampled_from([None, "flag", "file"]))
    if unknown == "flag":
        argv.append("--bogus=1")
    return argv, unknown == "file"


class TestFuzz:
    """CLI input never hangs and never escapes as a traceback: every
    command ends within a time bound with an exit code 0-3.  The slowest
    example takes about 0.1 s (count-word at (3,3,3) and L = 8; each case
    of the chart commands ends within 0.16 s).  No shrinking and no replay
    of stored failures: each rerun of a hanging example would run to the
    bound again."""

    @settings(max_examples=100, deadline=None,
              phases=[Phase.explicit, Phase.generate])
    @given(case=_argv())
    @example(case=(["count-simple", "--x=0,0,0", "--L=5"], False))
    @example(case=(["bx", "--x=2,2,2"], False))
    def test_exit_codes(self, case, time_bound):
        argv, bad_file = case
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as d, time_bound(3), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            if bad_file:
                cfg = os.path.join(d, "bad.cfg")
                with open(cfg, "w") as f:
                    f.write("bogus = 1\n")
                argv = argv + ["--config", cfg]
            code = cli.main(argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue()


class TestReport:
    @pytest.mark.parametrize("name,text", [
        ("missing.json", None),
        (".", None),
        ("list.json", "[1, 2]"),
        ("bad.json", "{not json"),
        ("orb.json", json.dumps({"schema": "ORB1", "counts": [1]})),
    ])
    def test_unreadable_file_exit_1(self, name, text, tmp_path, capsys):
        p = tmp_path / name
        if text is not None:
            p.write_text(text)
        assert run_main(["report", "--files", str(p)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_acceptance_then_report(self, tmp_path, capsys):
        out = tmp_path / "acc.json"
        assert run_main(["acceptance", "--out", str(out)]) == 0
        capsys.readouterr()
        assert run_main(["report", "--files", str(out)]) == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].startswith("check,")

    def test_schema_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"schema": "ACC1", "checks": []}))
        b.write_text(json.dumps({"schema": "ORB1"}))
        assert run_main(["report", "--files", "%s,%s" % (a, b)]) == 1


class TestDeterminism:
    @pytest.mark.parametrize("workers,n,want", [
        (5000, 2, 2), (5000, 10, 4), (3, 10, 3), (5000, 1, None)])
    def test_parallel_map_bounds_processes(self, workers, n, want,
                                           monkeypatch):
        # one process per item and per available CPU at most; a fake
        # context records the pool size and starts no process
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return [fn(it) for it in items]

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: types.SimpleNamespace(
                                Pool=FakePool))
        monkeypatch.setattr(_util.os, "sched_getaffinity",
                            lambda pid: set(range(4)), raising=False)
        got = _util.parallel_map(abs, range(-n, 0), workers)
        assert got == list(range(n, 0, -1))
        assert sizes == ([] if want is None else [want])

    def test_workers_env_byte_identical(self, tmp_path):
        outs = []
        for w in ("1", "3"):
            out = tmp_path / ("acc%s.json" % w)
            env = dict(os.environ, TEICHLAB_WORKERS=w)
            r = subprocess.run(
                [sys.executable, "-m", "teichlab.cli", "acceptance",
                 "--out", str(out)],
                env=env, capture_output=True, text=True)
            assert r.returncode == 0, r.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
