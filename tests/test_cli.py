"""Driver plumbing: config precedence, outputs, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from teichlab import cli


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
        # a torus point with traces ~5e16: the first mediant of the
        # direction walk, formed as xy - (xy - z), cancelled to below 0
        t = "5.164605048998411e16"
        assert run_main(["bx", "--x", ",".join([t] * 3)]) == 0
        assert capsys.readouterr().out.startswith("B=")

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

    # the chart and the trace bound 2 cosh(L/2) mirror the sign of ell, l1
    # and L, so a negative value would silently run at its absolute value;
    # ell = 0 is the degenerate torus
    @pytest.mark.parametrize("args", [
        ["twist-convexity", "--ell=0"],
        ["twist-convexity", "--ell=-1.5"],
        ["twist-convexity", "--l1=-0.7"],
        ["ball-volume", "--L", "8", "--l1=-0.7"],
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


# torus points, moved by a permutation and an even sign flip in the fuzz
_TORUS = [(3, 3, 3), (3, 4, 5), (3, 3, 6), (4, 4, 4)]
_SIGNS = [(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)]


def _torus_triples():
    return st.builds(lambda t, p, s: tuple(t[i] * e for i, e in zip(p, s)),
                     st.sampled_from(_TORUS), st.permutations(range(3)),
                     st.sampled_from(_SIGNS))


@st.composite
def _argv(draw):
    ints = st.integers(-12, 12)
    x = draw(st.one_of(st.tuples(ints, ints, ints), _torus_triples()))
    cmd = draw(st.sampled_from(["count-simple", "bx", "cone-count",
                                "count-word"]))
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
    example takes about 0.25 s (bx at (3,3,6)).  No shrinking and no
    replay of stored failures: each rerun of a hanging example would run
    to the bound again."""

    @settings(max_examples=60, deadline=None,
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
