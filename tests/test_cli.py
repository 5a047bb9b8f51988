"""Driver plumbing: config precedence, outputs, exit codes."""

import json
import os
import subprocess
import sys

import pytest

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

    def test_twist_convexity_nonsimple_rejected(self):
        assert run_main(["twist-convexity", "--word", "aabAb"]) == 1

    # the chart mirrors the sign of ell and l1, so a negative value would
    # silently run at its absolute value; ell = 0 is the degenerate torus
    @pytest.mark.parametrize("args", [
        ["twist-convexity", "--ell=0"],
        ["twist-convexity", "--ell=-1.5"],
        ["twist-convexity", "--l1=-0.7"],
        ["ball-volume", "--L", "8", "--l1=-0.7"],
        ["apl-ray", "--l1=-0.7"],
        ["wall-scan", "--l1=-0.7"],
    ])
    def test_bad_lengths_exit_1(self, args, capsys):
        assert run_main(args) == 1
        key = args[-1].split("=")[0][2:]
        assert "config error: %s must be" % key in capsys.readouterr().err


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
