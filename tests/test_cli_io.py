import json
import subprocess
import sys

import pytest

from ensembles import brownian_oracle as bo
from ensembles import cli_io as cio
from ensembles import exact_engine as ee

EXACT_CFG = """\
experiment = exact
seed = 7
kernel.preset = unit
model.n = 1
model.a = 1.0
model.b = 2.0
model.lambda = 0.5
window.m_left = -3
window.n_right = 3
boundary.kind = bridge
boundary.u = 1
boundary.v = 1
"""

MIXING_CFG = """\
experiment = mixing
seed = 1
kernel.preset = unit
model.n = 1
model.a = 1.0
model.b = 2.0
model.lambda = 0.5
mixing.t_lattice = 1
mixing.k_list = 1,2,3
mixing.u = 1
mixing.w = 3
mixing.mode = both
"""

CONVERGE_CFG = """\
experiment = converge
kernel.preset = unit
model.n = 1
model.a = 1.0
model.b = 2.0
converge.lambda_list = 0.5,0.3
converge.mode = walk
oracle.dx = 0.1
"""


class TestParseConfig:
    def test_minimal_round_trip(self):
        cfg = cio.parse_config(EXACT_CFG)
        canon = cio.emit_config(cfg)
        cfg2 = cio.parse_config(canon)
        assert cfg == cfg2
        assert cio.emit_config(cfg2) == canon

    def test_unknown_key_named_in_error(self):
        with pytest.raises(cio.UnknownKey, match="kernel.varianse"):
            cio.parse_config(EXACT_CFG + "kernel.varianse = 1\n")

    def test_geometric_factor_must_exceed_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            cio.parse_config(EXACT_CFG.replace("model.b = 2.0", "model.b = 1.0"))

    def test_missing_required(self):
        with pytest.raises(cio.MissingRequired, match="model.lambda"):
            cio.parse_config(EXACT_CFG.replace("model.lambda = 0.5\n", ""))

    def test_missing_experiment(self):
        with pytest.raises(cio.MissingRequired, match="experiment"):
            cio.parse_config("seed = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(cio.ConfigError, match="duplicate"):
            cio.parse_config(EXACT_CFG + "seed = 9\n")

    def test_type_errors_name_the_key(self):
        with pytest.raises(TypeError, match="seed"):
            cio.parse_config(EXACT_CFG.replace("seed = 7", "seed = seven"))
        with pytest.raises(TypeError, match="boundary.kind"):
            cio.parse_config(EXACT_CFG.replace("kind = bridge", "kind = loop"))

    def test_comments_and_blank_lines_ignored(self):
        cfg = cio.parse_config("# comment\n\n" + EXACT_CFG)
        assert cfg.experiment == "exact"

    def test_experiment_mismatch_rejected(self):
        with pytest.raises(cio.ConfigError, match="requested"):
            cio.parse_config(EXACT_CFG, experiment="mixing")

    def test_hash_changes_with_config(self):
        h1 = cio.config_hash(cio.parse_config(EXACT_CFG))
        h2 = cio.config_hash(cio.parse_config(EXACT_CFG.replace("seed = 7", "seed = 8")))
        assert h1 != h2


class TestEmitCsv:
    def test_three_rows_make_four_lines(self):
        text = cio.emit_csv(["K", "tv"], [(1, 0.5), (2, 0.25), (3, 0.125)])
        assert text.count("\n") == 4
        assert text.startswith("K,tv\n")
        assert "\r" not in text

    def test_empty_report_is_header_only(self):
        assert cio.emit_csv(["a", "b"], []) == "a,b\n"

    def test_nan_is_an_error(self):
        with pytest.raises(ValueError, match="NaN"):
            cio.emit_csv(["x"], [(float("nan"),)])

    def test_seventeen_significant_digits(self):
        text = cio.emit_csv(["x"], [(1.0 / 3.0,)])
        assert "0.33333333333333331" in text

    def test_quoting(self):
        assert cio.emit_csv(["s"], [("a,b",)]) == 's\n"a,b"\n'


class TestRun:
    def test_exact_writes_envelope_and_curves(self, tmp_path):
        cfg = cio.parse_config(EXACT_CFG)
        env = cio.run(cfg, tmp_path / "out")
        assert (tmp_path / "out" / "results.json").exists()
        assert (tmp_path / "out" / "marginal.csv").exists()
        on_disk = json.loads((tmp_path / "out" / "results.json").read_text())
        assert on_disk["config_hash"] == cio.config_hash(cfg)
        assert on_disk["payload"]["consistency_max_abs"] < 1e-9
        assert env["pass"] is None

    def test_determinism_across_runs_and_threads(self, tmp_path):
        cfg = cio.parse_config(MIXING_CFG)
        outs = []
        for name, threads in (("a", 1), ("b", 1), ("c", 8)):
            cio.run(cfg, tmp_path / name, threads=threads)
            blob = b""
            for f in sorted((tmp_path / name).glob("*.csv")):
                blob += f.name.encode() + f.read_bytes()
            env = json.loads((tmp_path / name / "results.json").read_text())
            env.pop("timings")
            env.pop("threads")
            outs.append((blob, json.dumps(env, sort_keys=True)))
        assert outs[0] == outs[1] == outs[2]

    def test_converge_identical_across_threads(self, tmp_path):
        cfg = cio.parse_config(CONVERGE_CFG)
        outs = []
        for name, threads in (("a", 1), ("b", 2)):
            cio.run(cfg, tmp_path / name, threads=threads)
            env = json.loads((tmp_path / name / "results.json").read_text())
            env.pop("timings")
            env.pop("threads")
            outs.append(((tmp_path / name / "converge.csv").read_bytes(), json.dumps(env, sort_keys=True)))
        assert outs[0] == outs[1]

    def test_oversized_oracle_fails_before_eigensolve(self, tmp_path, monkeypatch):
        # polymer passes of 380^2 cells x 13 taps x 2 axes x 400 steps = 1.5e9 > 1e9
        def unreachable(*args, **kwargs):
            raise AssertionError("stationary_density ran before the budget check")

        monkeypatch.setattr(bo, "stationary_density", unreachable)
        text = "experiment = oracle\nmodel.a = 1.0\nmodel.b = 2.0\noracle.n = 2\noracle.dx = 0.1\noracle.m = 2.0\n"
        cfg = cio.parse_config(text)
        with pytest.raises(ee.TooLarge):
            cio.run(cfg, tmp_path / "out")

    def test_mixing_reports_fit_and_passes(self, tmp_path):
        cfg = cio.parse_config(MIXING_CFG)
        env = cio.run(cfg, tmp_path / "out")
        assert env["pass"] is True
        assert env["payload"]["bridge"]["monotone"]
        assert env["payload"]["bridge"]["c2"] > 0
        text = (tmp_path / "out" / "mixing_bridge.csv").read_text()
        assert text.splitlines()[0] == "K,tv,log_tv"

    def test_slope_fail_exit_semantics(self, tmp_path):
        # transient-regime grid with a tiny tilt: segment slopes drift by
        # far more than 10 percent, so the experiment FAILs
        cfg_text = """\
experiment = slope
kernel.preset = unit
model.n = 1
model.a = 1e-12
model.b = 2.0
model.lambda = 0.5
slope.t_list = 1.0,2.0,4.0
slope.w = 1.0
slope.eta = 2.0
"""
        cfg = cio.parse_config(cfg_text)
        env = cio.run(cfg, tmp_path / "out")
        assert env["pass"] is False


class TestMainEntry:
    def _write(self, tmp_path, text, name="cfg.txt"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_exit_zero_on_success(self, tmp_path):
        p = self._write(tmp_path, EXACT_CFG)
        assert cio.main(["exact", "--config", str(p), "--out", str(tmp_path / "out")]) == 0

    def test_exit_one_on_bad_config(self, tmp_path, capsys):
        p = self._write(tmp_path, EXACT_CFG + "bogus.key = 1\n")
        rc = cio.main(["exact", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "UnknownKey" in capsys.readouterr().err

    def test_exit_one_on_unwritable_output(self, tmp_path, capsys):
        p = self._write(tmp_path, EXACT_CFG)
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        rc = cio.main(["exact", "--config", str(p), "--out", str(blocked / "out")])
        assert rc == 1
        assert "Error" in capsys.readouterr().err

    def test_exit_two_on_failed_experiment(self, tmp_path):
        cfg_text = """\
experiment = slope
kernel.preset = unit
model.n = 1
model.a = 1e-12
model.b = 2.0
model.lambda = 0.5
slope.t_list = 1.0,2.0,4.0
slope.w = 1.0
slope.eta = 2.0
"""
        p = self._write(tmp_path, cfg_text)
        assert cio.main(["slope", "--config", str(p), "--out", str(tmp_path / "out")]) == 2

    def test_import_leaves_solver_modules_unloaded(self):
        # scipy.ndimage and scipy.sparse.linalg load only when the oracle runs
        code = (
            "import sys, ensembles.cli_io; "
            "print(sorted(m for m in ('scipy.ndimage', 'scipy.sparse.linalg') if m in sys.modules))"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_console_script_runs(self, tmp_path):
        p = self._write(tmp_path, EXACT_CFG)
        r = subprocess.run(
            [sys.executable, "-m", "ensembles.cli_io", "exact", "--config", str(p), "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0
