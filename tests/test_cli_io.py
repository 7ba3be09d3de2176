import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ensembles
from ensembles import analysis as an
from ensembles import brownian_oracle as bo
from ensembles import cli_io as cio
from ensembles import exact_engine as ee

# child interpreters import the package this process imported, also when
# pytest put it on the path itself
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(ensembles.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
    ),
}

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

SWEEP_MIXING_CFG = """\
experiment = mixing
kernel.preset = unit
model.n = 2
model.a = 1.0
model.b = 2.0
model.lambda = 0.5
engine.x_max = 16
mixing.t_lattice = 2
mixing.k_list = 1,2,3,4
mixing.u = 3,1
mixing.w = 5,2
mixing.mode = both
mixing.window_delta = 1
"""

SLOPE_CFG = """\
experiment = slope
kernel.preset = unit
model.n = 2
model.a = 1.0
model.b = 2.0
model.lambda = 0.5
slope.t_list = 2,4,8
slope.w = 1.5,0.7
slope.eta = 2.0
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

DOMINANCE_CFG = """\
experiment = dominance
kernel.preset = unit
model.a = 1.0
model.b = 2.0
dominance.n = 2
dominance.u = 1.0,0.5
dominance.u_raised = 2.0,1.5
oracle.dx = 0.25
oracle.m = 0.5
"""

INVARIANCE_CFG = """\
experiment = invariance
kernel.preset = unit
model.n = 1
model.a = 1.0
model.b = 2.0
invariance.lambda_list = 0.4,0.2
invariance.m_cont = 1.0
invariance.boundary = bridge
invariance.u = 1.0
oracle.dx = 0.05
"""


BLOCKS_CFG = """\
experiment = blocks
seed = 2
kernel.preset = unit
model.n = 1
model.a = 1.0
model.b = 2.0
model.lambda = 0.5
blocks.windows = 6,8
blocks.eta = 3.0
blocks.eps = 0.1
blocks.pairs = 5
blocks.burn_in = 7
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

    def test_row_formats_match_cell_formats(self):
        # a numeric first row sets one %-format; a row of other cell types,
        # or one holding a NaN, goes cell by cell
        rows = [
            (1, np.int64(-2), 0.1, np.float64(1.0 / 3.0)),
            (3, np.int64(4), -0.0, np.float64(float("inf"))),
            (True, np.bool_(False), 1e-300, np.float64(-2.5)),
            (5, 6, 7.0, np.float64(8.0)),
            ('a "b", c', np.int64(9), float("-inf"), 0.5),
            (np.int32(7), np.int64(1), 2.0, np.float64(-1e300)),
        ]
        header = ["a", "b", "c", "d"]
        per_cell = "\n".join([",".join(header)] + [",".join(cio._fmt_cell(v) for v in r) for r in rows]) + "\n"
        assert cio.emit_csv(header, rows) == per_cell
        assert cio.emit_csv(header, rows[2:]) == "\n".join(per_cell.split("\n")[:1] + per_cell.split("\n")[3:])
        assert '"a ""b"", c"' in per_cell and "true,false" in per_cell and "-0," in per_cell
        with pytest.raises(ValueError, match="NaN"):
            cio.emit_csv(header, rows[:1] + [(1, np.int64(2), float("nan"), np.float64(0.0))])


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

    def test_converge_solves_its_target_once(self, tmp_path, monkeypatch):
        calls = []
        solve = bo.stationary_density

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(bo, "stationary_density", counted)
        cfg = cio.parse_config(CONVERGE_CFG.replace("0.5,0.3", "0.5,0.4,0.3"))
        cio.run(cfg, tmp_path, threads=2)
        assert len(calls) == 1
        assert len((tmp_path / "converge.csv").read_text().splitlines()) == 4  # header and 3 lambdas

    @pytest.mark.parametrize("text", [DOMINANCE_CFG, INVARIANCE_CFG], ids=["dominance", "invariance"])
    def test_oracle_experiments_identical_across_threads(self, tmp_path, text):
        # the chamber of each grid is shared between calls, and between threads
        cfg = cio.parse_config(text)
        outs = []
        for name, threads in (("a", 1), ("b", 2)):
            bo._chamber_box.cache_clear()
            cio.run(cfg, tmp_path / name, threads=threads)
            blob = b""
            for f in sorted((tmp_path / name).glob("*.csv")):
                blob += f.name.encode() + f.read_bytes()
            env = json.loads((tmp_path / name / "results.json").read_text())
            env.pop("timings")
            env.pop("threads")
            outs.append((blob, json.dumps(env, sort_keys=True)))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("text", [SWEEP_MIXING_CFG, SLOPE_CFG], ids=["mixing", "slope"])
    def test_sweeps_identical_across_threads(self, tmp_path, text):
        # the mixing K points share one window kernel, the slope T points one pass
        cfg = cio.parse_config(text)
        outs = []
        for name, threads in (("a", 1), ("b", 2)):
            cio.run(cfg, tmp_path / name, threads=threads)
            blob = b""
            for f in sorted((tmp_path / name).glob("*.csv")):
                blob += f.name.encode() + f.read_bytes()
            env = json.loads((tmp_path / name / "results.json").read_text())
            env.pop("timings")
            env.pop("threads")
            outs.append((blob, json.dumps(env, sort_keys=True)))
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

    def test_cutoff_warning_recorded_in_envelope(self, tmp_path):
        cfg = cio.parse_config(EXACT_CFG + "engine.x_max = 3\n")
        with pytest.warns(ee.CutoffDominatedWarning):
            env = cio.run(cfg, tmp_path)
        assert env["payload"]["cutoff_warning"] is True
        on_disk = json.loads((tmp_path / "results.json").read_text())
        assert on_disk["warnings"] == env["warnings"] == [
            {
                "category": "ensembles.exact_engine.CutoffDominatedWarning",
                "message": "mass within 2 of x_max=3 exceeds 1e-08 of total",
            }
        ]
        assert cio.run(cio.parse_config(EXACT_CFG), tmp_path / "quiet")["warnings"] == []

    def test_warnings_deduplicated_sorted_and_issued_again(self, tmp_path, monkeypatch):
        def noisy(cfg, threads, seed):
            for msg in ("b", "a", "b"):
                an.pmap(lambda _: warnings.warn(msg, RuntimeWarning), [0, 1], threads)
            warnings.warn("z", UserWarning)
            return {}, {}, None

        monkeypatch.setitem(cio._RUNNERS, "exact", noisy)
        cfg = cio.parse_config(EXACT_CFG)
        with pytest.warns(Warning) as issued:
            env = cio.run(cfg, tmp_path, threads=2)
        assert env["warnings"] == [
            {"category": "builtins.RuntimeWarning", "message": "a"},
            {"category": "builtins.RuntimeWarning", "message": "b"},
            {"category": "builtins.UserWarning", "message": "z"},
        ]
        assert sorted((w.category.__name__, str(w.message)) for w in issued) == [
            ("RuntimeWarning", "a"), ("RuntimeWarning", "b"), ("UserWarning", "z")
        ]

    def test_blocks_records_that_burn_in_has_no_effect(self, tmp_path):
        cfg = cio.parse_config(BLOCKS_CFG)
        envs = []
        for name, threads in (("a", 1), ("b", 2)):
            with pytest.warns(cio.IgnoredKeyWarning, match="blocks.burn_in has no effect"):
                envs.append(cio.run(cfg, tmp_path / name, threads=threads))
        assert envs[0]["config"]["blocks.burn_in"] == 7  # still parsed and echoed
        assert envs[0]["warnings"] == envs[1]["warnings"]
        assert {"category": "ensembles.cli_io.IgnoredKeyWarning",
                "message": "blocks.burn_in has no effect: the blocks experiment draws exact i.i.d. paths"
                } in envs[0]["warnings"]
        assert (tmp_path / "a" / "blocks.csv").read_bytes() == (tmp_path / "b" / "blocks.csv").read_bytes()

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
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_console_script_runs(self, tmp_path):
        p = self._write(tmp_path, EXACT_CFG)
        r = subprocess.run(
            [sys.executable, "-m", "ensembles.cli_io", "exact", "--config", str(p), "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert r.returncode == 0
