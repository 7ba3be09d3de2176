"""Tests of the benchmark itself: every workload's output check accepts a
real result and rejects a deliberately perturbed one, the tracer's self
times add up to the traced wall time, and the entry point refuses to run
without the library source.

    python3 -m pytest bench/tests -q     # from the root of the checkout
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as W  # noqa: E402
import worker  # noqa: E402
from ensembles import exact_engine as ee  # noqa: E402
from ensembles import model_core as mc  # noqa: E402
from spans import Tracer  # noqa: E402

OPS = {op.name: op for ops in W.build_workloads().values() for op in ops}
REF = W.load_reference()


def run_op(name: str, out_dir: Path, seed: int = 5):
    op = OPS[name]
    inp = op.prepare(seed)
    W.clear_library_caches()
    return op, inp, op.run(inp, out_dir)


def rewrite_csv(path: Path, edit) -> None:
    """Apply ``edit`` to the data rows (lists of cells) of an emitted CSV."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


# ffbs_exact -----------------------------------------------------------------


def test_ffbs_check_rejects_paths_from_another_law(tmp_path):
    op, inp, paths = run_op("ffbs-S66-bridge", tmp_path)
    assert op.check(inp, paths, tmp_path, None) == []
    spec, kernel, _, seed = inp
    wrong = mc.TiltSpec(a=1.0, b=2.0, potential=mc.linear_potential(0.9))
    other = ee.exact_sample(spec, kernel, wrong, seed=seed, count=len(paths))
    problems = op.check(inp, other, tmp_path, None)
    assert problems and all("chi-square" in p for p in problems)


def test_ffbs_check_rejects_a_path_off_the_chamber(tmp_path):
    op, inp, paths = run_op("ffbs-S780-walk", tmp_path)
    assert op.check(inp, paths, tmp_path, None) == []
    h = paths[0].heights.copy()
    h[1, 3] = h[0, 3]  # two curves meet
    bad = [paths[0].with_heights(h)] + paths[1:]
    assert op.check(inp, bad, tmp_path, None) == ["a path leaves the ordered chamber"]


# gibbs_blocks ---------------------------------------------------------------


def test_mcmc_check_rejects_shifted_and_impossible_columns(tmp_path):
    op, inp, env = run_op("sample-n1-bridge", tmp_path)
    assert op.check(inp, env, tmp_path, None) == []
    csv = tmp_path / "sample_marginal.csv"
    original = csv.read_text()

    def shift(rows):
        for r in rows:
            r[0] = str(int(r[0]) + 2)

    rewrite_csv(csv, shift)
    assert any("centre-column TV" in p for p in op.check(inp, env, tmp_path, None))

    csv.write_text(original)

    def impossible(rows):  # height 50 is unreachable from 1 in 10 steps of at most 2
        rows[0][0] = "50"

    rewrite_csv(csv, impossible)
    assert any("zero exact probability" in p for p in op.check(inp, env, tmp_path, None))


def test_blocks_check_rejects_an_inconsistent_nu(tmp_path):
    cfg_text = W._config(
        "blocks", **W._UNIT, model__n=2, model__lambda=0.2, blocks__windows="8,12",
        blocks__eta=3.0, blocks__eps=0.1, blocks__pairs=6, blocks__burn_in=5,
    )
    op = W.cli_op("blocks-small", cfg_text, W.check_blocks)
    inp = op.prepare(3)
    env = op.run(inp, tmp_path)
    assert op.check(inp, env, tmp_path, None) == []

    def halve_nu(rows):
        for r in rows:
            r[4] = repr(float(r[4]) / 2)

    rewrite_csv(tmp_path / "blocks.csv", halve_nu)
    assert any("nu" in p for p in op.check(inp, env, tmp_path, None))


# exact_laws -----------------------------------------------------------------


def test_exact_check_rejects_a_moved_marginal(tmp_path):
    op, inp, env = run_op("exact-S2080", tmp_path)
    assert op.check(inp, env, tmp_path, REF["exact-S2080"]) == []

    def move_mass(rows):
        rows[0][-1] = repr(float(rows[0][-1]) * (1 + 1e-6))

    rewrite_csv(tmp_path / "marginal.csv", move_mass)
    assert op.check(inp, env, tmp_path, REF["exact-S2080"])


def test_exact_check_accepts_float_reordering_noise(tmp_path):
    op, inp, env = run_op("exact-S2080", tmp_path)

    def jitter(rows):
        for r in rows:
            r[-1] = repr(float(r[-1]) * (1 + 1e-14))

    rewrite_csv(tmp_path / "marginal.csv", jitter)
    assert op.check(inp, env, tmp_path, REF["exact-S2080"]) == []


def test_mixing_check_rejects_a_failed_experiment(tmp_path):
    op, inp, env = run_op("mixing-n1", tmp_path)
    assert op.check(inp, env, tmp_path, REF["mixing-n1"]) == []
    assert op.check(inp, {**env, "pass": False}, tmp_path, REF["mixing-n1"]) == [
        "experiment reports pass=False"
    ]


# polymer_oracle -------------------------------------------------------------


def test_oracle_check_rejects_a_moved_distance(tmp_path):
    op, inp, env = run_op("converge-n1", tmp_path)
    assert op.check(inp, env, tmp_path, REF["converge-n1"]) == []

    def move(rows):
        rows[-1][-1] = repr(float(rows[-1][-1]) + 1e-6)

    rewrite_csv(tmp_path / "converge.csv", move)
    assert op.check(inp, env, tmp_path, REF["converge-n1"])


def test_every_recorded_op_has_a_reference():
    assert sorted(REF) == sorted(name for name, op in OPS.items() if op.recorded)


# tracing --------------------------------------------------------------------


def test_self_times_add_up_to_traced_wall(tmp_path):
    ops = [OPS["exact-S2080"], OPS["mixing-n1"], OPS["ffbs-S66-bridge"]]
    inputs = [op.prepare(1) for op in ops]
    original = ee.ensemble_messages
    tracer = Tracer()
    with tracer.installed():
        rnd = worker.run_round(ops, inputs, REF, tmp_path, tracer)
    assert ee.ensemble_messages is original  # the library is restored
    assert not any(rnd.problems.values())
    assert tracer.calls["cli_io.run"] == 2
    assert tracer.calls["exact_engine.exact_sample"] == 1
    assert tracer.calls["model_core.PathConfig"] == 6000
    # nested: law_restricted inside mixing_curve, ensemble_messages inside both
    assert tracer.calls["exact_engine.law_restricted"] == 24
    # the FFBS check's own message pass runs outside every op span
    assert tracer.calls["exact_engine.ensemble_messages"] == 26
    assert sum(tracer.self_s.values()) == pytest.approx(rnd.wall_s, rel=1e-9)
    assert rnd.wall_s <= sum(rnd.op_s.values())
    assert all(v >= 0.0 for v in tracer.self_s.values())


# entry point ----------------------------------------------------------------


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sampling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_declared_metrics_match_the_layers_and_probes():
    import probes
    from spans import SPAN_NAMES

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in declared["per_layer"]}
    expected = {f"{n}.{k}" for n in SPAN_NAMES for k in ("calls", "self_s")}
    expected |= {f"cli_io.op_s.{name}" for name in OPS}
    expected |= set(probes.PROBE_NAMES)
    expected |= {"trace_overhead_s", "exact_engine.ffbs_paths_per_s", "gibbs_sampler.mcmc_chain_sweeps_per_s"}
    assert per_layer == expected
    assert {m["name"] for m in declared["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert np.all([m["bound"] <= 0.25 for m in declared["end_to_end"]])
