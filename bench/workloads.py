"""The benchmark workloads: the ops each one runs, in order, and the check
that decides whether an op's output is right.

An op is one call a user of the library would make: a CLI experiment run
in-process through ``cli_io.run`` on a parsed config, or (for FFBS, which
has no CLI experiment) a direct ``exact_engine.exact_sample`` call.  All
configs use the ``unit`` kernel with a = 1 and b = 2.  The workload seed
reaches only the samplers; every check holds for any seed.

Checks use tolerances, never byte digests, so a change that reorders
floating-point sums still passes.  Deterministic ops are compared with
values recorded from the seed commit (``reference.json``, written by
``record_reference.py``); sampling ops are compared with exact laws that
the check computes itself, outside the timed region.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from ensembles import cli_io as cio
from ensembles import exact_engine as ee
from ensembles import model_core as mc

REFERENCE = Path(__file__).with_name("reference.json")

# A chi-square p-value below this rejects an FFBS op.  Each op runs three
# tests, so a correct sampler fails one by chance about once in 3e5 ops.
FFBS_P_MIN = 1e-6
# Reference comparisons: float reordering moves these by ~1e-13 relative.
EXACT_TOL = dict(rtol=1e-9, atol=1e-12)
# The stationary pmf comes from power iteration stopped at a 1e-12 step, so
# another correct eigensolver may differ in the last few digits.
ORACLE_TOL = dict(rtol=1e-6, atol=1e-9)


def clear_library_caches() -> None:
    """Empty every ``functools`` cache in the library, so that an op pays
    to fill them as a CLI run does (brownian_oracle._chamber_operator and
    gibbs_sampler._local_transfer today)."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("ensembles") and mod is not None:
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _config(experiment: str, **keys) -> str:
    lines = [f"experiment = {experiment}"]
    lines += [f"{k.replace('__', '.')} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


_UNIT = dict(kernel__preset="unit", model__a=1.0, model__b=2.0)


@dataclass(frozen=True)
class Op:
    """One named operation of a workload.

    ``prepare(seed)`` builds the op's input during set-up; ``run(input,
    out_dir)`` is the timed call; ``check(input, result, out_dir, ref)``
    returns a list of problems, empty when the output is right.
    ``work`` counts FFBS paths or MCMC chain-sweeps the op performs, and
    ``recorded`` marks a deterministic op checked against reference.json."""

    name: str
    prepare: Callable
    run: Callable
    check: Callable
    work: dict = field(default_factory=dict)
    recorded: bool = False


# ---------------------------------------------------------------------------
# CLI ops


def cli_op(name: str, text: str, check: Callable, work: dict | None = None) -> Op:
    def prepare(seed: int):
        return cio.parse_config(text), seed

    def run(inp, out_dir: Path):
        cfg, seed = inp
        return cio.run(cfg, out_dir, seed=seed, threads=1)

    return Op(name=name, prepare=prepare, run=run, check=check, work=work or {})


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of an emitted CSV (booleans read as 0/1)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    conv = {"true": 1.0, "false": 0.0}
    body = [[conv[c] if c in conv else float(c) for c in r] for r in rows[1:]]
    return rows[0], np.array(body, dtype=float).reshape(len(body), len(rows[0]))


def _state_table(out_dir: Path, name: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    _, rows = read_csv(out_dir / name)
    return rows[:, :n].astype(np.int64), rows[:, n]


def summarize(experiment: str, envelope: dict, out_dir: Path) -> dict:
    """Numbers of a deterministic op that ``reference.json`` records: the
    quantities the experiment reports, reduced to short vectors."""
    p = envelope["payload"]
    if experiment == "exact":
        n = envelope["config"]["model.n"]
        x_max = p["x_max"]
        states, probs = _state_table(out_dir, "marginal.csv", n)
        top = np.bincount(states[:, 0], weights=probs, minlength=x_max + 1)[1:]
        return {
            "log_z": [p["log_z"]],
            "top_pmf": top.tolist(),
            "mean": (probs @ states).tolist(),
        }
    if experiment == "mixing":
        return {k: read_csv(out_dir / f"{k}.csv")[1][:, 1].tolist() for k in envelope["curves"]}
    if experiment == "slope":
        return {"log_z": read_csv(out_dir / "slope.csv")[1][:, 1].tolist(), "slope": [p["slope"]]}
    if experiment == "oracle":
        d = p["zero_bc_diagnostics"]
        return {
            "stationary_pmf": read_csv(out_dir / "stationary.csv")[1][:, 1].tolist(),
            "zero_bc": [d[k] for k in sorted(d)],
        }
    if experiment in ("converge", "invariance"):
        return {"rows": read_csv(out_dir / f"{experiment}.csv")[1].ravel().tolist()}
    if experiment == "dominance":
        ws = p.get("walk_side", {})
        return {
            "oracle": [p["oracle"][k]["max_violation"] for k in sorted(p["oracle"])],
            "walk_side": [ws[k]["max_violation"] for k in sorted(ws)],
        }
    raise ValueError(f"no summary for experiment {experiment!r}")


def compare(summary: dict, ref: dict | None, tol: dict) -> list[str]:
    """Problems found comparing a summary with its recorded reference."""
    if ref is None:
        return ["no reference recorded for this op"]
    problems = []
    for key in sorted(set(summary) | set(ref)):
        a, b = summary.get(key), ref.get(key)
        if a is None or b is None or len(a) != len(b):
            problems.append(f"{key}: shape differs from reference")
        elif not np.allclose(a, b, **tol):
            err = float(np.max(np.abs(np.subtract(a, b))))
            problems.append(f"{key}: differs from reference by up to {err:.3g}")
    return problems


def recorded_op(name: str, text: str, tol: dict, must_pass: bool = False) -> Op:
    """A deterministic CLI op, compared with its recorded reference; with
    ``must_pass`` the experiment must also report pass."""
    op = cli_op(name, text, check_reference(tol, must_pass))
    return replace(op, recorded=True)


def check_reference(tol: dict, must_pass: bool = False):
    """Check for a deterministic CLI op: its summary must match the one
    recorded from the seed commit, and exact ops must be self-consistent."""

    def check(inp, envelope, out_dir, ref):
        problems = []
        if must_pass and envelope["pass"] is not True:
            problems.append(f"experiment reports pass={envelope['pass']}")
        if envelope["experiment"] == "exact":
            c = envelope["payload"]["consistency_max_abs"]
            if not c <= 1e-9:
                problems.append(f"consistency_max_abs {c:.3g} exceeds 1e-9")
        summary = summarize(envelope["experiment"], envelope, out_dir)
        return problems + compare(summary, ref, tol)

    return check


def _exact_marginal(cfg, t: int) -> ee.Distribution:
    return ee.marginal(cio.build_spec(cfg), cio.build_kernel(cfg), cio.build_tilt(cfg), t)


def check_sample(tv_max: float):
    """MCMC check: the centre-column law is within ``tv_max`` of the exact
    marginal in total variation, and no sampled column has zero exact
    probability.  Each ``tv_max`` is about three times the largest TV seen
    over twenty seeds at the seed commit (0.016 for n=1, 0.059 for n=2)."""

    def check(inp, envelope, out_dir, ref):
        cfg = inp[0]
        exact = _exact_marginal(cfg, envelope["payload"]["center_time"])
        space = exact.meta["states"]
        states, counts = _state_table(out_dir, "sample_marginal.csv", cfg["model.n"])
        emp = np.zeros(space.size)
        problems = []
        for s, c in zip(states, counts):
            key = tuple(int(x) for x in s)
            if key not in space.index:
                problems.append(f"sampled column {key} is not a state")
                continue
            i = space.index[key]
            if exact.probs[i] == 0.0:
                problems.append(f"sampled column {key} has zero exact probability")
            emp[i] += c
        kept = envelope["payload"]["kept"]
        if emp.sum() != kept:
            problems.append(f"column counts sum to {emp.sum():.0f}, expected {kept}")
        tv = 0.5 * float(np.abs(emp / max(emp.sum(), 1.0) - exact.probs).sum())
        if not tv <= tv_max:
            problems.append(f"centre-column TV {tv:.4f} exceeds {tv_max}")
        return problems

    return check


def check_blocks(inp, envelope, out_dir, ref):
    """Good-block check: one row per window, densities in (0, 1], tail
    probabilities in [0, 1], and nu equal to half the pooled density."""
    cfg, _ = inp
    _, rows = read_csv(out_dir / "blocks.csv")
    problems = []
    windows = list(cfg["blocks.windows"])
    if rows[:, 0].astype(int).tolist() != windows:
        return [f"windows {rows[:, 0].tolist()} != {windows}"]
    m, pairs, dens, nu, tail = rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4], rows[:, 5]
    if np.any(pairs != cfg["blocks.pairs"]):
        problems.append("pair counts differ from the config")
    if not np.all((dens > 0.0) & (dens <= 1.0)):
        problems.append(f"densities {dens.tolist()} outside (0, 1]")
    if not np.all((tail >= 0.0) & (tail <= 1.0)):
        problems.append(f"tail probabilities {tail.tolist()} outside [0, 1]")
    pooled = float((dens * 2 * m * pairs).sum() / (2 * m * pairs).sum())
    if not np.allclose(nu, 0.5 * pooled, rtol=1e-9):
        problems.append(f"nu {nu[0]:.6g} is not half the pooled density {pooled:.6g}")
    return problems


# ---------------------------------------------------------------------------
# FFBS ops


def ffbs_op(name: str, n: int, lam: float, boundary, m_left: int, n_right: int, x_max: int, count: int) -> Op:
    kernel = mc.unit_walk()
    tilt = mc.TiltSpec(a=1.0, b=2.0, potential=mc.linear_potential(lam))

    def prepare(seed: int):
        spec = mc.EnsembleSpec(n=n, m_left=m_left, n_right=n_right, boundary=boundary, x_max=x_max)
        return spec, kernel, tilt, seed

    def run(inp, out_dir):
        return ee.exact_sample(*inp[:3], seed=inp[3], count=count)

    return Op(name=name, prepare=prepare, run=run, check=check_ffbs, work={"ffbs_paths": count})


def chi_square_p(counts: np.ndarray, probs: np.ndarray) -> float:
    """Pearson chi-square p-value, pooling cells expected below five."""
    from scipy import stats  # imported here so that set-up time stays the library's

    expected = probs * counts.sum()
    small = expected < 5.0
    obs = np.append(counts[~small], counts[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if exp[-1] == 0.0:
        if obs[-1] > 0:
            return 0.0
        obs, exp = obs[:-1], exp[:-1]
    if obs.size < 2:
        return 1.0
    return float(stats.chi2.sf(((obs - exp) ** 2 / exp).sum(), obs.size - 1))


def check_ffbs(inp, paths, out_dir, ref):
    """FFBS check: every path is ordered above the wall and pinned at its
    boundary, and the one-time laws at three times fit the exact marginal."""
    spec, kernel, tilt, _ = inp
    if not paths:
        return ["no paths drawn"]
    h = np.stack([p.heights for p in paths])  # (count, n, width)
    problems = []
    if np.any(h[:, -1, :] < 1) or np.any(h[:, :-1, :] <= h[:, 1:, :]) or np.any(h[:, 0, :] > spec.x_max):
        problems.append("a path leaves the ordered chamber")
    b = spec.boundary
    if np.any(h[:, :, 0] != np.array(b.u)):
        problems.append("a path is not pinned at u")
    if isinstance(b, mc.Bridge) and np.any(h[:, :, -1] != np.array(b.v)):
        problems.append("a path is not pinned at v")
    if problems:
        return problems
    res = ee.ensemble_messages(spec, kernel, tilt)
    w = spec.width
    for c in (w // 4, w // 2, (3 * w) // 4):
        counts = np.zeros(res.states.size)
        for col, k in zip(*np.unique(h[:, :, c], axis=0, return_counts=True)):
            counts[res.states.id_of(col)] = k
        p = chi_square_p(counts, ee.marginal_from_messages(res, spec.m_left + c).probs)
        if p < FFBS_P_MIN:
            problems.append(f"time {spec.m_left + c}: chi-square p = {p:.3g}")
    return problems


# ---------------------------------------------------------------------------
# workloads


def _window_keys(n, lam, kind, u, m) -> dict:
    bnd = dict(boundary__kind=kind, boundary__u=u)
    if kind == "bridge":
        bnd["boundary__v"] = u
    return dict(**_UNIT, model__n=n, model__lambda=lam, window__m_left=-m, window__n_right=m, **bnd)


def _sample_text(n, lam, kind, u, m, chains, burn_in, sweeps, thin=1):
    return _config(
        "sample", **_window_keys(n, lam, kind, u, m),
        mcmc__chains=chains, mcmc__burn_in=burn_in, mcmc__sweeps=sweeps, mcmc__thin=thin,
    )


def _exact_text(n, lam, kind, u, m, x_max):
    return _config("exact", **_window_keys(n, lam, kind, u, m), engine__x_max=x_max)


def _mixing_text(n, u, w, x_max=0):
    extra = {"engine__x_max": x_max} if x_max else {}
    return _config(
        "mixing", **_UNIT, model__n=n, model__lambda=0.5, mixing__t_lattice=1,
        mixing__k_list="1,2,3,4,5,6", mixing__u=u, mixing__w=w, mixing__mode="both", **extra,
    )


def _sweeps(chains, burn_in, sweeps):
    return {"chain_sweeps": chains * (burn_in + sweeps)}


def build_workloads() -> dict[str, list[Op]]:
    """Two workloads, each the concatenation of two op groups: the samplers
    (FFBS, then block heat-bath MCMC) and the deterministic transfer
    computations (exact laws, then the polymer oracle)."""
    return {
        "sampling": [
            # FFBS: the per-draw loop and PathConfig construction dominate
            ffbs_op("ffbs-S66-bridge", 1, 0.5, mc.Bridge(u=(1,), v=(1,)), 0, 4,
                    mc.default_x_max(0.5, 1), 6000),
            ffbs_op("ffbs-S780-bridge", 2, 0.5, mc.Bridge(u=(3, 1), v=(3, 1)), -20, 20, 40, 800),
            ffbs_op("ffbs-S780-walk", 2, 0.5, mc.Walk(u=(2, 1)), -10, 10, 40, 800),
            # Gibbs: batched forward passes and categorical draws, good blocks
            cli_op("sample-n1-bridge", _sample_text(1, 0.3, "bridge", 1, 10, 100, 20, 100, thin=2),
                   check_sample(0.05), _sweeps(100, 20, 100)),
            cli_op("sample-n2-walk", _sample_text(2, 0.3, "walk", "2,1", 20, 32, 10, 30),
                   check_sample(0.15), _sweeps(32, 10, 30)),
            cli_op("blocks-n2", _config(
                "blocks", **_UNIT, model__n=2, model__lambda=0.2, blocks__windows="12,20",
                blocks__eta=3.0, blocks__eps=0.1, blocks__pairs=24, blocks__burn_in=20,
            ), check_blocks, _sweeps(2 * 24 * 2, 20, 1)),
        ],
        "exact_and_oracle": [
            # exact laws: operator builds, message passes, product laws
            recorded_op("exact-S2016-dense", _exact_text(2, 0.3, "bridge", "3,1", 100, 64), EXACT_TOL),
            recorded_op("exact-S2080", _exact_text(2, 0.3, "bridge", "3,1", 100, 65), EXACT_TOL),
            recorded_op("exact-S7140", _exact_text(2, 0.2, "walk", "2,1", 100, 120), EXACT_TOL),
            recorded_op("exact-S14190", _exact_text(3, 0.3, "walk", "3,2,1", 60, 45), EXACT_TOL),
            recorded_op("mixing-n1", _mixing_text(1, 1, 3), EXACT_TOL, must_pass=True),
            recorded_op("mixing-n2-S120", _mixing_text(2, "3,1", "5,2", x_max=16), EXACT_TOL, must_pass=True),
            recorded_op("slope-n2", _config(
                "slope", **_UNIT, model__n=2, model__lambda=0.5, slope__t_list="4,8,16,32",
                slope__w="1.5,0.7", slope__eta=2.0,
            ), EXACT_TOL, must_pass=True),
            # polymer oracle: chamber operator, power-iteration eigenpair, polymer passes
            recorded_op("oracle-n2", _config(
                "oracle", model__a=1.0, model__b=2.0, oracle__n=2, oracle__dx=0.2, oracle__m=0.5,
            ), ORACLE_TOL),
            recorded_op("dominance-n2", _config(
                "dominance", **_UNIT, model__lambda=0.4, dominance__n=2, dominance__u="1.0,0.5",
                dominance__u_raised="2.0,1.5", dominance__walk_side="true", oracle__dx=0.2,
                oracle__m=0.5,
            ), ORACLE_TOL, must_pass=True),
            recorded_op("converge-n1", _config(
                "converge", **_UNIT, model__n=1, converge__lambda_list="0.5,0.3,0.2",
                converge__mode="both", converge__u_top=3, oracle__dx=0.05,
            ), ORACLE_TOL),
            recorded_op("invariance-n1", _config(
                "invariance", **_UNIT, model__n=1, invariance__lambda_list="0.4,0.2,0.1",
                invariance__m_cont=1.0, invariance__boundary="bridge", invariance__u=1.0,
                oracle__dx=0.025,
            ), ORACLE_TOL),
        ],
    }


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
