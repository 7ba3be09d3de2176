"""Command-line front end: strict flat key=value configs, deterministic
seeding, JSON result envelopes, and one CSV per measured curve.

Usage:  ensembles <experiment> --config <path> [--out <dir>] [--seed <u64>]
        [--threads <k>]

The env var ENSEMBLES_BUDGET overrides the size budget (states, operator
and factor entries; default 5e7; a polymer pass may take 20 times it in
stencil multiply-adds, counted over the oracle's box of n_sites^n cells).  Given (config, seed), artifacts are
byte-stable across runs and thread counts; wall-clock timings live in
the envelope's "timings" key and are the only non-reproducible field.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from . import analysis as an
from . import brownian_oracle as bo
from . import exact_engine as ee
from . import gibbs_sampler as gs
from . import model_core as mc
from ._linalg import logsumexp


class ConfigError(ValueError):
    """Malformed configuration text."""


class UnknownKey(ConfigError):
    """Configuration key not in the experiment's schema."""


class MissingRequired(ConfigError):
    """Required configuration key absent."""


class IgnoredKeyWarning(UserWarning):
    """A configuration key that is parsed and echoed but has no effect."""


# ---------------------------------------------------------------------------
# schema


@dataclass(frozen=True)
class KeySpec:
    type: str  # int | float | str | bool | ints | floats
    required: bool = False
    default: object = None
    choices: tuple = ()


_COMMON = {
    "seed": KeySpec("int", default=0),
    "threads": KeySpec("int", default=1),
}
_KERNEL = {
    "kernel.preset": KeySpec("str", choices=tuple(mc.KERNEL_PRESETS)),
    "kernel.offsets": KeySpec("ints"),
    "kernel.probs": KeySpec("floats"),
}
_MODEL = {
    "model.n": KeySpec("int", required=True),
    "model.a": KeySpec("float", required=True),
    "model.b": KeySpec("float", required=True),
}
_LAMBDA = {"model.lambda": KeySpec("float", required=True)}
_WINDOW = {
    "window.m_left": KeySpec("int", required=True),
    "window.n_right": KeySpec("int", required=True),
    "boundary.kind": KeySpec("str", required=True, choices=("walk", "bridge")),
    "boundary.u": KeySpec("ints", required=True),
    "boundary.v": KeySpec("ints"),
    "engine.x_max": KeySpec("int", default=0),
}
_MCMC = {
    "mcmc.block_len": KeySpec("int", default=8),
    "mcmc.overlap": KeySpec("int", default=4),
    "mcmc.sweeps": KeySpec("int", required=True),
    "mcmc.burn_in": KeySpec("int", default=100),
    "mcmc.thin": KeySpec("int", default=1),
    "mcmc.chains": KeySpec("int", default=1),
}
_ORACLE_GRID = {
    "oracle.dx": KeySpec("float", default=0.1),
    "oracle.height_cap": KeySpec("float", default=0.0),
    "oracle.m": KeySpec("float", default=2.0),
}

SCHEMAS: dict[str, dict[str, KeySpec]] = {
    "exact": {
        **_COMMON,
        **_KERNEL,
        **_MODEL,
        **_LAMBDA,
        **_WINDOW,
        "exact.time": KeySpec("int"),
    },
    "sample": {**_COMMON, **_KERNEL, **_MODEL, **_LAMBDA, **_WINDOW, **_MCMC},
    "mixing": {
        **_COMMON,
        **_KERNEL,
        **_MODEL,
        **_LAMBDA,
        "mixing.t_lattice": KeySpec("int", required=True),
        "mixing.k_list": KeySpec("ints", required=True),
        "mixing.u": KeySpec("ints", required=True),
        "mixing.w": KeySpec("ints", required=True),
        "mixing.mode": KeySpec("str", default="both", choices=("walk", "bridge", "both")),
        "mixing.window_delta": KeySpec("int", default=0),
        "engine.x_max": KeySpec("int", default=0),
    },
    "invariance": {
        **_COMMON,
        **_KERNEL,
        **_MODEL,
        "invariance.lambda_list": KeySpec("floats", required=True),
        "invariance.m_cont": KeySpec("float", required=True),
        "invariance.boundary": KeySpec("str", default="bridge", choices=("walk", "bridge")),
        "invariance.u": KeySpec("floats", required=True),
        "oracle.dx": KeySpec("float", default=0.025),
        "oracle.height_cap": KeySpec("float", default=0.0),
    },
    "converge": {
        **_COMMON,
        **_KERNEL,
        **_MODEL,
        "converge.lambda_list": KeySpec("floats", required=True),
        "converge.mode": KeySpec("str", default="both", choices=("walk", "bridge", "both")),
        "converge.u_top": KeySpec("int", default=3),
        "oracle.dx": KeySpec("float", default=0.05),
        "oracle.height_cap": KeySpec("float", default=0.0),
    },
    "dominance": {
        **_COMMON,
        **_KERNEL,
        "model.a": KeySpec("float", required=True),
        "model.b": KeySpec("float", required=True),
        "model.lambda": KeySpec("float"),
        "dominance.n": KeySpec("int", required=True),
        "dominance.u": KeySpec("floats", required=True),
        "dominance.u_raised": KeySpec("floats", required=True),
        "dominance.walk_side": KeySpec("bool", default=False),
        **_ORACLE_GRID,
    },
    "blocks": {
        **_COMMON,
        **_KERNEL,
        **_MODEL,
        **_LAMBDA,
        "blocks.windows": KeySpec("ints", required=True),
        "blocks.eta": KeySpec("float", required=True),
        "blocks.eps": KeySpec("float", required=True),
        "blocks.pairs": KeySpec("int", default=150),
        "blocks.burn_in": KeySpec("int", default=30),
    },
    "slope": {
        **_COMMON,
        **_KERNEL,
        **_MODEL,
        **_LAMBDA,
        "slope.t_list": KeySpec("floats", required=True),
        "slope.w": KeySpec("floats", required=True),
        "slope.eta": KeySpec("float", required=True),
    },
    "oracle": {
        **_COMMON,
        "model.a": KeySpec("float", required=True),
        "model.b": KeySpec("float", required=True),
        "oracle.n": KeySpec("int", required=True),
        **_ORACLE_GRID,
    },
}

EXPERIMENTS = tuple(SCHEMAS)


def _convert(key: str, raw: str, spec: KeySpec):
    try:
        if spec.type == "int":
            val = int(raw)
        elif spec.type == "float":
            val = float(raw)
        elif spec.type == "bool":
            if raw.lower() not in ("true", "false"):
                raise ValueError("expected true or false")
            val = raw.lower() == "true"
        elif spec.type == "ints":
            val = tuple(int(x.strip()) for x in raw.split(",") if x.strip())
        elif spec.type == "floats":
            val = tuple(float(x.strip()) for x in raw.split(",") if x.strip())
        elif spec.type == "str":
            val = raw
        else:  # pragma: no cover
            raise ValueError(f"bad key spec {spec.type}")
    except ValueError as exc:
        raise TypeError(f"key {key!r}: cannot parse {raw!r} as {spec.type}: {exc}") from None
    if spec.choices and val not in spec.choices:
        raise TypeError(f"key {key!r}: {val!r} not one of {spec.choices}")
    return val


@dataclass(frozen=True)
class RunConfig:
    """Typed, validated experiment configuration."""

    experiment: str
    values: dict

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def __getitem__(self, key: str):
        return self.values[key]


def parse_config(text: str, experiment: str | None = None) -> RunConfig:
    """Strict parse of flat key=value configuration text.

    Unknown keys, missing required keys, and type mismatches are errors;
    all model parameters are validated through their constructors."""
    entries: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ConfigError(f"line {ln}: expected 'key = value', got {s!r}")
        key, _, raw = s.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in entries:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        entries[key] = raw

    exp = entries.pop("experiment", None) or experiment
    if exp is None:
        raise MissingRequired("missing required key 'experiment'")
    if experiment is not None and exp != experiment:
        raise ConfigError(f"config says experiment={exp!r} but {experiment!r} was requested")
    if exp not in SCHEMAS:
        raise ConfigError(f"unknown experiment {exp!r}; choose from {EXPERIMENTS}")
    schema = SCHEMAS[exp]
    for key in entries:
        if key not in schema:
            raise UnknownKey(f"unknown key {key!r} for experiment {exp!r}")
    values: dict = {}
    for key, spec in schema.items():
        if key in entries:
            values[key] = _convert(key, entries[key], spec)
        elif spec.required:
            raise MissingRequired(f"missing required key {key!r} for experiment {exp!r}")
        elif spec.default is not None or spec.type == "bool":
            values[key] = spec.default
    cfg = RunConfig(experiment=exp, values=values)
    _validate_config(cfg)
    return cfg


def emit_config(cfg: RunConfig) -> str:
    """Canonical text form: sorted keys, one 'key = value' per line."""

    def fmt(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, tuple):
            return ",".join(fmt(x) for x in v)
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [f"experiment = {cfg.experiment}"]
    for key in sorted(cfg.values):
        lines.append(f"{key} = {fmt(cfg.values[key])}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """Git-style (blob sha1) content hash of the canonical config text."""
    blob = emit_config(cfg).encode()
    return hashlib.sha1(b"blob %d\0" % len(blob) + blob).hexdigest()


# ---------------------------------------------------------------------------
# builders


def build_kernel(cfg: RunConfig) -> mc.Kernel:
    preset = cfg.get("kernel.preset")
    offsets = cfg.get("kernel.offsets")
    probs = cfg.get("kernel.probs")
    if preset is not None:
        if offsets is not None or probs is not None:
            raise ConfigError("give kernel.preset or kernel.offsets/probs, not both")
        return mc.KERNEL_PRESETS[preset]()
    if offsets is None or probs is None:
        raise MissingRequired("kernel.preset or kernel.offsets + kernel.probs required")
    return mc.make_kernel(offsets, probs)


def build_tilt(cfg: RunConfig, lam: float | None = None) -> mc.TiltSpec:
    lam = cfg.get("model.lambda") if lam is None else lam
    if lam is None:
        raise MissingRequired("model.lambda required")
    return mc.TiltSpec(a=cfg["model.a"], b=cfg["model.b"], potential=mc.linear_potential(lam))


def build_spec(cfg: RunConfig) -> mc.EnsembleSpec:
    n = cfg["model.n"]
    u = cfg["boundary.u"]
    kind = cfg["boundary.kind"]
    if kind == "bridge":
        v = cfg.get("boundary.v")
        if v is None:
            raise MissingRequired("boundary.v required for bridge boundaries")
        boundary = mc.Bridge(u=u, v=v)
        top = max(u[0], v[0])
    else:
        boundary = mc.Walk(u=u)
        top = u[0]
    x_max = cfg.get("engine.x_max", 0)
    if not x_max:
        x_max = mc.default_x_max(cfg["model.lambda"], top)
    return mc.EnsembleSpec(
        n=n,
        m_left=cfg["window.m_left"],
        n_right=cfg["window.n_right"],
        boundary=boundary,
        x_max=x_max,
    )


def build_mcmc_params(cfg: RunConfig, seed: int) -> gs.McmcParams:
    return gs.McmcParams(
        block_len=cfg["mcmc.block_len"],
        overlap=cfg["mcmc.overlap"],
        sweeps=cfg["mcmc.sweeps"],
        burn_in=cfg["mcmc.burn_in"],
        thin=cfg["mcmc.thin"],
        seed=seed,
        chains=cfg["mcmc.chains"],
    )


def _validate_config(cfg: RunConfig) -> None:
    exp = cfg.experiment
    # dominance needs a kernel only when it names one or checks the walk side
    if exp != "oracle" and (
        exp != "dominance"
        or cfg.get("kernel.preset")
        or cfg.get("kernel.offsets")
        or cfg.get("dominance.walk_side")
    ):
        build_kernel(cfg)
    if "model.a" in cfg.values and "model.b" in cfg.values:
        lam = cfg.get("model.lambda")
        if lam is not None:
            build_tilt(cfg, lam)
        else:
            mc.TiltSpec(a=cfg["model.a"], b=cfg["model.b"], potential=mc.linear_potential(1.0))
    if exp in ("exact", "sample"):
        build_spec(cfg)
    if exp == "sample":
        build_mcmc_params(cfg, cfg.get("seed", 0))
    if exp == "dominance" and cfg.get("dominance.walk_side") and cfg.get("model.lambda") is None:
        raise MissingRequired("dominance.walk_side needs model.lambda")
    if exp == "converge" and cfg["converge.u_top"] < cfg["model.n"]:
        # the start (u_top, u_top - 1, ...) must keep all model.n curves above the wall
        raise ConfigError(f"converge.u_top = {cfg['converge.u_top']} is below model.n = {cfg['model.n']}")


# ---------------------------------------------------------------------------
# CSV emission


def _fmt_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            raise ValueError("NaN is not allowed in emitted reports")
        return f"{f:.17g}"
    s = str(v)
    if any(c in s for c in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


_ROW_CELL = {int: "%d", np.int64: "%d", float: "%.17g", np.float64: "%.17g"}


def emit_csv(header: list[str], rows: list[tuple]) -> str:
    """RFC-4180-style CSV: '.' decimal, 17 significant digits, LF endings.
    When the first row's cells are ints and floats (Python or numpy 64-bit),
    a row of its cell types is formatted by one %-format, and a report of
    such rows alone by one %-format in all; any other row, or one holding
    a NaN, goes cell by cell."""
    lines = [",".join(header)]
    kinds = tuple(map(type, rows[0])) if rows else ()
    fmt = ",".join(map(_ROW_CELL.get, kinds)) if all(t in _ROW_CELL for t in kinds) else None
    cols = list(zip(*rows)) if fmt and set(map(len, rows)) == {len(header)} else []
    if cols and all(set(map(type, col)) == {kind} for col, kind in zip(cols, kinds)):
        body = "\n".join([fmt] * len(rows)) % tuple(itertools.chain.from_iterable(rows))
        if "nan" not in body:
            return f"{lines[0]}\n{body}\n"
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row length does not match header")
        line = fmt % tuple(row) if fmt is not None and tuple(map(type, row)) == kinds else None
        if line is None or "nan" in line:  # _fmt_cell raises on a NaN
            line = ",".join(_fmt_cell(v) for v in row)
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# experiment runners: each returns (payload, curves, passed)
# curves: name -> (header, rows); passed: True/False/None


def _run_exact(cfg: RunConfig, threads: int, seed: int):
    kernel = build_kernel(cfg)
    tilt = build_tilt(cfg)
    spec = build_spec(cfg)
    res = ee.ensemble_messages(spec, kernel, tilt)
    t = cfg.get("exact.time")
    if t is None:
        t = (spec.m_left + spec.n_right) // 2
    dist = ee.marginal_from_messages(res, t)
    if np.isfinite(res.log_z):  # columns in chunks of at most 2^15 entries; a row sums as the column alone
        w = max(2**15 // res.states.size, 1)
        chunks = (slice(c, c + w) for c in range(0, spec.width, w))
        sums = (logsumexp(res.forward[c] + res.backward[c], axis=1, overwrite=True) for c in chunks)
        consistency = max(float(np.abs(s - res.log_z).max()) for s in sums)
    else:
        consistency = 0.0
    payload = {
        "log_z": res.log_z,
        "cutoff_warning": bool(res.cutoff_warning),
        "marginal_time": t,
        "consistency_max_abs": consistency,
        "n_states": res.states.size,
        "x_max": spec.x_max,
    }
    header = [f"x{i+1}" for i in range(spec.n)] + ["prob"]
    keep = dist.probs > 0.0
    rows = list(zip(*res.states.arr[keep].T.tolist(), dist.probs[keep].tolist()))
    return payload, {"marginal": (header, rows)}, None


def _run_sample(cfg: RunConfig, threads: int, seed: int):
    kernel = build_kernel(cfg)
    tilt = build_tilt(cfg)
    spec = build_spec(cfg)
    samples, diags = gs.sample_paths(spec, kernel, tilt, build_mcmc_params(cfg, seed))
    t_center = (spec.m_left + spec.n_right) // 2
    centre = np.array([s.heights[:, spec.col(t_center)] for s in samples]).reshape(-1, spec.n)
    header = [f"x{i+1}" for i in range(spec.n)] + ["count", "freq"]
    total = max(len(samples), 1)
    rows = [
        tuple(map(int, col)) + (int(c), int(c) / total)
        for col, c in zip(*np.unique(centre, axis=0, return_counts=True))
    ]
    payload = {
        "kept": diags.kept,
        "chains": diags.chains,
        "sweeps": diags.sweeps,
        "acceptance_ratio": diags.acceptance_ratio,
        "tau": diags.tau,
        "ess": diags.ess,
        "center_time": t_center,
    }
    return payload, {"sample_marginal": (header, rows)}, None


def _run_mixing(cfg: RunConfig, threads: int, seed: int):
    kernel = build_kernel(cfg)
    tilt = build_tilt(cfg)
    n = cfg["model.n"]
    modes = ("walk", "bridge") if cfg["mixing.mode"] == "both" else (cfg["mixing.mode"],)
    k_list = sorted(cfg["mixing.k_list"])
    x_max = cfg.get("engine.x_max", 0) or None
    curves = {}
    payload = {}
    passed = True
    for mode in modes:
        rep = an.mixing_curve(
            n, kernel, tilt, cfg["mixing.t_lattice"], sorted(set(k_list)), cfg["mixing.u"],
            cfg["mixing.w"], mode=mode, x_max=x_max, window_delta=cfg["mixing.window_delta"],
            threads=threads,
        )
        tv_of = dict(rep.points)
        tvs = [tv_of[k] for k in k_list]  # a repeated K keeps its rows
        payload[mode] = an.mixing_fit(k_list, tvs)
        passed = passed and payload[mode]["monotone"]
        header = ["K", "tv", "log_tv"]
        rows = [(k, tv, math.log(tv) if tv > 0 else float("-inf")) for k, tv in zip(k_list, tvs)]
        curves[f"mixing_{mode}"] = (header, rows)
    return payload, curves, passed


def _run_invariance(cfg: RunConfig, threads: int, seed: int):
    rep = an.invariance_check(
        cfg["model.n"], cfg["invariance.m_cont"], list(cfg["invariance.lambda_list"]),
        build_kernel(cfg), cfg["model.a"], cfg["model.b"],
        boundary=cfg["invariance.boundary"], u_cont=cfg["invariance.u"],
        dx=cfg["oracle.dx"],
        height_cap=cfg["oracle.height_cap"] or None,
        threads=threads,
    )
    header = ["lambda", "sup_cdf_dist"]
    payload = {"boundary": cfg["invariance.boundary"], "m_cont": cfg["invariance.m_cont"]}
    return payload, {"invariance": (header, list(rep.points))}, None


def _run_converge(cfg: RunConfig, threads: int, seed: int):
    rep = an.convergence_to_mu(
        cfg["model.n"], list(cfg["converge.lambda_list"]), build_kernel(cfg),
        cfg["model.a"], cfg["model.b"],
        boundary_mode=cfg["converge.mode"], dx=cfg["oracle.dx"],
        height_cap=cfg["oracle.height_cap"] or None,
        u_top=cfg["converge.u_top"],
        threads=threads,
    )
    header = ["lambda"] + [f"tv_{m}" for m in rep.modes]
    rows = [(lam,) + tuple(entry[m] for m in rep.modes) for lam, entry in rep.points]
    return {"modes": list(rep.modes)}, {"converge": (header, rows)}, None


def _run_dominance(cfg: RunConfig, threads: int, seed: int):
    n = cfg["dominance.n"]
    a, b = cfg["model.a"], cfg["model.b"]
    cap = cfg["oracle.height_cap"] or bo.default_height_cap(a, n) + max(cfg["dominance.u_raised"])
    grid = bo.GridSpec(dx=cfg["oracle.dx"], height_cap=cap, m_half=cfg["oracle.m"])
    u, u_hi = cfg["dominance.u"], cfg["dominance.u_raised"]
    modes = (bo.ZeroBC(), bo.FreeRight(), bo.FreeBoth(), bo.Fixed(u=u, v=u), bo.Fixed(u=u_hi, v=u_hi))
    passes = {}  # ZeroBC and FreeRight share a forward half pass, FreeRight and FreeBoth a backward one
    z, fr, fb, low, hi = [bo.polymer_marginal(n, a, b, grid, mode, 0.0, passes) for mode in modes]
    del passes
    comparisons = [
        ("zero_vs_freeright", z, fr),
        ("freeright_vs_freeboth", fr, fb),
        ("fixed_vs_raised", low, hi),
    ]
    rows = []
    payload = {"oracle": {}}
    passed = True
    for name, base, raised in comparisons:
        rep = an.dominance_check(bo.top_curve_pmf(base)[1], bo.top_curve_pmf(raised)[1])
        payload["oracle"][name] = {"passed": rep.passed, "max_violation": rep.max_violation}
        passed = passed and rep.passed
        rows.append((name, rep.passed, rep.max_violation, rep.argmax_site * grid.dx))
    if cfg.get("dominance.walk_side"):
        payload["walk_side"] = _walk_side_dominance(cfg, n)
    header = ["comparison", "passed", "max_violation", "argmax_x"]
    return payload, {"dominance": (header, rows)}, passed


def _walk_side_dominance(cfg: RunConfig, n: int) -> dict:
    """Exploratory lattice-side dominance: reported, never gating."""
    kernel = build_kernel(cfg)
    lam = cfg["model.lambda"]
    tilt = build_tilt(cfg, lam)
    u = an.snap_lattice_chamber(cfg["dominance.u"], mc.h_scale(tilt.potential).h_big)
    u_hi = an.snap_lattice_chamber(cfg["dominance.u_raised"], mc.h_scale(tilt.potential).h_big)
    half = max(int(round(lam ** (-2.0 / 3.0) * cfg["oracle.m"])), 2)
    x_max = mc.default_x_max(lam, u_hi[0])
    out = {}
    for mode in ("walk", "bridge"):
        pmfs = []
        for bdry_u in (u, u_hi):
            boundary = mc.Bridge(u=bdry_u, v=bdry_u) if mode == "bridge" else mc.Walk(u=bdry_u)
            spec = mc.EnsembleSpec(n=n, m_left=-half, n_right=half, boundary=boundary, x_max=x_max)
            marg = ee.marginal(spec, kernel, tilt, 0)
            pmfs.append(bo.top_curve_pmf(marg)[1])
        rep = an.dominance_check(pmfs[0], pmfs[1])
        out[mode] = {"passed": rep.passed, "max_violation": rep.max_violation}
    return out


def _run_blocks(cfg: RunConfig, threads: int, seed: int):
    warnings.warn(
        "blocks.burn_in has no effect: the blocks experiment draws exact i.i.d. paths", IgnoredKeyWarning
    )
    kernel = build_kernel(cfg)
    pts = an.good_block_experiment(
        cfg["model.n"], cfg["model.lambda"], kernel, cfg["model.a"], cfg["model.b"],
        window_halves=cfg["blocks.windows"], eta=cfg["blocks.eta"], eps=cfg["blocks.eps"],
        pairs=cfg["blocks.pairs"], seed=seed, threads=threads,
    )
    header = ["window_half", "m_blocks", "pairs", "mean_density", "nu", "tail_prob"]
    rows = [
        (p.window_half, p.m_blocks, p.pairs, p.mean_density, p.nu, p.tail_prob) for p in pts
    ]
    payload = {"nu": pts[0].nu if pts else None}
    return payload, {"blocks": (header, rows)}, None


def _run_slope(cfg: RunConfig, threads: int, seed: int):
    kernel = build_kernel(cfg)
    tilt = build_tilt(cfg)
    rep = an.log_partition_slope(
        cfg["model.n"], cfg["slope.w"], kernel, tilt, cfg["slope.t_list"], cfg["slope.eta"]
    )
    header = ["T", "log_z"]
    payload = {
        "slope": rep.slope,
        "intercept": rep.intercept,
        "seg_slopes": list(rep.seg_slopes),
        "second_diffs": list(rep.second_diffs),
        "stability": rep.stability,
    }
    passed = bool(np.isfinite(rep.slope) and rep.stability <= 0.10)
    return payload, {"slope": (header, list(rep.points))}, passed


def _run_oracle(cfg: RunConfig, threads: int, seed: int):
    n = cfg["oracle.n"]
    a, b = cfg["model.a"], cfg["model.b"]
    cap = cfg["oracle.height_cap"] or bo.default_height_cap(a, n)
    grid = bo.GridSpec(dx=cfg["oracle.dx"], height_cap=cap, m_half=cfg["oracle.m"])
    bo.check_polymer_budget(n, grid)  # zero_bc_extrapolate's passes, before the eigensolve
    st = bo.stationary_density(n, a, b, grid)
    sites, pmf = bo.top_curve_pmf(st)
    zbc = bo.zero_bc_extrapolate(n, a, b, grid)
    payload = {"zero_bc_diagnostics": zbc.diagnostics, "n_sites": grid.n_sites, "dt": grid.dt}
    rows = [(s * grid.dx, p) for s, p in zip(sites, pmf) if p > 0.0]
    return payload, {"stationary": (["x", "prob"], rows)}, None


_RUNNERS: dict[str, Callable] = {
    "exact": _run_exact,
    "sample": _run_sample,
    "mixing": _run_mixing,
    "invariance": _run_invariance,
    "converge": _run_converge,
    "dominance": _run_dominance,
    "blocks": _run_blocks,
    "slope": _run_slope,
    "oracle": _run_oracle,
}


# ---------------------------------------------------------------------------
# envelope + files


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and math.isinf(obj):
        return "-inf" if obj < 0 else "inf"
    return obj


def run(cfg: RunConfig, out_dir: str | Path, seed: int | None = None, threads: int | None = None) -> dict:
    """Run one experiment, write results.json and per-curve CSVs, and
    return the result envelope.  Exit semantics: envelope["pass"] False
    means a PASS/FAIL experiment failed.

    Every warning the run raises, in any thread, is recorded in the
    envelope's "warnings" list as {"category", "message"}, deduplicated
    and sorted so that thread scheduling cannot reorder it; each distinct
    warning is then issued again under the caller's own filters."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.get("seed", 0) if seed is None else seed
    threads = cfg.get("threads", 1) if threads is None else threads
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        payload, curves, passed = _RUNNERS[cfg.experiment](cfg, threads, seed)
    elapsed = time.perf_counter() - t0
    raised = {}
    for w in caught:
        cat = f"{w.category.__module__}.{w.category.__qualname__}"
        raised.setdefault((cat, str(w.message)), w)
    envelope = {
        "experiment": cfg.experiment,
        "config": _jsonable({**cfg.values, "experiment": cfg.experiment}),
        "config_hash": config_hash(cfg),
        "library_version": __version__,
        "seed": seed,
        "threads": threads,
        "pass": passed,
        "payload": _jsonable(payload),
        "curves": sorted(curves),
        "warnings": [{"category": c, "message": m} for c, m in sorted(raised)],
        "timings": {"total_seconds": elapsed},
    }
    (out / "results.json").write_text(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
    for name, (header, rows) in sorted(curves.items()):
        (out / f"{name}.csv").write_text(emit_csv(header, rows))
    for w in raised.values():
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return envelope


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ensembles",
        description="Exact and Monte Carlo experiments for area-tilted line ensembles.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="path to key=value config file")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--threads", type=int, default=None, help="parallelism across grid points")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
        cfg = parse_config(text, experiment=args.experiment)
        envelope = run(cfg, args.out, seed=args.seed, threads=args.threads)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"{type(exc).__module__}.{type(exc).__qualname__}: {exc}", file=sys.stderr)
        return 1
    if envelope["pass"] is False:
        print("FAIL", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
