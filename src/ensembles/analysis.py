"""Experiment drivers: mixing decay, invariance toward the Brownian
polymer, convergence of rescaled marginals to the stationary density,
stochastic-dominance checks, good-block statistics, and the partition
lower-bound slope.

Fitted constants (decay rates, slopes, densities) are reported
quantities; the drivers assert only qualitative structure (monotone
trends, bounded second differences, zero dominance violations).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import brownian_oracle as bo
from . import exact_engine as ee
from ._linalg import logsumexp
from .model_core import (
    Bridge,
    EnsembleSpec,
    Kernel,
    RescaledPath,
    TiltSpec,
    Walk,
    default_x_max,
    h_scale,
    linear_potential,
    rescale,
)

# ---------------------------------------------------------------------------
# grid-alignment helpers


def binned_pmf(values: np.ndarray, pmf: np.ndarray, width: float, n_bins: int) -> np.ndarray:
    """Histogram a discrete pmf onto bins centered at multiples of width.

    Center alignment keeps lattice points (exact multiples of the width)
    away from bin edges, where float jitter would scatter their mass."""
    idx = np.floor(np.asarray(values, dtype=float) / width + 0.5).astype(int).clip(0, n_bins - 1)
    out = np.zeros(n_bins)
    np.add.at(out, idx, pmf)
    return out


def _common_bins(values_a, values_b, width):
    top = max(float(np.max(values_a)), float(np.max(values_b)))
    return int(top / width) + 2


def binned_tv(values_a, pmf_a, values_b, pmf_b, width: float) -> float:
    """TV distance after binning both laws to a common coarse grid."""
    n_bins = _common_bins(values_a, values_b, width)
    ba = binned_pmf(values_a, pmf_a, width, n_bins)
    bb = binned_pmf(values_b, pmf_b, width, n_bins)
    return float(0.5 * np.abs(ba / ba.sum() - bb / bb.sum()).sum())


def binned_sup_cdf(values_a, pmf_a, values_b, pmf_b, width: float) -> float:
    """Sup distance between CDFs evaluated at shared bin edges."""
    n_bins = _common_bins(values_a, values_b, width)
    ba = binned_pmf(values_a, pmf_a, width, n_bins)
    bb = binned_pmf(values_b, pmf_b, width, n_bins)
    fa = np.cumsum(ba)
    fb = np.cumsum(bb)
    fa /= fa[-1]
    fb /= fb[-1]
    return float(np.max(np.abs(fa - fb)))


def pmap(fn, items: Sequence, threads: int) -> list:
    """Order-preserving map, optionally across a thread pool; results are
    assembled by input position so thread count never changes output."""
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def snap_lattice_chamber(u: Sequence[float], h_big: float) -> tuple[int, ...]:
    """Nearest strictly-decreasing positive integer vector to H * u."""
    return bo.order_chamber([int(round(x * h_big)) for x in u])


def fit_loglinear(xs: Sequence[float], ys: Sequence[float], floor: float = 1e-12):
    """OLS fit of log(y) = intercept + slope * x over points with y > floor.

    Returns (slope, intercept, r2), or (None, None, None) with fewer than
    two usable points."""
    pts = [(x, math.log(y)) for x, y in zip(xs, ys) if y > floor]
    if len(pts) < 2:
        return None, None, None
    px = np.array([p[0] for p in pts])
    py = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(px, py, 1)
    resid = py - (intercept + slope * px)
    ss_tot = float(np.sum((py - py.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), r2


# ---------------------------------------------------------------------------
# mixing decay


@dataclass(frozen=True)
class MixingReport:
    """tv(K) between two ensembles seen through a central window."""

    mode: str
    points: tuple[tuple[int, float], ...]
    c2: float | None  # fitted decay rate (log tv ~ log c1 - c2 K)
    log_c1: float | None
    r2: float | None
    monotone: bool

    def __post_init__(self):
        ks = [k for k, _ in self.points]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("K values must be increasing")
        if any(not 0.0 <= tv <= 1.0 + 1e-12 for _, tv in self.points):
            raise ValueError("tv values must lie in [0, 1]")


def mixing_curve(
    n: int,
    kernel: Kernel,
    tilt: TiltSpec,
    t_lattice: int,
    k_list: Sequence[int],
    u: Sequence[int],
    w: Sequence[int],
    mode: str = "bridge",
    x_max: int | None = None,
    window_delta: int = 0,
    threads: int = 1,
) -> MixingReport:
    """Exact TV between the central-window laws of two ensembles whose
    boundary data (and optionally window size) differ, as the boundary
    recedes by K.

    Both ensembles of a point share the kernel, the tilt and x_max, so
    their laws on the window {-t..t} have the form
    f[x_-t] * J(x_-t .. x_t) * b[x_t] with one J, the window's own
    kernel.  Their TV is therefore the TV of their laws on the two end
    columns (x_-t, x_t).  The S x S log kernel J_2, the interior summed
    out, is built once per call; each point adds to it the end messages
    f and b of its two ensembles' own passes.  Points are mapped over
    ``threads``."""
    if mode not in ("walk", "bridge"):
        raise ValueError("mode must be 'walk' or 'bridge'")
    u = tuple(int(x) for x in u)
    w = tuple(int(x) for x in w)
    if x_max is None:
        x_max = default_x_max(tilt.potential.lam, max(u[0], w[0]))
    t = t_lattice
    states = ee.chamber(n, x_max, kernel).states
    if t:
        zeros = np.zeros(states.size)
        window = ee._log_joint(ee.step_matrix(states, kernel, tilt), (-t, t), zeros, zeros)
    space = ee.product_space_key(states, sorted({-t, t}))

    def point(k):
        laws = []
        for half, bdry in ((k + t, u), (k + t + window_delta, w)):
            boundary = Bridge(u=bdry, v=bdry) if mode == "bridge" else Walk(u=bdry)
            spec = EnsembleSpec(n=n, m_left=-half, n_right=half, boundary=boundary, x_max=x_max)
            res = ee.ensemble_messages(spec, kernel, tilt)
            f, b = res.forward[res.col(-t)], res.backward[res.col(t)]
            log_w = np.add.outer(f, b) + window if t else f + b
            laws.append(ee.Distribution(space=space, log_weights=log_w.ravel()))
        return k, ee.tv_exact(laws[0], laws[1])

    pts = pmap(point, sorted(int(k) for k in k_list), threads)
    fit = mixing_fit([k for k, _ in pts], [tv for _, tv in pts])
    return MixingReport(mode=mode, points=tuple(pts), **fit)


def mixing_fit(ks: Sequence[int], tvs: Sequence[float]) -> dict:
    """Fitted decay rate c2 and log c1 of log tv ~ log c1 - c2 K, the fit's
    r2, and whether tv never rises with K."""
    slope, intercept, r2 = fit_loglinear(ks, tvs)
    return {
        "c2": None if slope is None else -slope,
        "log_c1": intercept,
        "r2": r2,
        "monotone": all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:])),
    }


# ---------------------------------------------------------------------------
# invariance principle


@dataclass(frozen=True)
class InvarianceReport:
    points: tuple[tuple[float, float], ...]  # (lambda, sup-CDF distance)
    boundary: str
    m_cont: float


def invariance_check(
    n: int,
    m_cont: float,
    lambda_list: Sequence[float],
    kernel: Kernel,
    a: float,
    b: float,
    boundary: str = "bridge",
    u_cont: Sequence[float] = (1.0,),
    dx: float = 0.05,
    height_cap: float | None = None,
    threads: int = 1,
) -> InvarianceReport:
    """Sup-CDF distance between the rescaled exact one-time marginal of the
    top curve at t = 0 and the Brownian-polymer marginal, per lambda.

    The lattice window is the smallest grid multiple covering m_cont, and
    each lambda is compared against the polymer with the boundary point
    and window the lattice actually realizes (the snapped u_N and M_N,
    which converge to u and m_cont).  Kernel variance sigma^2 != 1 is
    corrected by scaling space by sigma (equivalently, the oracle runs at
    tilt a*sigma in y = x/sigma coordinates).  The lambda points are
    mapped over ``threads``; their oracles step on one chamber, as the
    number of sites is the same for every lambda, so it is built first
    and the threads share it."""
    if boundary not in ("walk", "bridge"):
        raise ValueError("boundary must be 'walk' or 'bridge'")
    if len(u_cont) != n:
        raise ValueError("u_cont must have n entries")
    sigma = kernel.sigma
    a_eff = a * sigma
    if height_cap is None:
        height_cap = bo.default_height_cap(a_eff, n) + max(u_cont) / sigma
    bo._killed_step(n, bo.GridSpec(dx=dx, height_cap=height_cap, m_half=m_cont).n_sites)

    def point(lam):
        pot = linear_potential(lam)
        tilt = TiltSpec(a=a, b=b, potential=pot)
        scale = h_scale(pot)
        half = int(math.ceil(lam ** (-2.0 / 3.0) * m_cont - 1e-9))
        u_lat = snap_lattice_chamber(u_cont, scale.h_big)
        x_max = default_x_max(lam, u_lat[0])
        bdry = Bridge(u=u_lat, v=u_lat) if boundary == "bridge" else Walk(u=u_lat)
        spec = EnsembleSpec(n=n, m_left=-half, n_right=half, boundary=bdry, x_max=x_max)
        marg = ee.marginal(spec, kernel, tilt, 0)
        sites, pmf = bo.top_curve_pmf(marg)
        vals = sites * scale.h_small

        m_n = half * scale.h_small**2
        u_n = tuple(x * scale.h_small / sigma for x in u_lat)
        grid = bo.GridSpec(dx=dx, height_cap=height_cap, m_half=m_n)
        omode = bo.Fixed(u=u_n, v=u_n) if boundary == "bridge" else bo.Fixed(u=u_n)
        oracle = bo.polymer_marginal(n, a_eff, b, grid, omode, 0.0)
        o_sites, o_pmf = bo.top_curve_pmf(oracle)
        o_vals = o_sites * grid.dx * sigma

        width = max(scale.h_small, grid.dx * sigma)
        return float(lam), binned_sup_cdf(vals, pmf, o_vals, o_pmf, width)

    pts = pmap(point, list(lambda_list), threads)
    return InvarianceReport(points=tuple(pts), boundary=boundary, m_cont=m_cont)


# ---------------------------------------------------------------------------
# convergence toward the stationary density


@dataclass(frozen=True)
class ConvergenceReport:
    points: tuple[tuple[float, dict], ...]  # (lambda, {"walk": tv, "bridge": tv})
    modes: tuple[str, ...]


def convergence_to_mu(
    n: int,
    lambda_list: Sequence[float],
    kernel: Kernel,
    tilt_a: float,
    tilt_b: float,
    boundary_mode: str = "both",
    dx: float = 0.05,
    height_cap: float | None = None,
    u_top: int | None = None,
    threads: int = 1,
) -> ConvergenceReport:
    """Binned TV between the rescaled top-curve marginal at t = 0 and the
    stationary density of the polymer oracle, along a lambda sequence with
    lattice half-width N = max(round(1/lambda), 1).  The
    target is solved once; the lambda points are mapped over ``threads``."""
    if boundary_mode == "both":
        modes = ("walk", "bridge")
    elif boundary_mode in ("walk", "bridge"):
        modes = (boundary_mode,)
    else:
        raise ValueError("boundary_mode must be walk, bridge, or both")
    sigma = kernel.sigma
    a_eff = tilt_a * sigma
    if height_cap is None:
        height_cap = bo.default_height_cap(a_eff, n)
    grid = bo.GridSpec(dx=dx, height_cap=height_cap, m_half=1.0)
    target = bo.stationary_density(n, a_eff, tilt_b, grid)
    t_sites, t_pmf = bo.top_curve_pmf(target)
    t_vals = t_sites * grid.dx * sigma

    top = u_top if u_top is not None else n
    u = tuple(range(top, top - n, -1))

    def point(lam):
        half = max(int(round(1.0 / lam)), 1)
        pot = linear_potential(lam)
        tilt = TiltSpec(a=tilt_a, b=tilt_b, potential=pot)
        scale = h_scale(pot)
        x_max = default_x_max(lam, u[0])
        width = max(scale.h_small, grid.dx * sigma)
        entry: dict = {}
        for mode in modes:
            bdry = Bridge(u=u, v=u) if mode == "bridge" else Walk(u=u)
            spec = EnsembleSpec(n=n, m_left=-half, n_right=half, boundary=bdry, x_max=x_max)
            marg = ee.marginal(spec, kernel, tilt, 0)
            sites, pmf = bo.top_curve_pmf(marg)
            vals = sites * scale.h_small
            entry[mode] = binned_tv(vals, pmf, t_vals, t_pmf, width)
        return float(lam), entry

    pts = pmap(point, list(lambda_list), threads)
    return ConvergenceReport(points=tuple(pts), modes=modes)


# ---------------------------------------------------------------------------
# stochastic dominance


@dataclass(frozen=True)
class DominanceReport:
    passed: bool
    max_violation: float
    argmax_site: int


def dominance_check(pmf_base: np.ndarray, pmf_raised: np.ndarray) -> DominanceReport:
    """Pointwise CDF comparison on a shared grid: PASS iff the raised
    boundary's CDF never exceeds the base CDF (no tolerance)."""
    pmf_base = np.asarray(pmf_base, dtype=float)
    pmf_raised = np.asarray(pmf_raised, dtype=float)
    if pmf_base.shape != pmf_raised.shape:
        raise ValueError("marginals live on different grids")
    f_base = np.cumsum(pmf_base)
    f_raised = np.cumsum(pmf_raised)
    f_base /= f_base[-1]
    f_raised /= f_raised[-1]
    margin = f_raised - f_base
    i = int(np.argmax(margin))
    return DominanceReport(passed=bool(margin[i] <= 0.0), max_violation=float(margin[i]), argmax_site=i + 1)


# ---------------------------------------------------------------------------
# good blocks


@dataclass(frozen=True)
class GoodBlockReport:
    """Counts of jointly good blocks and pre-good 5-blocks for a path pair."""

    eta: float
    eps: float
    m_blocks: int
    m0: int
    m0_5: int
    flags: tuple  # per block l in [-M, M-1]: (good_x, good_y)
    five_flags: tuple  # per 5-block l: (pregood_x, pregood_y)

    def __post_init__(self):
        if not 0 <= self.m0 <= 2 * self.m_blocks:
            raise ValueError("m0 out of range")
        joint = sum(1 for gx, gy in self.flags if gx and gy)
        if joint != self.m0:
            raise ValueError("flags inconsistent with m0")


def _top_extrema(path: RescaledPath, pts: np.ndarray, top: np.ndarray, i_lo: np.ndarray, i_hi: np.ndarray):
    """Min and max of the top curve over each interval [pts[i_lo], pts[i_hi]]:
    its grid values at times within 1e-12 of the interval and ``top``, its
    interpolated values at ``pts`` (piecewise-linear extrema live there)."""
    ts, grid = path.times, path.values[0]
    first = np.searchsorted(ts, pts[i_lo] - 1e-12, side="left")
    stop = np.searchsorted(ts, pts[i_hi] + 1e-12, side="right")
    idx = first[:, None] + np.arange(max(int((stop - first).max(initial=0)), 1))
    inside = idx < stop[:, None]
    vals = grid[np.minimum(idx, ts.size - 1)]
    ends_lo = np.minimum(top[i_lo], top[i_hi])
    ends_hi = np.maximum(top[i_lo], top[i_hi])
    lo = np.minimum(np.where(inside, vals, np.inf).min(axis=1), ends_lo)
    hi = np.maximum(np.where(inside, vals, -np.inf).max(axis=1), ends_hi)
    return lo, hi


def _path_blocks(path: RescaledPath, m: int, five: np.ndarray, eta: float, eps: float):
    """One path's flags: per block [2l, 2l+2], l in [-m, m-1], whether it
    is good, and per 5-block centred on block 5l (l in ``five``) whether
    the top curve dips to eta in its first and last blocks.

    A block is good when both of its unit intervals are: the path is in
    the regular set at both ends (top <= eta, bottom > 0, gaps >= eps) and
    the top curve stays <= 2 eta between them."""
    pts = np.arange(-2 * m, 2 * m + 1, dtype=float)
    x = path.evaluate(pts)  # (n, 4m + 1)
    regular = (x[-1] > 0.0) & (x[0] <= eta)
    if x.shape[0] > 1:
        regular &= (x[:-1] > x[1:]).all(axis=0) & ((x[:-1] - x[1:]).min(axis=0) >= eps)
    k = np.arange(4 * m)
    _, top_max = _top_extrema(path, pts, x[0], k, k + 1)
    unit_ok = regular[:-1] & regular[1:] & (top_max <= 2.0 * eta)
    good = unit_ok[0::2] & unit_ok[1::2]
    dips = []
    for block in (5 * five - 2, 5 * five + 2):
        i = 2 * (block + m)
        low, _ = _top_extrema(path, pts, x[0], i, i + 2)
        dips.append(low <= eta)
    return good, dips[0] & dips[1]


def good_blocks(x_path: RescaledPath, y_path: RescaledPath, eta: float, eps: float) -> GoodBlockReport:
    """Count blocks [2l, 2l+2] that are good for both paths, and 5-blocks
    that are jointly pre-good (top curve dips below eta in the first and
    last sub-blocks).  Each path's blocks are scored with array operations
    over all of them at once."""
    t_lo = max(x_path.t_min, y_path.t_min)
    t_hi = min(x_path.t_max, y_path.t_max)
    m = int(math.floor(min(-t_lo, t_hi) / 2.0 + 1e-9))
    if m < 1:
        raise ValueError("paths too short for even one block pair")
    five = np.arange(-(m // 5), m // 5 + 1)
    five = five[(5 * five - 2 >= -m) & (5 * five + 2 <= m - 1)]
    gx, px = _path_blocks(x_path, m, five, eta, eps)
    gy, py = _path_blocks(y_path, m, five, eta, eps)
    return GoodBlockReport(
        eta=eta,
        eps=eps,
        m_blocks=m,
        m0=int((gx & gy).sum()),
        m0_5=int((px & py).sum()),
        flags=tuple(zip(gx.tolist(), gy.tolist())),
        five_flags=tuple(zip(px.tolist(), py.tolist())),
    )


@dataclass(frozen=True)
class BlockExperimentPoint:
    window_half: int
    m_blocks: int
    pairs: int
    mean_density: float
    nu: float
    tail_prob: float


def good_block_experiment(
    n: int,
    lam: float,
    kernel: Kernel,
    tilt_a: float,
    tilt_b: float,
    window_halves: Sequence[int],
    eta: float,
    eps: float,
    pairs: int = 200,
    seed: int = 0,
    threads: int = 1,
) -> list[BlockExperimentPoint]:
    """Monte Carlo estimate of the jointly-good-block density and the tail
    probability P(M0 <= nu * M) across growing windows, with nu fixed to
    half the pooled mean density.

    Each window's 2 * pairs paths are i.i.d. exact draws of the walk
    ensemble (one ``exact_sample`` call with seed ``seed + window
    index``), so no burn-in enters.  Windows are mapped over ``threads``."""
    pot = linear_potential(lam)
    tilt = TiltSpec(a=tilt_a, b=tilt_b, potential=pot)
    scale = h_scale(pot)
    u = tuple(range(n, 0, -1))

    def one_window(args):
        wi, half = args
        spec = EnsembleSpec(
            n=n,
            m_left=-half,
            n_right=half,
            boundary=Walk(u=u),
            x_max=default_x_max(lam, u[0]),
        )
        samples = ee.exact_sample(spec, kernel, tilt, seed=seed + wi, count=2 * pairs)
        counts = []
        m_blocks = None
        for i in range(pairs):
            rx = rescale(samples[2 * i], scale)
            ry = rescale(samples[2 * i + 1], scale)
            rep = good_blocks(rx, ry, eta, eps)
            counts.append(rep.m0)
            m_blocks = rep.m_blocks
        return half, m_blocks, np.array(counts)

    raw = pmap(one_window, list(enumerate(window_halves)), threads)
    total = sum(c.sum() for _, _, c in raw)
    blocks_total = sum(2 * m * len(c) for _, m, c in raw)
    pooled_density = total / blocks_total if blocks_total else 0.0
    nu = 0.5 * pooled_density
    out = []
    for half, m_blocks, counts in raw:
        tail = float(np.mean(counts <= nu * m_blocks))
        out.append(
            BlockExperimentPoint(
                window_half=half,
                m_blocks=m_blocks,
                pairs=len(counts),
                mean_density=float(counts.mean() / (2 * m_blocks)),
                nu=nu,
                tail_prob=tail,
            )
        )
    return out


# ---------------------------------------------------------------------------
# partition lower-bound slope


@dataclass(frozen=True)
class SlopeReport:
    """log Z along a growing window, with segment slopes and their stability."""

    points: tuple[tuple[float, float], ...]  # (T, log_z)
    slope: float
    intercept: float
    seg_slopes: tuple[float, ...]
    second_diffs: tuple[float, ...]
    stability: float  # relative change between the last two segment slopes

    def __post_init__(self):
        ts = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("T values must be increasing")


def log_partition_slope(
    n: int,
    w_cont: Sequence[float],
    kernel: Kernel,
    tilt: TiltSpec,
    t_list: Sequence[float],
    eta: float,
    x_max: int | None = None,
) -> SlopeReport:
    """log of the walk partition value over a T grid, with the fitted
    asymptotic slope; finite second differences certify the linear lower
    envelope.  One forward pass over the longest window gives every T."""
    if len(w_cont) != n:
        raise ValueError("w_cont must have n entries")
    if w_cont[0] > eta:
        raise ValueError("boundary top must satisfy w_1 <= eta")
    scale = h_scale(tilt.potential)
    u = snap_lattice_chamber(w_cont, scale.h_big)
    if x_max is None:
        x_max = default_x_max(tilt.potential.lam, u[0])
    halves = [max(int(round(scale.h_big**2 * t_cont)), 1) for t_cont in sorted(float(t) for t in t_list)]
    spec = EnsembleSpec(n=n, m_left=0, n_right=2 * max(halves), boundary=Walk(u=u), x_max=x_max)
    forward = ee.partition_walk(spec, kernel, tilt).forward
    # a walk's log Z over [0, 2 half] sums the forward message at 2 half;
    # the realized window, half * h^2, is what log Z actually scales with
    pts = [(half * scale.h_small**2, float(logsumexp(forward[2 * half]))) for half in halves]
    ts = np.array([p[0] for p in pts])
    zs = np.array([p[1] for p in pts])
    seg = tuple((zs[i + 1] - zs[i]) / (ts[i + 1] - ts[i]) for i in range(len(pts) - 1))
    slope, intercept = np.polyfit(ts, zs, 1)
    second = tuple(float(seg[i + 1] - seg[i]) for i in range(len(seg) - 1))
    if len(seg) >= 2 and seg[-2] != 0.0:
        stability = abs(seg[-1] - seg[-2]) / abs(seg[-2])
    else:
        stability = float("inf")
    return SlopeReport(
        points=tuple(pts),
        slope=float(slope),
        intercept=float(intercept),
        seg_slopes=seg,
        second_diffs=second,
        stability=stability,
    )
