"""Block heat-bath MCMC for the tilted ensemble.

Each block update is an exact draw from the conditional bridge (or
conditional walk) law given the block endpoints, so there is no
acceptance step to tune.  Chains are vectorized internally: a batch of
independent chains shares the block schedule while every chain consumes
its own spawned random stream.  A block redraw is a scaled linear-space
forward pass for all chains on the chamber operator's CSR transpose, then
one batched backward draw by ``ee.ffbs``: each chain weighs at most
|offsets|^n predecessor candidates, read from the step's cached (S, K)
padded table, in linear space against its own scaled forward column.
The starting configurations are one exact draw (``ee.sample_heights``,
weighed in log space) from the untilted ensemble.  Kept samples are
validated once per sweep as a batch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import exact_engine as ee
from .model_core import (
    Bridge,
    EnsembleSpec,
    Kernel,
    PathConfig,
    TiltSpec,
    Walk,
    path_configs,
)

_EXP_CAP = 700.0  # largest exponent taken in the linear block pass; exp(709.8) overflows


class Infeasible(ValueError):
    """No admissible configuration exists for this boundary and cutoff."""


class TooShort(ValueError):
    """Series too short (or degenerate) for an autocorrelation estimate."""


@dataclass(frozen=True)
class McmcParams:
    """Block schedule, chain length, thinning, and seeding."""

    block_len: int = 8
    overlap: int = 4
    sweeps: int = 1000
    burn_in: int = 100
    thin: int = 1
    seed: int = 0
    chains: int = 1

    def __post_init__(self):
        if self.block_len < 2:
            raise ValueError("block_len must be >= 2")
        if not 1 <= self.overlap < self.block_len:
            raise ValueError("need 1 <= overlap < block_len")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.sweeps < 0 or self.burn_in < 0:
            raise ValueError("sweeps and burn_in must be nonnegative")
        if self.chains < 1:
            raise ValueError("chains must be >= 1")


@dataclass(frozen=True)
class ChainDiagnostics:
    """Per-observable integrated autocorrelation times and bookkeeping.

    acceptance_ratio is identically 1 for heat-bath updates; it is kept
    for schema stability."""

    tau: dict
    ess: dict
    acceptance_ratio: float
    sweep_seconds: float
    sweeps: int
    chains: int
    kept: int


# ---------------------------------------------------------------------------
# cached local transfer structures


@lru_cache(maxsize=32)
def _local_transfer(n: int, x_loc: int, kernel: Kernel, tilt: TiltSpec) -> tuple[ee.TransferStep, float]:
    """The chamber operator on {1..x_loc} and the largest change of its
    log tilt along one step."""
    step = ee.step_matrix(ee.enumerate_states(n, x_loc), kernel, tilt)
    mat, log_tilt = step.matrix, step.log_tilt
    src = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    tilt_step = float(np.abs(log_tilt[src] - log_tilt[mat.indices]).max()) if mat.nnz else 0.0
    return step, tilt_step


# ---------------------------------------------------------------------------
# block schedule


def _blocks_schedule(spec: EnsembleSpec, params: McmcParams) -> list[tuple[int, int | None]]:
    m, n_r = spec.m_left, spec.n_right
    stride = params.block_len - params.overlap
    blocks: list[tuple[int, int | None]] = []
    if isinstance(spec.boundary, Walk):
        k = m
        while k + params.block_len < n_r:
            blocks.append((k, k + params.block_len))
            k += stride
        blocks.append((k, None))
        return blocks
    k = m
    while k < n_r - 1:
        l = min(k + params.block_len, n_r)
        blocks.append((k, l))
        if l == n_r:
            break
        k += stride
    return blocks


def _block_draws(spec: EnsembleSpec, block: tuple[int, int | None]) -> int:
    k, l = block
    if l is None:
        return spec.n_right - k
    return l - k - 1


def _sweep_draws(spec: EnsembleSpec, blocks) -> int:
    return sum(_block_draws(spec, b) for b in blocks)


# ---------------------------------------------------------------------------
# batched block resampling


def _apply_block_batch(
    heights: np.ndarray,
    spec: EnsembleSpec,
    kernel: Kernel,
    tilt: TiltSpec,
    block: tuple[int, int | None],
    us: np.ndarray,
    cursor: int,
) -> int:
    """Exact conditional redraw of one block for every chain in the batch.

    ``heights`` is (chains, n, width) and is modified in place; ``us`` is
    the per-sweep uniform buffer (chains, draws)."""
    k, l = block
    free = l is None
    m = (spec.n_right - k) if free else (l - k)
    n_draw = _block_draws(spec, block)
    if n_draw == 0:
        return cursor
    col_k = spec.col(k)
    ends_top = int(heights[:, 0, col_k].max())
    if not free:
        ends_top = max(ends_top, int(heights[:, 0, spec.col(l)].max()))
    x_loc = ends_top + m * kernel.max_step + 2
    x_loc = min(spec.x_max, int(math.ceil(x_loc / 4.0)) * 4)
    step, tilt_step = _local_transfer(spec.n, x_loc, kernel, tilt)
    states, mat_t, log_tilt = step.states, step.matrix_t, step.log_tilt

    r = heights.shape[0]
    start = states.ids(heights[:, :, col_k])
    if not free:
        end = heights[:, :, spec.col(l)]
        last = states.ids(end)
        # steps each state needs at least to reach its chain's pinned end
        to_end = np.abs(states.arr.T[:, :, None] - end.T[:, None, :]).max(axis=0)
    # Scaled forward pass in linear space (Rabiner 1989), one column per
    # chain.  exp(tilt) is shifted per chain by the largest log tilt on its
    # support, so a chain far above the tilt minimum keeps its column in
    # range.  The support gains at most tilt_step per step, so the shift is
    # renewed every `every` steps to keep exponents on it below _EXP_CAP;
    # the cap itself only keeps states off the support finite.  States
    # that cannot reach a pinned end are zeroed first, so the shift and
    # the row scale follow the mass that the bridge can use.
    every = int(_EXP_CAP // tilt_step) + 1 if tilt_step > 0 else m
    fwd = np.zeros((m, states.size, r))
    fwd[0, start, np.arange(r)] = 1.0
    for t in range(1, m):
        f = mat_t @ fwd[t - 1]
        if not free:
            f *= to_end <= (m - t) * kernel.max_step
        if (t - 1) % every == 0:
            top = np.where(f > 0, log_tilt[:, None], -np.inf).max(axis=0)
            tilt_w = np.exp(np.minimum(log_tilt[:, None] - top, _EXP_CAP))
        f *= tilt_w
        scale = f.max(axis=0)
        fwd[t] = f / np.where(scale > 0, scale, 1.0)
    if free:
        last = (mat_t @ fwd[m - 1]).T  # the end's weights, one row per chain

    # a draw's candidates come from the cached (S, K) predecessor table
    pred, probs = step.predecessors
    chain = np.arange(r)[:, None]

    def weigh(t, nxt):
        cand = pred[nxt]  # (R, K); a padding candidate has probability 0
        return cand, fwd[t][cand, chain] * probs[nxt]

    idx = ee.ffbs(m, start, last, us[:, cursor : cursor + n_draw], weigh)
    stop = m if free else m - 1
    heights[:, :, col_k + 1 : col_k + stop + 1] = states.arr[idx[1 : stop + 1]].transpose(1, 2, 0)
    return cursor + n_draw


def _sweep_batch(
    heights: np.ndarray,
    spec: EnsembleSpec,
    kernel: Kernel,
    tilt: TiltSpec,
    blocks,
    us: np.ndarray,
) -> None:
    cursor = 0
    for block in blocks:
        cursor = _apply_block_batch(heights, spec, kernel, tilt, block, us, cursor)


# ---------------------------------------------------------------------------
# initial configuration


def _untilted_messages(spec: EnsembleSpec, kernel: Kernel) -> ee.TransferResult:
    """Untilted messages on the smallest doubled height cutoff (up to
    spec.x_max) that admits a path."""
    if isinstance(spec.boundary, Bridge):
        try:
            ee._bridge_parity_check(spec, kernel)
        except ee.ParityInfeasible as exc:
            raise Infeasible(str(exc)) from None
    tops = [spec.boundary.u[0]]
    if isinstance(spec.boundary, Bridge):
        tops.append(spec.boundary.v[0])
    x_init = min(spec.x_max, max(tops) + 2 * spec.n + 8)
    while True:
        step = ee.step_matrix(ee.enumerate_states(spec.n, x_init), kernel)
        res = ee._compute_messages(replace(spec, x_max=x_init), kernel, step)
        if np.isfinite(res.log_z):
            return res
        if x_init >= spec.x_max:
            raise Infeasible(f"no admissible path within x_max={spec.x_max} for this boundary")
        x_init = min(spec.x_max, 2 * x_init)


def _init_heights(spec: EnsembleSpec, kernel: Kernel, gens: Sequence[np.random.Generator]) -> np.ndarray:
    """(chains, n, width) exact draws from the untilted wall-constrained
    ensemble, one batched draw with one generator per chain."""
    res = _untilted_messages(spec, kernel)
    k = ee.sample_draws(spec)
    return ee.sample_heights(res, np.array([g.random(k) for g in gens]))


def init_config(spec: EnsembleSpec, kernel: Kernel, rng: np.random.Generator | None = None) -> PathConfig:
    """A positive-probability starting configuration.

    Drawn exactly from the untilted wall-constrained ensemble on a
    reduced height cutoff (enlarged on demand up to spec.x_max), so the
    result is ordered and kernel-admissible by construction.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    return PathConfig(heights=_init_heights(spec, kernel, [rng])[0], spec=spec)


# ---------------------------------------------------------------------------
# public single-chain operations


def resample_block(
    config: PathConfig,
    K: int,
    L: int,
    tilt: TiltSpec,
    kernel: Kernel,
    rng: np.random.Generator,
) -> PathConfig:
    """Replace the columns strictly between K and L by an exact conditional
    draw.  For Walk boundaries, L = n_right + 1 resamples {K+1..n_right}
    from the conditional walk law (free right end)."""
    spec = config.spec
    free = L == spec.n_right + 1
    if free and not isinstance(spec.boundary, Walk):
        raise ValueError("free right-end block needs a Walk boundary")
    if not free and not (spec.m_left <= K < L <= spec.n_right):
        raise ValueError("need m_left <= K < L <= n_right")
    if free and not (spec.m_left <= K <= spec.n_right):
        raise ValueError("need m_left <= K <= n_right")
    block = (K, None) if free else (K, L)
    n_draw = _block_draws(spec, block)
    heights = config.heights[None, :, :].copy()
    us = rng.random(n_draw)[None, :] if n_draw else np.zeros((1, 0))
    _apply_block_batch(heights, spec, kernel, tilt, block, us, 0)
    return config.with_heights(heights[0])


def sweep(
    config: PathConfig,
    params: McmcParams,
    tilt: TiltSpec,
    kernel: Kernel,
    rng: np.random.Generator,
) -> PathConfig:
    """One left-to-right pass of overlapping block resamples."""
    spec = config.spec
    blocks = _blocks_schedule(spec, params)
    n_draw = _sweep_draws(spec, blocks)
    heights = config.heights[None, :, :].copy()
    us = rng.random(n_draw)[None, :] if n_draw else np.zeros((1, 0))
    _sweep_batch(heights, spec, kernel, tilt, blocks, us)
    return config.with_heights(heights[0])


# ---------------------------------------------------------------------------
# full sampler


def sample_paths(
    spec: EnsembleSpec,
    kernel: Kernel,
    tilt: TiltSpec,
    params: McmcParams,
) -> tuple[list[PathConfig], ChainDiagnostics]:
    """Thinned post-burn-in samples from params.chains independent chains,
    with autocorrelation diagnostics on the center height and total area."""
    blocks = _blocks_schedule(spec, params)
    n_draw = _sweep_draws(spec, blocks)
    gens = [np.random.default_rng(c) for c in np.random.SeedSequence(params.seed).spawn(params.chains)]
    r = params.chains
    heights = _init_heights(spec, kernel, gens)

    t_center = (spec.m_left + spec.n_right) // 2
    col_c = spec.col(t_center)
    curve_w = tilt.curve_weights(spec.n)

    samples: list[PathConfig] = []
    x1_series: list[np.ndarray] = []
    area_series: list[np.ndarray] = []
    t0 = time.perf_counter()
    for s_i in range(params.burn_in + params.sweeps):
        if n_draw:
            us = np.stack([g.random(n_draw) for g in gens])
        else:
            us = np.zeros((r, 0))
        _sweep_batch(heights, spec, kernel, tilt, blocks, us)
        if s_i >= params.burn_in and (s_i - params.burn_in) % params.thin == 0:
            x1_series.append(heights[:, 0, col_c].copy())
            body = heights[:, :, :-1].astype(float)
            v = tilt.potential.value(body)
            area_series.append(np.einsum("rnt,n->r", v, curve_w))
            samples.extend(path_configs(heights.copy(), spec))
    elapsed = time.perf_counter() - t0

    tau: dict = {"x1_center": None, "area": None}
    ess: dict = {"x1_center": None, "area": None}
    if x1_series:
        x1 = np.stack(x1_series)  # (kept_per_chain, chains)
        area = np.stack(area_series)
        for name, arr in (("x1_center", x1), ("area", area)):
            taus = []
            for c in range(r):
                try:
                    taus.append(autocorr(arr[:, c]))
                except TooShort:
                    pass
            if taus:
                t_hat = max(float(np.mean(taus)), 0.5)
                tau[name] = t_hat
                ess[name] = len(samples) / (2.0 * t_hat)
    diags = ChainDiagnostics(
        tau=tau,
        ess=ess,
        acceptance_ratio=1.0,
        sweep_seconds=elapsed,
        sweeps=params.burn_in + params.sweeps,
        chains=r,
        kept=len(samples),
    )
    return samples, diags


def autocorr(series: Sequence[float]) -> float:
    """Integrated autocorrelation time with self-consistent windowing
    (smallest window W with W >= 5 * tau(W)); tau = 0.5 for i.i.d. data."""
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if n < 10:
        raise TooShort(f"need >= 10 points, got {n}")
    x = x - x.mean()
    var = float(np.mean(x * x))
    if var == 0.0:
        raise TooShort("series is constant")
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acf = np.fft.irfft(np.abs(f) ** 2, nfft)[:n]
    acf /= acf[0]
    tau_w = 0.5 + np.cumsum(acf[1:])
    for w in range(1, n):
        if w >= 5.0 * tau_w[w - 1]:
            return float(tau_w[w - 1])
    return float(tau_w[-1])
