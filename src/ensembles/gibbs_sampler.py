"""Block heat-bath MCMC for the tilted ensemble.

Each block update is an exact draw from the conditional bridge (or
conditional walk) law given the block endpoints, so there is no
acceptance step to tune.  Chains are vectorized internally: a batch of
independent chains shares the block schedule while every chain consumes
its own spawned random stream, one row of uniforms per sweep.  A sweep
runs in colour order: blocks of one colour share at most a pinned
endpoint, so all of a colour's blocks of one length and end kind are
redrawn for all chains in one batched call (chromatic Gibbs), block i
reading the same slice of its chain's row as in a left-to-right scan.
A batched redraw is a scaled linear-space forward pass on the chamber
operator's one-curve factors, over a local space sized by the reach of the
batch's blocks, then one backward draw by ``ee.ffbs``: each row weighs at
most |offsets|^n predecessor candidates, read from the step's cached
(S, K) padded table, against its own scaled forward column.  The
starting configurations are one exact draw (``ee.sample_heights``,
weighed in log space) from the untilted ensemble.  Kept samples are
stored in one array and validated once per run.
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
    mat_t, log_tilt = step.matrix_t, step.log_tilt
    tgt = np.repeat(np.arange(mat_t.shape[0]), np.diff(mat_t.indptr))
    tilt_step = float(np.abs(log_tilt[tgt] - log_tilt[mat_t.indices]).max()) if mat_t.nnz else 0.0
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


def _colour_groups(spec: EnsembleSpec, blocks) -> list[tuple[list, list[int]]]:
    """The schedule's blocks in colour order, as (blocks, offsets) groups
    of one ``_apply_block_batch`` call each; a block's offset is where its
    draws start in the sweep's per-chain uniforms.

    A block takes the first colour whose last block ends at or before its
    start, which on the regular schedule is block index mod
    ceil(block_len / stride).  Blocks of one colour then share at most a
    pinned endpoint that none of them redraws, so given the rest of the
    path they are independent and are redrawn together (chromatic Gibbs,
    Gonzalez et al. 2011).  A colour splits into one group per block
    length and end kind."""
    draws = [_block_draws(spec, b) for b in blocks]
    offs = np.cumsum([0] + draws[:-1]).tolist()
    ends: list[int] = []  # the right end of each colour's last block
    groups: dict[tuple, tuple[list, list[int]]] = {}
    for (k, l), off in zip(blocks, offs):
        c = next((c for c, e in enumerate(ends) if e <= k), len(ends))
        right = spec.n_right + 1 if l is None else l
        if c == len(ends):
            ends.append(right)
        else:
            ends[c] = right
        members, member_offs = groups.setdefault((c, l is None, right - k), ([], []))
        members.append((k, l))
        member_offs.append(off)
    return [groups[key] for key in sorted(groups, key=lambda key: key[0])]


# ---------------------------------------------------------------------------
# batched block resampling


def _local_cutoff(spec: EnsembleSpec, kernel: Kernel, m: int, start_top: int, end_top: int | None) -> int:
    """Height cutoff of a block's local space: m steps from a start whose
    top curve is at most ``start_top``, to a pinned end whose top curve
    is at most ``end_top`` or to a free end.  A bridge between the ends
    stays at or below (start_top + end_top + m·max_step) / 2, and the
    pinned pass zeroes every state above it, so the cutoff changes no
    draw.  Rounded up to a multiple of 4, so nearby blocks share the
    cached operator."""
    if end_top is None:
        x_loc = start_top + m * kernel.max_step + 2
    else:
        x_loc = (start_top + end_top + m * kernel.max_step) // 2 + 2
    return min(spec.x_max, int(math.ceil(x_loc / 4.0)) * 4)


def _apply_block_batch(
    heights: np.ndarray,
    spec: EnsembleSpec,
    kernel: Kernel,
    tilt: TiltSpec,
    blocks: Sequence[tuple[int, int | None]],
    us: np.ndarray,
    offs: Sequence[int],
) -> None:
    """Exact conditional redraw of blocks of one length and end kind for
    every chain, on one batch axis of chains × blocks (chain-major).

    ``heights`` is (chains, n, width) and is modified in place; ``us`` is
    the per-sweep uniform buffer (chains, draws), and block i reads its
    draws from column ``offs[i]`` on.  No block may redraw another's
    columns or endpoints, as within one colour of ``_colour_groups``."""
    k0, l0 = blocks[0]
    free = l0 is None
    m = (spec.n_right - k0) if free else (l0 - k0)
    n_draw = _block_draws(spec, blocks[0])
    if n_draw == 0:
        return
    cols = np.array([spec.col(k) for k, _ in blocks])[:, None] + np.arange(m + 1)  # (B, m + 1)
    win = heights[:, :, cols].transpose(0, 2, 1, 3).reshape(-1, spec.n, m + 1)  # (chains·B, n, m + 1)
    block_us = us[:, np.add.outer(offs, np.arange(n_draw))].reshape(-1, n_draw)
    end_top = None if free else int(win[:, 0, m].max())
    x_loc = _local_cutoff(spec, kernel, m, int(win[:, 0, 0].max()), end_top)
    step, tilt_step = _local_transfer(spec.n, x_loc, kernel, tilt)
    states, fwd_step, log_tilt = step.states, step.forward, step.log_tilt

    r = win.shape[0]
    start = states.ids(win[:, :, 0])
    if not free:
        end = win[:, :, m]
        last = states.ids(end)
        # steps each state needs at least to reach its chain's pinned end
        to_end = np.abs(states.arr.T[:, :, None] - end.T[:, None, :]).max(axis=0)
    # Scaled forward pass in linear space (Rabiner 1989), one column per
    # row (a chain's block).  exp(tilt) is shifted per row by the largest
    # log tilt on its support, so a row far above the tilt minimum keeps
    # its column in range.  The support gains at most tilt_step per step,
    # so the shift is renewed every `every` steps to keep exponents on it
    # below _EXP_CAP; the cap itself only keeps states off the support
    # finite.  States that cannot reach a pinned end are zeroed first, so
    # the shift and the row scale follow the mass that the bridge can use.
    every = int(_EXP_CAP // tilt_step) + 1 if tilt_step > 0 else m
    fwd = np.zeros((m, states.size, r))
    fwd[0, start, np.arange(r)] = 1.0
    for t in range(1, m):
        f = fwd_step @ fwd[t - 1]
        if not free:
            f *= to_end <= (m - t) * kernel.max_step
        if (t - 1) % every == 0:
            top = np.where(f > 0, log_tilt[:, None], -np.inf).max(axis=0)
            tilt_w = np.exp(np.minimum(log_tilt[:, None] - top, _EXP_CAP))
        f *= tilt_w
        scale = f.max(axis=0)
        fwd[t] = f / np.where(scale > 0, scale, 1.0)
    if free:
        last = (fwd_step @ fwd[m - 1]).T  # the end's weights, one per row

    # a draw's candidates come from the cached (S, K) predecessor table
    pred, probs = step.predecessors
    chain = np.arange(r)[:, None]

    def weigh(t, nxt):
        cand = pred[nxt]  # (R, K); a padding candidate has probability 0
        return cand, fwd[t][cand, chain] * probs[nxt]

    idx = ee.ffbs(m, start, last, block_us, weigh)
    stop = m if free else m - 1
    drawn = states.arr[idx[1 : stop + 1]]  # (stop, chains·B, n)
    heights[:, :, cols[:, 1 : stop + 1]] = drawn.reshape(stop, -1, len(blocks), spec.n).transpose(1, 3, 2, 0)


def _sweep_batch(
    heights: np.ndarray,
    spec: EnsembleSpec,
    kernel: Kernel,
    tilt: TiltSpec,
    blocks,
    us: np.ndarray,
) -> None:
    """One sweep in colour order, one batched redraw per colour group."""
    for group, offs in _colour_groups(spec, blocks):
        _apply_block_batch(heights, spec, kernel, tilt, group, us, offs)


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
        res = ee._compute_messages(replace(spec, x_max=x_init), kernel)
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
    _apply_block_batch(heights, spec, kernel, tilt, [block], us, [0])
    return config.with_heights(heights[0])


def sweep(
    config: PathConfig,
    params: McmcParams,
    tilt: TiltSpec,
    kernel: Kernel,
    rng: np.random.Generator,
) -> PathConfig:
    """One pass of overlapping block resamples in colour order: every
    block of the first colour, then of the next, each colour's blocks
    redrawn together.  Block i reads its draws from one row of uniforms
    at its place in the left-to-right schedule."""
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

    n_kept = -(-params.sweeps // params.thin)
    kept = np.empty((n_kept, r) + heights.shape[1:], dtype=heights.dtype)  # sweep-major
    area = np.empty((n_kept, r))
    t0 = time.perf_counter()
    for s_i in range(params.burn_in + params.sweeps):
        if n_draw:
            us = np.stack([g.random(n_draw) for g in gens])
        else:
            us = np.zeros((r, 0))
        _sweep_batch(heights, spec, kernel, tilt, blocks, us)
        j, off = divmod(s_i - params.burn_in, params.thin)
        if j >= 0 and off == 0:
            kept[j] = heights
            v = tilt.potential.value(heights[:, :, :-1].astype(float))
            area[j] = np.einsum("rnt,n->r", v, curve_w)
    elapsed = time.perf_counter() - t0
    samples = path_configs(kept.reshape((-1,) + heights.shape[1:]), spec)

    tau: dict = {"x1_center": None, "area": None}
    ess: dict = {"x1_center": None, "area": None}
    if n_kept:
        x1 = kept[:, :, 0, col_c]  # (kept_per_chain, chains)
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
