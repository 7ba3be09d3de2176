"""Block heat-bath MCMC for the tilted ensemble.

Each block update is an exact draw from the conditional bridge (or
conditional walk) law given the block endpoints, so there is no
acceptance step to tune.  Chains are vectorized internally: a batch of
independent chains shares the block schedule while every chain consumes
its own spawned random stream, one row of uniforms per sweep, drawn a
chunk of sweeps at a time.  A sweep runs in colour order: blocks of one
colour share at most a pinned endpoint, so all of a colour's blocks of
one length and end kind are redrawn for all chains in one batched call
(chromatic Gibbs), block i reading the same slice of its chain's row as
in a left-to-right scan.  A batched redraw reads the exact log forward
rows of each block's start from its run's memo on the local space, the
tilted step on the shared chamber of a cap sized by the reach of the
batch's blocks; rows of starts not met before are built in one batched
pass on its one-curve factors.  One backward draw by ``ee.ffbs``
follows: each row weighs at most |offsets|^n predecessor candidates,
from the chamber's padded table, in log space against its start's rows.
The cumulative weights of each (start, time, state) row are stored
beside the memo table on the row's first visit and read back on every
later one, so a chain that comes back to a row does not weigh it again.
Each sampling run owns its local spaces and their memos, which count
against the budget together, and builds its sweep plan once.  A chain
holds state ids, not heights.  The states are sorted top curve first, so
a smaller cap's states are the first ones of a larger cap's space, in the
same order, and an id names the same state on every local space: a block
reads its ends and writes its draws as ids, its cap taken from the top
of its highest end, read from a table of C(x, n).  The starting ids are
one exact draw (``ee.sample_ids``, weighed in log space) from the
untilted ensemble.  Each kept sweep is turned into heights in one array,
validated once per run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import exact_engine as ee
from .model_core import (
    NEG_INF,
    Bridge,
    EnsembleSpec,
    Kernel,
    PathBatch,
    PathConfig,
    TiltSpec,
    Walk,
)

_SWEEP_CHUNK = 64  # sweeps of uniforms a chain draws per generator call


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
# one run's local transfer structures


class _LocalSpace:
    """The tilted step on the shared chamber of one local cap, and its
    memos, one ``_BlockMemo`` per block length m.  A sampling run keeps
    its local spaces in one dict keyed by local cap (n, kernel and tilt
    are fixed within a run) and passes it to every block redraw; the
    memos of all its spaces and lengths count against the budget together."""

    def __init__(self, step: ee.TransferStep, max_step: int):
        self.step = step
        self.max_step = max_step
        self.memo: dict[int, _BlockMemo] = {}

    def forward_rows(
        self, m: int, starts: np.ndarray, spaces: dict[int, _LocalSpace]
    ) -> tuple[np.ndarray, _BlockMemo]:
        """The slots of ``starts`` in the memo of length m, after one
        batched ``_forward_log_rows`` over the starts not met yet, appended
        to its table.  If they would take the memos of the run in
        ``spaces`` over the budget, all of them are emptied first and the
        table is built from this call's starts alone."""
        if m not in self.memo:
            self.memo[m] = _BlockMemo(self.step.chamber, m)
        memo = self.memo[m]
        new = np.unique(starts[memo.slots[starts] < 0])
        if new.size:
            if _held(spaces) + 2 * new.size * (m + 1) * memo.slots.size > ee.state_budget():
                for local in spaces.values():
                    local.memo.clear()
                memo = self.memo[m] = _BlockMemo(self.step.chamber, m)
                new = np.unique(starts)
            memo.slots[new] = len(memo.table) + np.arange(new.size)
            memo.table = np.concatenate([memo.table, _forward_log_rows(self.step, self.max_step, new, m)])
            memo.at = np.concatenate([memo.at, np.full(memo.table.size - memo.at.size, -1)])
        return memo.slots[starts], memo


class _BlockMemo:
    """The exact log forward tables of block length m on one local space,
    and the cumulative candidate rows drawn from them.  The (m + 1, S) rows
    of start state s are ``table[slots[s]]``, slot -1 marking a start not
    met yet.  The draw at time t from the state ``nxt`` at t + 1, for the
    start in ``slot``, weighs the row keyed by its place in the flat table,
    slot·(m + 1)·S + t·S + nxt: ``at[key]`` is that row's place in
    ``store``, -1 before its first visit.  A row is built on that visit by
    ``ee.cumulative_weights`` from the log weights a draw weighs, so every
    reuse is bit for bit a fresh draw's row.  A start's rows depend on the
    start alone, so every chain and block that starts there reads them."""

    def __init__(self, chamber: ee.Chamber, m: int):
        self.pred, self.log_probs = chamber.candidates
        self.slots = np.full(chamber.states.size, -1)
        self.table = np.empty((0, m + 1, chamber.states.size))
        self.at = np.empty(0, dtype=np.int64)
        self.drop_rows()

    def drop_rows(self) -> None:
        self.at.fill(-1)
        self.store = np.empty((0, self.pred.shape[1]))
        self.used = 0

    def build(self, keys: np.ndarray) -> np.ndarray:
        """The cumulative rows of the distinct ``keys``."""
        nxt = keys % self.table.shape[2]
        pos = (keys - nxt)[:, None] + self.pred.take(nxt, axis=0)
        return ee.cumulative_weights(self.table.reshape(-1)[pos] + self.log_probs.take(nxt, axis=0))

    def take(self, keys: np.ndarray, spaces: dict[int, _LocalSpace]) -> np.ndarray:
        """The (R, K) cumulative rows at ``keys``, each built on its first
        visit.  A fill that would take the memos of the run in ``spaces``
        over the budget drops all their stored rows first."""
        at = self.at[keys]
        if (at < 0).any():
            new = np.unique(keys[at < 0])
            if self.used + new.size > len(self.store):
                k = self.pred.shape[1]
                limit = int(ee.state_budget() - _held(spaces) + self.store.size) // k  # rows the budget leaves
                if self.used + new.size > limit:  # drop the run's stored rows
                    for local in spaces.values():
                        for memo in local.memo.values():
                            memo.drop_rows()
                    new = np.unique(keys)
                    limit = int(ee.state_budget() - _held(spaces)) // k
                grown = np.empty((max(self.used + new.size, min(2 * len(self.store), limit)), k))
                grown[: self.used] = self.store[: self.used]
                self.store = grown
            self.store[self.used : self.used + new.size] = self.build(new)
            self.at[new] = self.used + np.arange(new.size)
            self.used += new.size
            at = self.at[keys]
        return self.store.take(at, axis=0)  # on (R, K) rows, take costs a third of fancy indexing


def _held(spaces: dict[int, _LocalSpace]) -> int:
    """The entries that the memos of one run hold against the budget: the
    tables, the rows' positions and the stored rows."""
    memos = [memo for local in spaces.values() for memo in local.memo.values()]
    return sum(memo.table.size + memo.at.size + memo.store.size for memo in memos)


def _forward_log_rows(step: ee.TransferStep, max_step: int, starts: np.ndarray, m: int) -> np.ndarray:
    """(len(starts), m + 1, S) exact log forward rows of m steps from each
    start: row t weighs the paths from the start to each state at t, with
    the log tilt of times t < m folded in.

    A step runs in linear space, each start shifted by the maximum of its
    previous row, as ``la.log_mat_vec`` does for one vector (which also
    drops the subnormal inputs that this step keeps).  A reachable
    entry under its start's ``ceiling = max + ee._LOG_TINY`` may have lost
    terms to that shift, so it is redone in exact log space; a redo is
    written only where its own start lost the entry, so a start's rows do
    not depend on the other starts of the batch."""
    states, fwd, log_tilt = step.chamber.states, step.chamber.forward, step.log_tilt
    u = starts.size
    rows = np.full((u, m + 1, states.size), NEG_INF)
    rows[np.arange(u), 0, starts] = log_tilt[starts]
    # the first step at which each state can be reached from each start
    dist = np.zeros((u, states.size), dtype=np.int64)
    for col, at in zip(states.arr.T, states.arr[starts].T):
        np.maximum(dist, np.abs(col[None, :] - at[:, None]), out=dist)
    first = -(-dist // max_step)
    for t in range(1, m + 1):
        prev = rows[:, t - 1]
        top = prev.max(axis=1, keepdims=True)  # finite: the chain's own path stays in the space
        with np.errstate(divide="ignore"):
            out = np.log(fwd @ np.exp(prev - top).T).T + top
        lost = (out < top + ee._LOG_TINY) & (first <= t)
        if lost.any():
            who, where = np.flatnonzero(lost.any(axis=1)), np.flatnonzero(lost.any(axis=0))
            sub = np.ix_(who, where)
            out[sub] = np.where(lost[sub], fwd.log_rows(where, prev[who]), out[sub])
        rows[:, t] = out + log_tilt if t < m else out
    return rows


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


class _SweepPlan:
    """One run's sweep, built once: per colour group one batched redraw,
    (blocks, cols, draws), with the (B, m + 1) columns its blocks span and
    the (B, draws) columns of the sweep's uniforms they read; and
    ``choose[k, x]`` = C(x, k) for k <= n and x <= x_max.  A chain holds
    state ids, which name the same state on every local space of the run:
    the states are sorted top curve first, so those with top <= c are the
    first C(c, n) of every larger cap's space, in the same order.  State
    (x_0 > … > x_{n-1}) has id sum_i C(x_i - 1, n - i)."""

    def __init__(self, spec: EnsembleSpec, groups: Sequence[tuple[list, list[int]]]):
        self.spec = spec
        big = np.iinfo(np.int64).max  # past every state id
        self.choose = np.array([[min(math.comb(x, k), big) for x in range(spec.x_max + 1)] for k in range(spec.n + 1)])
        self.groups = []
        for blocks, offs in groups:
            k0, l0 = blocks[0]
            m, n_draw = (spec.n_right if l0 is None else l0) - k0, _block_draws(spec, blocks[0])
            cols = np.array([spec.col(k) for k, _ in blocks])[:, None] + np.arange(m + 1)
            self.groups.append((blocks, cols, np.add.outer(offs, np.arange(n_draw))))

    def top(self, ids: np.ndarray) -> int:
        """The top curve's height in the highest of ``ids``, the least x
        with C(x, n) > id; it does not fall as the id grows."""
        return int(self.choose[-1].searchsorted(ids.max(), side="right"))

    def ids(self, heights: np.ndarray) -> np.ndarray:
        """The (..., width) state ids of (..., n, width) heights."""
        n = self.spec.n
        return sum(self.choose[n - i][heights[..., i, :] - 1] for i in range(n))

    def heights(self, ids: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the (..., n, width) heights of (..., width) ``ids`` to
        ``out``, top curve first: the least x with C(x, n - i) above what
        the curves above leave of the id."""
        for i, row in enumerate(self.choose[:0:-1]):
            out[..., i, :] = x = row.searchsorted(ids, side="right")
            ids = ids - row[x - 1]
        return out


# ---------------------------------------------------------------------------
# batched block resampling


def _local_cutoff(spec: EnsembleSpec, kernel: Kernel, m: int, start_top: int, end_top: int | None) -> int:
    """Height cutoff of a block's local space: m steps from a start whose
    top curve is at most ``start_top``, to a pinned end whose top curve
    is at most ``end_top`` or to a free end.  No path of the block climbs
    above it: a bridge between the ends stays at or below (start_top +
    end_top + m·max_step) / 2, and a free walk at or below start_top +
    m·max_step.  The local space so holds every path the block can draw,
    and the cutoff changes no draw.  Rounded up to a multiple of 4, so
    nearby blocks share the cached operator and its memo."""
    if end_top is None:
        x_loc = start_top + m * kernel.max_step + 2
    else:
        x_loc = (start_top + end_top + m * kernel.max_step) // 2 + 2
    return min(spec.x_max, int(math.ceil(x_loc / 4.0)) * 4)


def _apply_block_batch(
    ids: np.ndarray,
    plan: _SweepPlan,
    kernel: Kernel,
    tilt: TiltSpec,
    group: tuple[list, np.ndarray, np.ndarray],
    us: np.ndarray,
    spaces: dict[int, _LocalSpace],
) -> None:
    """Exact conditional redraw of one group of ``plan`` for every chain,
    on one batch axis of chains × blocks (chain-major).

    ``ids`` is the chains' (chains, width) state ids and is modified in
    place; ``us`` is the per-sweep uniform buffer (chains, draws), read at
    the group's ``draws``.  No block may redraw another's columns or
    endpoints, as within one colour of ``_colour_groups``.  ``spaces``
    holds the local spaces of the run, keyed by local cap; the block's
    space is added on first use."""
    spec, (blocks, cols, draws) = plan.spec, group
    free, m, n_draw = blocks[0][1] is None, cols.shape[1] - 1, draws.shape[1]
    if n_draw == 0:
        return
    start, end = ids[:, cols[:, 0]].reshape(-1), ids[:, cols[:, m]].reshape(-1)  # (chains·B,)
    x_loc = _local_cutoff(spec, kernel, m, plan.top(start), None if free else plan.top(end))
    if x_loc not in spaces:
        spaces[x_loc] = _LocalSpace(ee.chamber(spec.n, x_loc, kernel).tilted(tilt), kernel.max_step)
    local = spaces[x_loc]
    size = local.step.chamber.states.size
    slot, memo = local.forward_rows(m, start, spaces)
    base = slot * ((m + 1) * size)  # where each row's table starts, flat

    def weigh(t, nxt):
        return memo.pred.take(nxt, axis=0), memo.take(base + t * size + nxt, spaces)

    idx = ee.ffbs(m, start, memo.table[slot, m] if free else end, us[:, draws].reshape(-1, n_draw), weigh)
    stop = m if free else m - 1
    ids[:, cols[:, 1 : stop + 1]] = idx[1 : stop + 1].T.reshape(len(ids), len(blocks), stop)


def _sweep_batch(
    ids: np.ndarray, plan: _SweepPlan, kernel: Kernel, tilt: TiltSpec, us: np.ndarray, spaces: dict[int, _LocalSpace]
) -> None:
    """One sweep in colour order, one batched redraw per group of
    ``plan``, on the local spaces of the run in ``spaces``."""
    for group in plan.groups:
        _apply_block_batch(ids, plan, kernel, tilt, group, us, spaces)


# ---------------------------------------------------------------------------
# initial configuration


def _untilted_messages(spec: EnsembleSpec, kernel: Kernel) -> ee.TransferResult:
    """Untilted messages on the smallest doubled height cutoff (up to
    spec.x_max) that admits a path."""
    tops = [spec.boundary.u[0]]
    if isinstance(spec.boundary, Bridge):
        tops.append(spec.boundary.v[0])
    x_init = min(spec.x_max, max(tops) + 2 * spec.n + 8)
    while True:
        try:
            res = ee._compute_messages(replace(spec, x_max=x_init), kernel)
        except ee.ParityInfeasible as exc:
            raise Infeasible(str(exc)) from None
        if np.isfinite(res.log_z):
            return res
        if x_init >= spec.x_max:
            raise Infeasible(f"no admissible path within x_max={spec.x_max} for this boundary")
        x_init = min(spec.x_max, 2 * x_init)


def _init_ids(spec: EnsembleSpec, kernel: Kernel, gens: Sequence[np.random.Generator]) -> np.ndarray:
    """(chains, width) state ids of exact draws from the untilted
    wall-constrained ensemble, one batched draw with one generator per chain."""
    us = np.array([g.random(ee.sample_draws(spec)) for g in gens])
    return np.ascontiguousarray(ee.sample_ids(_untilted_messages(spec, kernel), us).T)


def init_config(spec: EnsembleSpec, kernel: Kernel, rng: np.random.Generator | None = None) -> PathConfig:
    """A positive-probability starting configuration.

    Drawn exactly from the untilted wall-constrained ensemble on a
    reduced height cutoff (enlarged on demand up to spec.x_max), so the
    result is ordered and kernel-admissible by construction.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    us = rng.random((1, ee.sample_draws(spec)))
    return PathConfig(heights=ee.sample_heights(_untilted_messages(spec, kernel), us)[0], spec=spec)


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
    plan, heights = _SweepPlan(spec, [([block], [0])]), config.heights[None, :, :].copy()
    ids = plan.ids(heights)
    us = rng.random(n_draw)[None, :] if n_draw else np.zeros((1, 0))
    _apply_block_batch(ids, plan, kernel, tilt, plan.groups[0], us, {})
    return config.with_heights(plan.heights(ids, heights)[0])


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
    plan, heights = _SweepPlan(spec, _colour_groups(spec, blocks)), config.heights[None, :, :].copy()
    ids = plan.ids(heights)
    us = rng.random(n_draw)[None, :] if n_draw else np.zeros((1, 0))
    _sweep_batch(ids, plan, kernel, tilt, us, {})
    return config.with_heights(plan.heights(ids, heights)[0])


# ---------------------------------------------------------------------------
# full sampler


def sample_paths(
    spec: EnsembleSpec,
    kernel: Kernel,
    tilt: TiltSpec,
    params: McmcParams,
) -> tuple[PathBatch, ChainDiagnostics]:
    """Thinned post-burn-in samples from params.chains independent chains,
    with autocorrelation diagnostics on the center height and total area."""
    blocks = _blocks_schedule(spec, params)
    n_draw = _sweep_draws(spec, blocks)
    gens = [np.random.default_rng(c) for c in np.random.SeedSequence(params.seed).spawn(params.chains)]
    r = params.chains
    ids = _init_ids(spec, kernel, gens)
    plan = _SweepPlan(spec, _colour_groups(spec, blocks))
    spaces: dict[int, _LocalSpace] = {}  # the run's local spaces and their memos

    t_center = (spec.m_left + spec.n_right) // 2
    col_c = spec.col(t_center)
    curve_w = tilt.curve_weights(spec.n)

    n_kept = -(-params.sweeps // params.thin)
    kept = np.empty((n_kept, r, spec.n, spec.width), dtype=np.int64)  # sweep-major
    area = np.empty((n_kept, r))
    total = params.burn_in + params.sweeps
    t0 = time.perf_counter()
    for s_i in range(total):
        if s_i % _SWEEP_CHUNK == 0:  # random((k, d)) gives the values of k calls random(d)
            k = min(_SWEEP_CHUNK, total - s_i)
            chunk = np.stack([g.random((k, n_draw)) for g in gens], axis=1)  # (k, chains, draws)
        _sweep_batch(ids, plan, kernel, tilt, chunk[s_i % _SWEEP_CHUNK], spaces)
        j, off = divmod(s_i - params.burn_in, params.thin)
        if j >= 0 and off == 0:
            heights = plan.heights(ids, kept[j])
            v = tilt.potential.value(heights[:, :, :-1].astype(float))
            area[j] = np.einsum("rnt,n->r", v, curve_w)
    elapsed = time.perf_counter() - t0
    samples = PathBatch(kept.reshape(-1, spec.n, spec.width), spec)

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
        sweeps=total,
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
