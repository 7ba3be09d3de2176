"""Exact transfer-operator computations for the tilted non-intersecting
ensemble on a truncated ordered state space.

Partition values, marginals, restricted joint laws and conditional
bridge laws run in log space; zero mass is an explicit -inf, never an
underflowed float.  Exact sampling is forward filtering / backward
sampling: one batched draw per time step for all samples, each weighing
the candidates of one row of the chamber's CSR transpose ``matrix_t`` (at
most |offsets|^n) in log space, with one spawned random stream per
sample.  The streams are derived in one batch (``_streams``), bit for
bit equal to numpy's spawned ones.  The messages of a draw run on the
states up to the window's reach, the highest top curve that a path of
the window can climb to, when that lies below the cap's near band.
``chamber`` builds the one chamber operator once per (n, cap, kernel)
and shares it between tilts and clients: the n one-curve sparse factors,
which the message passes and the block sampler's forward tables apply,
and, derived from them on first use, the product CSR, its transpose and
the samplers' candidates.  A ``TransferStep`` is a chamber and a tilt.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from . import _linalg as la
from ._streams import spawned_uniforms
from .model_core import (
    NEG_INF,
    Bridge,
    EnsembleSpec,
    Kernel,
    PathBatch,
    TiltSpec,
    Walk,
)

DEFAULT_BUDGET = 5e7

CUTOFF_NEAR = 2  # "near the cap" means top curve within this of x_max
CUTOFF_MASS_TOL = 1e-8
# A linear step drops its shifted inputs below TINY (la.log_mat_vec), so a
# shifted row loses less than 2 * TINY: _LOG_TINY bounds the mass lost, and
# a row under _LOG_INEXACT, 2^53 times that bound, may be off by over an ulp.
_LOG_TINY = math.log(2.0 * la.TINY)
_LOG_INEXACT = math.log(2.0**53 * 2.0 * la.TINY)
_NEGLIGIBLE = 800.0  # a state this many nats below log Z has probability 0.0 in double


class TooLarge(ValueError):
    """State-space or product-law size exceeds the configured budget."""


class ParityInfeasible(ValueError):
    """Bridge endpoints unreachable because of kernel periodicity."""


class ZeroProbabilityEndpoint(ValueError):
    """Conditioning event has (numerically) zero mass."""


class SpaceMismatch(ValueError):
    """Distributions live on different state spaces."""


class CutoffDominatedWarning(UserWarning):
    """Non-negligible mass near the height cutoff; results may be truncated."""


def state_budget() -> float:
    """Matrix-entry budget, overridable via ENSEMBLES_BUDGET."""
    return float(os.environ.get("ENSEMBLES_BUDGET", DEFAULT_BUDGET))


# ---------------------------------------------------------------------------
# state space


@dataclass(frozen=True)
class StateSpace:
    """All strictly decreasing n-tuples in {1..x_max}, in lexicographic
    order, as the rows of the read-only (S, n) array ``arr``.

    A column's key reads its heights as base-(x_max + 1) digits, so the
    sorted ``keys`` are the states' keys in id order; ``ids`` looks
    columns up by key.  ``id_of`` and its ``index`` dict, built on first
    use, look up one tuple at a time."""

    n: int
    x_max: int
    arr: np.ndarray = field(compare=False, repr=False)
    keys: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        keys = self.key(self.arr)
        keys.flags.writeable = False
        object.__setattr__(self, "keys", keys)

    @property
    def size(self) -> int:
        return len(self.arr)

    @property
    def space_key(self) -> tuple:
        return ("chamber", self.n, self.x_max)

    def key(self, cols: np.ndarray) -> np.ndarray:
        """Keys of a (..., n) integer array of columns.  The key is linear,
        so a move's key is the difference of its target's and source's."""
        return cols @ (self.x_max + 1) ** np.arange(self.n - 1, -1, -1, dtype=np.int64)

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {s: i for i, s in enumerate(map(tuple, self.arr.tolist()))}

    def id_of(self, state: Sequence[int]) -> int:
        key = tuple(int(x) for x in state)
        try:
            return self.index[key]
        except KeyError:
            raise ValueError(f"{key} is not a state of the (n={self.n}, x_max={self.x_max}) space") from None

    def ids(self, cols) -> np.ndarray:
        """State ids of a (..., n) integer array of columns.  Raises
        ValueError when any column is not a state: a height outside
        [1, x_max] (whose key may alias a state's) or an unmatched key."""
        cols = np.asarray(cols, dtype=np.int64)
        key = self.key(cols)
        pos = np.searchsorted(self.keys, key).clip(max=self.size - 1)
        in_range = ((cols >= 1) & (cols <= self.x_max)).all()
        if not (in_range and np.array_equal(self.keys[pos], key)):
            raise ValueError(f"a column is not a state of the (n={self.n}, x_max={self.x_max}) space")
        return pos


def enumerate_states(n: int, x_max: int, max_states: float | None = None) -> StateSpace:
    """Enumerate the truncated ordered state space.

    Built curve by curve from the bottom: in lexicographic order, the
    states of m curves with top x are x followed by the first C(x - 1,
    m - 1) states of m - 1 curves, and the m-curve states that the n-curve
    ones end in have tops at most x_max - n + m.  Raises TooLarge when
    C(x_max, n) exceeds the budget.
    """
    if not 1 <= n <= x_max:
        raise ValueError("need 1 <= n <= x_max")
    count = math.comb(x_max, n)
    budget = state_budget() if max_states is None else max_states
    if count > budget:
        raise TooLarge(f"C({x_max},{n}) = {count} states exceeds budget {budget:g}")
    arr = np.arange(1, x_max - n + 2, dtype=np.int64)[:, None]
    for m in range(2, n + 1):
        tops = np.arange(m, x_max - n + m + 1, dtype=np.int64)
        counts = np.array([math.comb(x - 1, m - 1) for x in tops.tolist()], dtype=np.int64)
        below = np.arange(counts.sum()) - np.repeat(counts.cumsum() - counts, counts)
        arr = np.column_stack((np.repeat(tops, counts), arr[below]))
    arr.flags.writeable = False
    return StateSpace(n=n, x_max=x_max, arr=arr)


# ---------------------------------------------------------------------------
# one-step transfer


def _curve_factors(states: StateSpace, kernel: Kernel) -> tuple[sp.csr_matrix, ...]:
    """The one-curve factors of the forward step, P^T = G_{n-1} ⋯ G_0,
    where G_k moves curve k alone, from stage k to stage k + 1 (stages 0
    and n are ``states``).  Stage k holds, as sorted keys, the columns
    reached with curves 0..k-1 moved that can still end in the chamber:
    moved curves strictly ordered in [1, x_max], and moved curve k - 1 at
    least unmoved curve k + min(offsets) + 1.  A factor row holds at most
    |offsets| entries, in increasing column id; the (rows, |offsets|)
    tables of all factors' sources are held to the budget together.

    Keys index one table of (x_max + 1)^n entries, about n! times the
    states, held to the budget before it is allocated: a stage's keys are
    marked in it and read back sorted by ``np.flatnonzero``, and a row's
    source under each offset is one lookup of its key's slot (-1 for no
    column of the stage; key 0, all heights 0, is never one)."""
    n, x_max = states.n, states.x_max
    order = np.argsort(kernel.offsets)[::-1]  # descending, so a row's sources come in increasing key
    offs, probs = np.array(kernel.offsets)[order], np.array(kernel.probs)[order]
    place = states.key(np.eye(n, dtype=np.int64))  # the key of one unit of height on each curve
    size = (x_max + 1) ** n
    if size > state_budget():
        raise TooLarge(f"key table of {size} entries exceeds budget {state_budget():g}")
    slot, mark = np.full(size, -1, dtype=np.int32), np.zeros(size, dtype=bool)
    cur, factors, entries = states.keys, [], 0
    for k in range(n):
        nxt = states.keys
        if k < n - 1:
            here, below = cur // place[k] % (x_max + 1), cur // place[k + 1] % (x_max + 1) + offs[-1]
            above = cur // place[k - 1] % (x_max + 1) if k else x_max + 1
            for d in offs:
                mark[cur[(here + d >= 1) & (here + d < above) & (here + d > below)] + d * place[k]] = True
            nxt = np.flatnonzero(mark)
            mark[nxt] = False
            del here, below, above
        entries += nxt.size * offs.size
        if entries > state_budget():
            raise TooLarge(f"one-curve factors with {entries} table entries exceed budget {state_budget():g}")
        src = np.empty((nxt.size, offs.size), dtype=np.int32)
        moved = nxt // place[k] % (x_max + 1)
        slot[cur] = np.arange(cur.size, dtype=np.int32)
        for j, d in enumerate(offs):  # one column at a time: src is the one (rows, |offsets|) array
            src[:, j] = slot[np.where((moved - d >= 1) & (moved - d <= x_max), nxt - d * place[k], 0)]
        slot[cur] = -1
        valid = src >= 0
        indptr = np.concatenate(([0], np.cumsum(valid.sum(axis=1)))).astype(np.int32)
        data = np.broadcast_to(probs, src.shape)[valid]
        factors.append(sp.csr_matrix((data, src[valid], indptr), shape=(nxt.size, cur.size)))
        cur = nxt
    return tuple(factors)


def _every_row(rows) -> bool:
    return isinstance(rows, slice) and rows == slice(None)


def _log_rows(mat: sp.csr_matrix, rows, log_v: np.ndarray) -> np.ndarray:
    """log (mat @ exp(log_v)) at the selected rows, over the last axis of
    the (..., S) log_v, summed in log space: a message step that no shared
    shift can underflow.  Its one large array, the (..., rows, K) table of
    terms padded to the longest row, is held to the budget."""
    sub = mat if _every_row(rows) else mat[rows]
    counts = np.diff(sub.indptr)
    shape = log_v.shape[:-1] + (counts.size, max(counts.max(initial=0), 1))
    if math.prod(shape) > state_budget():
        dims = " x ".join(map(str, shape))
        raise TooLarge(f"log-space sum over a {dims} table exceeds budget {state_budget():g}")
    table = np.full(shape, NEG_INF)
    row_of = np.repeat(np.arange(counts.size), counts)
    table[..., row_of, np.arange(sub.nnz) - sub.indptr[row_of]] = np.log(sub.data) + log_v[..., sub.indices]
    return la.logsumexp(table, axis=-1, overwrite=True)


class _Chain(tuple):
    """The product F_{k-1} ⋯ F_0 of its CSR factors F_0, ..., F_{k-1}:
    ``chain @ v`` applies them in turn to v and any trailing batch axes."""

    def __matmul__(self, v):
        for f in self:
            v = f @ v
        return v

    def log_rows(self, rows, log_v: np.ndarray) -> np.ndarray:
        """log (chain @ exp(log_v)) at the selected rows, over the last
        axis of the (..., S) log_v: each factor is summed in log space by
        ``_log_rows``, over only the rows that the selected ones read.
        ``rows=slice(None)`` sums every row of every factor, as it is."""
        if _every_row(rows):
            for f in self:
                log_v = _log_rows(f, rows, log_v)
            return log_v
        need = [rows]
        for f in self[:0:-1]:
            need.append(np.flatnonzero(np.bincount(f[need[-1]].indices, minlength=f.shape[1])))
        for f, r in zip(self[:-1], need[:0:-1]):
            out = np.full(log_v.shape[:-1] + (f.shape[0],), NEG_INF)
            out[..., r] = _log_rows(f, r, log_v)
            log_v = out
        return _log_rows(self[-1], rows, log_v)


@dataclass(frozen=True)
class Chamber:
    """The tilt-free chamber operator: the states and ``forward``, P^T =
    G_{n-1} ⋯ G_0 as the one-curve factors of ``_curve_factors``.  Built
    on first use and kept for every tilt: ``backward``, P = G_0^T ⋯
    G_{n-1}^T, ``matrix_t`` and ``matrix`` (P^T and P as one CSR each)
    and the padded ``candidates``."""

    states: StateSpace
    forward: _Chain

    @cached_property
    def backward(self) -> _Chain:
        return _Chain(f.T.tocsr() for f in reversed(self.forward))

    @cached_property
    def matrix_t(self) -> sp.csr_matrix:
        """P^T as G_{n-1} @ (… @ (G_1 @ G_0)), indices sorted: each entry
        is one product of the n move probabilities.  Held to the budget
        as S states times the product of the factors' longest rows."""
        moves = math.prod(int(np.diff(f.indptr).max(initial=0)) for f in self.forward)
        if self.states.size * moves > state_budget():
            raise TooLarge(f"{self.states.size} states x {moves} moves exceeds budget {state_budget():g}")
        mat = self.forward[0]
        for f in self.forward[1:]:
            mat = f @ mat
        mat.sort_indices()
        return mat

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        return self.matrix_t.T.tocsr()

    @cached_property
    def candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, K) ids of the states that step to each state, in descending
        id order, and (S, K) their log step probabilities: the rows of
        ``matrix_t`` padded to the longest, K, with id -1 and log
        probability -inf.  A backward draw for the state at t + 1 then
        weighs K candidates instead of all S states."""
        mat_t = self.matrix_t
        counts = np.diff(mat_t.indptr)
        row = np.repeat(np.arange(counts.size), counts)
        pos = mat_t.indptr[row + 1] - 1 - np.arange(mat_t.nnz)  # each row reversed
        shape = (counts.size, max(int(counts.max(initial=0)), 1))
        pred = np.full(shape, -1, dtype=np.int64)
        pred[row, pos] = mat_t.indices
        log_probs = np.full(shape, NEG_INF)
        log_probs[row, pos] = np.log(mat_t.data)
        return pred, log_probs

    def tilted(self, tilt: TiltSpec | None) -> TransferStep:
        """The step with the per-state log tilt -a * sum_i b^(i-1) V(x_i),
        charged per step; without a tilt, the free walk's."""
        if tilt is None:
            return TransferStep(self, np.zeros(self.states.size))
        return TransferStep(self, -(tilt.potential.value(self.states.arr) @ tilt.curve_weights(self.states.n)))


@lru_cache(maxsize=4)
def chamber(n: int, x_max: int, kernel: Kernel) -> Chamber:
    """The chamber of n curves on {1..x_max} for ``kernel``, shared while
    cached.  The smallest product move, min(probs)^n, is checked as a sum
    of logs first: a product below the smallest normal double would be
    dropped as 0.0 or lose its digits, so it raises instead."""
    log_min = n * math.log(min(kernel.probs))
    if log_min < math.log(np.finfo(float).tiny):
        raise ValueError(
            f"the rarest product move of n={n} curves has probability "
            f"10^{log_min / math.log(10):.1f}, below the smallest normal double"
        )
    states = enumerate_states(n, x_max)
    return Chamber(states=states, forward=_Chain(_curve_factors(states, kernel)))


@dataclass(frozen=True)
class TransferStep:
    """The chamber operator times the source-state tilt: the entry is
    P[s, s'] * exp(log_tilt[s]), with the tilt kept as a log vector so
    that entries never underflow."""

    chamber: Chamber
    log_tilt: np.ndarray

    @property
    def matrix(self) -> sp.csr_matrix:
        """The chamber's P, for readers of a step's nonzeros such as ``bench/probes.py``."""
        return self.chamber.matrix


def step_matrix(states: StateSpace, kernel: Kernel, tilt: TiltSpec | None = None) -> TransferStep:
    """The tilted step on the chamber of ``states``; without a tilt, the free walk's."""
    return chamber(states.n, states.x_max, kernel).tilted(tilt)


# ---------------------------------------------------------------------------
# distributions


@dataclass(frozen=True)
class Distribution:
    """Finite distribution over an enumerated space, normalized in log space."""

    space: tuple
    log_weights: np.ndarray
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        probs, log_z = la.normalize_log(lw)
        lw.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "log_weights", lw)
        object.__setattr__(self, "_probs", probs)
        object.__setattr__(self, "_log_z", log_z)

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def log_z(self) -> float:
        return self._log_z


def tv_exact(d1: Distribution, d2: Distribution) -> float:
    """Total variation distance (1/2) sum |p - q| between matching spaces."""
    if d1.space != d2.space:
        raise SpaceMismatch(f"{d1.space} vs {d2.space}")
    return float(0.5 * np.abs(d1.probs - d2.probs).sum())


# ---------------------------------------------------------------------------
# forward-backward messages


@dataclass(frozen=True)
class TransferResult:
    """Log partition value plus per-time forward/backward log messages."""

    spec: EnsembleSpec
    states: StateSpace
    step: TransferStep
    log_z: float
    forward: np.ndarray
    backward: np.ndarray
    cutoff_warning: bool

    def col(self, t: int) -> int:
        return self.spec.col(t)


def _bridge_parity_check(spec: EnsembleSpec, kernel: Kernel) -> None:
    if kernel.period == 1 or not isinstance(spec.boundary, Bridge):
        return
    steps = spec.n_right - spec.m_left
    z0 = kernel.offsets[0]
    for ui, vi in zip(spec.boundary.u, spec.boundary.v):
        if (vi - ui - steps * z0) % kernel.period != 0:
            raise ParityInfeasible(
                f"endpoint {vi} unreachable from {ui} in {steps} steps (period {kernel.period})"
            )


def _compute_messages(spec: EnsembleSpec, kernel: Kernel, tilt: TiltSpec | None = None) -> TransferResult:
    """Log messages on the chamber of ``spec``, with the tilted step; without
    a tilt, the free walk's.  Raises ParityInfeasible for a bridge that the
    kernel's period cannot close, then holds the two (width, S) message
    arrays to the budget before the chamber is built."""
    _bridge_parity_check(spec, kernel)
    w = spec.width
    s = math.comb(spec.x_max, spec.n)
    if 2 * w * s > state_budget():
        raise TooLarge(f"two {w} x {s} message arrays exceed budget {state_budget():g}")
    step = chamber(spec.n, spec.x_max, kernel).tilted(tilt)
    states, log_tilt = step.chamber.states, step.log_tilt
    fwd, bwd = step.chamber.forward, step.chamber.backward
    start = states.ids(spec.boundary.u)
    # la.log_mat_vec shifts its input by one maximum and drops the inputs
    # that the shift makes subnormal, so a row whose terms lie far below it
    # comes out inexact or -inf while its true value is under that step's
    # `ceiling` (_LOG_INEXACT above the shift).  Such a row is redone in log
    # space where it could hold probability within _NEGLIGIBLE nats of log Z.
    # A first backward pass bounds each row's backward value for the forward
    # pass; the backward pass is then run again against the finished forward.
    backward = np.full((w, s), NEG_INF)
    if isinstance(spec.boundary, Bridge):
        backward[-1, states.ids(spec.boundary.v)] = 0.0
    else:
        backward[-1] = 0.0
    shift = np.full(w, NEG_INF)  # shift[t]: the maximum of backward[t + 1]
    # A row fed by rows that lost mass loses mass too.  Rows of P sum to at
    # most 1, so the true backward[t] is below logaddexp(backward[t], log_tilt + slack[t]).
    slack = np.full(w, NEG_INF)
    for t in range(w - 2, -1, -1):
        shift[t] = backward[t + 1].max()
        slack[t] = np.logaddexp(shift[t] + _LOG_TINY, log_tilt.max() + slack[t + 1])
        backward[t] = la.log_mat_vec(bwd, log_tilt, backward[t + 1])

    low = backward[0, start]  # log Z from below: the backward pass only loses mass
    # the first step at which each state can be reached from the start
    first = -(-np.abs(states.arr - states.arr[start]).max(axis=1) // kernel.max_step)
    forward = np.full((w, s), NEG_INF)
    forward[0, start] = 0.0
    for t in range(1, w):
        prev = forward[t - 1] + log_tilt
        forward[t] = la.log_mat_vec(fwd, 0.0, prev)
        ceiling = prev.max() + _LOG_INEXACT
        # only a reachable row under the ceiling can have lost mass, so the
        # backward bound is taken on those rows alone
        rows = np.flatnonzero((forward[t] < ceiling) & (first <= t))
        b_up = np.logaddexp(backward[t, rows], log_tilt[rows] + slack[t])
        lost = rows[ceiling + b_up > low - _NEGLIGIBLE]
        if lost.size:
            forward[t, lost] = fwd.log_rows(lost, prev)
    log_z = float(la.logsumexp(forward[-1] + backward[-1]))

    changed = False  # backward[t + 1] differs from the first pass
    for t in range(w - 2, -1, -1):
        nxt = backward[t + 1]
        if changed:
            shift[t] = nxt.max()
            row = la.log_mat_vec(bwd, log_tilt, nxt)
            changed = not np.array_equal(row, backward[t])
            backward[t] = row
        ceiling = log_tilt + shift[t] + _LOG_INEXACT
        lost = (backward[t] < ceiling) & (forward[t] + ceiling > log_z - _NEGLIGIBLE)
        if lost.any():
            lost &= bwd @ np.isfinite(nxt) > 0  # a row with no finite successor is -inf
        if lost.any():
            backward[t, lost] = log_tilt[lost] + bwd.log_rows(lost, nxt)
            changed = True

    near = states.arr[:, 0] >= states.x_max - CUTOFF_NEAR
    cutoff = False
    if near.any():
        for row in forward:
            top = row.max()
            if not np.isfinite(top):
                continue
            # the row's total is at least the top's 1.0, so it is summed only
            # when the near mass alone clears the tolerance
            mass = np.exp(row[near] - top).sum()
            if mass > CUTOFF_MASS_TOL and mass > CUTOFF_MASS_TOL * np.exp(row - top).sum():
                cutoff = True
                break
    return TransferResult(
        spec=spec,
        states=states,
        step=step,
        log_z=log_z,
        forward=forward,
        backward=backward,
        cutoff_warning=cutoff,
    )


def ensemble_messages(spec: EnsembleSpec, kernel: Kernel, tilt: TiltSpec) -> TransferResult:
    """Forward-backward messages for either boundary mode.

    Raises ParityInfeasible for periodicity-infeasible bridges and emits
    CutoffDominatedWarning when mass accumulates near the height cutoff.
    """
    res = _compute_messages(spec, kernel, tilt)
    if res.cutoff_warning:
        warnings.warn(
            f"mass within {CUTOFF_NEAR} of x_max={spec.x_max} exceeds {CUTOFF_MASS_TOL:g} of total",
            CutoffDominatedWarning,
            stacklevel=2,
        )
    return res


# ---------------------------------------------------------------------------
# laws


def marginal(spec: EnsembleSpec, kernel: Kernel, tilt: TiltSpec, t: int) -> Distribution:
    """One-time law of the column at time t under the normalized ensemble."""
    res = ensemble_messages(spec, kernel, tilt)
    return marginal_from_messages(res, t)


def marginal_from_messages(res: TransferResult, t: int) -> Distribution:
    c = res.col(t)
    return Distribution(
        space=res.states.space_key,
        log_weights=res.forward[c] + res.backward[c],
        meta={"states": res.states, "time": t},
    )


def product_space_key(states: StateSpace, times: Sequence[int]) -> tuple:
    return ("chamber_product", states.n, states.x_max, tuple(int(t) for t in times))


def law_restricted(
    spec: EnsembleSpec,
    kernel: Kernel,
    tilt: TiltSpec,
    times: Sequence[int],
) -> Distribution:
    """Exact joint law of the columns at the requested times.

    The result is a Distribution over the product of chamber states at
    those times (flattened in state-id order).
    """
    times = sorted(int(t) for t in times)
    if not times:
        raise ValueError("need at least one time")
    if len(set(times)) != len(times):
        raise ValueError("times must be distinct")
    for t in times:
        spec.col(t)  # range check
    res = ensemble_messages(spec, kernel, tilt)
    return law_from_messages(res, times)


def law_from_messages(res: TransferResult, times: Sequence[int]) -> Distribution:
    times = [int(t) for t in times]
    left, right = res.forward[res.col(times[0])], res.backward[res.col(times[-1])]
    return Distribution(
        space=product_space_key(res.states, times),
        log_weights=_log_joint(res.step, times, left, right).ravel(),
        meta={"states": res.states, "times": tuple(times)},
    )


def _log_joint(
    step: TransferStep,
    times: Sequence[int],
    left: np.ndarray,
    right: np.ndarray,
    span: tuple[int, int] | None = None,
) -> np.ndarray:
    """Unnormalized (S,) * k log law of the columns at the sorted times on
    the chain over ``span`` (default: the first and last time) whose first
    column carries the log weights ``left`` and whose last carries
    ``right``.  An end outside ``times`` is folded into the nearest kept
    column by exact log-space steps, so it costs no axis; with no kept
    column the result is the chain's 0-d log mass.  The law is built one
    step of the CSR operator at a time: a kept column keeps its axis and
    the step's nonzeros scatter into a new one; any other column is
    summed out over the transpose's rows.  Its largest array is the S^k
    law, or the (..., S, K) table of a summed-out column."""
    s = step.chamber.states.size
    if s ** len(times) > state_budget():
        raise TooLarge(f"product law with {s}^{len(times)} entries exceeds budget {state_budget():g}")
    lo, hi = (times[0], times[-1]) if span is None else span
    first, last = (times[0], times[-1]) if len(times) else (hi, hi)
    mat, mat_t, log_tilt = step.chamber.matrix, step.chamber.matrix_t, step.log_tilt
    joint = left
    for _ in range(lo, first):
        joint = _log_rows(mat_t, slice(None), joint + log_tilt)
    for _ in range(last, hi):
        right = log_tilt + _log_rows(mat, slice(None), right)
    if not len(times):
        return la.logsumexp(joint + right)
    src = np.repeat(np.arange(s), np.diff(mat.indptr))
    log_step = np.log(mat.data) + log_tilt[src]
    for t in range(first, last):
        if t in times:
            nxt = np.full(joint.shape + (s,), NEG_INF)
            nxt[..., src, mat.indices] = joint[..., src] + log_step
            joint = nxt
        else:
            joint = _log_rows(mat_t, slice(None), joint + log_tilt)
    return joint + right


@dataclass(frozen=True)
class ConditionalLaw:
    """Interior bridge law plus the two-route consistency diagnostic."""

    law: Distribution
    diagnostic_tv: float


def conditional_bridge_law(
    spec: EnsembleSpec,
    kernel: Kernel,
    tilt: TiltSpec,
    K: int,
    L: int,
    endpoints: tuple[Sequence[int], Sequence[int]],
) -> ConditionalLaw:
    """Law of the columns strictly between K and L given the columns at K and L.

    Computed two ways: (a) conditioning the global joint law, and (b)
    directly as the tilted bridge measure on {K..L} with the same height
    cutoff.  Returns (b) together with the TV distance between the routes.
    """
    if not (spec.m_left <= K < L <= spec.n_right):
        raise ValueError("need m_left <= K < L <= n_right")
    res = ensemble_messages(spec, kernel, tilt)
    states = res.states
    i_k = states.ids(endpoints[0])
    i_l = states.ids(endpoints[1])

    # (a) condition the global joint law on the endpoints: the chain over
    # {K..L} starts from the forward weight of the one state at K and ends
    # on the backward weight of the one state at L, so it is the interior
    # law times the pair's mass
    interior = tuple(range(K + 1, L))
    left = np.full(states.size, NEG_INF)
    left[i_k] = res.forward[res.col(K), i_k]
    right = np.full(states.size, NEG_INF)
    right[i_l] = res.backward[res.col(L), i_l]
    conditioned = _log_joint(res.step, interior, left, right, span=(K, L))
    pair_log_mass = la.logsumexp(conditioned)
    if not np.isfinite(res.log_z) or pair_log_mass - res.log_z < math.log(1e-300):
        raise ZeroProbabilityEndpoint(
            f"conditioning on X({K})={tuple(endpoints[0])}, X({L})={tuple(endpoints[1])} has no mass"
        )

    if not interior:
        trivial = Distribution(
            space=product_space_key(states, ()),
            log_weights=np.zeros(1),
            meta={"states": states, "times": ()},
        )
        return ConditionalLaw(law=trivial, diagnostic_tv=0.0)
    route_a = Distribution(
        space=product_space_key(states, interior),
        log_weights=np.ravel(conditioned),
        meta={"states": states, "times": interior},
    )

    # (b) fresh bridge measure on {K..L} with the same cutoff
    sub_spec = EnsembleSpec(
        n=spec.n,
        m_left=K,
        n_right=L,
        boundary=Bridge(u=tuple(map(int, endpoints[0])), v=tuple(map(int, endpoints[1]))),
        x_max=spec.x_max,
    )
    route_b = law_restricted(sub_spec, kernel, tilt, interior)

    return ConditionalLaw(law=route_b, diagnostic_tv=tv_exact(route_a, route_b))


# ---------------------------------------------------------------------------
# exact sampling


def cumulative_weights(log_w: np.ndarray) -> np.ndarray:
    """The cumulative weights of (R, K) rows of log weights, each row
    shifted by its own largest weight before it leaves log space: totals
    in [1, K].  A row of zero mass (all -inf, or NaN) raises."""
    top = log_w.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise ValueError("cannot sample from zero mass")
    return np.cumsum(np.exp(log_w - top), axis=1)


def pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise draws from (R, K) cumulative weights: the first index whose
    cumulative weight exceeds u times the row total, so a zero-weight
    entry is never drawn, even for u = 0 (u * total < total).  ``cum`` may
    be (1, K) to share one row among all R uniforms in ``u``."""
    if cum.shape[0] == 1:
        return np.searchsorted(cum[0], u * cum[0, -1], side="right")
    return (cum <= (u * cum[:, -1])[:, None]).argmin(axis=1)  # cum is non-decreasing: the first False


def categorical(log_w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise draws from log weights, ``pick`` on their
    ``cumulative_weights``: a -inf entry is never drawn.  ``log_w`` is
    (R, K), or (1, K) to share one row among all R uniforms in ``u``."""
    return pick(cumulative_weights(log_w), u)


def ffbs(steps: int, first, last, us: np.ndarray, weigh) -> np.ndarray:
    """Batched backward sampling (Carter & Kohn 1994) of R draws over
    columns 0..T, T = ``steps``.

    ``first`` is the fixed start id.  ``last`` is the end ids, or (R or
    1, S) log end weights to draw them from; a single row is shared by
    all R draws.  ``weigh(t, nxt)`` is the caller's weighing of a draw's
    candidates: for the (R,) ids at t + 1 it returns the (R, K) ids of
    the states that step to them and the candidates'
    ``cumulative_weights`` (a zero-weight candidate is never drawn), from
    log weights shifted by each draw's own largest one, so no candidate
    underflows against states it does not compete with.  ``us`` is (R, k)
    uniforms taken column by column: the end when drawn, then times T-1
    down to 1.  Returns (T+1, R) state ids.
    """
    r = us.shape[0]
    cols = iter(us.T)
    ids = np.empty((steps + 1, r), dtype=np.int64)
    ids[0] = first
    ids[steps] = categorical(last, next(cols)) if np.ndim(last) == 2 else last
    rows = np.arange(r)
    for t in range(steps - 1, 0, -1):
        cand, cum = weigh(t, ids[t + 1])
        ids[t] = cand[rows, pick(cum, next(cols))]
    return ids


def column_candidates(mat_t: sp.csr_matrix, nxt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``nxt`` of the CSR transpose, read in place: (R, K)
    positions in ``mat_t.data``/``indices``, in descending source id, K
    the longest of these rows, and the mask of real entries.  A padding
    position (mask False) is a valid index whose entry must be ignored."""
    lo, hi = mat_t.indptr[nxt], mat_t.indptr[nxt + 1]
    k = np.arange(max(int((hi - lo).max(initial=0)), 1))
    pos = hi[:, None] - 1 - k  # >= hi - K >= -nnz, so in range even where masked
    return pos, pos >= lo[:, None]


def sample_draws(spec: EnsembleSpec) -> int:
    """Uniforms one exact draw consumes: the free end, then the interior."""
    return spec.width - 2 + isinstance(spec.boundary, Walk)


def sample_heights(res: TransferResult, us: np.ndarray) -> np.ndarray:
    """(R, n, width) heights of R exact draws from the ensemble behind
    ``res``, one per row of the (R, sample_draws) uniforms ``us``: the
    states that ``sample_ids`` draws."""
    return np.ascontiguousarray(res.states.arr[sample_ids(res, us)].transpose(1, 2, 0))


def sample_ids(res: TransferResult, us: np.ndarray) -> np.ndarray:
    """(width, R) state ids of the R exact draws of ``sample_heights``.

    A draw weighs its candidates, read from the rows of ``matrix_t``, in
    log space, forward[t] + log_tilt + log p, and takes their
    ``cumulative_weights``, shifted by the draw's own largest weight; no
    exp'd copy of the messages is made."""
    spec, states, step = res.spec, res.states, res.step
    if not np.isfinite(res.log_z):
        raise ValueError("ensemble has zero total mass; nothing to sample")
    mat_t, log_tilt, forward = step.chamber.matrix_t, step.log_tilt, res.forward

    def weigh(t, nxt):
        pos, real = column_candidates(mat_t, nxt)
        cand = mat_t.indices[pos]
        log_w = np.where(real, forward[t][cand] + log_tilt[cand] + np.log(mat_t.data[pos]), NEG_INF)
        return cand, cumulative_weights(log_w)

    last = states.ids(spec.boundary.v) if isinstance(spec.boundary, Bridge) else forward[-1][None, :]
    return ffbs(spec.width - 1, states.ids(spec.boundary.u), last, us, weigh)


def _reach(spec: EnsembleSpec, kernel: Kernel) -> int:
    """The highest top-curve height of any state with a finite forward or
    backward message: no path of a walk from u climbs above u_top +
    (width - 1)·max_step, and none of a bridge above max(u_top, v_top) +
    (width - 1)·max_step."""
    top = spec.boundary.u[0]
    if isinstance(spec.boundary, Bridge):
        top = max(top, spec.boundary.v[0])
    return top + (spec.width - 1) * kernel.max_step


def exact_sample(
    spec: EnsembleSpec,
    kernel: Kernel,
    tilt: TiltSpec,
    seed: int,
    count: int,
) -> PathBatch:
    """i.i.d. exact samples by forward filtering / backward sampling.

    All samples are drawn together, one batched backward step per time,
    each weighing at most |offsets|^n predecessor candidates in log
    space.  Every sample consumes its own spawned random stream, so
    sample i is the same for any count > i and results do not depend on
    batching.  The streams are derived for all samples in one vectorized
    pass, equal bit for bit to those of
    ``default_rng(SeedSequence(seed).spawn(count)[i])``.

    When the window's ``_reach`` lies below x_max's near band, the messages
    run on the states up to the reach alone, and every draw is the full
    space's, bit for bit.  The states are in lexicographic order, top
    curve first, so these are a prefix of the full space, in the same
    order.  A draw reads forward messages, and a state left out has a
    -inf one: it adds exactly 0.0 to every forward sum and to every
    draw's cumulative weights.  Its backward message is -inf too for a
    bridge.  For a walk it is finite, but the forward pass reads backward
    messages only in its bound on rows to redo in log space, and on the
    reachable states these are the full space's while each backward
    step's shift, the largest entry of the row it steps from, lies below
    the reach; that entry lies near the wall.  No reachable state is in
    the near band, so no cutoff warning fires on either space.
    """
    if count == 0:
        return PathBatch(np.zeros((0, spec.n, spec.width), dtype=np.int64), spec)
    us = spawned_uniforms(seed, count, sample_draws(spec))  # a bad count raises before any work
    cap = _reach(spec, kernel)
    if cap < spec.x_max - CUTOFF_NEAR:
        res = _compute_messages(replace(spec, x_max=cap), kernel, tilt)
    else:
        res = ensemble_messages(spec, kernel, tilt)
    return PathBatch(sample_heights(res, us), spec)
