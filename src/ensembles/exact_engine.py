"""Exact transfer-operator computations for the tilted non-intersecting
ensemble on a truncated ordered state space.

Partition values, marginals, restricted joint laws and conditional
bridge laws run in log space; zero mass is an explicit -inf, never an
underflowed float.  Exact sampling is forward filtering / backward
sampling: one batched draw per time step for all samples, each weighing
at most M = |offsets|^n candidates from a predecessor table, with one
spawned random stream per sample.
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from . import _linalg as la
from .model_core import (
    NEG_INF,
    Bridge,
    EnsembleSpec,
    Kernel,
    PathConfig,
    TiltSpec,
    Walk,
)

DEFAULT_BUDGET = 5e7

CUTOFF_NEAR = 2  # "near the cap" means top curve within this of x_max
CUTOFF_MASS_TOL = 1e-8
_LOG_TINY = math.log(np.finfo(float).tiny)  # below this a linear sum may have lost terms
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
    """All strictly decreasing n-tuples in {1..x_max}, in lexicographic order."""

    n: int
    x_max: int
    states: tuple[tuple[int, ...], ...]
    arr: np.ndarray = field(compare=False, repr=False)
    index: dict = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def space_key(self) -> tuple:
        return ("chamber", self.n, self.x_max)

    def id_of(self, state: Sequence[int]) -> int:
        key = tuple(int(x) for x in state)
        try:
            return self.index[key]
        except KeyError:
            raise ValueError(f"{key} is not a state of the (n={self.n}, x_max={self.x_max}) space") from None


def enumerate_states(n: int, x_max: int, max_states: float | None = None) -> StateSpace:
    """Enumerate the truncated ordered state space.

    Raises TooLarge when C(x_max, n) exceeds the budget.
    """
    if not 1 <= n <= x_max:
        raise ValueError("need 1 <= n <= x_max")
    count = math.comb(x_max, n)
    budget = state_budget() if max_states is None else max_states
    if count > budget:
        raise TooLarge(f"C({x_max},{n}) = {count} states exceeds budget {budget:g}")
    states = sorted(tuple(reversed(c)) for c in itertools.combinations(range(1, x_max + 1), n))
    arr = np.array(states, dtype=np.int64).reshape(count, n)
    arr.flags.writeable = False
    index = {s: i for i, s in enumerate(states)}
    return StateSpace(n=n, x_max=x_max, states=tuple(states), arr=arr, index=index)


# ---------------------------------------------------------------------------
# one-step transfer


def _kernel_moves(kernel: Kernel, n: int) -> list[tuple[np.ndarray, float]]:
    moves = []
    for combo in itertools.product(range(len(kernel.offsets)), repeat=n):
        delta = np.array([kernel.offsets[i] for i in combo], dtype=np.int64)
        p = math.prod(kernel.probs[i] for i in combo)
        moves.append((delta, p))
    return moves


def _successor_table(states: StateSpace, kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """(S, M) id of the state each product move leads to, -1 where the move
    leaves the chamber, and the M = |offsets|^n move probabilities."""
    moves = _kernel_moves(kernel, states.n)
    if states.size * len(moves) > state_budget():
        raise TooLarge(
            f"{states.size} states x {len(moves)} moves exceeds budget {state_budget():g}"
        )
    arr = states.arr
    base = states.x_max + 1
    pows = base ** np.arange(states.n - 1, -1, -1, dtype=np.int64)
    keys = arr @ pows  # ascending because states are sorted lexicographically
    succ = np.full((states.size, len(moves)), -1, dtype=np.int64)
    for k, (delta, _) in enumerate(moves):
        tgt = arr + delta
        valid = (tgt[:, -1] >= 1) & (tgt[:, 0] <= states.x_max)
        if states.n > 1:
            valid &= np.all(tgt[:, :-1] > tgt[:, 1:], axis=1)
        tkeys = tgt @ pows
        pos = np.searchsorted(keys, tkeys).clip(0, states.size - 1)
        ok = valid & (keys[pos] == tkeys)
        succ[ok, k] = pos[ok]
    return succ, np.array([p for _, p in moves])


def _step_probability_matrix(states: StateSpace, kernel: Kernel) -> sp.csr_matrix:
    """CSR matrix of free-walk step probabilities between chamber states."""
    succ, probs = _successor_table(states, kernel)
    valid = succ >= 0
    indptr = np.concatenate(([0], np.cumsum(valid.sum(axis=1))))
    data = np.broadcast_to(probs, succ.shape)[valid]
    mat = sp.csr_matrix((data, succ[valid], indptr), shape=(states.size, states.size))
    mat.sum_duplicates()
    return mat


def predecessor_table(states: StateSpace, kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """(S, M) id of the state each product move comes from, -1 where that
    state is outside the chamber, and the M move probabilities.

    A backward draw for the state at t + 1 then weighs M candidates
    instead of all S states."""
    succ, probs = _successor_table(states, kernel)
    pred = np.full_like(succ, -1)
    rows, moves = np.nonzero(succ >= 0)
    pred[succ[rows, moves], moves] = rows
    return pred, probs


def tilt_log_vector(states: StateSpace, tilt: TiltSpec) -> np.ndarray:
    """Per-state log tilt factor -a * sum_i b^(i-1) V(x_i), charged per step."""
    w = tilt.curve_weights(states.n)
    v = tilt.potential.value(states.arr.astype(float))
    v = v.reshape(states.size, states.n)
    return -(v @ w)


@dataclass(frozen=True)
class TransferStep:
    """One-step operator: step probabilities times the source-state tilt.

    The full entry is matrix[s, s'] * exp(log_tilt[s]); keeping the tilt
    as a log vector means entries never underflow."""

    states: StateSpace
    matrix: sp.csr_matrix
    log_tilt: np.ndarray

    def entry(self, s_from: Sequence[int], s_to: Sequence[int]) -> float:
        i = self.states.id_of(s_from)
        j = self.states.id_of(s_to)
        return float(self.matrix[i, j]) * math.exp(self.log_tilt[i])

    def dense_log(self) -> np.ndarray:
        """Full log-space matrix (log step prob + source tilt)."""
        if self.states.size**2 > state_budget():
            raise TooLarge("dense log transfer matrix exceeds budget")
        with np.errstate(divide="ignore"):
            return np.log(self.matrix.toarray()) + self.log_tilt[:, None]


def step_matrix(states: StateSpace, kernel: Kernel, tilt: TiltSpec) -> TransferStep:
    """Build the tilted one-step transfer operator."""
    return TransferStep(
        states=states,
        matrix=_step_probability_matrix(states, kernel),
        log_tilt=tilt_log_vector(states, tilt),
    )


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
    if kernel.period == 1:
        return
    steps = spec.n_right - spec.m_left
    z0 = kernel.offsets[0]
    for ui, vi in zip(spec.boundary.u, spec.boundary.v):
        if (vi - ui - steps * z0) % kernel.period != 0:
            raise ParityInfeasible(
                f"endpoint {vi} unreachable from {ui} in {steps} steps (period {kernel.period})"
            )


def _compute_messages(
    spec: EnsembleSpec,
    kernel: Kernel,
    states: StateSpace,
    log_tilt: np.ndarray,
) -> TransferResult:
    mat = _step_probability_matrix(states, kernel)
    mat_t = mat.T.tocsr()
    step = TransferStep(states=states, matrix=mat, log_tilt=log_tilt)
    w = spec.width
    s = states.size
    forward = np.full((w, s), NEG_INF)
    forward[0, states.id_of(spec.boundary.u)] = 0.0
    for t in range(1, w):
        forward[t] = la.log_mat_vec(mat_t, 0.0, forward[t - 1] + log_tilt)
    backward = np.full((w, s), NEG_INF)
    if isinstance(spec.boundary, Bridge):
        backward[-1, states.id_of(spec.boundary.v)] = 0.0
    else:
        backward[-1] = 0.0
    log_z = float(la.logsumexp(forward[-1] + backward[-1]))
    succ = None
    for t in range(w - 2, -1, -1):
        nxt = backward[t + 1]
        backward[t] = la.log_mat_vec(mat, log_tilt, nxt)
        # log_mat_vec shifts nxt by its one maximum, so a row whose terms all
        # lie far below it comes out subnormal or -inf, and its true value is
        # under `ceiling`.  Where forward mass could still lift such a row
        # within _NEGLIGIBLE nats of log Z, redo it in log space.
        ceiling = log_tilt + nxt.max() + _LOG_TINY + math.log(2.0)
        lost = (backward[t] < ceiling) & (forward[t] + ceiling > log_z - _NEGLIGIBLE)
        if lost.any():
            lost &= mat @ np.isfinite(nxt) > 0  # a row with no finite successor is -inf
        if lost.any():
            if succ is None:
                succ, probs = _successor_table(states, kernel)
            terms = np.where(succ[lost] >= 0, np.log(probs) + nxt[succ[lost]], NEG_INF)
            backward[t, lost] = log_tilt[lost] + la.logsumexp(terms, axis=1)

    near = states.arr[:, 0] >= states.x_max - CUTOFF_NEAR
    cutoff = False
    if near.any():
        for row in forward:
            top = row.max()
            if not np.isfinite(top):
                continue
            p = np.exp(row - top)
            if p[near].sum() > CUTOFF_MASS_TOL * p.sum():
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
    if isinstance(spec.boundary, Bridge):
        _bridge_parity_check(spec, kernel)
    states = enumerate_states(spec.n, spec.x_max)
    res = _compute_messages(spec, kernel, states, tilt_log_vector(states, tilt))
    if res.cutoff_warning:
        warnings.warn(
            f"mass within {CUTOFF_NEAR} of x_max={spec.x_max} exceeds {CUTOFF_MASS_TOL:g} of total",
            CutoffDominatedWarning,
            stacklevel=2,
        )
    return res


def partition_bridge(spec: EnsembleSpec, kernel: Kernel, tilt: TiltSpec) -> TransferResult:
    """Unnormalized tilted mass of the free product walk from u pinned to v."""
    if not isinstance(spec.boundary, Bridge):
        raise ValueError("partition_bridge needs a Bridge boundary")
    return ensemble_messages(spec, kernel, tilt)


def partition_walk(spec: EnsembleSpec, kernel: Kernel, tilt: TiltSpec) -> TransferResult:
    """Unnormalized tilted mass of the free product walk from u (free right end)."""
    if not isinstance(spec.boundary, Walk):
        raise ValueError("partition_walk needs a Walk boundary")
    return ensemble_messages(spec, kernel, tilt)


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


def _dense_log_power_chain(step: TransferStep, gaps: Iterable[int]) -> dict[int, np.ndarray]:
    """Log-space powers of the transfer matrix for each requested gap."""
    base = step.dense_log()
    powers: dict[int, np.ndarray] = {1: base}
    for gap in sorted(set(gaps)):
        if gap in powers:
            continue
        best = max(g for g in powers if g <= gap)
        cur = powers[best]
        for g in range(best, gap):
            cur = la.log_matmul(cur, base)
            powers[g + 1] = cur
    return powers


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
    s = res.states.size
    k = len(times)
    if s**k > state_budget():
        raise TooLarge(f"product law with {s}^{k} entries exceeds budget {state_budget():g}")
    gaps = [b - a for a, b in zip(times, times[1:])]
    powers = _dense_log_power_chain(res.step, gaps) if gaps else {}
    joint = res.forward[res.col(times[0])]
    for gap in gaps:
        joint = joint[..., :, None] + powers[gap]
    joint = joint + res.backward[res.col(times[-1])]
    return Distribution(
        space=product_space_key(res.states, times),
        log_weights=joint.ravel(),
        meta={"states": res.states, "times": tuple(times)},
    )


def marginalize_product(dist: Distribution, keep_times: Sequence[int]) -> Distribution:
    """Marginal of a product law onto a subset of its times."""
    kind, n, x_max, times = dist.space
    if kind != "chamber_product":
        raise SpaceMismatch("not a product-law distribution")
    keep = tuple(int(t) for t in keep_times)
    if any(t not in times for t in keep):
        raise ValueError("keep_times must be a subset of the law's times")
    s = round(len(dist.log_weights) ** (1.0 / len(times))) if times else 1
    arr = dist.log_weights.reshape((s,) * len(times))
    drop = tuple(i for i, t in enumerate(times) if t not in keep)
    if drop:
        arr = la.logsumexp(arr, axis=drop)
    return Distribution(
        space=("chamber_product", n, x_max, keep),
        log_weights=np.asarray(arr).ravel(),
        meta={"times": keep, **({"states": dist.meta["states"]} if "states" in dist.meta else {})},
    )


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
    states = enumerate_states(spec.n, spec.x_max)
    i_k = states.id_of(endpoints[0])
    i_l = states.id_of(endpoints[1])

    res = ensemble_messages(spec, kernel, tilt)
    powers = _dense_log_power_chain(res.step, [L - K])
    pair_log_mass = (
        res.forward[res.col(K)][i_k] + powers[L - K][i_k, i_l] + res.backward[res.col(L)][i_l]
    )
    if not np.isfinite(res.log_z) or pair_log_mass - res.log_z < math.log(1e-300):
        raise ZeroProbabilityEndpoint(
            f"conditioning on X({K})={tuple(endpoints[0])}, X({L})={tuple(endpoints[1])} has no mass"
        )

    interior = tuple(range(K + 1, L))
    if not interior:
        trivial = Distribution(
            space=product_space_key(states, ()),
            log_weights=np.zeros(1),
            meta={"states": states, "times": ()},
        )
        return ConditionalLaw(law=trivial, diagnostic_tv=0.0)

    # (a) condition the global joint law at times {K..L} on the endpoints
    global_law = law_from_messages(res, list(range(K, L + 1)))
    s = states.size
    arr = global_law.log_weights.reshape((s,) * (L - K + 1))
    conditioned = arr[i_k][..., i_l]
    route_a = Distribution(
        space=product_space_key(states, interior),
        log_weights=np.asarray(conditioned).ravel(),
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


def categorical(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise draws from nonnegative weights: the first index whose
    cumulative weight exceeds u times the row total, so a zero-weight entry
    is never drawn, even for u = 0.  ``weights`` is (R, K), or (1, K) to
    share one row among all R uniforms in ``u``."""
    top = weights.max(axis=1, keepdims=True)
    if not np.all(top > 0):
        raise ValueError("cannot sample from zero mass")
    cum = np.cumsum(weights / top, axis=1)  # totals in [1, K]: u * total < total
    if cum.shape[0] == 1:
        return np.searchsorted(cum[0], u * cum[0, -1], side="right")
    return (cum <= (u * cum[:, -1])[:, None]).sum(axis=1)


def ffbs(
    pred: np.ndarray,
    probs: np.ndarray,
    fwd: np.ndarray,
    first,
    last,
    us: np.ndarray,
) -> np.ndarray:
    """Batched backward sampling (Carter & Kohn 1994) over a predecessor table.

    ``fwd`` is (T+1, R or 1, S) forward weights in linear space, each row
    scaled freely; a single row is shared by all R draws.  For t < T a
    row holds the tilted weight of each state as the source of the next
    step; at T it holds the plain forward weight.  ``first`` is the fixed
    start id; ``last`` the end ids, or None to draw them from ``fwd[T]``.
    ``us`` is (R, k) uniforms taken column by column: the end when drawn,
    then times T-1 down to 1.  Returns (T+1, R) state ids.
    """
    steps = fwd.shape[0] - 1
    r = us.shape[0]
    cols = iter(us.T)
    ids = np.empty((steps + 1, r), dtype=np.int64)
    ids[0] = first
    ids[steps] = categorical(fwd[steps], next(cols)) if last is None else last
    rows = np.arange(r)
    chain = rows[:, None] if fwd.shape[1] > 1 else 0
    for t in range(steps - 1, 0, -1):
        cand = pred[ids[t + 1]]  # (R, M); -1 marks a move from outside the chamber
        w = np.where(cand >= 0, fwd[t][chain, cand], 0.0) * probs
        ids[t] = cand[rows, categorical(w, next(cols))]
    return ids


def sample_draws(spec: EnsembleSpec) -> int:
    """Uniforms one exact draw consumes: the free end, then the interior."""
    return spec.width - 2 + isinstance(spec.boundary, Walk)


def sample_heights(res: TransferResult, kernel: Kernel, us: np.ndarray) -> np.ndarray:
    """(R, n, width) heights of R exact draws from the ensemble behind
    ``res``, one per row of the (R, sample_draws) uniforms ``us``."""
    spec, states = res.spec, res.states
    if not np.isfinite(res.log_z):
        raise ValueError("ensemble has zero total mass; nothing to sample")
    g = res.forward.copy()
    g[:-1] += res.step.log_tilt
    top = g.max(axis=1, keepdims=True)
    fwd = np.exp(g - np.where(np.isfinite(top), top, 0.0))[:, None, :]
    pred, probs = predecessor_table(states, kernel)
    last = states.id_of(spec.boundary.v) if isinstance(spec.boundary, Bridge) else None
    ids = ffbs(pred, probs, fwd, states.id_of(spec.boundary.u), last, us)
    return np.ascontiguousarray(states.arr[ids].transpose(1, 2, 0))


def exact_sample(
    spec: EnsembleSpec,
    kernel: Kernel,
    tilt: TiltSpec,
    seed: int,
    count: int,
) -> list[PathConfig]:
    """i.i.d. exact samples by forward filtering / backward sampling.

    All samples are drawn together, one batched backward step per time,
    each weighing at most M = |offsets|^n predecessor candidates.  Every
    sample consumes its own spawned random stream, so sample i is the
    same for any count > i and results do not depend on batching.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return []
    res = ensemble_messages(spec, kernel, tilt)
    k = sample_draws(spec)
    children = np.random.SeedSequence(seed).spawn(count)
    us = np.array([np.random.default_rng(c).random(k) for c in children])
    return [PathConfig(heights=h, spec=spec) for h in sample_heights(res, kernel, us)]
