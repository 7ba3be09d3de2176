"""Discretized Brownian polymer on a diffusive space-time grid.

The reference chain takes truncated-Gaussian steps (variance dt per
coordinate, dt = dx^2, normalized over the stencil so the free step is
an honest kernel); the ordering-above-the-wall constraint then acts by
killing, exactly as the indicator in the path measure, and each step is
tilted by exp(-a * sum_i b^(i-1) x_i dt).  One-time marginals under
zero / fixed / free boundary conditions and the stationary (large-time)
density are the comparison targets for the lattice convergence
experiments.
The killed step is the lattice's chamber operator for the stencil
kernel (``_killed_step``): the n one-curve factors of
``exact_engine.chamber``, built once per (n, sites) and shared by every
call on the grid.  A one-time marginal at step j runs the
forward pass for j steps and the backward pass for the remaining
n_steps - j, in scaled linear space with accumulated log scales (Rabiner
1989), so it costs one polymer pass and keeps only two state vectors;
when both ends are the same point, the shorter half is run once and
mirrored by the tilt, so it costs max(j, n_steps - j) steps.  Each step
drops the entries that its division by the top makes subnormal, as the
exact engine's step does: x86 does arithmetic on them through a slow
microcode path.  Where a steep tilt may have flushed an entry, or left
one inexact, that the marginal needs, both messages are recomputed with
the factors' exact log-space step (``log_rows``).  The stationary
density comes from Lanczos (ARPACK, Lehoucq, Sorensen & Yang 1998) on
the symmetrized tilted step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _linalg as la
from . import exact_engine as ee
from .model_core import NEG_INF, Kernel, make_kernel

STENCIL_REACH = 6  # Gaussian step truncated at 6 sigma (weight e^-18)


class NoConvergence(RuntimeError):
    """The eigensolver did not converge, or its leading vector is not
    nonnegative."""


@dataclass(frozen=True)
class GridSpec:
    """Spatial step, height cap, and time half-width; dt = dx^2 exactly."""

    dx: float
    height_cap: float
    m_half: float

    def __post_init__(self):
        if self.dx <= 0.0:
            raise ValueError("dx must be positive")
        if self.height_cap < 2 * self.dx:
            raise ValueError("height_cap must exceed a couple of grid steps")
        if self.m_half <= 0.0:
            raise ValueError("m_half must be positive")

    @property
    def dt(self) -> float:
        return self.dx * self.dx

    @property
    def n_sites(self) -> int:
        return int(round(self.height_cap / self.dx))

    @property
    def n_steps(self) -> int:
        return max(int(round(2.0 * self.m_half / self.dt)), 1)

    @property
    def m_eff(self) -> float:
        """Half-width actually realized by the integer step count."""
        return 0.5 * self.n_steps * self.dt

    def space_key(self, n: int) -> tuple:
        return ("polymer_chamber", n, self.n_sites, repr(self.dx))


def default_height_cap(a: float, n: int) -> float:
    # top curve dominates; extra curves sit lower but widen the chamber
    return 30.0 / a + 5.0 + 3.0 * (n - 1) / a


# boundary modes ------------------------------------------------------------


@dataclass(frozen=True)
class ZeroBC:
    """Both endpoints at the minimal chamber state (the eps = dx wedge)."""


@dataclass(frozen=True)
class Fixed:
    """Left endpoint at u; right endpoint at v if given, free otherwise."""

    u: tuple[float, ...]
    v: tuple[float, ...] | None = None


@dataclass(frozen=True)
class FreeRight:
    """Left endpoint at the minimal chamber state, right endpoint free."""


@dataclass(frozen=True)
class FreeBoth:
    """Both endpoints integrated with uniform reference weight dx^n."""


BoundaryMode = ZeroBC | Fixed | FreeRight | FreeBoth


@dataclass(frozen=True)
class PolymerLaw:
    """One-time marginal (at t = 0) plus the diagnostics of its construction."""

    grid: GridSpec
    mode: str
    marginal: ee.Distribution
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# chamber operator


def _killed_step(n: int, n_sites: int) -> tuple[ee.StateSpace, ee._Chain]:
    """Chamber states and the killed free step G on them: the forward
    factors of the stencil kernel's ``ee.chamber``, with moves that leave
    the chamber or the cap dropped.  The stencil is symmetric, so G is
    symmetric and the forward chain P^T is G itself: ``G @ v`` steps in
    linear space and ``G.log_rows`` in exact log space.  Raises TooLarge
    when the chamber or the factors exceed the budget."""
    if n_sites < n:
        raise ValueError("height cap too small for n ordered curves")
    killed = ee.chamber(n, n_sites, _stencil_kernel())
    return killed.states, killed.forward


def _stencil_kernel() -> Kernel:
    """The per-coordinate step: weights e^{-m^2/2}, |m| <= STENCIL_REACH,
    normalized over the stencil."""
    offsets = np.arange(-STENCIL_REACH, STENCIL_REACH + 1)
    stencil = np.exp(-0.5 * offsets**2)
    return make_kernel(offsets, stencil / stencil.sum())


def check_polymer_budget(n: int, grid: GridSpec) -> None:
    """Raise TooLarge when one polymer pass, counted as box cells x stencil
    taps x n axes x steps multiply-adds, exceeds 20 times the budget.  The
    box {1..n_sites}^n holds every factor stage, so the count bounds the
    factored step's work from above."""
    work = grid.n_sites**n * (2 * STENCIL_REACH + 1) * n * grid.n_steps
    if work > 20 * ee.state_budget():
        raise ee.TooLarge(f"polymer pass of {work:.3g} multiply-adds exceeds budget")


def _tilt_log_vector(states: ee.StateSpace, a: float, b: float, dx: float) -> np.ndarray:
    w = a * b ** np.arange(states.n, dtype=float)
    x = states.arr.astype(float) * dx
    return -((x @ w) * dx * dx)  # area increment x * dt with dt = dx^2


def order_chamber(idx: Sequence[int]) -> tuple[int, ...]:
    """Integer heights raised, bottom curve first, just enough to be
    positive and strictly decreasing."""
    out, prev = [], 0
    for x in reversed(idx):
        prev = max(x, prev + 1)
        out.append(prev)
    return tuple(reversed(out))


def snap_to_chamber(u: Sequence[float], dx: float, n_sites: int) -> tuple[int, ...]:
    """Nearest strictly-decreasing grid state to the real vector u."""
    out = order_chamber([int(round(x / dx)) for x in u])
    if out[0] > n_sites:
        raise ValueError(f"boundary point {tuple(u)} does not fit under the height cap")
    return out


def _min_state(n: int) -> tuple[int, ...]:
    return tuple(range(n, 0, -1))


def _boundary_vectors(
    n: int, grid: GridSpec, boundary: BoundaryMode, states: ee.StateSpace
) -> tuple[np.ndarray, np.ndarray]:
    log_free = n * math.log(grid.dx)
    f0 = np.full(states.size, NEG_INF)
    bT = np.full(states.size, NEG_INF)
    if isinstance(boundary, ZeroBC):
        f0[states.ids(_min_state(n))] = 0.0
        bT[states.ids(_min_state(n))] = 0.0
        return f0, bT
    if isinstance(boundary, FreeRight):
        f0[states.ids(_min_state(n))] = 0.0
        bT[:] = log_free
        return f0, bT
    if isinstance(boundary, FreeBoth):
        f0[:] = log_free
        bT[:] = log_free
        return f0, bT
    if isinstance(boundary, Fixed):
        f0[states.ids(snap_to_chamber(boundary.u, grid.dx, grid.n_sites))] = 0.0
        if boundary.v is None:
            bT[:] = log_free
        else:
            bT[states.ids(snap_to_chamber(boundary.v, grid.dx, grid.n_sites))] = 0.0
        return f0, bT
    raise TypeError(f"unknown boundary mode {boundary!r}")


def _scaled_pass(step, log_v: np.ndarray, steps: int) -> np.ndarray:
    """log of step^steps(exp(log_v)) for a linear, nonnegative ``step``.

    The vector is kept in linear space, divided by its maximum after
    every step, with the entries that this makes subnormal set to 0.0,
    and the log of each maximum is added to a running scale; the log is
    taken once, at the end.  Zero mass gives all -inf."""
    scale = np.max(log_v)
    if not np.isfinite(scale):
        return np.full_like(log_v, NEG_INF)
    v = np.exp(log_v - scale)
    for _ in range(steps):
        v = step(v)
        top = v.max()
        if not top > 0.0:
            return np.full_like(log_v, NEG_INF)
        v /= top
        v[v < la.TINY] = 0.0
        scale += math.log(top)
    with np.errstate(divide="ignore"):
        return np.log(v) + scale


def _polymer_messages(
    n: int, a: float, b: float, grid: GridSpec, boundary: BoundaryMode, j: int, passes: dict | None = None
) -> tuple[ee.StateSpace, np.ndarray, np.ndarray]:
    """Chamber states and the log forward and backward messages at step j.

    The forward pass runs j steps from the left boundary vector and the
    backward pass n_steps - j steps from the right one, each through
    ``_scaled_pass``: one polymer pass in all, and nothing of size
    n_steps x S is stored.  G is symmetric, so a forward step is G applied
    to the tilted message and a backward step is the tilt times G(v).

    When both ends are the same one-hot e_u (ZeroBC, Fixed(u, u)), the
    shorter half of m = min(j, n_steps - j) steps runs once: with D the
    tilt, (DG)^m e_u = D (GD)^m e_u / D(u) mirrors a forward half into a
    backward one.  The longer half then runs only its remaining
    |n_steps - 2j| steps.

    A scaled pass flushes entries more than ~708 nats below its top, and
    an entry more than ~671 nats below it (``ee._LOG_INEXACT``) may have
    lost part of its terms to that.  If the tilt itself spans ~708 nats,
    or ``_may_have_lost_mass`` finds an entry under that ceiling that could
    matter, both messages are run again in exact log space.

    ``passes``, a dict that calls for several boundary modes may share,
    keeps each half pass by its direction, length and start vector, so a
    half pass that two modes have in common runs once."""
    check_polymer_budget(n, grid)
    states, g = _killed_step(n, grid.n_sites)
    log_tilt = _tilt_log_vector(states, a, b, grid.dx)
    top = log_tilt.max()  # factored out, so the tilt cannot underflow as a whole
    tilt = np.exp(log_tilt - top)
    f0, bT = _boundary_vectors(n, grid, boundary, states)

    passes = {} if passes is None else passes

    def half(step, log_v, steps):
        key = (n, a, b, grid, step.__name__, steps, log_v.tobytes())
        if key not in passes:
            passes[key] = _scaled_pass(step, log_v, steps) + steps * top
        return passes[key]

    def forward(v):
        return g @ (v * tilt)

    def backward(v):
        return (g @ v) * tilt

    rest = grid.n_steps - j
    ends = np.flatnonzero(np.isfinite(f0))
    if ends.size != 1 or not np.array_equal(f0, bT):
        fwd, bwd = half(forward, f0, j), half(backward, bT, rest)
    else:
        fwd = half(forward, f0, min(j, rest))
        bwd = log_tilt + fwd - log_tilt[ends[0]]
        if j < rest:
            bwd = half(backward, bwd, rest - j)
        else:
            fwd = half(forward, fwd, j - rest)
    # a tilt spanning more than ~708 nats flushes part of itself
    if top - log_tilt.min() > -ee._LOG_TINY or _may_have_lost_mass(states, ((fwd, f0, j), (bwd, bT, rest))):
        every = slice(None)
        fwd, bwd = f0, bT
        for _ in range(j):
            fwd = g.log_rows(every, fwd + log_tilt)
        for _ in range(rest):
            bwd = log_tilt + g.log_rows(every, bwd)
    return states, fwd, bwd


def _may_have_lost_mass(states: ee.StateSpace, passes) -> bool:
    """Whether a scaled pass may have flushed, or left inexact, an entry
    that matters.

    ``passes`` holds the forward and the backward (log message, start
    vector, steps).  An entry may be flushed or inexact when it lies more
    than ~671 nats (``ee._LOG_INEXACT``) below its message's top and its
    pass can reach it: each step moves a curve at most STENCIL_REACH sites
    from a one-point start.  It matters when, times the other message, it
    could hold marginal mass within _NEGLIGIBLE nats of the marginal's
    top."""
    (fwd, _, _), (bwd, _, _) = passes
    total = np.max(fwd + bwd)
    for (this, start, steps), (other, _, _) in (passes, passes[::-1]):
        floor = this.max() + ee._LOG_INEXACT
        reach = np.isfinite(start)
        if not reach.all():
            reach = np.abs(states.arr - states.arr[reach]).max(axis=1) <= STENCIL_REACH * steps
        other_up = np.maximum(other, other.max() + ee._LOG_INEXACT)
        if np.any((this < floor) & reach & (floor + other_up > total - ee._NEGLIGIBLE)):
            return True
    return False


def _time_index(grid: GridSpec, t: float) -> int:
    j = int(round((t + grid.m_eff) / grid.dt))
    if not 0 <= j <= grid.n_steps:
        raise ValueError(f"time {t} outside [-{grid.m_eff}, {grid.m_eff}]")
    return j


def polymer_marginal(
    n: int, a: float, b: float, grid: GridSpec, boundary: BoundaryMode, t: float, passes: dict | None = None
) -> ee.Distribution:
    """One-time marginal of the discretized polymer at grid time t.  Calls
    that share a ``passes`` dict run each half pass they share once."""
    states, fwd, bwd = _polymer_messages(n, a, b, grid, boundary, _time_index(grid, t), passes)
    return ee.Distribution(
        space=grid.space_key(n),
        log_weights=fwd + bwd,
        meta={"states": states, "dx": grid.dx, "time": t},
    )


def zero_bc_extrapolate(n: int, a: float, b: float, grid: GridSpec) -> PolymerLaw:
    """Zero-boundary law as the smallest-epsilon member of a contracting
    family Fixed(eps * w), with Cauchy and direction-independence
    diagnostics."""
    w_ref = np.arange(n, 0, -1, dtype=float)
    w_alt = 3.0 * np.arange(n, 0, -1, dtype=float)
    laws = {}
    for mult in (4, 2, 1):
        u = tuple(mult * grid.dx * w_ref)
        laws[mult] = polymer_marginal(n, a, b, grid, Fixed(u=u, v=u), 0.0)
    u_alt = tuple(grid.dx * w_alt)
    law_alt = polymer_marginal(n, a, b, grid, Fixed(u=u_alt, v=u_alt), 0.0)
    diags = {
        "tv_eps4_eps2": ee.tv_exact(laws[4], laws[2]),
        "tv_eps2_eps1": ee.tv_exact(laws[2], laws[1]),
        "tv_direction": ee.tv_exact(laws[1], law_alt),
    }
    return PolymerLaw(grid=grid, mode="zero_bc", marginal=laws[1], diagnostics=diags)


def stationary_density(
    n: int,
    a: float,
    b: float,
    grid: GridSpec,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> ee.Distribution:
    """Large-time one-time marginal: the product of left and right leading
    eigenvectors of the one-step tilted chamber operator.

    The operator is e^{-a_s} G(s,s') with G symmetric, so Lanczos
    (``eigsh``, started from the all-ones vector, at most ``max_iter``
    restarts, relative accuracy ``tol``) runs on the symmetrized form
    G(s,s') e^{-(a_s + a_s')/2}, whose leading eigenvector v gives the
    stationary marginal as v^2.  ``meta`` holds the operator applications
    (``matvecs``) and the residual ||A v - theta v|| of the unit vector v.
    Raises NoConvergence when ARPACK does not converge or v has an entry
    below -1e-10 max(v); smaller negative roundoff is clipped to 0."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    states, g = _killed_step(n, grid.n_sites)
    half = np.exp(0.5 * _tilt_log_vector(states, a, b, grid.dx))
    matvecs = 0

    def sym(v: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        return half * (g @ (half * v))

    op = LinearOperator((states.size, states.size), matvec=sym, dtype=float)
    try:
        theta, vecs = eigsh(op, k=1, which="LA", v0=np.ones(states.size), tol=tol, maxiter=max_iter)
    except ArpackNoConvergence as exc:
        raise NoConvergence(f"eigsh did not reach {tol:g} in {max_iter} restarts") from exc
    count = matvecs
    v = vecs[:, 0] if vecs[:, 0].sum() > 0.0 else -vecs[:, 0]
    residual = float(np.linalg.norm(sym(v) - theta[0] * v))
    if v.min() < -1e-10 * v.max():
        raise NoConvergence("leading eigenvector is not nonnegative")
    with np.errstate(divide="ignore"):
        log_density = 2.0 * np.log(np.clip(v, 0.0, None))
    return ee.Distribution(
        space=grid.space_key(n),
        log_weights=log_density,
        meta={"states": states, "dx": grid.dx, "stationary": True, "matvecs": count, "residual": residual},
    )


def top_curve_pmf(dist: ee.Distribution) -> tuple[np.ndarray, np.ndarray]:
    """Marginal of the top coordinate: (site indices 1..n_sites, pmf)."""
    states = dist.meta["states"]
    n_sites = states.x_max
    pmf = np.bincount(states.arr[:, 0], weights=dist.probs, minlength=n_sites + 1)[1:]
    return np.arange(1, n_sites + 1), pmf
