"""Discretized Brownian polymer on a diffusive space-time grid.

The reference chain takes truncated-Gaussian steps (variance dt per
coordinate, dt = dx^2, normalized over the stencil so the free step is
an honest kernel); the ordering-above-the-wall constraint then acts by
killing, exactly as the indicator in the path measure, and each step is
tilted by exp(-a * sum_i b^(i-1) x_i dt).  One-time marginals under
zero / fixed / free boundary conditions and the stationary (large-time)
density are the comparison targets for the lattice convergence
experiments.
The killed step is applied matrix-free (``_killed_step``), and the
stationary density comes from Lanczos (ARPACK, Lehoucq, Sorensen & Yang
1998) on the symmetrized tilted step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _linalg as la
from . import exact_engine as ee
from .model_core import NEG_INF

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


def _killed_step(n: int, n_sites: int):
    """Chamber states and the killed free step G on them, matrix-free.

    Per coordinate the step weights e^{-m^2/2}, |m| <= 6, are normalized
    over the stencil; G v zero-extends v onto the {1..n_sites}^n box,
    correlates each axis with the stencil (zero outside the box) and
    reads the chamber back out.  Killing acts only on the destination,
    so this is exactly the step with moves leaving the chamber or the
    cap dropped, and G is symmetric."""
    from scipy.ndimage import correlate1d
    from scipy.sparse.linalg import LinearOperator

    if n_sites < n:
        raise ValueError("height cap too small for n ordered curves")
    if n_sites**n > ee.state_budget():
        raise ee.TooLarge(f"{n_sites}^{n} box cells exceed budget {ee.state_budget():g}")
    states = ee.enumerate_states(n, n_sites)
    stencil = np.exp(-0.5 * np.arange(-STENCIL_REACH, STENCIL_REACH + 1) ** 2)
    stencil /= stencil.sum()
    flat = (states.arr - 1) @ n_sites ** np.arange(n - 1, -1, -1, dtype=np.int64)

    def apply(v: np.ndarray) -> np.ndarray:
        box = np.zeros(n_sites**n)
        box[flat] = v.ravel()
        box = box.reshape((n_sites,) * n)
        for axis in range(n):
            box = correlate1d(box, stencil, axis=axis, mode="constant")
        return box.ravel()[flat]

    return states, LinearOperator((states.size, states.size), matvec=apply, dtype=float)


def check_polymer_budget(n: int, grid: GridSpec) -> None:
    """Raise TooLarge when one polymer pass, box cells x stencil taps x
    n axes x steps multiply-adds, exceeds 20 times the budget."""
    work = grid.n_sites**n * (2 * STENCIL_REACH + 1) * n * grid.n_steps
    if work > 20 * ee.state_budget():
        raise ee.TooLarge(f"polymer pass of {work:.3g} multiply-adds exceeds budget")


def _tilt_log_vector(states: ee.StateSpace, a: float, b: float, dx: float) -> np.ndarray:
    w = a * b ** np.arange(states.n, dtype=float)
    x = states.arr.astype(float) * dx
    return -((x @ w) * dx * dx)  # area increment x * dt with dt = dx^2


def snap_to_chamber(u: Sequence[float], dx: float, n_sites: int) -> tuple[int, ...]:
    """Nearest strictly-decreasing grid state to the real vector u."""
    idx = [int(round(x / dx)) for x in u]
    n = len(idx)
    out = [0] * n
    prev = 0
    for i in range(n - 1, -1, -1):
        out[i] = max(idx[i], prev + 1, n - i)
        prev = out[i]
    if out[0] > n_sites:
        raise ValueError(f"boundary point {tuple(u)} does not fit under the height cap")
    return tuple(out)


def _min_state(n: int) -> tuple[int, ...]:
    return tuple(range(n, 0, -1))


def _boundary_vectors(
    n: int, grid: GridSpec, boundary: BoundaryMode, size: int, states: ee.StateSpace
) -> tuple[np.ndarray, np.ndarray, str]:
    log_free = n * math.log(grid.dx)
    f0 = np.full(size, NEG_INF)
    bT = np.full(size, NEG_INF)
    if isinstance(boundary, ZeroBC):
        f0[states.id_of(_min_state(n))] = 0.0
        bT[states.id_of(_min_state(n))] = 0.0
        return f0, bT, "zero_bc"
    if isinstance(boundary, FreeRight):
        f0[states.id_of(_min_state(n))] = 0.0
        bT[:] = log_free
        return f0, bT, "free_right"
    if isinstance(boundary, FreeBoth):
        f0[:] = log_free
        bT[:] = log_free
        return f0, bT, "free_both"
    if isinstance(boundary, Fixed):
        f0[states.id_of(snap_to_chamber(boundary.u, grid.dx, grid.n_sites))] = 0.0
        if boundary.v is None:
            bT[:] = log_free
        else:
            bT[states.id_of(snap_to_chamber(boundary.v, grid.dx, grid.n_sites))] = 0.0
        return f0, bT, "fixed"
    raise TypeError(f"unknown boundary mode {boundary!r}")


def _polymer_messages(n: int, a: float, b: float, grid: GridSpec, boundary: BoundaryMode):
    check_polymer_budget(n, grid)
    states, g = _killed_step(n, grid.n_sites)
    log_tilt = _tilt_log_vector(states, a, b, grid.dx)
    steps = grid.n_steps
    f0, bT, _ = _boundary_vectors(n, grid, boundary, states.size, states)
    # G is symmetric, so the forward step is G applied to the tilted message
    fwd = np.empty((steps + 1, states.size))
    fwd[0] = f0
    for t in range(1, steps + 1):
        fwd[t] = la.log_mat_vec(g, 0.0, fwd[t - 1] + log_tilt)
    bwd = np.empty((steps + 1, states.size))
    bwd[steps] = bT
    for t in range(steps - 1, -1, -1):
        bwd[t] = la.log_mat_vec(g, log_tilt, bwd[t + 1])
    return states, fwd, bwd


def _time_index(grid: GridSpec, t: float) -> int:
    j = int(round((t + grid.m_eff) / grid.dt))
    if not 0 <= j <= grid.n_steps:
        raise ValueError(f"time {t} outside [-{grid.m_eff}, {grid.m_eff}]")
    return j


def polymer_marginal(
    n: int, a: float, b: float, grid: GridSpec, boundary: BoundaryMode, t: float
) -> ee.Distribution:
    """One-time marginal of the discretized polymer at grid time t."""
    states, fwd, bwd = _polymer_messages(n, a, b, grid, boundary)
    j = _time_index(grid, t)
    return ee.Distribution(
        space=grid.space_key(n),
        log_weights=fwd[j] + bwd[j],
        meta={"states": states, "dx": grid.dx, "time": t},
    )


def free_marginal(n: int, a: float, b: float, grid: GridSpec, mode, t: float) -> ee.Distribution:
    """Marginal under a free boundary mode (FreeRight or FreeBoth)."""
    if not isinstance(mode, (FreeRight, FreeBoth)):
        raise TypeError("mode must be FreeRight or FreeBoth")
    return polymer_marginal(n, a, b, grid, mode, t)


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
