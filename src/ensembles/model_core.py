"""Core model objects: step kernels, the linear potential V(x) = lambda*x
and its area tilts, ensemble windows, path configurations and their
batches, and the diffusive rescaling at H = lambda^(-1/3).

All types are immutable after construction and all operations are pure,
so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Dedicated sentinel for "log-weight of an impossible configuration".
NEG_INF = float("-inf")


class KernelError(ValueError):
    """Base class for step-kernel construction failures."""


class NotNormalized(KernelError):
    """Step probabilities do not sum to one."""


class NonzeroMean(KernelError):
    """Step distribution has nonzero mean."""


class NotIrreducible(KernelError):
    """Step support does not generate the full integer lattice."""


class OutOfRange(ValueError):
    """Evaluation time outside the rescaled path's window."""


@dataclass(frozen=True)
class Kernel:
    """Finite-support integer step distribution with zero mean.

    ``period`` is the gcd of support differences: 1 for aperiodic kernels,
    2 for the simple walk.  ``variance`` is recorded but not constrained;
    comparisons against the Brownian oracle rescale space by ``sigma``.
    """

    offsets: tuple[int, ...]
    probs: tuple[float, ...]
    variance: float
    period: int

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)

    @property
    def max_step(self) -> int:
        return max(abs(z) for z in self.offsets)

    def prob(self, z: int) -> float:
        try:
            return self.probs[self.offsets.index(z)]
        except ValueError:
            return 0.0


def make_kernel(offsets: Sequence[int], probs: Sequence[float]) -> Kernel:
    """Validate and build a step kernel.

    Raises NotNormalized / NonzeroMean / NotIrreducible when the usual
    random-walk requirements fail.
    """
    if len(offsets) != len(probs):
        raise ValueError("offsets and probs must have the same length")
    offsets = tuple(int(z) for z in offsets)
    probs = tuple(float(p) for p in probs)
    if len(set(offsets)) != len(offsets):
        raise ValueError("duplicate step offsets")
    if any(p <= 0.0 for p in probs):
        raise ValueError("all step probabilities must be positive")
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-12:
        raise NotNormalized(f"probabilities sum to {total!r}, not 1")
    mean = math.fsum(z * p for z, p in zip(offsets, probs))
    if abs(mean) > 1e-12:
        raise NonzeroMean(f"step mean is {mean!r}, not 0")
    if math.gcd(*(abs(z) for z in offsets)) != 1:
        raise NotIrreducible("support generates a proper sublattice of Z")
    variance = math.fsum(z * z * p for z, p in zip(offsets, probs))
    z0 = offsets[0]
    period = 0
    for z in offsets:
        period = math.gcd(period, abs(z - z0))
    return Kernel(offsets=offsets, probs=probs, variance=variance, period=max(period, 1))


def simple_walk() -> Kernel:
    """+-1 steps with equal probability (period 2, variance 1)."""
    return make_kernel((-1, 1), (0.5, 0.5))


def lazy_walk() -> Kernel:
    """Steps {-1,0,1} with probs {1/4,1/2,1/4} (aperiodic, variance 1/2)."""
    return make_kernel((-1, 0, 1), (0.25, 0.5, 0.25))


def unit_walk() -> Kernel:
    """Aperiodic kernel with variance exactly 1 (support {-2..2})."""
    return make_kernel((-2, -1, 0, 1, 2), (0.05, 0.3, 0.3, 0.3, 0.05))


KERNEL_PRESETS: dict[str, Callable[[], Kernel]] = {
    "srw": simple_walk,
    "lazy": lazy_walk,
    "unit": unit_walk,
}


@dataclass(frozen=True)
class Potential:
    """The linear potential V(x) = lam * x of the area tilt, lam > 0: zero
    at the wall, increasing, unbounded."""

    lam: float

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("lambda must be positive")

    def value(self, x):
        """Evaluate V at x (scalar or array), x >= 0."""
        return self.lam * np.asarray(x, dtype=float)


def linear_potential(lam: float) -> Potential:
    return Potential(lam=lam)


@dataclass(frozen=True)
class TiltSpec:
    """Area-tilt parameters: curve i is weighted by exp(-a * b^(i-1) * sum V)."""

    a: float
    b: float
    potential: Potential

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError("tilt prefactor a must be positive")
        if self.b <= 1.0:
            raise ValueError("geometric factor b must exceed 1")

    def curve_weights(self, n: int) -> np.ndarray:
        """Prefactors a * b^(i-1) for curves i = 1..n."""
        return self.a * self.b ** np.arange(n, dtype=float)


def _validate_chamber_point(u: Sequence[int], n: int, x_max: int, name: str) -> tuple[int, ...]:
    u = tuple(int(x) for x in u)
    if len(u) != n:
        raise ValueError(f"{name} must have {n} entries")
    if any(b >= a for a, b in zip(u, u[1:])):
        raise ValueError(f"{name} must be strictly decreasing")
    if u[-1] < 1:
        raise ValueError(f"{name} must stay strictly above the wall (entries >= 1)")
    if u[0] > x_max:
        raise ValueError(f"{name}[0] = {u[0]} exceeds the height cutoff {x_max}")
    return u


@dataclass(frozen=True)
class Walk:
    """Left endpoint pinned, right endpoint free."""

    u: tuple[int, ...]


@dataclass(frozen=True)
class Bridge:
    """Both endpoints pinned."""

    u: tuple[int, ...]
    v: tuple[int, ...]


@dataclass(frozen=True)
class EnsembleSpec:
    """Curve count, integer time window {m_left..n_right}, boundary data,
    and the height cutoff used to truncate the state space."""

    n: int
    m_left: int
    n_right: int
    boundary: Walk | Bridge
    x_max: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one curve")
        if self.m_left >= self.n_right:
            raise ValueError("window must satisfy m_left < n_right")
        if self.x_max < self.n:
            raise ValueError("x_max too small to hold n ordered curves")
        _validate_chamber_point(self.boundary.u, self.n, self.x_max, "u")
        if isinstance(self.boundary, Bridge):
            _validate_chamber_point(self.boundary.v, self.n, self.x_max, "v")

    @property
    def width(self) -> int:
        """Number of time columns, n_right - m_left + 1."""
        return self.n_right - self.m_left + 1

    @property
    def times(self) -> range:
        return range(self.m_left, self.n_right + 1)

    def col(self, t: int) -> int:
        if not self.m_left <= t <= self.n_right:
            raise ValueError(f"time {t} outside window [{self.m_left}, {self.n_right}]")
        return t - self.m_left


def default_x_max(lam: float, u_top: int) -> int:
    # e^{-lam*x} mass above 30/lam is below e^-30 per site.
    return int(math.ceil(30.0 / lam + u_top + 5))


@dataclass(frozen=True)
class PathConfig:
    """Integer height matrix (curves x times) tied to its ensemble window."""

    heights: np.ndarray
    spec: EnsembleSpec

    def __post_init__(self):
        h = np.asarray(self.heights, dtype=np.int64)
        _checked_heights(h[None], self.spec)  # checked as a batch of one
        h.flags.writeable = False
        object.__setattr__(self, "heights", h)

    def column(self, t: int) -> tuple[int, ...]:
        return tuple(self.heights[:, self.spec.col(t)])

    def with_heights(self, heights: np.ndarray) -> "PathConfig":
        return PathConfig(heights=heights, spec=self.spec)


def _checked_heights(heights, spec: EnsembleSpec) -> np.ndarray:
    """A batch of (n, width) height matrices stacked on a leading axis, as
    a read-only int64 array (the input itself when it is one) after
    PathConfig's checks; each check runs once over the whole batch and
    raises as for one path."""
    h = np.asarray(heights, dtype=np.int64)
    if h.shape[1:] != (spec.n, spec.width):
        raise ValueError(f"heights shape {h.shape[1:]} != (n, width) = ({spec.n}, {spec.width})")
    if np.any(h < 0):
        raise ValueError("heights must be nonnegative")
    b = spec.boundary
    if np.any(h[..., 0] != b.u):
        raise ValueError("left boundary column does not match u")
    if isinstance(b, Bridge) and np.any(h[..., -1] != b.v):
        raise ValueError("right boundary column does not match v")
    h.flags.writeable = False
    return h


@dataclass(frozen=True, eq=False)  # batches compare by identity, never elementwise
class PathBatch(abc.Sequence):
    """Drawn paths of one ensemble window: read-only (count, n, width)
    int64 heights, checked once when the batch is built.  Item i is the
    PathConfig of path i, a view of its row; a slice is a list of them."""

    heights: np.ndarray
    spec: EnsembleSpec

    def __post_init__(self):
        object.__setattr__(self, "heights", _checked_heights(self.heights, self.spec))

    def __len__(self) -> int:
        return len(self.heights)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._path, self.heights[i]))
        return self._path(self.heights[i])

    def __iter__(self):
        return map(self._path, self.heights)

    def _path(self, row: np.ndarray) -> PathConfig:
        # The row already passed PathConfig's checks with its batch and is
        # read-only, so the view skips the constructor's second check.
        path = object.__new__(PathConfig)
        object.__setattr__(path, "heights", row)
        object.__setattr__(path, "spec", self.spec)
        return path


@dataclass(frozen=True)
class ScaleInfo:
    """Diffusive scale: h_big = H solves H^2 V(H) = 1, h_small = 1/H."""

    lam: float
    h_big: float
    h_small: float

    def __post_init__(self):
        if abs(self.h_small * self.h_big - 1.0) > 1e-12:
            raise ValueError("h_small must be the reciprocal of h_big")


def h_scale(potential: Potential) -> ScaleInfo:
    """The spatial scale H solving H^2 V(H) = 1: H = lambda^(-1/3)."""
    h = potential.lam ** (-1.0 / 3.0)
    return ScaleInfo(lam=potential.lam, h_big=h, h_small=1.0 / h)


def _heights_of(path) -> np.ndarray:
    """Path functionals accept a PathConfig or a raw (n, width) matrix."""
    if isinstance(path, PathConfig):
        return path.heights
    h = np.asarray(path)
    if h.ndim != 2:
        raise ValueError("heights must be a 2-d (curves x times) matrix")
    return h


def area_functional(path, tilt: TiltSpec) -> float:
    """Weighted area under the curves, summed over all times except the
    right edge of the window: a * sum_i b^(i-1) * sum_{j<N} V(X_i(j))."""
    h = _heights_of(path)
    body = np.asarray(h[:, :-1], dtype=float)
    per_curve = tilt.potential.value(body).sum(axis=1)
    return float(np.dot(tilt.curve_weights(h.shape[0]), per_curve))


def ordering_ok(path) -> bool:
    """True iff every column is strictly decreasing with bottom curve > 0."""
    h = _heights_of(path)
    if np.any(h[-1, :] <= 0):
        return False
    if h.shape[0] == 1:
        return True
    return bool(np.all(h[:-1, :] > h[1:, :]))


def log_tilt_weight(path, tilt: TiltSpec) -> float:
    """Log of the (unnormalized) tilt factor: -area if ordered, else -inf."""
    if not ordering_ok(path):
        return NEG_INF
    return -area_functional(path, tilt)


@dataclass(frozen=True)
class RescaledPath:
    """Piecewise-linear rescaled path: values h*X on times h^2 * j."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != t.shape[0]:
            raise ValueError("values must be (n_curves, len(times))")
        t.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def t_min(self) -> float:
        return float(self.times[0])

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def evaluate(self, t) -> np.ndarray:
        """Linear interpolation at time(s) t; raises OutOfRange beyond the window."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.t_min - 1e-12) or np.any(t > self.t_max + 1e-12):
            raise OutOfRange(f"time outside [{self.t_min}, {self.t_max}]")
        t = np.clip(t, self.t_min, self.t_max)
        return np.stack([np.interp(t, self.times, row) for row in self.values])


def rescale(path: PathConfig, scale: ScaleInfo) -> RescaledPath:
    """Map heights X(j) to h*X on the diffusive time grid h^2 * j."""
    js = np.arange(path.spec.m_left, path.spec.n_right + 1, dtype=float)
    times = scale.h_small**2 * js
    values = scale.h_small * np.asarray(path.heights, dtype=float)
    return RescaledPath(times=times, values=values)
