"""Shared fixtures and the independent brute-force oracle.

The oracle enumerates every admissible path of the free product walk and
accumulates its weight from first principles (step probabilities times
the exponential of the hand-written area sum).  It never touches the
transfer-operator code paths it is used to check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ensembles import model_core as mc


@pytest.fixture
def srw():
    return mc.simple_walk()


@pytest.fixture
def lazy():
    return mc.lazy_walk()


@pytest.fixture
def unit():
    return mc.unit_walk()


def iter_paths(spec: mc.EnsembleSpec, kernel: mc.Kernel):
    """Yield (columns, prob) over all admissible ordered paths.

    columns is a tuple of chamber tuples, one per time; prob is the free
    product-walk probability of the path (no tilt)."""
    n = spec.n
    steps = spec.n_right - spec.m_left
    u = spec.boundary.u
    v = spec.boundary.v if isinstance(spec.boundary, mc.Bridge) else None

    def ordered(col):
        return all(a > b for a, b in zip(col, col[1:])) and col[-1] >= 1 and col[0] <= spec.x_max

    def extend(prefix, prob):
        if len(prefix) == steps + 1:
            if v is None or prefix[-1] == v:
                yield tuple(prefix), prob
            return
        cur = prefix[-1]
        for offs in _offset_products(kernel, n):
            nxt = tuple(c + o for c, o in zip(cur, offs[0]))
            if ordered(nxt):
                yield from extend(prefix + [nxt], prob * offs[1])

    if ordered(u):
        yield from extend([u], 1.0)


def _offset_products(kernel: mc.Kernel, n: int):
    import itertools

    out = []
    for combo in itertools.product(range(len(kernel.offsets)), repeat=n):
        offs = tuple(kernel.offsets[i] for i in combo)
        p = math.prod(kernel.probs[i] for i in combo)
        out.append((offs, p))
    return out


def hand_area(columns, a: float, b: float, lam: float) -> float:
    """Area sum written out long-hand: a * sum_i b^(i-1) sum_{j<N} lam*x_i(j)."""
    n = len(columns[0])
    total = 0.0
    for i in range(n):
        s = 0.0
        for col in columns[:-1]:
            s += lam * col[i]
        total += a * b**i * s
    return total


def brute_partition(spec: mc.EnsembleSpec, kernel: mc.Kernel, a: float, b: float, lam: float) -> float:
    """Tilted mass summed over explicitly enumerated paths."""
    z = 0.0
    for cols, prob in iter_paths(spec, kernel):
        z += prob * math.exp(-hand_area(cols, a, b, lam))
    return z


def path_log_prob(columns, kernel: mc.Kernel) -> float:
    """Log free-walk probability of a path, summed step by step and curve by
    curve, so that paths of many rare moves do not underflow."""
    return math.fsum(
        math.log(kernel.prob(y - x)) for c0, c1 in zip(columns, columns[1:]) for x, y in zip(c0, c1)
    )


def brute_law(spec, kernel, a, b, lam, times):
    """Exact joint law at the given times by path enumeration.  Path weights
    are taken in log space relative to the heaviest path, so steep tilts and
    rare moves whose raw weights underflow still give a law."""
    logs = [
        (tuple(cols[t - spec.m_left] for t in times), path_log_prob(cols, kernel) - hand_area(cols, a, b, lam))
        for cols, _ in iter_paths(spec, kernel)
    ]
    top = max(lw for _, lw in logs)
    acc: dict[tuple, float] = {}
    for key, lw in logs:
        acc[key] = acc.get(key, 0.0) + math.exp(lw - top)
    total = sum(acc.values())
    return {k: w / total for k, w in acc.items()}


def rng_instances(seed: int):
    return np.random.default_rng(seed)


def random_admissible_path(rng, n, x_max, width, kernel):
    """A randomly-grown admissible path (list of chamber tuples), or None
    if the growth stalls; used to build feasible bridge instances."""
    from ensembles import exact_engine as ee

    states = ee.enumerate_states(n, x_max)
    dense = ee.step_matrix(states, kernel).matrix.toarray()
    chamber = list(map(tuple, states.arr.tolist()))
    cur = int(rng.integers(0, states.size))
    cols = [chamber[cur]]
    for _ in range(width):
        nxt = np.nonzero(dense[cur] > 0)[0]
        if nxt.size == 0:
            return None
        cur = int(rng.choice(nxt))
        cols.append(chamber[cur])
    return cols


def chi_square_p(counts: np.ndarray, probs: np.ndarray) -> float:
    """Chi-square p-value with cells of expected count < 5 pooled; cells
    with exactly zero expectation are dropped (their observed counts are
    necessarily zero for a correct sampler and are asserted so)."""
    from scipy.stats import chisquare

    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    expected = np.asarray(probs, dtype=float) * total
    assert np.all(counts[expected == 0.0] == 0), "observed mass on zero-probability states"
    keep = expected >= 5
    f_obs = np.append(counts[keep], counts[~keep].sum())
    f_exp = np.append(expected[keep], expected[~keep].sum())
    if f_exp[-1] == 0.0:
        f_obs, f_exp = f_obs[:-1], f_exp[:-1]
    f_exp *= f_obs.sum() / f_exp.sum()
    return float(chisquare(f_obs, f_exp).pvalue)
