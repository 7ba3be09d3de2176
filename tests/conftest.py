"""Shared fixtures and the independent brute-force oracle.

The oracle enumerates every admissible path of the free product walk and
accumulates its weight from first principles (step probabilities times
the exponential of the hand-written area sum).  It never touches the
transfer-operator code paths it is used to check.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from ensembles import model_core as mc


def clear_library_caches() -> None:
    """Empty every ``functools`` cache in the ``ensembles`` modules, so the
    next call builds its chambers afresh."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("ensembles") and mod is not None:
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.fixture(autouse=True)
def cold_library_caches():
    """Every test starts from cold caches: a chamber cached under one
    ENSEMBLES_BUDGET must not hide the TooLarge a later test expects
    under a lower one."""
    clear_library_caches()


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


def combination_states(n: int, x_max: int) -> np.ndarray:
    """Reference enumeration: the combinations of x_max, ..., 1 come in
    reverse lexicographic order of the decreasing tuples, read backwards."""
    import itertools

    combos = itertools.combinations(range(x_max, 0, -1), n)
    return np.fromiter(combos, dtype=np.dtype((np.int64, n)), count=math.comb(x_max, n))[::-1].copy()


def searched_curve_factors(states, kernel: mc.Kernel):
    """Reference one-curve factors, built as ``exact_engine._curve_factors``
    documents them, with each stage's keys sorted and made unique and each
    row's sources found by binary search in the stage before.  A stage
    may be empty: in a one-state chamber whose state cannot move."""
    import scipy.sparse as sp

    n, x_max = states.n, states.x_max
    order = np.argsort(kernel.offsets)[::-1]
    offs, probs = np.array(kernel.offsets)[order], np.array(kernel.probs)[order]
    place = states.key(np.eye(n, dtype=np.int64))
    cur, factors = states.keys, []
    for k in range(n):
        nxt = states.keys
        if k < n - 1:
            here, below = cur // place[k] % (x_max + 1), cur // place[k + 1] % (x_max + 1) + offs[-1]
            above = cur // place[k - 1] % (x_max + 1) if k else x_max + 1
            ok = [(here + d >= 1) & (here + d < above) & (here + d > below) for d in offs]
            nxt = np.unique(np.concatenate([cur[m] + d * place[k] for m, d in zip(ok, offs)]))
        src = np.empty((nxt.size, offs.size), dtype=np.int32)
        valid = np.empty(src.shape, dtype=bool)
        moved = nxt // place[k] % (x_max + 1)
        padded = np.append(cur, -1)  # a key past the last column, or any key of an empty stage, finds -1
        for j, d in enumerate(offs):
            key = nxt - d * place[k]
            src[:, j] = np.searchsorted(cur, key)
            valid[:, j] = (moved - d >= 1) & (moved - d <= x_max) & (padded[src[:, j]] == key)
        indptr = np.concatenate(([0], np.cumsum(valid.sum(axis=1)))).astype(np.int32)
        data = np.broadcast_to(probs, src.shape)[valid]
        factors.append(sp.csr_matrix((data, src[valid], indptr), shape=(nxt.size, cur.size)))
        cur = nxt
    return tuple(factors)


def chain_ids(heights, spec: mc.EnsembleSpec) -> np.ndarray:
    """The (..., width) state ids of (..., n, width) heights, as a block
    sampler's chains hold them: ids on the states of the spec's cap, which
    name the same states on every smaller cap that holds them."""
    from ensembles import exact_engine as ee

    return ee.enumerate_states(spec.n, spec.x_max).ids(np.swapaxes(heights, -1, -2))


def chain_heights(ids, spec: mc.EnsembleSpec) -> np.ndarray:
    """The (..., n, width) heights of (..., width) state ids: the inverse of ``chain_ids``."""
    from ensembles import exact_engine as ee

    return np.ascontiguousarray(np.swapaxes(ee.enumerate_states(spec.n, spec.x_max).arr[ids], -1, -2))


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
