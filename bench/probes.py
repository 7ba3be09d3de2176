"""Layer probes: public library functions timed at fixed sizes.

Each per-step figure is the difference of two timings that share every
fixed cost (enumeration, operator build, message pass), divided by the
difference in work, so only the per-step cost remains.  Every timing
starts with cold library caches and is the median of up to ``REPEATS``
calls, fewer when the calls already took ``REPEAT_BUDGET_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from ensembles import brownian_oracle as bo
from ensembles import exact_engine as ee
from ensembles import gibbs_sampler as gs
from ensembles import model_core as mc

from workloads import clear_library_caches

REPEATS = 3
REPEAT_BUDGET_S = 0.5
UNIT = mc.unit_walk()


def _tilt(lam: float) -> mc.TiltSpec:
    return mc.TiltSpec(a=1.0, b=2.0, potential=mc.linear_potential(lam))


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    """Median wall time of cold calls, and the last result."""
    times = []
    while len(times) < REPEATS and sum(times) < REPEAT_BUDGET_S:
        clear_library_caches()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def per_unit(fn, sizes: tuple, units) -> float:
    """Extra time per unit of work between fn(sizes[0]) and fn(sizes[1])."""
    t = [timed(fn, s)[0] for s in sizes]
    return (t[1] - t[0]) / (units(sizes[1]) - units(sizes[0]))


def operator_counts(matrix) -> tuple[int, int]:
    """Nonzero entries, and entries one message step multiplies: S^2 when
    the operator is dense, nnz when it is sparse (computed, not timed)."""
    if isinstance(matrix, np.ndarray):
        return int(np.count_nonzero(matrix)), int(matrix.size)
    return int(matrix.nnz), int(matrix.nnz)


# (label, n, lambda, boundary, x_max): the exact_laws state spaces
MESSAGE_SPACES = (
    ("S2016", 2, 0.3, mc.Bridge(u=(3, 1), v=(3, 1)), 64),
    ("S2080", 2, 0.3, mc.Bridge(u=(3, 1), v=(3, 1)), 65),
    ("S14190", 3, 0.3, mc.Walk(u=(3, 2, 1)), 45),
)
MESSAGE_HALVES = (5, 30)  # window widths 11 and 61


def exact_engine_probes() -> dict:
    """Operator build time, nnz, and one forward plus one backward message
    step per column, at S on either side of the dense/sparse switch."""
    out = {}
    for label, n, lam, boundary, x_max in MESSAGE_SPACES:
        tilt = _tilt(lam)
        states = ee.enumerate_states(n, x_max)
        t, step = timed(ee.step_matrix, states, UNIT, tilt)
        nnz, madds = operator_counts(step.matrix)
        out[f"exact_engine.step_matrix_s.{label}"] = t
        out[f"exact_engine.nnz.{label}"] = nnz
        out[f"exact_engine.message_step_madds.{label}"] = madds

        def messages(half, n=n, boundary=boundary, x_max=x_max, tilt=tilt):
            spec = mc.EnsembleSpec(n=n, m_left=-half, n_right=half, boundary=boundary, x_max=x_max)
            return ee.ensemble_messages(spec, UNIT, tilt)

        out[f"exact_engine.message_step_s.{label}"] = per_unit(messages, MESSAGE_HALVES, lambda h: 2 * h)
    return out


# (label, n, lambda, boundary, half-window, x_max, path counts): ffbs_exact's spaces
FFBS_SPACES = (
    ("S66", 1, 0.5, mc.Bridge(u=(1,), v=(1,)), (0, 4), mc.default_x_max(0.5, 1), (500, 3000)),
    ("S780", 2, 0.5, mc.Bridge(u=(3, 1), v=(3, 1)), (-20, 20), 40, (100, 400)),
)


def ffbs_probes(seed: int) -> dict:
    """Time of one FFBS path draw, message pass excluded."""
    out = {}
    for label, n, lam, boundary, (m, nr), x_max, counts in FFBS_SPACES:
        spec = mc.EnsembleSpec(n=n, m_left=m, n_right=nr, boundary=boundary, x_max=x_max)
        tilt = _tilt(lam)
        out[f"exact_engine.ffbs_path_s.{label}"] = per_unit(
            lambda c: ee.exact_sample(spec, UNIT, tilt, seed=seed, count=c), counts, lambda c: c
        )
    return out


# (label, n, boundary, half-window, chains, sweep counts): gibbs_blocks' sample ops
CHAIN_SPACES = (
    ("n1", 1, mc.Bridge(u=(1,), v=(1,)), 10, 100, (10, 40)),
    ("n2", 2, mc.Walk(u=(2, 1)), 20, 32, (5, 20)),
)


def gibbs_probes(seed: int) -> dict:
    """Time of one block heat-bath sweep of one chain, set-up excluded."""
    out = {}
    tilt = _tilt(0.3)
    for label, n, boundary, half, chains, sweeps in CHAIN_SPACES:
        spec = mc.EnsembleSpec(
            n=n, m_left=-half, n_right=half, boundary=boundary,
            x_max=mc.default_x_max(0.3, boundary.u[0]),
        )

        def run(s, spec=spec, chains=chains):
            params = gs.McmcParams(block_len=8, overlap=4, sweeps=s, burn_in=0, seed=seed, chains=chains)
            return gs.sample_paths(spec, UNIT, tilt, params)

        out[f"gibbs_sampler.chain_sweep_s.{label}"] = per_unit(run, sweeps, lambda s: chains * s)
    return out


# (label, n, dx, half-widths for the two polymer passes): polymer_oracle's grids
ORACLE_SPACES = (
    ("S700", 1, 0.05, (0.5, 2.0)),
    ("S17955", 2, 0.2, (0.5, 1.5)),
)


def oracle_probes() -> dict:
    """Stationary eigenpair time, and one forward plus one backward polymer
    step, on the chamber grids of converge-n1 and oracle-n2."""
    out = {}
    for label, n, dx, halves in ORACLE_SPACES:
        cap = bo.default_height_cap(1.0, n)
        grid = bo.GridSpec(dx=dx, height_cap=cap, m_half=1.0)
        out[f"brownian_oracle.eigenpair_s.{label}"] = timed(bo.stationary_density, n, 1.0, 2.0, grid)[0]

        def polymer(m_half, n=n, dx=dx, cap=cap):
            g = bo.GridSpec(dx=dx, height_cap=cap, m_half=m_half)
            return bo.polymer_marginal(n, 1.0, 2.0, g, bo.ZeroBC(), 0.0)

        steps = lambda m_half, dx=dx, cap=cap: bo.GridSpec(dx=dx, height_cap=cap, m_half=m_half).n_steps
        out[f"brownian_oracle.polymer_step_s.{label}"] = per_unit(polymer, halves, steps)
    return out


def run_probes(seed: int) -> dict:
    return {**exact_engine_probes(), **ffbs_probes(seed), **gibbs_probes(seed), **oracle_probes()}


PROBE_NAMES = (
    [f"exact_engine.{k}.{s[0]}" for k in ("step_matrix_s", "nnz", "message_step_s", "message_step_madds")
     for s in MESSAGE_SPACES]
    + [f"exact_engine.ffbs_path_s.{s[0]}" for s in FFBS_SPACES]
    + [f"gibbs_sampler.chain_sweep_s.{s[0]}" for s in CHAIN_SPACES]
    + [f"brownian_oracle.{k}.{s[0]}" for k in ("eigenpair_s", "polymer_step_s") for s in ORACLE_SPACES]
)
