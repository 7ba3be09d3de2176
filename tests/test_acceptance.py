"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line with its
measured quantities and asserts the stated tolerance plus the declared
runtime budget.  Run with `pytest tests/test_acceptance.py -v -s` to see
the lines as they complete.
"""

import json
import time

import numpy as np
import pytest

from conftest import chi_square_p, random_admissible_path
from ensembles import analysis as an
from ensembles import brownian_oracle as bo
from ensembles import cli_io as cio
from ensembles import exact_engine as ee
from ensembles import gibbs_sampler as gs
from ensembles import model_core as mc

# tiny-cutoff instances legitimately carry mass near the cap
pytestmark = pytest.mark.filterwarnings(
    "ignore::ensembles.exact_engine.CutoffDominatedWarning"
)


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail} ({elapsed:.1f}s < {budget:.0f}s)")


def tilt_of(a=1.0, b=2.0, lam=1.0):
    return mc.TiltSpec(a=a, b=b, potential=mc.linear_potential(lam))


def test_01_gibbs_property_exact():
    budget = 10.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240801)
    kernels = [mc.simple_walk(), mc.lazy_walk(), mc.unit_walk()]
    worst = 0.0
    done = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        x_max = int(rng.integers(n + 2, 7))
        width = int(rng.integers(3, 7))
        kernel = kernels[int(rng.integers(0, len(kernels)))]
        lam = float(rng.uniform(0.2, 1.0))
        b = float(rng.uniform(1.0 + 1e-6, 4.0))
        path = random_admissible_path(rng, n, x_max, width, kernel)
        if path is None:
            continue
        gap_hi = min(width, 4 if n == 1 else 3)
        if gap_hi < 2:
            continue
        gap = int(rng.integers(2, gap_hi + 1))
        k0 = int(rng.integers(0, width - gap + 1))
        spec = mc.EnsembleSpec(
            n=n, m_left=0, n_right=width,
            boundary=mc.Bridge(u=tuple(path[0]), v=tuple(path[-1])), x_max=x_max,
        )
        res = ee.conditional_bridge_law(
            spec, kernel, tilt_of(b=b, lam=lam), k0, k0 + gap,
            (tuple(path[k0]), tuple(path[k0 + gap])),
        )
        worst = max(worst, res.diagnostic_tv)
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < budget
    _report(1, "gibbs-property", ok, f"instances={done} max_tv={worst:.3e}", elapsed, budget)
    assert worst <= 1e-10
    assert elapsed < budget


def test_02_exact_sampler_fidelity():
    budget = 30.0
    t0 = time.perf_counter()
    kernel = mc.unit_walk()
    tilt = tilt_of(lam=0.5)
    spec = mc.EnsembleSpec(
        n=1, m_left=0, n_right=4, boundary=mc.Bridge(u=(1,), v=(1,)),
        x_max=mc.default_x_max(0.5, 1),
    )
    samples = ee.exact_sample(spec, kernel, tilt, seed=42, count=100_000)
    res = ee.ensemble_messages(spec, kernel, tilt)
    ids = res.states.ids(samples.heights.transpose(0, 2, 1))  # (count, width)
    p_min = 1.0
    for t in spec.times:
        counts = np.bincount(ids[:, spec.col(t)], minlength=res.states.size)
        p = chi_square_p(counts, ee.marginal_from_messages(res, t).probs)
        p_min = min(p_min, p)
    elapsed = time.perf_counter() - t0
    ok = p_min > 0.001 and elapsed < budget
    _report(2, "exact-sampler-fidelity", ok, f"n={len(samples)} min_p={p_min:.4f}", elapsed, budget)
    assert p_min > 0.001
    assert elapsed < budget


def test_03_mcmc_correctness():
    budget = 120.0
    t0 = time.perf_counter()
    kernel = mc.unit_walk()
    tilt = tilt_of(lam=0.3)
    spec = mc.EnsembleSpec(
        n=1, m_left=-10, n_right=10, boundary=mc.Bridge(u=(1,), v=(1,)),
        x_max=mc.default_x_max(0.3, 1),
    )
    params = gs.McmcParams(
        block_len=8, overlap=4, sweeps=5000, burn_in=100, thin=2, seed=7, chains=100
    )
    samples, diags = gs.sample_paths(spec, kernel, tilt, params)
    assert all(s.column(-10) == (1,) and s.column(10) == (1,) for s in samples)
    taus = [v for v in diags.tau.values() if v is not None]
    ess = diags.kept / (2.0 * max(taus))
    res = ee.ensemble_messages(spec, kernel, tilt)
    counts = np.zeros(res.states.size)
    for s in samples:
        counts[res.states.id_of(s.column(0))] += 1
    tv = 0.5 * np.abs(counts / counts.sum() - ee.marginal_from_messages(res, 0).probs).sum()
    elapsed = time.perf_counter() - t0
    ok = ess >= 1e5 and tv <= 0.02 and elapsed < budget
    _report(3, "mcmc-correctness", ok, f"ess={ess:.0f} tv={tv:.4f}", elapsed, budget)
    assert ess >= 1e5
    assert tv <= 0.02
    assert elapsed < budget


def test_04_mixing_decay():
    budget = 60.0
    t0 = time.perf_counter()
    kernel = mc.unit_walk()
    tilt = tilt_of(lam=0.5)
    details = []
    ok = True
    for mode in ("walk", "bridge"):
        rep = an.mixing_curve(1, kernel, tilt, 1, [1, 2, 3, 4, 5, 6], (1,), (3,), mode=mode)
        tvs = [tv for _, tv in rep.points]
        strict = all(b < a for a, b in zip(tvs, tvs[1:]))
        ok = ok and strict and rep.r2 is not None and rep.r2 >= 0.9
        details.append(f"{mode}: c2={rep.c2:.3f} r2={rep.r2:.4f} strict={strict}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    _report(4, "mixing-decay", ok, "; ".join(details), elapsed, budget)
    assert ok
    assert elapsed < budget


def test_05_invariance_principle():
    budget = 300.0
    t0 = time.perf_counter()
    kernel = mc.unit_walk()
    rep = an.invariance_check(
        1, 1.0, [0.4, 0.2, 0.1], kernel, 1.0, 2.0,
        boundary="bridge", u_cont=(1.0,), dx=0.025,
    )
    dists = [d for _, d in rep.points]
    decreasing = all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    elapsed = time.perf_counter() - t0
    ok = decreasing and dists[-1] <= 0.08 and elapsed < budget
    _report(
        5, "invariance-principle", ok,
        "dists=" + ",".join(f"{d:.4f}" for d in dists), elapsed, budget,
    )
    assert decreasing
    assert dists[-1] <= 0.08
    assert elapsed < budget


def test_06_convergence_to_stationary():
    budget = 600.0
    t0 = time.perf_counter()
    kernel = mc.unit_walk()
    rep = an.convergence_to_mu(
        1, [0.5, 0.3, 0.2], kernel, 1.0, 2.0, boundary_mode="both", dx=0.05, u_top=3
    )
    walk = [e["walk"] for _, e in rep.points]
    bridge = [e["bridge"] for _, e in rep.points]
    dec_w = all(b <= a + 1e-12 for a, b in zip(walk, walk[1:]))
    dec_b = all(b <= a + 1e-12 for a, b in zip(bridge, bridge[1:]))
    gap = abs(walk[-1] - bridge[-1])
    elapsed = time.perf_counter() - t0
    ok = dec_w and dec_b and gap <= 0.05 and elapsed < budget
    _report(
        6, "convergence-to-mu_n", ok,
        f"walk={[round(x, 4) for x in walk]} bridge={[round(x, 4) for x in bridge]} gap={gap:.4f}",
        elapsed, budget,
    )
    assert dec_w and dec_b
    assert gap <= 0.05
    assert elapsed < budget


def test_07_dominance_and_sandwich():
    budget = 120.0
    t0 = time.perf_counter()
    violations = []

    def cdf(d):
        _, pmf = bo.top_curve_pmf(d)
        c = np.cumsum(pmf)
        return c / c[-1]

    for n, dx, cap in ((1, 0.1, 12.0), (2, 0.2, 8.0)):
        grid = bo.GridSpec(dx=dx, height_cap=cap, m_half=2.0)
        z = bo.polymer_marginal(n, 1.0, 2.0, grid, bo.ZeroBC(), 0.0)
        fr = bo.polymer_marginal(n, 1.0, 2.0, grid, bo.FreeRight(), 0.0)
        fb = bo.polymer_marginal(n, 1.0, 2.0, grid, bo.FreeBoth(), 0.0)
        violations.append(float(np.max(cdf(fr) - cdf(z))))
        violations.append(float(np.max(cdf(fb) - cdf(fr))))
        u = tuple(0.5 * (n - i) + 0.5 for i in range(n))
        u_hi = tuple(x + 1.0 for x in u)
        lo = bo.polymer_marginal(n, 1.0, 2.0, grid, bo.Fixed(u=u, v=u), 0.0)
        hi = bo.polymer_marginal(n, 1.0, 2.0, grid, bo.Fixed(u=u_hi, v=u_hi), 0.0)
        rep = an.dominance_check(bo.top_curve_pmf(lo)[1], bo.top_curve_pmf(hi)[1])
        violations.append(rep.max_violation)

    # exploratory lattice-side dominance: reported only, never gating
    kernel = mc.unit_walk()
    tilt = tilt_of(lam=0.4)
    pmfs = []
    for u in ((1,), (3,)):
        spec = mc.EnsembleSpec(
            n=1, m_left=-4, n_right=4, boundary=mc.Bridge(u=u, v=u),
            x_max=mc.default_x_max(0.4, 3),
        )
        pmfs.append(bo.top_curve_pmf(ee.marginal(spec, kernel, tilt, 0))[1])
    walk_side = an.dominance_check(pmfs[0], pmfs[1])

    worst = max(violations)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0 and elapsed < budget
    _report(
        7, "dominance-and-sandwich", ok,
        f"oracle_max_violation={worst:.3e}; walk-side (exploratory): "
        f"passed={walk_side.passed} margin={walk_side.max_violation:.3e}",
        elapsed, budget,
    )
    assert worst <= 0.0
    assert elapsed < budget


def test_08_partition_lower_bound():
    budget = 120.0
    t0 = time.perf_counter()
    kernel = mc.unit_walk()
    tilt = tilt_of(lam=0.5)
    details = []
    ok = True
    slopes = {}
    for n, w in ((1, (1.0,)), (2, (1.5, 0.7))):
        rep = an.log_partition_slope(n, w, kernel, tilt, [4.0, 8.0, 16.0, 32.0], eta=2.0)
        bounded = all(np.isfinite(d) for d in rep.second_diffs)
        ok = ok and bounded and rep.stability <= 0.10
        slopes[n] = rep.slope
        details.append(f"n={n}: slope={rep.slope:.4f} stability={rep.stability:.4f}")
    ok = ok and slopes[2] <= slopes[1]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    _report(8, "partition-lower-bound", ok, "; ".join(details), elapsed, budget)
    assert ok
    assert elapsed < budget


def test_09_good_blocks():
    budget = 300.0
    t0 = time.perf_counter()
    kernel = mc.unit_walk()
    pts = an.good_block_experiment(
        2, 0.2, kernel, 1.0, 2.0, window_halves=[20, 30, 40],
        eta=3.0, eps=0.1, pairs=150, seed=11,
    )
    densities = [p.mean_density for p in pts]
    tails = [p.tail_prob for p in pts]
    decreasing = all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))
    elapsed = time.perf_counter() - t0
    ok = min(densities) > 0 and decreasing and elapsed < budget
    _report(
        9, "good-blocks", ok,
        f"densities={[round(d, 3) for d in densities]} tails={[round(tp, 4) for tp in tails]}",
        elapsed, budget,
    )
    assert min(densities) > 0
    assert decreasing
    assert elapsed < budget


def test_10_determinism(tmp_path):
    budget = 300.0
    t0 = time.perf_counter()
    configs = {
        "exact": """\
experiment = exact
seed = 3
kernel.preset = unit
model.n = 2
model.a = 1.0
model.b = 2.0
model.lambda = 0.6
window.m_left = -2
window.n_right = 2
boundary.kind = bridge
boundary.u = 3,1
boundary.v = 3,1
engine.x_max = 12
""",
        "sample": """\
experiment = sample
seed = 9
kernel.preset = unit
model.n = 1
model.a = 1.0
model.b = 2.0
model.lambda = 0.5
window.m_left = -4
window.n_right = 4
boundary.kind = walk
boundary.u = 2
mcmc.sweeps = 50
mcmc.burn_in = 10
mcmc.chains = 4
""",
        "mixing": """\
experiment = mixing
seed = 5
kernel.preset = unit
model.n = 1
model.a = 1.0
model.b = 2.0
model.lambda = 0.5
mixing.t_lattice = 1
mixing.k_list = 1,2,3
mixing.u = 1
mixing.w = 3
mixing.mode = both
""",
        "invariance": """\
experiment = invariance
kernel.preset = unit
model.n = 1
model.a = 1.0
model.b = 2.0
invariance.lambda_list = 0.4,0.2
invariance.m_cont = 1.0
invariance.u = 1.0
oracle.dx = 0.05
""",
        "converge": """\
experiment = converge
kernel.preset = unit
model.n = 1
model.a = 1.0
model.b = 2.0
converge.lambda_list = 0.5,0.3
oracle.dx = 0.1
""",
        "dominance": """\
experiment = dominance
model.a = 1.0
model.b = 2.0
dominance.n = 1
dominance.u = 0.5
dominance.u_raised = 1.5
oracle.dx = 0.2
oracle.m = 1.0
""",
        "blocks": """\
experiment = blocks
seed = 2
kernel.preset = unit
model.n = 2
model.a = 1.0
model.b = 2.0
model.lambda = 0.2
blocks.windows = 8,12
blocks.eta = 3.0
blocks.eps = 0.1
blocks.pairs = 20
blocks.burn_in = 10
""",
        "slope": """\
experiment = slope
kernel.preset = unit
model.n = 1
model.a = 1.0
model.b = 2.0
model.lambda = 0.5
slope.t_list = 4.0,8.0,16.0
slope.w = 1.0
slope.eta = 2.0
""",
        "oracle": """\
experiment = oracle
model.a = 1.0
model.b = 2.0
oracle.n = 1
oracle.dx = 0.2
oracle.m = 1.0
""",
    }
    ok = True
    for name, text in configs.items():
        cfg = cio.parse_config(text)
        blobs = []
        for run_i, threads in ((0, 1), (1, 1), (2, 8)):
            out = tmp_path / f"{name}-{run_i}"
            cio.run(cfg, out, threads=threads)
            blob = b""
            for f in sorted(out.glob("*.csv")):
                blob += f.name.encode() + b"\0" + f.read_bytes()
            env = json.loads((out / "results.json").read_text())
            env.pop("timings")
            env.pop("threads")
            blobs.append((blob, json.dumps(env, sort_keys=True)))
        same = blobs[0] == blobs[1] == blobs[2]
        if not same:
            print(f"  determinism mismatch in experiment {name!r}")
        ok = ok and same
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    _report(10, "determinism", ok, f"experiments={list(configs)} runs=2 threads=1,8", elapsed, budget)
    assert ok
    assert elapsed < budget
