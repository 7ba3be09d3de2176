import itertools

import numpy as np
import pytest

import ensembles._linalg as la
from ensembles import brownian_oracle as bo
from ensembles import exact_engine as ee


def cdf_top(dist):
    _, pmf = bo.top_curve_pmf(dist)
    c = np.cumsum(pmf)
    return c / c[-1]


def log_vec_mat(log_f, mat, log_row_tilt):
    """Reference forward step: log of (exp(log_f + tilt) @ mat) for a dense mat."""
    g = log_f + log_row_tilt
    c = np.max(g)
    if not np.isfinite(c):
        return np.full_like(g, -np.inf)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(g - c) @ mat) + c


def killed_stencil_matrix(states):
    """Dense killed step from its definition: G(s, s') is the product of
    the normalized stencil weights of s' - s, for s, s' both in the chamber."""
    offs = np.arange(-bo.STENCIL_REACH, bo.STENCIL_REACH + 1)
    w = np.exp(-0.5 * offs**2)
    w /= w.sum()
    g = np.zeros((states.size, states.size))
    for i, j in itertools.product(range(states.size), repeat=2):
        d = np.array(states.states[j]) - np.array(states.states[i])
        if np.all(np.abs(d) <= bo.STENCIL_REACH):
            g[i, j] = np.prod(w[d + bo.STENCIL_REACH])
    return g


class TestKilledStep:
    @pytest.mark.parametrize("n,n_sites", [(1, 20), (2, 15), (3, 11)])
    def test_apply_matches_dense_definition(self, n, n_sites):
        states, g = bo._killed_step(n, n_sites)
        applied = g @ np.eye(states.size)
        assert np.allclose(applied, killed_stencil_matrix(states), rtol=1e-13, atol=1e-16)


class TestGridSpec:
    def test_diffusive_coupling_exact(self):
        g = bo.GridSpec(dx=0.1, height_cap=5.0, m_half=2.0)
        assert g.dt == 0.1 * 0.1
        assert g.n_sites == 50
        assert g.n_steps == 400

    def test_validation(self):
        with pytest.raises(ValueError):
            bo.GridSpec(dx=0.0, height_cap=5.0, m_half=1.0)
        with pytest.raises(ValueError):
            bo.GridSpec(dx=0.5, height_cap=0.5, m_half=1.0)


class TestSnap:
    def test_rounds_and_repairs_order(self):
        assert bo.snap_to_chamber((1.0,), 0.1, 50) == (10,)
        assert bo.snap_to_chamber((0.52, 0.5), 0.1, 50) == (6, 5)
        assert bo.snap_to_chamber((0.01, 0.001), 0.1, 50) == (2, 1)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            bo.snap_to_chamber((10.0,), 0.1, 50)


class TestScalarEquivalence:
    def test_matches_independent_scalar_chain(self):
        # n = 1 must reduce to a plain scalar forward-backward pass
        a, dx, m_half = 1.3, 0.1, 1.0
        grid = bo.GridSpec(dx=dx, height_cap=6.0, m_half=m_half)
        d = bo.polymer_marginal(1, a, 2.0, grid, bo.ZeroBC(), 0.0)

        n_sites = grid.n_sites
        reach = 6
        offs = np.arange(-reach, reach + 1)
        w = np.exp(-0.5 * offs**2)
        w /= w.sum()
        g = np.zeros((n_sites, n_sites))
        for o, pw in zip(offs, w):
            src = np.arange(n_sites)
            tgt = src + o
            ok = (tgt >= 0) & (tgt < n_sites)
            g[src[ok], tgt[ok]] += pw
        sites = np.arange(1, n_sites + 1)
        lt = -(a * sites * dx) * dx * dx
        steps = grid.n_steps
        f = np.full(n_sites, -np.inf)
        f[0] = 0.0
        for _ in range(steps // 2):
            f = log_vec_mat(f, g, lt)
        b = np.full(n_sites, -np.inf)
        b[0] = 0.0
        for _ in range(steps - steps // 2):
            b = la.log_mat_vec(g, lt, b)
        lw = f + b
        p_ref = np.exp(lw - lw.max())
        p_ref /= p_ref.sum()
        assert np.abs(d.probs - p_ref).max() < 1e-12


class TestPolymerMarginal:
    def test_time_reversal_symmetry(self):
        grid = bo.GridSpec(dx=0.1, height_cap=8.0, m_half=1.0)
        d1 = bo.polymer_marginal(1, 1.0, 2.0, grid, bo.Fixed(u=(1.0,), v=(1.0,)), 0.5)
        d2 = bo.polymer_marginal(1, 1.0, 2.0, grid, bo.Fixed(u=(1.0,), v=(1.0,)), -0.5)
        assert np.abs(d1.probs - d2.probs).max() < 1e-12

    def test_normalized_and_positive_support(self):
        grid = bo.GridSpec(dx=0.2, height_cap=8.0, m_half=1.0)
        d = bo.polymer_marginal(2, 1.0, 2.0, grid, bo.ZeroBC(), 0.25)
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-10)
        sites, pmf = bo.top_curve_pmf(d)
        assert sites[0] == 1  # support starts strictly above the wall

    def test_wall_mass_shrinks_with_dx(self):
        masses = []
        for dx in (0.2, 0.1, 0.05):
            grid = bo.GridSpec(dx=dx, height_cap=8.0, m_half=1.0)
            d = bo.polymer_marginal(1, 1.0, 2.0, grid, bo.ZeroBC(), 0.0)
            _, pmf = bo.top_curve_pmf(d)
            masses.append(pmf[0])  # mass within dx of the wall
        assert masses[0] > masses[1] > masses[2]

    def test_refinement_moves_mean_by_under_two_percent(self):
        means = []
        for dx in (0.1, 0.05):
            grid = bo.GridSpec(dx=dx, height_cap=36.0, m_half=2.0)
            d = bo.polymer_marginal(1, 1.0, 2.0, grid, bo.ZeroBC(), 0.0)
            sites, pmf = bo.top_curve_pmf(d)
            means.append(float((sites * dx * pmf).sum()))
        assert abs(means[1] - means[0]) <= 0.02 * abs(means[0])

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("ENSEMBLES_BUDGET", "50")
        grid = bo.GridSpec(dx=0.05, height_cap=20.0, m_half=2.0)
        with pytest.raises(ee.TooLarge):
            bo.polymer_marginal(1, 1.0, 2.0, grid, bo.ZeroBC(), 0.0)

    def test_budget_counts_stencil_multiply_adds(self):
        # box cells x 13 taps x n axes x steps, against 20 x the 5e7 default
        cap = bo.default_height_cap(1.0, 2)
        big = bo.GridSpec(dx=0.1, height_cap=cap, m_half=2.0)
        fits = bo.GridSpec(dx=0.1, height_cap=cap, m_half=1.0)
        with pytest.raises(ee.TooLarge, match=r"1\.5e\+09"):  # 380^2 x 13 x 2 x 400
            bo.check_polymer_budget(2, big)
        bo.check_polymer_budget(2, fits)  # 7.5e8


class TestZeroBcExtrapolate:
    def test_cauchy_contraction_and_direction_independence(self):
        grid = bo.GridSpec(dx=0.1, height_cap=10.0, m_half=2.0)
        law = bo.zero_bc_extrapolate(1, 1.0, 2.0, grid)
        d = law.diagnostics
        assert d["tv_eps4_eps2"] >= d["tv_eps2_eps1"]
        assert d["tv_direction"] <= 0.02


class TestStationaryDensity:
    def test_positive_unimodal_normalized(self):
        grid = bo.GridSpec(dx=0.1, height_cap=10.0, m_half=1.0)
        st = bo.stationary_density(1, 1.0, 2.0, grid)
        sites, pmf = bo.top_curve_pmf(st)
        assert st.probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(st.probs >= 0.0)
        peak = int(np.argmax(pmf))
        assert pmf[0] < 0.05 * pmf[peak]  # vanishes at the wall
        diffs = np.sign(np.diff(pmf[pmf > 1e-300]))
        assert np.count_nonzero(np.diff(diffs) != 0) <= 1  # unimodal

    def test_large_time_marginal_approaches_stationary(self):
        grid_ref = bo.GridSpec(dx=0.1, height_cap=12.0, m_half=1.0)
        st = bo.stationary_density(1, 1.0, 2.0, grid_ref)
        tvs = []
        for m in (1.0, 2.0, 4.0):
            grid = bo.GridSpec(dx=0.1, height_cap=12.0, m_half=m)
            d = bo.polymer_marginal(1, 1.0, 2.0, grid, bo.ZeroBC(), 0.0)
            tvs.append(0.5 * np.abs(d.probs - st.probs).sum())
        assert tvs[0] > tvs[1] > tvs[2]
        assert tvs[-1] <= 0.02

    def test_free_both_large_time_matches_stationary(self):
        grid = bo.GridSpec(dx=0.1, height_cap=12.0, m_half=4.0)
        st = bo.stationary_density(1, 1.0, 2.0, grid)
        d = bo.free_marginal(1, 1.0, 2.0, grid, bo.FreeBoth(), 0.0)
        assert 0.5 * np.abs(d.probs - st.probs).sum() <= 0.02

    def test_matches_dense_eigh(self):
        n, a, b = 2, 1.0, 2.0
        grid = bo.GridSpec(dx=0.25, height_cap=5.0, m_half=1.0)
        st = bo.stationary_density(n, a, b, grid)
        states = st.meta["states"]
        half = np.exp(0.5 * bo._tilt_log_vector(states, a, b, grid.dx))
        sym = half[:, None] * killed_stencil_matrix(states) * half[None, :]
        _, vecs = np.linalg.eigh(sym)
        ref = vecs[:, -1] ** 2
        assert np.abs(st.probs - ref / ref.sum()).max() < 1e-10
        assert st.meta["residual"] <= 1e-10
        assert st.meta["matvecs"] > 0

    def test_no_convergence_raises(self):
        grid = bo.GridSpec(dx=0.1, height_cap=10.0, m_half=1.0)
        with pytest.raises(bo.NoConvergence):
            bo.stationary_density(1, 1.0, 2.0, grid, tol=1e-12, max_iter=2)

    def test_top_k_trend_in_curve_count(self):
        # top-curve stationary marginals stabilize as n grows
        grid = bo.GridSpec(dx=0.25, height_cap=6.0, m_half=1.0)
        tops = {}
        for n in (1, 2, 3):
            st = bo.stationary_density(n, 1.0, 2.0, grid)
            tops[n] = bo.top_curve_pmf(st)[1]
        tv12 = 0.5 * np.abs(tops[1] - tops[2]).sum()
        tv23 = 0.5 * np.abs(tops[2] - tops[3]).sum()
        assert tv23 < tv12


class TestFreeMarginal:
    def test_mode_type_checked(self):
        grid = bo.GridSpec(dx=0.2, height_cap=6.0, m_half=1.0)
        with pytest.raises(TypeError):
            bo.free_marginal(1, 1.0, 2.0, grid, bo.ZeroBC(), 0.0)

    def test_tower_property(self):
        # FreeBoth at t=0 equals the rho-mixture of normalized
        # FreeRight-from-s laws, rho the FreeBoth marginal at -M
        n, a, b = 1, 1.0, 2.0
        grid = bo.GridSpec(dx=0.1, height_cap=8.0, m_half=1.0)
        states, fwd, bwd = bo._polymer_messages(n, a, b, grid, bo.FreeBoth())
        rho = np.exp(fwd[0] + bwd[0] - (fwd[0] + bwd[0]).max())
        rho /= rho.sum()
        k = grid.n_steps // 2
        with np.errstate(divide="ignore"):
            f = np.log(rho) - bwd[0]
        g = bo._killed_step(n, grid.n_sites)[1] @ np.eye(states.size)
        lt = bo._tilt_log_vector(states, a, b, grid.dx)
        for _ in range(k):
            f = log_vec_mat(f, g, lt)
        mix = ee.Distribution(space=grid.space_key(n), log_weights=f + bwd[k])
        both = ee.Distribution(space=grid.space_key(n), log_weights=fwd[k] + bwd[k])
        assert ee.tv_exact(mix, both) <= 1e-9

    def test_sandwich_ordering_exact(self):
        for n, dx, cap in ((1, 0.1, 10.0), (2, 0.2, 8.0)):
            grid = bo.GridSpec(dx=dx, height_cap=cap, m_half=1.5)
            z = bo.polymer_marginal(n, 1.0, 2.0, grid, bo.ZeroBC(), 0.0)
            fr = bo.free_marginal(n, 1.0, 2.0, grid, bo.FreeRight(), 0.0)
            fb = bo.free_marginal(n, 1.0, 2.0, grid, bo.FreeBoth(), 0.0)
            assert np.max(cdf_top(fr) - cdf_top(z)) <= 0.0
            assert np.max(cdf_top(fb) - cdf_top(fr)) <= 0.0

    def test_raised_boundary_dominates_exactly(self):
        for n, u, u_hi in ((1, (0.5,), (1.5,)), (2, (1.0, 0.4), (2.0, 1.2))):
            grid = bo.GridSpec(dx=0.2, height_cap=9.0, m_half=1.5)
            lo = bo.polymer_marginal(n, 1.0, 2.0, grid, bo.Fixed(u=u, v=u), 0.0)
            hi = bo.polymer_marginal(n, 1.0, 2.0, grid, bo.Fixed(u=u_hi, v=u_hi), 0.0)
            assert np.max(cdf_top(hi) - cdf_top(lo)) <= 0.0
