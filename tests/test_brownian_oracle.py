import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
        d = states.arr[j] - states.arr[i]
        if np.all(np.abs(d) <= bo.STENCIL_REACH):
            g[i, j] = np.prod(w[d + bo.STENCIL_REACH])
    return g


def applied_matrix(n, n_sites):
    """States and the killed step as a dense matrix, one applied column each."""
    states, g = bo._killed_step(n, n_sites)
    return states, np.column_stack([g @ e for e in np.eye(states.size)])


class TestKilledStep:
    @pytest.mark.parametrize("n,n_sites", [(1, 20), (2, 15), (3, 11)])
    def test_apply_matches_dense_definition(self, n, n_sites):
        states, applied = applied_matrix(n, n_sites)
        assert np.allclose(applied, killed_stencil_matrix(states), rtol=1e-13, atol=1e-16)

    def test_full_log_step_uses_the_factors_as_they_are(self, monkeypatch):
        # the oracle-n2 grid: n = 2 on 190 sites, S = 17955
        states, g = bo._killed_step(2, 190)
        rng = np.random.default_rng(5)
        log_v = rng.normal(size=states.size) * 30.0
        log_v[rng.random(states.size) < 0.1] = -np.inf
        selected = g.log_rows(np.arange(states.size), log_v)
        indexed = []
        monkeypatch.setattr(type(g[0]), "__getitem__", lambda mat, key: indexed.append(key))
        assert g.log_rows(slice(None), log_v).tobytes() == selected.tobytes()
        assert indexed == []

    def test_one_grid_enumerates_its_chamber_once(self, monkeypatch):
        calls, built = [], []
        real, build = ee.enumerate_states, ee._curve_factors
        monkeypatch.setattr(ee, "enumerate_states", lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(ee, "_curve_factors", lambda states, kernel: built.append(states.size) or build(states, kernel))
        grid = bo.GridSpec(dx=0.25, height_cap=5.0, m_half=0.25)
        bo.stationary_density(2, 1.0, 2.0, grid)
        bo.zero_bc_extrapolate(2, 1.0, 2.0, grid)
        assert calls == [(2, 20)]
        assert built == [190]

    def test_factors_over_budget_raise_before_any_matvec(self, monkeypatch):
        # C(40, 2) = 780 states and the 41^2 = 1681-entry key table fit a budget of 5000;
        # 13 taps x (stage-1 + 780) rows do not
        monkeypatch.setenv("ENSEMBLES_BUDGET", "5000")
        applied = []
        monkeypatch.setattr(ee._Chain, "__matmul__", lambda chain, v: applied.append(v))
        grid = bo.GridSpec(dx=0.25, height_cap=10.0, m_half=0.25)
        assert grid.n_sites == 40
        with pytest.raises(ee.TooLarge, match="one-curve factors"):
            bo.stationary_density(2, 1.0, 2.0, grid)
        assert applied == []

    def test_cap_below_curve_count_raises(self):
        grid = bo.GridSpec(dx=0.5, height_cap=1.0, m_half=0.25)
        assert grid.n_sites == 2
        with pytest.raises(ValueError, match="height cap too small"):
            bo.stationary_density(3, 1.0, 2.0, grid)
        with pytest.raises(ValueError, match="height cap too small"):
            bo.polymer_marginal(3, 1.0, 2.0, grid, bo.ZeroBC(), 0.0)


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


def normalized(log_w):
    p = np.exp(log_w - log_w.max())
    return p / p.sum()


class TestHalfPasses:
    GRID = bo.GridSpec(dx=0.25, height_cap=5.0, m_half=0.5)  # 16 steps
    MODES = {
        "zero_bc": bo.ZeroBC(),
        "bridge": bo.Fixed(u=(1.0, 0.5), v=(2.0, 1.0)),
        "walk": bo.Fixed(u=(1.5, 0.25)),
        "free_right": bo.FreeRight(),
        "free_both": bo.FreeBoth(),
    }

    @staticmethod
    def full_messages(n, a, b, grid, boundary):
        """(n_steps + 1) x S log messages from the dense G and log_mat_vec."""
        states = ee.enumerate_states(n, grid.n_sites)
        g = killed_stencil_matrix(states)
        lt = bo._tilt_log_vector(states, a, b, grid.dx)
        f0, bT = bo._boundary_vectors(n, grid, boundary, states)
        steps = grid.n_steps
        fwd, bwd = [f0], [bT]
        for _ in range(steps):
            fwd.append(la.log_mat_vec(g, 0.0, fwd[-1] + lt))
            bwd.append(la.log_mat_vec(g, lt, bwd[-1]))
        return np.array(fwd), np.array(bwd[::-1])

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_match_full_length_reference(self, mode):
        n, a, b, grid = 2, 1.0, 2.0, self.GRID
        boundary = self.MODES[mode]
        fwd, bwd = self.full_messages(n, a, b, grid, boundary)
        for j in sorted({0, 1, grid.n_steps // 2, grid.n_steps}):
            _, f, bk = bo._polymer_messages(n, a, b, grid, boundary, j)
            for got, ref in ((f, fwd[j]), (bk, bwd[j])):
                assert np.array_equal(np.isfinite(got), np.isfinite(ref))
                assert np.abs(normalized(got) - normalized(ref)).max() < 1e-12
                assert la.logsumexp(got) == pytest.approx(la.logsumexp(ref), rel=1e-12, abs=1e-10)

    def test_zero_mass_is_neg_inf(self):
        assert np.all(bo._scaled_pass(lambda v: 0.0 * v, np.zeros(4), 3) == -np.inf)
        assert np.all(bo._scaled_pass(lambda v: v, np.full(4, -np.inf), 3) == -np.inf)

    def test_marginal_peak_memory_is_a_few_vectors(self):
        # full-length message arrays would hold 2 x 3201 x 1400 doubles, about 72 MB
        grid = bo.GridSpec(dx=0.025, height_cap=bo.default_height_cap(1.0, 1), m_half=1.0)
        assert (grid.n_sites, grid.n_steps) == (1400, 3200)
        tracemalloc.start()
        try:
            bo.polymer_marginal(1, 1.0, 2.0, grid, bo.ZeroBC(), 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("t", [0.0, -0.25, 0.5])
    def test_shared_passes_give_each_mode_its_own_law(self, t, monkeypatch):
        # the laws of all five modes, and of two mirrored Fixed ones, from one dict of half passes:
        # "walk" (free right end), FreeRight and FreeBoth run one backward half of n_steps - j steps;
        # FreeRight reuses ZeroBC's forward half of j steps, and "bridge" that of Fixed(u, u) from the
        # same u, which at these times (j <= n_steps - j, or n_steps - j = 0) mirror a j-step forward
        grid = self.GRID
        modes = [*self.MODES.values(), bo.Fixed(u=(1.0, 0.5), v=(1.0, 0.5)), bo.Fixed(u=(2.0, 1.5), v=(2.0, 1.5))]
        steps, scaled = [], bo._scaled_pass
        monkeypatch.setattr(bo, "_scaled_pass", lambda step, v, k: steps.append(k) or scaled(step, v, k))
        alone = [bo.polymer_marginal(2, 1.0, 2.0, grid, mode, t) for mode in modes]
        alone_steps, passes = sum(steps), {}
        steps.clear()
        shared = [bo.polymer_marginal(2, 1.0, 2.0, grid, mode, t, passes) for mode in modes]
        for one, other in zip(alone, shared):
            assert one.log_weights.tobytes() == other.log_weights.tobytes()
        # two backward halves of n_steps - j steps and two forward halves of j steps are not run again
        assert len(steps) == len(passes) and sum(steps) == alone_steps - 2 * grid.n_steps


class TestMirroredHalfPass:
    """Equal one-hot ends (ZeroBC, Fixed(u, u)) run one half pass and
    mirror it; every other boundary keeps the two-pass route."""

    @staticmethod
    def two_pass(n, a, b, grid, boundary, j):
        states, g = bo._killed_step(n, grid.n_sites)
        tilt = np.exp(bo._tilt_log_vector(states, a, b, grid.dx))
        f0, bT = bo._boundary_vectors(n, grid, boundary, states)
        fwd = bo._scaled_pass(lambda v: g @ (v * tilt), f0, j)
        bwd = bo._scaled_pass(lambda v: (g @ v) * tilt, bT, grid.n_steps - j)
        return fwd, bwd

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("boundary", [bo.ZeroBC(), bo.Fixed(u=(1.5, 0.5), v=(1.5, 0.5))], ids=["zero", "fixed"])
    @pytest.mark.parametrize(
        "steps,t,j",  # round() sends 8.5 to 8 and 9.5 to 10: j below and above steps - j at t = 0
        [(17, 0.0, 8), (19, 0.0, 10), (17, -0.25, 4), (17, 0.25, 12), (19, -0.5, 2), (19, 0.5, 18)],
    )
    def test_match_two_pass_reference(self, n, boundary, steps, t, j):
        if isinstance(boundary, bo.Fixed):
            boundary = bo.Fixed(u=boundary.u[:n], v=boundary.v[:n])
        grid = bo.GridSpec(dx=0.25, height_cap=4.0, m_half=steps * 0.0625 / 2)
        assert grid.n_steps == steps and bo._time_index(grid, t) == j
        fwd, bwd = self.two_pass(n, 1.0, 2.0, grid, boundary, j)
        _, f, bk = bo._polymer_messages(n, 1.0, 2.0, grid, boundary, j)
        for got, ref in ((f, fwd), (bk, bwd)):
            assert np.array_equal(np.isfinite(got), np.isfinite(ref))
            assert np.abs(normalized(got) - normalized(ref)).max() < 1e-12
            assert la.logsumexp(got) == pytest.approx(la.logsumexp(ref), rel=1e-12)
        law = bo.polymer_marginal(n, 1.0, 2.0, grid, boundary, t)
        assert np.abs(law.probs - normalized(fwd + bwd)).max() < 1e-12

    def test_distinct_ends_run_two_passes(self, monkeypatch):
        grid = bo.GridSpec(dx=0.25, height_cap=4.0, m_half=17 * 0.0625 / 2)
        steps = []
        scaled = bo._scaled_pass
        monkeypatch.setattr(bo, "_scaled_pass", lambda step, v, k: steps.append(k) or scaled(step, v, k))
        for boundary in (bo.FreeBoth(), bo.Fixed(u=(1.5,), v=(1.0,)), bo.ZeroBC()):
            steps.clear()
            bo._polymer_messages(1, 1.0, 2.0, grid, boundary, 5)
            assert sum(steps) == (17 if not isinstance(boundary, bo.ZeroBC) else 12)


@st.composite
def steep_polymer_cases(draw):
    """Steep tilts over tall caps on a coarse grid: one step's log tilt
    spans up to a * dx^2 * cap * (1 + b), hundreds of nats, so the scaled
    passes flush most of each message."""
    n = draw(st.integers(1, 2))
    dx = draw(st.sampled_from([0.25, 0.5])) if n == 1 else 0.5
    cap = draw(st.floats(6.0, 12.0))
    steps = draw(st.integers(2, 30))
    grid = bo.GridSpec(dx=dx, height_cap=cap, m_half=steps * dx * dx / 2)
    point = st.lists(st.floats(dx, 0.9 * cap), min_size=n, max_size=n)
    u, v = tuple(draw(point)), tuple(draw(point))
    boundary = draw(
        st.sampled_from([bo.ZeroBC(), bo.Fixed(u=u, v=u), bo.Fixed(u=u, v=v), bo.Fixed(u=u), bo.FreeRight()])
    )
    a, b = draw(st.floats(30.0, 300.0)), draw(st.floats(1.1, 3.0))
    return n, a, b, grid, boundary, draw(st.integers(0, grid.n_steps))


class TestSteepHalfPasses:
    @staticmethod
    def log_space_messages(n, a, b, grid, boundary, j):
        """Forward and backward messages at step j summed in exact log space."""
        states, g = applied_matrix(n, grid.n_sites)
        with np.errstate(divide="ignore"):
            log_g = np.log(g)
        lt = bo._tilt_log_vector(states, a, b, grid.dx)
        fwd, bwd = bo._boundary_vectors(n, grid, boundary, states)
        for _ in range(j):
            fwd = la.logsumexp(log_g + (fwd + lt)[:, None], axis=0)
        for _ in range(grid.n_steps - j):
            bwd = lt + la.logsumexp(log_g + bwd[None, :], axis=1)
        return fwd, bwd

    @staticmethod
    def check(case, ref_f, ref_b):
        _, f, bk = bo._polymer_messages(*case)
        for got, ref in ((f, ref_f), (bk, ref_b)):
            # a scaled pass keeps every entry within ~708 nats of the top at
            # full precision; those beyond may be subnormal or dropped
            normal = ref > ref.max() - 700.0
            assert np.abs(got[normal] - ref[normal]).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        # no state that holds mass in the marginal was among them
        p, p_ref = normalized(f + bk), normalized(ref_f + ref_b)
        assert np.abs(p - p_ref).max() < 1e-12
        held = p_ref > 1e-200
        assert np.abs(p[held] / p_ref[held] - 1.0).max() < 1e-9

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(steep_polymer_cases())
    def test_no_mass_lost_at_steep_tilt(self, case):
        ref_f, ref_b = self.log_space_messages(*case)
        assume(np.isfinite(np.max(ref_f + ref_b)))  # the ends can meet
        self.check(case, ref_f, ref_b)

    @pytest.mark.parametrize(
        "n,a,b,grid,boundary,j",
        [
            # the marginal of a high bridge lives where the backward pass flushed
            (1, 242.0, 2.0, bo.GridSpec(0.5, 9.25, 3.625), bo.Fixed(u=(8.25,), v=(8.25,)), 1),
            # the free end's backward pass flushes every state the forward reaches
            (2, 241.0, 2.95, bo.GridSpec(0.5, 11.75, 6.75), bo.Fixed(u=(9.75, 3.75)), 5),
        ],
        ids=["bridge_high", "walk_high"],
    )
    def test_flushed_messages_redone(self, n, a, b, grid, boundary, j):
        case = (n, a, b, grid, boundary, j)
        self.check(case, *self.log_space_messages(*case))


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
        d = bo.polymer_marginal(1, 1.0, 2.0, grid, bo.FreeBoth(), 0.0)
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
    def test_tower_property(self):
        # FreeBoth at t=0 equals the rho-mixture of normalized
        # FreeRight-from-s laws, rho the FreeBoth marginal at -M
        n, a, b = 1, 1.0, 2.0
        grid = bo.GridSpec(dx=0.1, height_cap=8.0, m_half=1.0)
        k = grid.n_steps // 2
        states, fwd0, bwd0 = bo._polymer_messages(n, a, b, grid, bo.FreeBoth(), 0)
        _, fwdk, bwdk = bo._polymer_messages(n, a, b, grid, bo.FreeBoth(), k)
        rho = np.exp(fwd0 + bwd0 - (fwd0 + bwd0).max())
        rho /= rho.sum()
        with np.errstate(divide="ignore"):
            f = np.log(rho) - bwd0
        g = applied_matrix(n, grid.n_sites)[1]
        lt = bo._tilt_log_vector(states, a, b, grid.dx)
        for _ in range(k):
            f = log_vec_mat(f, g, lt)
        mix = ee.Distribution(space=grid.space_key(n), log_weights=f + bwdk)
        both = ee.Distribution(space=grid.space_key(n), log_weights=fwdk + bwdk)
        assert ee.tv_exact(mix, both) <= 1e-9

    def test_sandwich_ordering_exact(self):
        for n, dx, cap in ((1, 0.1, 10.0), (2, 0.2, 8.0)):
            grid = bo.GridSpec(dx=dx, height_cap=cap, m_half=1.5)
            z = bo.polymer_marginal(n, 1.0, 2.0, grid, bo.ZeroBC(), 0.0)
            fr = bo.polymer_marginal(n, 1.0, 2.0, grid, bo.FreeRight(), 0.0)
            fb = bo.polymer_marginal(n, 1.0, 2.0, grid, bo.FreeBoth(), 0.0)
            assert np.max(cdf_top(fr) - cdf_top(z)) <= 0.0
            assert np.max(cdf_top(fb) - cdf_top(fr)) <= 0.0

    def test_raised_boundary_dominates_exactly(self):
        for n, u, u_hi in ((1, (0.5,), (1.5,)), (2, (1.0, 0.4), (2.0, 1.2))):
            grid = bo.GridSpec(dx=0.2, height_cap=9.0, m_half=1.5)
            lo = bo.polymer_marginal(n, 1.0, 2.0, grid, bo.Fixed(u=u, v=u), 0.0)
            hi = bo.polymer_marginal(n, 1.0, 2.0, grid, bo.Fixed(u=u_hi, v=u_hi), 0.0)
            assert np.max(cdf_top(hi) - cdf_top(lo)) <= 0.0
