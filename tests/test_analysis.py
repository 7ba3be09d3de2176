import math

import numpy as np
import pytest

from ensembles import analysis as an
from ensembles import brownian_oracle as bo
from ensembles import exact_engine as ee
from ensembles import model_core as mc


def tilt_of(a=1.0, b=2.0, lam=1.0):
    return mc.TiltSpec(a=a, b=b, potential=mc.linear_potential(lam))


class TestBinning:
    def test_lattice_points_land_in_their_cells(self):
        vals = np.array([0.5, 1.0, 1.5])
        pmf = np.array([0.2, 0.3, 0.5])
        out = an.binned_pmf(vals, pmf, width=0.5, n_bins=5)
        assert np.allclose(out, [0, 0.2, 0.3, 0.5, 0])

    def test_tv_and_sup_cdf_zero_on_identical_input(self):
        vals = np.arange(1, 6) * 0.3
        pmf = np.full(5, 0.2)
        assert an.binned_tv(vals, pmf, vals, pmf, 0.3) == 0.0
        assert an.binned_sup_cdf(vals, pmf, vals, pmf, 0.3) == 0.0


class TestMixingCurve:
    def test_identical_ensembles_have_zero_tv(self, unit):
        rep = an.mixing_curve(1, unit, tilt_of(lam=0.5), 1, [1, 2], (1,), (1,), mode="bridge")
        assert all(tv == pytest.approx(0.0, abs=1e-14) for _, tv in rep.points)

    def test_desk_instance_decays_exponentially(self, unit):
        tilt = tilt_of(lam=0.5)
        for mode in ("bridge", "walk"):
            rep = an.mixing_curve(1, unit, tilt, 1, [1, 2, 3, 4, 5, 6], (1,), (3,), mode=mode)
            tvs = [tv for _, tv in rep.points]
            assert all(b < a for a, b in zip(tvs, tvs[1:]))
            assert rep.r2 >= 0.9
            assert rep.c2 > 0
            assert rep.monotone

    def test_window_size_difference_also_mixes(self, unit):
        rep = an.mixing_curve(
            1, unit, tilt_of(lam=0.5), 1, [1, 3, 5], (1,), (1,), mode="walk", window_delta=2
        )
        tvs = [tv for _, tv in rep.points]
        assert tvs[-1] < tvs[0]


    @staticmethod
    def full_window_tv(n, kernel, tilt, t, k, u, w, mode, x_max, delta):
        """TV of the two ensembles' laws on the whole window {-t..t}."""
        laws = []
        for half, bdry in ((k + t, u), (k + t + delta, w)):
            boundary = mc.Bridge(u=bdry, v=bdry) if mode == "bridge" else mc.Walk(u=bdry)
            spec = mc.EnsembleSpec(n=n, m_left=-half, n_right=half, boundary=boundary, x_max=x_max)
            laws.append(ee.law_restricted(spec, kernel, tilt, range(-t, t + 1)))
        return ee.tv_exact(*laws)

    @pytest.mark.filterwarnings("ignore::ensembles.exact_engine.CutoffDominatedWarning")
    @pytest.mark.parametrize("mode", ["walk", "bridge"])
    @pytest.mark.parametrize("n,u,w,x_max", [(1, (1,), (3,), 9), (2, (2, 1), (4, 2), 7)])
    def test_end_column_tv_equals_full_window_tv(self, lazy, mode, n, u, w, x_max):
        tilt = tilt_of(lam=0.5)
        for t in (0, 1, 2):
            for delta in (0, 1):
                rep = an.mixing_curve(
                    n, lazy, tilt, t, [1, 2, 3], u, w, mode=mode, x_max=x_max, window_delta=delta
                )
                for k, tv in rep.points:
                    ref = self.full_window_tv(n, lazy, tilt, t, k, u, w, mode, x_max, delta)
                    assert tv == pytest.approx(ref, rel=1e-12, abs=1e-15)

    @pytest.mark.filterwarnings("ignore::ensembles.exact_engine.CutoffDominatedWarning")
    def test_wide_window_never_builds_its_full_law(self, unit):
        # S = 45: the window {-2..2} holds 45^5 > 5e7 entries, its ends 45^2
        rep = an.mixing_curve(
            2, unit, tilt_of(lam=0.5), 2, [1, 2, 3], (3, 1), (5, 2), mode="bridge", x_max=10
        )
        tvs = [tv for _, tv in rep.points]
        assert all(0.0 < b < a for a, b in zip(tvs, tvs[1:]))


class TestInvariance:
    def test_distance_decreases_on_standard_instance(self, unit):
        rep = an.invariance_check(
            1, 1.0, [0.4, 0.2], unit, 1.0, 2.0, boundary="bridge", u_cont=(1.0,), dx=0.025
        )
        d = [x for _, x in rep.points]
        assert d[1] <= d[0]
        assert d[1] < 0.08

    def test_oracle_refinement_does_not_drive_the_distance(self, unit):
        vals = []
        for dx in (0.05, 0.025):
            rep = an.invariance_check(
                1, 1.0, [0.4], unit, 1.0, 2.0, boundary="bridge", u_cont=(1.0,), dx=dx
            )
            vals.append(rep.points[0][1])
        assert abs(vals[1] - vals[0]) <= 0.25 * vals[0]

    def test_sigma_correction_keeps_lazy_kernel_on_track(self, lazy):
        # variance-1/2 kernel: distances stay small only if space is
        # rescaled by sigma in the comparison
        rep = an.invariance_check(
            1, 1.0, [0.4, 0.2], lazy, 1.0, 2.0, boundary="bridge", u_cont=(1.0,), dx=0.025
        )
        assert rep.points[-1][1] < 0.08


class TestConvergence:
    def test_trend_and_mode_agreement(self, unit):
        rep = an.convergence_to_mu(
            1, [0.5, 0.3, 0.2], unit, 1.0, 2.0, boundary_mode="both", dx=0.05, u_top=3
        )
        walk = [e["walk"] for _, e in rep.points]
        bridge = [e["bridge"] for _, e in rep.points]
        assert all(b <= a + 1e-12 for a, b in zip(walk, walk[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(bridge, bridge[1:]))
        assert abs(walk[-1] - bridge[-1]) <= 0.05

    def test_boundary_height_curves_approach_each_other(self, unit):
        tvs = {}
        for top in (1, 3):
            rep = an.convergence_to_mu(
                1, [0.5, 0.2], unit, 1.0, 2.0, boundary_mode="bridge", dx=0.05, u_top=top
            )
            tvs[top] = [e["bridge"] for _, e in rep.points]
        first_gap = abs(tvs[1][0] - tvs[3][0])
        last_gap = abs(tvs[1][-1] - tvs[3][-1])
        assert last_gap < first_gap


class TestDominanceCheck:
    def test_equal_inputs_pass_with_zero_margin(self):
        pmf = np.array([0.25, 0.5, 0.25])
        rep = an.dominance_check(pmf, pmf)
        assert rep.passed and rep.max_violation <= 0.0

    def test_detects_violation(self):
        base = np.array([0.0, 0.5, 0.5])
        raised = np.array([0.5, 0.5, 0.0])  # raised CDF jumps earlier: violation
        rep = an.dominance_check(base, raised)
        assert not rep.passed
        assert rep.max_violation > 0

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            an.dominance_check(np.ones(3) / 3, np.ones(4) / 4)

    def test_walk_side_dominance_reported(self, unit):
        # exploratory lattice-side check; asserted here only to record
        # that the desk instance happens to satisfy it
        tilt = tilt_of(lam=0.4)
        pmfs = []
        for u in ((1,), (3,)):
            spec = mc.EnsembleSpec(
                n=1, m_left=-4, n_right=4, boundary=mc.Bridge(u=u, v=u),
                x_max=mc.default_x_max(0.4, 3),
            )
            marg = ee.marginal(spec, unit, tilt, 0)
            pmfs.append(bo.top_curve_pmf(marg)[1])
        rep = an.dominance_check(pmfs[0], pmfs[1])
        assert rep.passed


def _line_path(levels, half, h=0.5):
    """Piecewise-constant rescaled path at the given per-curve levels."""
    times = np.arange(-half, half + 1) * h**2
    n_pts = times.size
    values = np.tile(np.asarray(levels, dtype=float)[:, None], (1, n_pts))
    return mc.RescaledPath(times=times, values=values)


class TestGoodBlocks:
    def test_constant_ordered_paths_all_good(self):
        h = 0.5
        half = int(round(8 / h**2))
        x = _line_path((3 * h, 2 * h, 1 * h), half, h)
        y = _line_path((3 * h, 2 * h, 1 * h), half, h)
        rep = an.good_blocks(x, y, eta=10.0, eps=0.1 * h)
        assert rep.m0 == 2 * rep.m_blocks
        assert rep.m0_5 == len(rep.five_flags) > 0

    def test_excursion_above_two_eta_spoils_a_block(self):
        h = 0.5
        half = int(round(8 / h**2))
        x = _line_path((1.0,), half, h)
        vals = x.values.copy()
        times = x.times
        inside = (times > 0.2) & (times < 0.8)  # interior of [0, 1] = D_0 first half
        vals[0, inside] = 10.0
        spoiled = mc.RescaledPath(times=times, values=vals)
        y = _line_path((1.0,), half, h)
        eta = 2.0
        ref = an.good_blocks(x, y, eta=eta, eps=0.01)
        rep = an.good_blocks(spoiled, y, eta=eta, eps=0.01)
        assert ref.flags[ref.m_blocks][0]  # block l = 0 good for clean path
        assert not rep.flags[rep.m_blocks][0]  # spoiled for the excursion path
        assert rep.m0 == ref.m0 - 1

    def test_flags_are_pure_and_bit_stable(self):
        rng = np.random.default_rng(21)
        h = 0.4
        half = int(round(10 / h**2))
        times = np.arange(-half, half + 1) * h**2
        vals = np.abs(rng.normal(1.0, 0.6, size=(2, times.size))).cumsum(axis=0)[::-1]
        vals = np.sort(vals, axis=0)[::-1] + np.array([[0.6], [0.0]])
        x = mc.RescaledPath(times=times, values=vals)
        y = _line_path((1.5, 0.7), half, h)
        r1 = an.good_blocks(x, y, eta=2.5, eps=0.05)
        r2 = an.good_blocks(x, y, eta=2.5, eps=0.05)
        assert r1.flags == r2.flags and r1.m0 == r2.m0 and r1.m0_5 == r2.m0_5

    def test_pre_good_requires_dips_in_outer_blocks(self):
        h = 0.5
        half = int(round(12 / h**2))
        high = _line_path((5.0,), half, h)
        low = _line_path((1.0,), half, h)
        rep_high = an.good_blocks(high, low, eta=2.0, eps=0.01)
        rep_low = an.good_blocks(low, low, eta=2.0, eps=0.01)
        assert rep_high.m0_5 == 0
        assert rep_low.m0_5 == len(rep_low.five_flags)


# The per-point scorer that good_blocks replaced, kept as its reference.


def _ref_grid_extrema(path, t_lo, t_hi, curve=0):
    ts = path.times
    mask = (ts >= t_lo - 1e-12) & (ts <= t_hi + 1e-12)
    vals = [path.evaluate(t_lo)[curve], path.evaluate(t_hi)[curve]]
    if mask.any():
        vals.append(path.values[curve][mask])
    stacked = np.hstack([np.atleast_1d(v) for v in vals])
    return float(stacked.min()), float(stacked.max())


def _ref_in_regular_set(x, eta, eps):
    if x[-1] <= 0.0 or np.any(x[:-1] <= x[1:]):
        return False
    if x[0] > eta:
        return False
    if x.size > 1 and np.min(x[:-1] - x[1:]) < eps:
        return False
    return True


def _ref_interval_regular(path, l, eta, eps):
    for t in (l, l + 1.0):
        if not _ref_in_regular_set(path.evaluate(t), eta, eps):
            return False
    _, mx = _ref_grid_extrema(path, l, l + 1.0)
    return mx <= 2.0 * eta


def _ref_block_good(path, l, eta, eps):
    return _ref_interval_regular(path, 2.0 * l, eta, eps) and _ref_interval_regular(path, 2.0 * l + 1.0, eta, eps)


def _ref_good_blocks(x_path, y_path, eta, eps):
    t_lo = max(x_path.t_min, y_path.t_min)
    t_hi = min(x_path.t_max, y_path.t_max)
    m = int(math.floor(min(-t_lo, t_hi) / 2.0 + 1e-9))
    flags = []
    m0 = 0
    for l in range(-m, m):
        gx = _ref_block_good(x_path, l, eta, eps)
        gy = _ref_block_good(y_path, l, eta, eps)
        flags.append((gx, gy))
        m0 += int(gx and gy)
    five_flags = []
    m0_5 = 0
    m5 = m // 5
    for l in range(-m5, m5 + 1):
        lo_block, hi_block = 5 * l - 2, 5 * l + 2
        if lo_block < -m or hi_block > m - 1:
            continue
        pre = []
        for path in (x_path, y_path):
            lo_min, _ = _ref_grid_extrema(path, 2.0 * lo_block, 2.0 * lo_block + 2.0)
            hi_min, _ = _ref_grid_extrema(path, 2.0 * hi_block, 2.0 * hi_block + 2.0)
            pre.append(lo_min <= eta and hi_min <= eta)
        five_flags.append(tuple(pre))
        m0_5 += int(all(pre))
    return an.GoodBlockReport(
        eta=eta, eps=eps, m_blocks=m, m0=m0, m0_5=m0_5, flags=tuple(flags), five_flags=tuple(five_flags)
    )


def _random_path(rng, n, times, eta):
    """Ordered curves whose top wanders around eta..2 eta and whose gaps
    wander around a few multiples of 0.05, so every check can flip."""
    top = np.clip(eta * (1.0 + 0.9 * rng.standard_normal(times.size).cumsum() / 4.0), -0.2, None)
    gaps = rng.choice([0.0, 0.04, 0.05, 0.06, 0.3], size=(n - 1, times.size))
    vals = top - np.vstack([np.zeros(times.size), gaps.cumsum(axis=0)])
    return mc.RescaledPath(times=times, values=vals)


class TestGoodBlocksMatchScalarReference:
    @staticmethod
    def _check(x, y, eta, eps):
        got = an.good_blocks(x, y, eta, eps)
        ref = _ref_good_blocks(x, y, eta, eps)
        assert got == ref
        assert all(type(f) is bool for pair in got.flags + got.five_flags for f in pair)

    def test_random_paths(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            step = float(rng.choice([0.09, 0.2, 1 / 3, 0.7, 1.3, 2.6]))
            eta = float(rng.uniform(0.5, 3.0))
            paths = []
            for _ in range(2):
                lo, hi = rng.integers(10, 40, size=2) / step
                times = np.arange(-int(lo), int(hi) + 1) * step
                paths.append(_random_path(rng, n, times, eta))
            self._check(*paths, eta=eta, eps=0.05)

    @pytest.mark.parametrize("step", [0.25, 0.5, 1.0, 2.0])
    def test_knots_on_block_edges(self, step):
        # knots at every integer time, with values at exactly eta and 2 eta
        rng = np.random.default_rng(int(4 * step))
        times = np.arange(-int(24 / step), int(24 / step) + 1) * step
        eta = 1.5
        for _ in range(10):
            x, y = (_random_path(rng, 2, times, eta) for _ in range(2))
            vals = x.values.copy()
            hit = rng.random(times.size) < 0.4
            vals[0, hit] = rng.choice([eta, 2.0 * eta], size=hit.sum())
            vals[1] = np.minimum(vals[1], vals[0] - 0.05)
            self._check(mc.RescaledPath(times=times, values=vals), y, eta=eta, eps=0.05)

    @pytest.mark.parametrize("offset", [-2e-12, -1e-12, -0.5e-12, 0.5e-12, 1e-12, 2e-12])
    def test_knots_at_the_edge_tolerance(self, offset):
        # a spike above 2 eta (or a dip below eta) on a knot just off an
        # integer time counts only within the 1e-12 tolerance
        eta = 1.0
        base = np.arange(-25, 26, dtype=float)
        times = np.sort(np.concatenate([base, base[1:-1] + offset]))
        rng = np.random.default_rng(7)
        for spike in (2.5 * eta, 0.5 * eta):
            vals = np.full((1, times.size), 1.5 * eta if spike < eta else 0.9 * eta)
            off = np.flatnonzero(~np.isin(times, base))
            pick = off[rng.random(off.size) < 0.5]
            vals[0, pick] = spike
            x = mc.RescaledPath(times=times, values=vals)
            y = mc.RescaledPath(times=base, values=np.full((1, base.size), 0.9 * eta))
            self._check(x, y, eta=eta, eps=0.05)
            self._check(y, x, eta=eta, eps=0.05)


class TestSlope:
    def test_untilted_slope_matches_survival_eigenvalue(self, lazy):
        # independent oracle: leading eigenvalue of the untilted restricted
        # one-step matrix gives the per-step survival rate (small cutoff so
        # the chain reaches its asymptotic decay within the window)
        lam = 0.5
        x_max = 12
        tilt = mc.TiltSpec(a=1e-13, b=2.0, potential=mc.linear_potential(lam))
        rep = an.log_partition_slope(
            1, (1.0,), lazy, tilt, [8.0, 16.0, 32.0], eta=2.0, x_max=x_max
        )
        states = ee.enumerate_states(1, x_max)
        dense = ee.step_matrix(states, lazy).matrix.toarray()
        rho = max(np.abs(np.linalg.eigvals(dense)))
        h2 = mc.h_scale(tilt.potential).h_big ** 2
        expected = 2 * h2 * math.log(rho)  # window [0, 2*half] has 2*half*T steps per T
        assert rep.seg_slopes[-1] == pytest.approx(expected, rel=0.02)

    def test_doubling_grid_is_stable_for_one_and_two_curves(self, unit):
        tilt = tilt_of(lam=0.5)
        slopes = {}
        for n, w in ((1, (1.0,)), (2, (1.5, 0.7))):
            rep = an.log_partition_slope(n, w, unit, tilt, [4.0, 8.0, 16.0, 32.0], eta=2.0)
            assert rep.stability <= 0.10
            assert all(np.isfinite(d) for d in rep.second_diffs)
            slopes[n] = rep.slope
        assert slopes[2] <= slopes[1]

    @pytest.mark.parametrize("n,w", [(1, (1.0,)), (2, (1.5, 0.7))])
    def test_one_pass_equals_per_window_passes(self, unit, n, w):
        tilt = tilt_of(lam=0.5)
        rep = an.log_partition_slope(n, w, unit, tilt, [4.0, 8.0, 16.0, 32.0], eta=2.0)
        scale = mc.h_scale(tilt.potential)
        u = an.snap_lattice_chamber(w, scale.h_big)
        x_max = mc.default_x_max(0.5, u[0])
        for t_cont, (t_real, log_z) in zip([4.0, 8.0, 16.0, 32.0], rep.points):
            half = max(int(round(scale.h_big**2 * t_cont)), 1)
            spec = mc.EnsembleSpec(n=n, m_left=0, n_right=2 * half, boundary=mc.Walk(u=u), x_max=x_max)
            assert t_real == half * scale.h_small**2
            assert log_z == ee.ensemble_messages(spec, unit, tilt).log_z

    def test_boundary_above_eta_rejected(self, unit):
        with pytest.raises(ValueError):
            an.log_partition_slope(1, (3.0,), unit, tilt_of(lam=0.5), [2.0, 4.0], eta=2.0)


class TestSnapLattice:
    def test_snap_enforces_chamber(self):
        assert an.snap_lattice_chamber((1.0,), 2.1544) == (2,)
        assert an.snap_lattice_chamber((1.0, 0.9), 1.0) == (2, 1)
        assert an.snap_lattice_chamber((0.1, 0.05), 1.0) == (2, 1)
