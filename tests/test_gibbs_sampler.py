import warnings

import numpy as np
import pytest
from scipy.signal import lfilter

from ensembles import exact_engine as ee
from ensembles import gibbs_sampler as gs
from ensembles import model_core as mc


def tilt_of(a=1.0, b=2.0, lam=1.0):
    return mc.TiltSpec(a=a, b=b, potential=mc.linear_potential(lam))


def bridge_spec(n, m, nr, u, v, x_max):
    return mc.EnsembleSpec(n=n, m_left=m, n_right=nr, boundary=mc.Bridge(u=u, v=v), x_max=x_max)


def walk_spec(n, m, nr, u, x_max):
    return mc.EnsembleSpec(n=n, m_left=m, n_right=nr, boundary=mc.Walk(u=u), x_max=x_max)


class TestParams:
    def test_overlap_must_be_smaller_than_block(self):
        with pytest.raises(ValueError):
            gs.McmcParams(block_len=4, overlap=4)
        with pytest.raises(ValueError):
            gs.McmcParams(block_len=4, overlap=0)
        with pytest.raises(ValueError):
            gs.McmcParams(thin=0)


class TestInitConfig:
    def test_unique_path(self, srw):
        spec = bridge_spec(1, 0, 2, (1,), (1,), x_max=8)
        cfg = gs.init_config(spec, srw)
        assert cfg.heights.tolist() == [[1, 2, 1]]

    def test_parity_broken_bridge(self, srw):
        spec = bridge_spec(1, 0, 3, (1,), (1,), x_max=8)
        with pytest.raises(gs.Infeasible):
            gs.init_config(spec, srw)

    def test_positive_weight_contract(self, unit):
        tilt = tilt_of(lam=0.4)
        for spec in (
            bridge_spec(2, -5, 5, (4, 1), (3, 1), x_max=40),
            walk_spec(3, 0, 12, (5, 3, 1), x_max=40),
        ):
            cfg = gs.init_config(spec, unit, rng=np.random.default_rng(1))
            assert mc.log_tilt_weight(cfg, tilt) > mc.NEG_INF

    def test_long_window_uses_stitched_chunks(self, lazy):
        spec = walk_spec(1, -80, 80, (2,), x_max=30)
        cfg = gs.init_config(spec, lazy, rng=np.random.default_rng(2))
        assert mc.ordering_ok(cfg)
        assert cfg.heights.shape == (1, 161)


class TestResampleBlock:
    def test_adjacent_block_is_identity(self, lazy):
        spec = bridge_spec(1, 0, 6, (2,), (2,), x_max=10)
        cfg = gs.init_config(spec, lazy)
        out = gs.resample_block(cfg, 2, 3, tilt_of(), lazy, np.random.default_rng(0))
        assert (out.heights == cfg.heights).all()

    def test_endpoints_untouched(self, lazy):
        spec = bridge_spec(2, 0, 8, (4, 2), (4, 2), x_max=12)
        cfg = gs.init_config(spec, lazy, rng=np.random.default_rng(3))
        rng = np.random.default_rng(4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ee.CutoffDominatedWarning)
            out = gs.resample_block(cfg, 2, 6, tilt_of(lam=0.5), lazy, rng)
        assert (out.heights[:, :3] == cfg.heights[:, :3]).all()
        assert (out.heights[:, 6:] == cfg.heights[:, 6:]).all()

    def test_free_right_block_requires_walk(self, lazy):
        spec = bridge_spec(1, 0, 4, (2,), (2,), x_max=10)
        cfg = gs.init_config(spec, lazy)
        with pytest.raises(ValueError):
            gs.resample_block(cfg, 1, 5, tilt_of(), lazy, np.random.default_rng(0))

    def test_full_window_resample_matches_exact_sampler(self, lazy):
        # chi-square of full-window redraws against the exact law
        from conftest import chi_square_p

        spec = bridge_spec(1, 0, 4, (1,), (1,), x_max=7)
        tilt = tilt_of(lam=0.6)
        cfg = gs.init_config(spec, lazy)
        rng = np.random.default_rng(8)
        res = ee.ensemble_messages(spec, lazy, tilt)
        counts = np.zeros(res.states.size)
        for _ in range(6000):
            out = gs.resample_block(cfg, 0, 4, tilt, lazy, rng)
            counts[res.states.id_of(out.column(2))] += 1
        assert chi_square_p(counts, ee.marginal_from_messages(res, 2).probs) > 0.001


class _FixedUniform:
    """Stands in for a Generator whose every uniform is the same value."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


class TestExtremeUniforms:
    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
    def test_no_zero_weight_state_drawn(self, lazy, u):
        # the lowest and highest local states are unreachable from (5) in two
        # steps, so a draw landing on either breaks the kernel's step support
        spec = bridge_spec(1, 0, 4, (5,), (5,), x_max=12)
        cfg = gs.init_config(spec, lazy)
        out = gs.resample_block(cfg, 0, 4, tilt_of(lam=0.3), lazy, _FixedUniform(u))
        steps = np.diff(out.heights, axis=1)
        assert set(steps.ravel().tolist()) <= set(lazy.offsets)
        assert mc.log_tilt_weight(out, tilt_of(lam=0.3)) > mc.NEG_INF


class TestSteepTilt:
    @pytest.mark.parametrize("a", [2.0, 10.0])
    def test_high_chain_column_law(self, unit, a):
        # n=3, b=4, lambda=1 from the top of the space: the log tilt spans
        # 189 * a nats over the local states, and with a = 10 a chain at the
        # top sits ~1900 nats below the tilt maximum
        from conftest import chi_square_p

        tilt = tilt_of(a=a, b=4.0, lam=1.0)
        top = (12, 11, 10)
        spec = bridge_spec(3, 0, 2, top, top, x_max=12)
        cfg = mc.PathConfig(heights=np.array([top, (11, 10, 9), top]).T, spec=spec)
        law = ee.conditional_bridge_law(spec, unit, tilt, 0, 2, (top, top)).law
        states = law.meta["states"]
        rng = np.random.default_rng(21)
        counts = np.zeros(states.size)
        for _ in range(3000):
            out = gs.resample_block(cfg, 0, 2, tilt, unit, rng)
            counts[states.id_of(out.column(1))] += 1
        assert chi_square_p(counts, law.probs) > 0.001

    def test_steep_bridge_block_reaches_pinned_end(self, lazy):
        # one step before the pinned end, the paths that can still reach it
        # sit 900 nats below the forward maximum; zeroing the states that
        # cannot reach it keeps them in range
        spec = bridge_spec(1, 0, 6, (14,), (14,), x_max=20)
        cfg = gs.init_config(spec, lazy)
        out = gs.resample_block(cfg, 0, 6, tilt_of(a=150.0, lam=1.0), lazy, np.random.default_rng(0))
        assert out.heights.tolist() == [[14, 13, 12, 11, 12, 13, 14]]

    def test_long_steep_block_renews_shift(self, unit):
        # a = 4: the log tilt moves up to 168 nats per step, so a 10-step
        # block passes the exponent cap and the per-chain shift is renewed.
        # Column 9 is checked: at column 5 the states of expected count < 5
        # pool to 0.013 draws, so one legitimate draw there fails the test.
        from conftest import chi_square_p

        tilt = tilt_of(a=4.0, b=4.0, lam=1.0)
        spec = walk_spec(3, 0, 10, (14, 13, 12), x_max=16)
        res = ee.ensemble_messages(spec, unit, tilt)
        assert np.isfinite(res.log_z)
        exact = ee.marginal_from_messages(res, 9)
        cfg = gs.init_config(spec, unit, rng=np.random.default_rng(3))
        heights = np.repeat(cfg.heights[None], 2000, axis=0)
        us = np.random.default_rng(22).random((2000, 10))
        gs._apply_block_batch(heights, spec, unit, tilt, (0, None), us, 0)
        counts = np.bincount(
            [res.states.id_of(tuple(h)) for h in heights[:, :, 9]], minlength=res.states.size
        )
        assert chi_square_p(counts, exact.probs) > 0.001


class TestSweep:
    def test_deterministic_under_seed(self, unit):
        spec = walk_spec(1, 0, 20, (2,), x_max=60)
        tilt = tilt_of(lam=0.4)
        cfg = gs.init_config(spec, unit, rng=np.random.default_rng(5))
        params = gs.McmcParams(block_len=6, overlap=2)
        a = gs.sweep(cfg, params, tilt, unit, np.random.default_rng(42))
        b = gs.sweep(cfg, params, tilt, unit, np.random.default_rng(42))
        assert (a.heights == b.heights).all()

    def test_single_block_when_window_small(self, lazy):
        spec = bridge_spec(1, 0, 4, (1,), (1,), x_max=8)
        blocks = gs._blocks_schedule(spec, gs.McmcParams(block_len=8, overlap=4))
        assert blocks == [(0, 4)]
        spec_w = walk_spec(1, 0, 4, (1,), x_max=8)
        assert gs._blocks_schedule(spec_w, gs.McmcParams(block_len=8, overlap=4)) == [(0, None)]

    def test_sweep_preserves_exact_law(self, lazy):
        # start 1e5 chains from the exact law, apply one sweep, compare the
        # center marginal against the exact one
        spec = bridge_spec(1, 0, 4, (1,), (1,), x_max=6)
        tilt = tilt_of(lam=0.7)
        res = ee.ensemble_messages(spec, lazy, tilt)
        joint = ee.law_from_messages(res, [1, 2, 3])
        s = res.states.size
        rng = np.random.default_rng(17)
        n_chains = 100_000
        draws = rng.choice(joint.probs.size, size=n_chains, p=joint.probs)
        ids = np.stack(np.unravel_index(draws, (s, s, s)), axis=1)
        heights = np.empty((n_chains, 1, 5), dtype=np.int64)
        heights[:, 0, 0] = 1
        heights[:, 0, 4] = 1
        for j, t in enumerate((1, 2, 3)):
            heights[:, :, t] = res.states.arr[ids[:, j]]
        blocks = gs._blocks_schedule(spec, gs.McmcParams(block_len=3, overlap=1))
        n_draw = sum(gs._block_draws(spec, blk) for blk in blocks)
        us = rng.random((n_chains, n_draw))
        gs._sweep_batch(heights, spec, lazy, tilt, blocks, us)
        counts = np.bincount(
            [res.states.id_of(tuple(h)) for h in heights[:, :, 2]], minlength=s
        )
        emp = counts / counts.sum()
        exact = ee.marginal_from_messages(res, 2).probs
        assert 0.5 * np.abs(emp - exact).sum() <= 0.02


class TestSamplePaths:
    def test_zero_sweeps_yields_empty(self, lazy):
        spec = bridge_spec(1, 0, 4, (1,), (1,), x_max=8)
        params = gs.McmcParams(sweeps=0, burn_in=0, seed=1)
        samples, diags = gs.sample_paths(spec, lazy, tilt_of(), params)
        assert samples == []
        assert diags.kept == 0
        assert diags.acceptance_ratio == 1.0

    def test_boundaries_fixed_and_weights_finite(self, unit):
        spec = bridge_spec(2, -6, 6, (4, 2), (4, 2), x_max=30)
        tilt = tilt_of(lam=0.4)
        params = gs.McmcParams(block_len=5, overlap=2, sweeps=40, burn_in=10, seed=7, chains=8)
        samples, _ = gs.sample_paths(spec, unit, tilt, params)
        for s in samples:
            assert s.column(-6) == (4, 2)
            assert s.column(6) == (4, 2)
            assert mc.log_tilt_weight(s, tilt) > mc.NEG_INF

    def test_seed_pair_marginals_close(self, unit):
        spec = walk_spec(1, -8, 8, (1,), x_max=80)
        tilt = tilt_of(lam=0.4)
        out = []
        for seed in (100, 200):
            params = gs.McmcParams(block_len=8, overlap=4, sweeps=300, burn_in=30, seed=seed, chains=40)
            samples, _ = gs.sample_paths(spec, unit, tilt, params)
            counts = np.bincount([s.heights[0, 8] for s in samples], minlength=81)
            out.append(counts / counts.sum())
        assert 0.5 * np.abs(out[0] - out[1]).sum() <= 0.03

    def test_geometric_factor_sweep_records_diagnostics(self, lazy):
        spec = bridge_spec(2, -4, 4, (3, 1), (3, 1), x_max=25)
        for b in (1.5, 2.0, 4.0):
            params = gs.McmcParams(block_len=4, overlap=1, sweeps=60, burn_in=10, seed=3, chains=4)
            samples, diags = gs.sample_paths(spec, lazy, tilt_of(b=b, lam=0.5), params)
            assert diags.kept == len(samples) > 0
            assert diags.tau["x1_center"] is None or diags.tau["x1_center"] >= 0.5


class TestAutocorr:
    def test_iid_normal(self):
        rng = np.random.default_rng(12)
        tau = gs.autocorr(rng.standard_normal(100_000))
        assert 0.45 <= tau <= 0.6

    def test_ar1_closed_form(self):
        rng = np.random.default_rng(13)
        eps = rng.standard_normal(1_000_000)
        series = lfilter([1.0], [1.0, -0.5], eps)
        tau = gs.autocorr(series)
        assert tau == pytest.approx(1.5, rel=0.10)

    def test_constant_series_rejected(self):
        with pytest.raises(gs.TooShort):
            gs.autocorr(np.ones(1000))

    def test_short_series_rejected(self):
        with pytest.raises(gs.TooShort):
            gs.autocorr(np.arange(5))
