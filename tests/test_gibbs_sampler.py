import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.signal import lfilter

from conftest import chain_heights, chain_ids
from ensembles import exact_engine as ee
from ensembles import gibbs_sampler as gs
from ensembles import model_core as mc


def tilt_of(a=1.0, b=2.0, lam=1.0):
    return mc.TiltSpec(a=a, b=b, potential=mc.linear_potential(lam))


def bridge_spec(n, m, nr, u, v, x_max):
    return mc.EnsembleSpec(n=n, m_left=m, n_right=nr, boundary=mc.Bridge(u=u, v=v), x_max=x_max)


def walk_spec(n, m, nr, u, x_max):
    return mc.EnsembleSpec(n=n, m_left=m, n_right=nr, boundary=mc.Walk(u=u), x_max=x_max)


def redraw(ids, spec, kernel, tilt, blocks, us, offs, spaces):
    """One ``_apply_block_batch`` call on ``blocks``, block i reading its
    uniforms from column ``offs[i]`` on."""
    plan = gs._SweepPlan(spec, [(blocks, offs)])
    gs._apply_block_batch(ids, plan, kernel, tilt, plan.groups[0], us, spaces)


def sweep_batch(ids, spec, kernel, tilt, blocks, us, spaces):
    """One ``_sweep_batch`` call on the colour groups of ``blocks``."""
    gs._sweep_batch(ids, gs._SweepPlan(spec, gs._colour_groups(spec, blocks)), kernel, tilt, us, spaces)


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
        # a = 4: the log tilt moves up to 168 nats per step, so over a
        # 10-step block a start's log forward rows span far more than a
        # double's exponent range; the memoized rows must redo in log space
        # every entry a step's shift may have flushed. (The name is kept
        # from a per-chain shift renewal that the memoized rows replaced.)
        # Column 9 is checked: at column 5 the states of expected count < 5
        # pool to 0.013 draws, so one legitimate draw there fails the test.
        from conftest import chi_square_p

        tilt = tilt_of(a=4.0, b=4.0, lam=1.0)
        spec = walk_spec(3, 0, 10, (14, 13, 12), x_max=16)
        res = ee.ensemble_messages(spec, unit, tilt)
        assert np.isfinite(res.log_z)
        exact = ee.marginal_from_messages(res, 9)
        cfg = gs.init_config(spec, unit, rng=np.random.default_rng(3))
        ids = chain_ids(np.repeat(cfg.heights[None], 2000, axis=0), spec)
        us = np.random.default_rng(22).random((2000, 10))
        redraw(ids, spec, unit, tilt, [(0, None)], us, [0], {})
        heights = chain_heights(ids, spec)
        counts = np.bincount(
            [res.states.id_of(tuple(h)) for h in heights[:, :, 9]], minlength=res.states.size
        )
        assert chi_square_p(counts, exact.probs) > 0.001


class TestRareMoveRedraw:
    """Full-window redraws where the law's mass sits far below the forward
    maximum: the block sampler's forward rows must keep every state whose
    log mass lies more than ~745 nats below its start's largest one."""

    A, B, LAM = 300.0, 2.0, 1.0

    @pytest.mark.filterwarnings("ignore::ensembles.exact_engine.CutoffDominatedWarning")
    @pytest.mark.parametrize("width,u,v", [(6, 3, 4), (7, 3, 3)])
    def test_rare_move_bridges_match_brute_force(self, width, u, v):
        # TestChainedBackwardRedo's bridges: each law puts its mass on paths
        # of rare moves (ε = 1e-250), far below the forward rows' maximum,
        # which paths without them hold.  Chains start on (u, ..., u, v).
        from conftest import brute_law, chi_square_p

        eps = 1e-250
        kernel = mc.make_kernel((-1, 0, 1), (eps, 1 - 2 * eps, eps))
        spec = bridge_spec(1, 0, width, (u,), (v,), x_max=4)
        law = brute_law(spec, kernel, self.A, self.B, self.LAM, list(spec.times))
        paths = list(law)
        index = {p: i for i, p in enumerate(paths)}
        chains = 400
        ids = chain_ids(np.repeat(np.array([[u] * width + [v]])[None], chains, axis=0), spec)
        us = np.random.default_rng(41).random((chains, width - 1))
        tilt = tilt_of(a=self.A, b=self.B, lam=self.LAM)
        redraw(ids, spec, kernel, tilt, [(0, width)], us, [0], {})
        heights = chain_heights(ids, spec)
        counts = np.zeros(len(paths))
        for h in heights:
            path = tuple((int(x),) for x in h[0])
            assert path in index and law[path] > 0.0, f"redrawn path {path} has zero mass"
            counts[index[path]] += 1
        assert chi_square_p(counts, np.array([law[p] for p in paths])) > 0.001

    def test_steep_free_end_block_matches_exact_sampler(self, unit):
        # TestSteepTilt's n = 3 walk: its log tilt moves up to 168 nats per
        # step.  The free end of a full-window redraw is compared with the
        # exact marginal and with exact_sample's draws of it.
        from conftest import chi_square_p
        from scipy.stats import chi2_contingency

        tilt = tilt_of(a=4.0, b=4.0, lam=1.0)
        spec = walk_spec(3, 0, 10, (14, 13, 12), x_max=16)
        res = ee.ensemble_messages(spec, unit, tilt)
        cfg = gs.init_config(spec, unit, rng=np.random.default_rng(3))
        ids = chain_ids(np.repeat(cfg.heights[None], 2000, axis=0), spec)
        us = np.random.default_rng(23).random((2000, 10))
        redraw(ids, spec, unit, tilt, [(0, None)], us, [0], {})
        heights = chain_heights(ids, spec)
        assert all(mc.log_tilt_weight(mc.PathConfig(heights=h, spec=spec), tilt) > mc.NEG_INF for h in heights)
        ends = res.states.ids(heights[:, :, 10])
        counts = np.bincount(ends, minlength=res.states.size)
        assert chi_square_p(counts, ee.marginal_from_messages(res, 10).probs) > 0.001
        exact = res.states.ids(
            np.array([p.column(10) for p in ee.exact_sample(spec, unit, tilt, seed=5, count=2000)])
        )
        seen = np.union1d(ends, exact)
        table = np.array([np.bincount(x, minlength=res.states.size)[seen] for x in (ends, exact)])
        assert chi2_contingency(table[:, table.sum(axis=0) >= 10]).pvalue > 0.001


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
        ids = chain_ids(heights, spec)
        sweep_batch(ids, spec, lazy, tilt, blocks, us, {})
        heights = chain_heights(ids, spec)
        counts = np.bincount(
            [res.states.id_of(tuple(h)) for h in heights[:, :, 2]], minlength=s
        )
        emp = counts / counts.sum()
        exact = ee.marginal_from_messages(res, 2).probs
        assert 0.5 * np.abs(emp - exact).sum() <= 0.02


def _colours(spec, blocks):
    """Each colour group of the sweep as its blocks' schedule indices."""
    return [[blocks.index(b) for b in group] for group, _ in gs._colour_groups(spec, blocks)]


def _interior(spec, block):
    k, l = block
    return set(range(k + 1, spec.n_right + 1 if l is None else l))


SCHEDULES = [
    (bridge_spec(1, -10, 10, (1,), (1,), x_max=30), 8, 4),
    (walk_spec(2, -20, 20, (2, 1), x_max=30), 8, 4),
    (bridge_spec(1, 0, 8, (1,), (1,), x_max=6), 4, 2),
    (bridge_spec(1, 0, 23, (1,), (1,), x_max=30), 7, 2),
    (walk_spec(1, -9, 14, (1,), x_max=30), 9, 5),
    (walk_spec(1, 0, 3, (1,), x_max=30), 6, 1),
    (bridge_spec(1, 0, 2, (1,), (1,), x_max=30), 3, 1),
]


class TestColouring:
    @pytest.mark.parametrize("spec,block_len,overlap", SCHEDULES)
    def test_groups_cover_schedule_once_in_colour_order(self, spec, block_len, overlap):
        params = gs.McmcParams(block_len=block_len, overlap=overlap)
        blocks = gs._blocks_schedule(spec, params)
        groups = gs._colour_groups(spec, blocks)
        assert sorted(b for group, _ in groups for b in group) == sorted(blocks)
        n_colours = math.ceil(block_len / (block_len - overlap))
        colour_of = [[i % n_colours for i in idx] for idx in _colours(spec, blocks)]
        assert all(len(set(c)) == 1 for c in colour_of)
        assert [c[0] for c in colour_of] == sorted(c[0] for c in colour_of)
        # each block keeps its slice of the sweep's uniforms
        starts = np.cumsum([0] + [gs._block_draws(spec, b) for b in blocks])
        for group, offs in groups:
            assert offs == [starts[blocks.index(b)] for b in group]
            assert len({gs._block_draws(spec, b) for b in group}) == 1
            assert len({b[1] is None for b in group}) == 1

    @pytest.mark.parametrize("spec,block_len,overlap", SCHEDULES)
    def test_blocks_of_one_colour_are_independent(self, spec, block_len, overlap):
        blocks = gs._blocks_schedule(spec, gs.McmcParams(block_len=block_len, overlap=overlap))
        n_colours = math.ceil(block_len / (block_len - overlap))
        colours: dict = {}
        for idx in _colours(spec, blocks):
            colours.setdefault(idx[0] % n_colours, []).extend(blocks[i] for i in idx)
        for colour in colours.values():
            for a in colour:
                for b in colour:
                    if a == b:
                        continue
                    assert not _interior(spec, a) & _interior(spec, b)
                    ends = {b[0]} if b[1] is None else set(b)
                    assert not ends & _interior(spec, a)

    @pytest.mark.parametrize(
        "spec,calls",
        [
            # criterion 03's schedule: four blocks, two colours
            (bridge_spec(1, -10, 10, (1,), (1,), x_max=mc.default_x_max(0.3, 1)), 2),
            # the sample-n2-walk benchmark op: nine blocks, the free one apart
            (walk_spec(2, -20, 20, (2, 1), x_max=mc.default_x_max(0.3, 2)), 3),
        ],
    )
    def test_batched_redraws_per_sweep(self, unit, monkeypatch, spec, calls):
        seen = []
        apply = gs._apply_block_batch
        monkeypatch.setattr(gs, "_apply_block_batch", lambda *a: seen.append(a[4][0]) or apply(*a))
        cfg = gs.init_config(spec, unit)
        gs.sweep(cfg, gs.McmcParams(block_len=8, overlap=4), tilt_of(lam=0.3), unit, np.random.default_rng(1))
        assert len(seen) == calls
        assert sum(len(group) for group in seen) == len(gs._blocks_schedule(spec, gs.McmcParams()))

    def test_grouping_does_not_change_draws(self, unit):
        spec = walk_spec(2, -20, 20, (2, 1), x_max=60)
        tilt = tilt_of(lam=0.3)
        blocks = gs._blocks_schedule(spec, gs.McmcParams(block_len=8, overlap=4))
        cfg = gs.init_config(spec, unit, rng=np.random.default_rng(6))
        us = np.random.default_rng(7).random((16, gs._sweep_draws(spec, blocks)))
        together = chain_ids(np.repeat(cfg.heights[None], 16, axis=0), spec)
        sweep_batch(together, spec, unit, tilt, blocks, us, {})
        one_by_one, spaces = chain_ids(np.repeat(cfg.heights[None], 16, axis=0), spec), {}
        for group, offs in gs._colour_groups(spec, blocks):
            for block, off in zip(group, offs):
                redraw(one_by_one, spec, unit, tilt, [block], us, [off], spaces)
        together, one_by_one = chain_heights(together, spec), chain_heights(one_by_one, spec)
        assert (together == one_by_one).all()
        assert (together != cfg.heights).any()

    @pytest.mark.parametrize("m", [2, 3, 7, 8])
    def test_reach_cutoff_holds_every_bridge(self, unit, m):
        # the highest a top curve can climb between its ends is
        # floor((start + end + m * max_step) / 2); the local space must hold it
        spec = bridge_spec(1, 0, m, (1,), (1,), x_max=10_000)
        for start in range(1, 40):
            for end in range(max(1, start - 2 * m), start + 2 * m + 1):
                cut = gs._local_cutoff(spec, unit, m, start, end)
                assert cut >= (start + end + 2 * m) // 2
                assert cut <= gs._local_cutoff(spec, unit, m, max(start, end), None)

    def test_reach_cutoff_draws_as_full_space(self, unit, monkeypatch):
        # the pinned blocks' local space stops at the bridges' reach; opening
        # it up to x_max must not change one draw
        spec = bridge_spec(2, 0, 24, (4, 2), (4, 2), x_max=48)
        tilt = tilt_of(lam=0.2)
        blocks = gs._blocks_schedule(spec, gs.McmcParams(block_len=8, overlap=4))
        cfg = gs.init_config(spec, unit, rng=np.random.default_rng(8))
        us = np.random.default_rng(9).random((64, gs._sweep_draws(spec, blocks)))
        reach = gs._local_cutoff
        out, cutoffs = [], []
        for full in (False, True):

            def cutoff(spec, *args, full=full):
                cutoffs.append(spec.x_max if full else reach(spec, *args))
                return cutoffs[-1]

            monkeypatch.setattr(gs, "_local_cutoff", cutoff)
            ids, spaces = chain_ids(np.repeat(cfg.heights[None], 64, axis=0), spec), {}
            for _ in range(3):
                sweep_batch(ids, spec, unit, tilt, blocks, us, spaces)
            out.append(chain_heights(ids, spec))
        assert max(cutoffs[: len(cutoffs) // 2]) < spec.x_max
        assert (out[0] == out[1]).all()


class TestColouredSweepKernel:
    """One coloured sweep against its path-to-path transition matrix,
    built from the brute-force enumerator: n = 1, an 8-step bridge, blocks
    of 4 overlapping by 2, so one colour redraws (0, 4) and (4, 8)
    together around their shared pinned end."""

    A, B, LAM = 1.0, 2.0, 0.5

    def _kernel_matrices(self, spec, kernel, blocks):
        import itertools

        from conftest import hand_area, iter_paths, path_log_prob

        paths = [cols for cols, _ in iter_paths(spec, kernel)]
        index = {p: i for i, p in enumerate(paths)}
        log_w = np.array([path_log_prob(p, kernel) - hand_area(p, self.A, self.B, self.LAM) for p in paths])
        pi = np.exp(log_w - log_w.max())
        pi /= pi.sum()
        # the conditional law of a block's interior given everything else
        cond = {}
        for k, l in blocks:
            classes: dict = {}
            for p, w in zip(paths, pi):
                classes.setdefault(p[: k + 1] + p[l:], []).append((p[k + 1 : l], w))
            cond[(k, l)] = {
                key: [(inner, w / sum(w for _, w in opts)) for inner, w in opts] for key, opts in classes.items()
            }
        mats = []
        for group, _ in gs._colour_groups(spec, blocks):
            mat = np.zeros((len(paths), len(paths)))
            for i, x in enumerate(paths):
                choices = [cond[(k, l)][x[: k + 1] + x[l:]] for k, l in group]
                for combo in itertools.product(*choices):
                    y = list(x)
                    prob = 1.0
                    for (k, l), (inner, q) in zip(group, combo):
                        y[k + 1 : l] = inner
                        prob *= q
                    mat[i, index[tuple(y)]] += prob
            mats.append(mat)
        return paths, index, pi, mats

    def test_one_sweep_is_exactly_invariant_and_draws_its_row(self, lazy):
        from conftest import chi_square_p

        spec = bridge_spec(1, 0, 8, (2,), (2,), x_max=5)
        params = gs.McmcParams(block_len=4, overlap=2)
        blocks = gs._blocks_schedule(spec, params)
        assert [g for g, _ in gs._colour_groups(spec, blocks)] == [[(0, 4), (4, 8)], [(2, 6)]]
        paths, index, pi, mats = self._kernel_matrices(spec, lazy, blocks)
        sweep = np.linalg.multi_dot(mats)
        assert np.abs(sweep.sum(axis=1) - 1.0).max() <= 1e-12
        for mat in mats + [sweep]:
            assert np.abs(pi @ mat - pi).max() <= 1e-12

        start = max(paths, key=lambda p: sum(p[4]))  # a high path, far from typical
        cfg = mc.PathConfig(heights=np.array(start).T, spec=spec)
        chains = 20_000
        ids = chain_ids(np.repeat(cfg.heights[None], chains, axis=0), spec)
        us = np.random.default_rng(31).random((chains, gs._sweep_draws(spec, blocks)))
        tilt = tilt_of(a=self.A, b=self.B, lam=self.LAM)
        sweep_batch(ids, spec, lazy, tilt, blocks, us, {})
        heights = chain_heights(ids, spec)
        counts = np.bincount(
            [index[tuple(map(tuple, h.T))] for h in heights], minlength=len(paths)
        )
        assert chi_square_p(counts, sweep[index[start]]) > 0.001


def _memo_held(memo):
    """The entries one block memo holds against the budget, as ``gs._held`` counts them."""
    return memo.table.size + memo.at.size + memo.store.size


def _fresh_rows(memo, keys, spaces):
    """Stands in for ``_BlockMemo.take``: each draw's rows built afresh."""
    return memo.build(keys)


class TestForwardMemo:
    """Block redraws read per-start log forward rows from their run's memo
    on the local space; the rows of a start are built once and do not
    depend on the batch or the memo state that built them."""

    PARAMS = gs.McmcParams(block_len=6, overlap=3)
    CASES = {
        "gentle": (walk_spec(2, -12, 12, (2, 1), x_max=40), tilt_of(lam=0.3)),
        # steep enough that batches of starts redo lost entries in log space
        "steep": (walk_spec(2, -12, 12, (8, 6), x_max=24), tilt_of(a=10.0, b=4.0, lam=1.0)),
    }

    def _sweeps(self, spec, heights, us, tilt, kernel, spaces, one_by_one=False):
        """Sweeps of one run on the local spaces in ``spaces``."""
        blocks = gs._blocks_schedule(spec, self.PARAMS)
        ids = chain_ids(heights, spec)
        for row in us:
            if not one_by_one:
                sweep_batch(ids, spec, kernel, tilt, blocks, row, spaces)
                continue
            for group, offs in gs._colour_groups(spec, blocks):
                for block, off in zip(group, offs):
                    for c in range(len(ids)):
                        one = slice(c, c + 1)
                        redraw(ids[one], spec, kernel, tilt, [block], row[one], [off], spaces)
        return chain_heights(ids, spec)

    def _start(self, spec, unit, chains):
        cfg = gs.init_config(spec, unit, rng=np.random.default_rng(12))
        draws = gs._sweep_draws(spec, gs._blocks_schedule(spec, self.PARAMS))
        us = np.random.default_rng(13).random((4, chains, draws))
        return np.repeat(cfg.heights[None], chains, axis=0), us

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_built_once_per_space_length_and_start(self, unit, monkeypatch, case):
        spec, tilt = self.CASES[case]
        built, calls = [], []
        real, apply = gs._forward_log_rows, gs._apply_block_batch
        monkeypatch.setattr(gs, "_forward_log_rows", lambda step, *a: built.append((step, a)) or real(step, *a))
        monkeypatch.setattr(gs, "_apply_block_batch", lambda *a: calls.append(a) or apply(*a))
        heights, us = self._start(spec, unit, 12)
        self._sweeps(spec, heights, us, tilt, unit, {})
        keys = [(id(step), m, int(s)) for step, (_, starts, m) in built for s in starts]
        assert len(keys) == len(set(keys))
        assert 0 < len(built) < len(calls)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_warm_cold_and_one_block_draws_agree(self, unit, case):
        spec, tilt = self.CASES[case]
        heights, us = self._start(spec, unit, 12)
        out, spaces = [], {}
        for clear, one_by_one in ((True, False), (False, False), (True, True)):
            if clear:
                spaces = {}
            out.append(self._sweeps(spec, heights.copy(), us, tilt, unit, spaces, one_by_one))
        assert (out[0] != heights).any()
        assert (out[0] == out[1]).all() and (out[0] == out[2]).all()

    def test_budget_keeps_one_batch_and_draws_unchanged(self, unit, monkeypatch):
        spec, tilt = self.CASES["gentle"]
        heights, us = self._start(spec, unit, 12)
        seen, built = [], []
        memo_rows, build = gs._LocalSpace.forward_rows, gs._forward_log_rows

        def recorded(local, m, starts, spaces):
            slot, memo = memo_rows(local, m, starts, spaces)
            seen.append((np.unique(starts).size, len(memo.table), memo.table.size))
            return slot, memo

        monkeypatch.setattr(gs._LocalSpace, "forward_rows", recorded)
        monkeypatch.setattr(gs, "_forward_log_rows", lambda step, *a: built.append((step, a)) or build(step, *a))
        free = self._sweeps(spec, heights.copy(), us, tilt, unit, {})
        budget = max(size for *_, size in seen) // 2
        monkeypatch.setenv("ENSEMBLES_BUDGET", str(budget))
        seen.clear(), built.clear()
        held = self._sweeps(spec, heights.copy(), us, tilt, unit, {})
        # each memo keeps to the budget, or holds only the starts of the call that took it over
        assert all(size <= budget or slots == batch for batch, slots, size in seen)
        assert any(size > budget for *_, size in seen)
        keys = [(id(step), m, int(s)) for step, (_, starts, m) in built for s in starts]
        assert len(keys) > len(set(keys))  # a start dropped from a full memo is built again
        assert (free == held).all()

    def test_memos_of_one_run_share_the_budget(self, unit, monkeypatch):
        # the sample-n2-walk benchmark op's run: under a budget that each of
        # its memos fits alone, the memos together do not fit
        spec = walk_spec(2, -20, 20, (2, 1), x_max=mc.default_x_max(0.3, 2))
        params = gs.McmcParams(block_len=8, overlap=4, sweeps=30, burn_in=10, seed=7, chains=32)
        peak, seen = {}, []
        memo_rows, take = gs._LocalSpace.forward_rows, gs._BlockMemo.take

        def recorded(local, m, starts, spaces):
            slot, memo = memo_rows(local, m, starts, spaces)
            alone = gs._held(spaces) == _memo_held(memo) and len(memo.table) == np.unique(starts).size
            seen.append((gs._held(spaces), alone))
            peak[id(memo)] = max(peak.get(id(memo), 0), _memo_held(memo))
            return slot, memo

        def held(memo, keys, spaces):
            out = take(memo, keys, spaces)
            stored = sum(other.used for local in spaces.values() for other in local.memo.values())
            seen.append((gs._held(spaces), memo.used == np.unique(keys).size == stored))
            peak[id(memo)] = max(peak.get(id(memo), 0), _memo_held(memo))
            return out

        def run():
            return gs.sample_paths(spec, unit, tilt_of(lam=0.3), params)[0].heights

        monkeypatch.setattr(gs._LocalSpace, "forward_rows", recorded)
        monkeypatch.setattr(gs._BlockMemo, "take", held)
        free = run()
        budget = max(peak.values())
        assert len(peak) > 1 and sum(peak.values()) > budget
        seen.clear()
        monkeypatch.setenv("ENSEMBLES_BUDGET", str(budget))
        assert run().tobytes() == free.tobytes()
        # the run keeps to the budget, or holds only the current call's rows
        assert all(size <= budget or alone for size, alone in seen)

    def test_chains_carry_ids_on_one_plan(self, unit, monkeypatch):
        # after the start draw, a run looks up no state id from heights, and
        # it colours its schedule once, not once per sweep
        looked_up, starts, coloured = [], [], []
        ids, init, colour = ee.StateSpace.ids, gs._init_ids, gs._colour_groups
        monkeypatch.setattr(ee.StateSpace, "ids", lambda states, cols: looked_up.append(len(starts)) or ids(states, cols))
        monkeypatch.setattr(gs, "_init_ids", lambda *a: starts.append(init(*a)) or starts[-1])
        monkeypatch.setattr(gs, "_colour_groups", lambda *a: coloured.append(a) or colour(*a))
        spec, tilt = self.CASES["gentle"]
        gs.sample_paths(spec, unit, tilt, gs.McmcParams(block_len=6, overlap=3, sweeps=20, burn_in=5, seed=2, chains=6))
        assert len(starts) == 1 and looked_up and set(looked_up) == {0}
        assert len(coloured) == 1

    def test_sample_paths_grows_no_module_container(self, unit):
        import sys

        def sizes():
            return {
                (name, attr): len(obj)
                for name, mod in list(sys.modules.items())
                if name.startswith("ensembles") and mod is not None
                for attr, obj in vars(mod).items()
                if isinstance(obj, (dict, list, set))
            }

        spec, tilt = self.CASES["gentle"]
        params = gs.McmcParams(block_len=6, overlap=3, sweeps=20, burn_in=5, seed=2, chains=6)
        gs.sample_paths(spec, unit, tilt, params)  # first-use imports and caches
        before = sizes()
        gs.sample_paths(spec, unit, tilt_of(lam=0.25), params)
        assert before and sizes() == before


class TestCandidateRows:
    """Block redraws read each draw's cumulative candidate row from a store
    beside the memo table, built on the row's first visit by the same
    ``ee.cumulative_weights`` a fresh draw would call."""

    memo = TestForwardMemo()

    def _run(self, unit, case="gentle"):
        spec, tilt = self.memo.CASES[case]
        heights, us = self.memo._start(spec, unit, 12)
        return self.memo._sweeps(spec, heights, us, tilt, unit, {})

    @pytest.mark.parametrize("case", sorted(TestForwardMemo.CASES))
    def test_rows_built_once_per_slot_time_and_state(self, unit, monkeypatch, case):
        built, taken = [], []
        build, take = gs._BlockMemo.build, gs._BlockMemo.take

        def counted(memo, keys):
            built.extend((id(memo.pred), memo.table.shape[1], int(k)) for k in keys)
            return build(memo, keys)

        monkeypatch.setattr(gs._BlockMemo, "build", counted)
        monkeypatch.setattr(
            gs._BlockMemo, "take", lambda memo, keys, spaces: taken.append(keys.size) or take(memo, keys, spaces)
        )
        self._run(unit, case)
        assert built and len(built) == len(set(built))
        assert sum(taken) > len(built)  # rows are reused

    def test_draws_equal_per_draw_rows(self, unit, monkeypatch):
        stored = self._run(unit)
        monkeypatch.setattr(gs._BlockMemo, "take", _fresh_rows)
        assert (stored == self._run(unit)).all()

    def test_steep_block_draws_equal_per_draw_rows(self, unit, monkeypatch):
        # TestSteepTilt's steep n = 3 walk, one full-window redraw per chain
        tilt = tilt_of(a=4.0, b=4.0, lam=1.0)
        spec = walk_spec(3, 0, 10, (14, 13, 12), x_max=16)
        cfg = gs.init_config(spec, unit, rng=np.random.default_rng(3))
        us = np.random.default_rng(22).random((500, 10))
        out = []
        for take in (gs._BlockMemo.take, _fresh_rows):
            monkeypatch.setattr(gs._BlockMemo, "take", take)
            ids = chain_ids(np.repeat(cfg.heights[None], 500, axis=0), spec)
            redraw(ids, spec, unit, tilt, [(0, None)], us, [0], {})
            out.append(chain_heights(ids, spec))
        assert (out[0] == out[1]).all()
        assert len(np.unique(out[0].reshape(500, -1), axis=0)) > 5

    def test_budget_trim_resets_the_store(self, unit, monkeypatch):
        free = self._run(unit)
        seen, calls = [], []
        memo_rows, take = gs._LocalSpace.forward_rows, gs._BlockMemo.take

        def recorded(local, m, starts, spaces):
            before = local.memo.get(m)
            old = None if before is None else (len(before.table), before.used, before.at.copy(), before.store)
            slot, memo = memo_rows(local, m, starts, spaces)
            if old is not None and (memo is not before or len(memo.table) > old[0]):
                kept = memo is before and memo.used == old[1] and (memo.at[: old[2].size] == old[2]).all()
                kept &= memo.store is old[3]  # the stored rows stay, uncopied
                trimmed = len(memo.table) == np.unique(starts).size and memo.used == 0
                trimmed &= gs._held(spaces) == _memo_held(memo)  # the run's other memos are emptied
                seen.append((kept, trimmed, old[1]))
            return slot, memo

        def held(memo, keys, spaces):
            before = memo.used
            out = take(memo, keys, spaces)
            calls.append((gs._held(spaces), _memo_held(memo), memo.used, np.unique(keys).size, before))
            return out

        monkeypatch.setattr(gs._LocalSpace, "forward_rows", recorded)
        monkeypatch.setattr(gs._BlockMemo, "take", held)
        self._run(unit)
        budget = max(size for _, size, *_ in calls) // 2
        seen.clear(), calls.clear()
        monkeypatch.setenv("ENSEMBLES_BUDGET", str(budget))
        assert (self._run(unit) == free).all()
        # a table grown in place keeps its stored rows; a trim empties the run's memos
        assert all(kept or trimmed for kept, trimmed, _ in seen)
        assert any(trimmed and used > 0 for _, trimmed, used in seen)
        # the run's tables, positions and stored rows keep to the budget,
        # or the memo holds only the rows of the call that took them over
        assert all(size <= budget or used == batch for size, _, used, batch, _ in calls)
        assert any(used < before for *_, used, _, before in calls)  # a fill dropped the stored rows

    def test_zero_mass_row_raises_and_is_not_stored(self, unit):
        # the pinned end 12 is 11 sites from the start, beyond 4 steps of 2
        spec = bridge_spec(1, 0, 4, (1,), (1,), x_max=20)
        ids = chain_ids(np.array([[[1, 2, 3, 4, 12]]]), spec)
        us = np.full((1, 3), 0.5)
        spaces = {}
        for _ in range(2):
            with pytest.raises(ValueError, match="^cannot sample from zero mass$"):
                redraw(ids, spec, unit, tilt_of(), [(0, 4)], us, [0], spaces)
        memo = spaces[12].memo[4]
        assert memo.used == 0 and (memo.at == -1).all()

    def test_two_threads_sharing_a_space_draw_as_one(self, unit):
        import threading

        spec, tilt = self.memo.CASES["gentle"]
        params = [gs.McmcParams(block_len=6, overlap=3, sweeps=30, burn_in=0, seed=s, chains=8) for s in (4, 5)]

        alone = [gs.sample_paths(spec, unit, tilt, p)[0].heights for p in params]
        start, out = threading.Barrier(2), [None, None]

        def run(i):
            start.wait()
            out[i] = gs.sample_paths(spec, unit, tilt, params[i])[0].heights

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(o is not None and o.tobytes() == a.tobytes() for o, a in zip(out, alone))


class TestSamplePaths:
    # sha256 of the stacked little-endian int64 kept heights, recorded when
    # the block memos were a module-level cache that runs shared
    PINNED_DRAWS = {
        # criterion 03's bridge, with fewer sweeps and chains
        "criterion-03-bridge": (
            lambda: (bridge_spec(1, -10, 10, (1,), (1,), x_max=mc.default_x_max(0.3, 1)), tilt_of(lam=0.3),
                     gs.McmcParams(block_len=8, overlap=4, sweeps=200, burn_in=20, thin=2, seed=7, chains=20)),
            "ad07dc9709e4da7ad6235d101e2466bda625800c394c683ea4d0d2451533ef60",
        ),
        # the sample-n2-walk benchmark op at seed 7
        "sample-n2-walk": (
            lambda: (walk_spec(2, -20, 20, (2, 1), x_max=mc.default_x_max(0.3, 2)), tilt_of(lam=0.3),
                     gs.McmcParams(block_len=8, overlap=4, sweeps=30, burn_in=10, seed=7, chains=32)),
            "1184d9c4dcda73e5d535b44bccc30029e2a81133f99458a3a77ef2fdaa60f6fa",
        ),
        # TestSteepTilt's steep n = 3 walk
        "steep-walk-n3": (
            lambda: (walk_spec(3, 0, 10, (14, 13, 12), x_max=16), tilt_of(a=4.0, b=4.0, lam=1.0),
                     gs.McmcParams(block_len=6, overlap=3, sweeps=20, burn_in=5, seed=3, chains=8)),
            "c3723b277d3164a2e42f7ea7bf3072746928fa6a220d43e7996a9893f422ca4d",
        ),
    }

    @pytest.mark.parametrize(
        "name,budget",
        [("criterion-03-bridge", None), ("sample-n2-walk", None), ("sample-n2-walk", 30000), ("steep-walk-n3", None)],
    )
    def test_pinned_draws(self, unit, monkeypatch, name, budget):
        """A change of the chains' streams or of the block redraws changes these draws."""
        made, dropped = [], []
        if budget is not None:  # low enough that the run restarts its memos and drops its stored rows
            monkeypatch.setenv("ENSEMBLES_BUDGET", str(budget))
            init, drop = gs._BlockMemo.__init__, gs._BlockMemo.drop_rows
            monkeypatch.setattr(
                gs._BlockMemo, "__init__", lambda memo, ch, m: made.append((id(ch), m)) or init(memo, ch, m)
            )
            monkeypatch.setattr(gs._BlockMemo, "drop_rows", lambda memo: dropped.append(memo) or drop(memo))
        make, digest = self.PINNED_DRAWS[name]
        spec, tilt, params = make()
        heights = gs.sample_paths(spec, unit, tilt, params)[0].heights
        assert heights.shape == (params.chains * -(-params.sweeps // params.thin), spec.n, spec.width)
        assert hashlib.sha256(heights.astype("<i8").tobytes()).hexdigest() == digest
        assert budget is None or (len(made) > len(set(made)) and dropped)

    def test_zero_sweeps_yields_empty(self, lazy):
        spec = bridge_spec(1, 0, 4, (1,), (1,), x_max=8)
        params = gs.McmcParams(sweeps=0, burn_in=0, seed=1)
        samples, diags = gs.sample_paths(spec, lazy, tilt_of(), params)
        assert len(samples) == 0
        assert isinstance(samples, mc.PathBatch) and samples.heights.shape == (0, 1, 5)
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
            counts = np.bincount(samples.heights[:, 0, 8], minlength=81)
            out.append(counts / counts.sum())
        assert 0.5 * np.abs(out[0] - out[1]).sum() <= 0.03

    def test_uniform_chunks_do_not_change_draws(self, unit, monkeypatch):
        # a chunk of k sweeps is one random((k, draws)) call per chain
        spec = bridge_spec(1, -6, 6, (2,), (2,), x_max=30)
        params = gs.McmcParams(block_len=5, overlap=2, sweeps=70, burn_in=3, seed=9, chains=3)
        out = []
        for chunk in (1, 5, gs._SWEEP_CHUNK):
            monkeypatch.setattr(gs, "_SWEEP_CHUNK", chunk)
            samples, _ = gs.sample_paths(spec, unit, tilt_of(lam=0.4), params)
            out.append(samples.heights)
        assert (out[0] == out[1]).all() and (out[0] == out[2]).all()

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
