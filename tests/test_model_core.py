import math
from collections.abc import Sequence

import numpy as np
import pytest

from ensembles import model_core as mc


class TestMakeKernel:
    def test_symmetric_two_point(self):
        k = mc.make_kernel((-1, 1), (0.5, 0.5))
        assert k.variance == pytest.approx(1.0)
        assert k.period == 2

    def test_lazy_three_point(self):
        k = mc.make_kernel((-1, 0, 1), (0.25, 0.5, 0.25))
        assert k.variance == pytest.approx(0.5)
        assert k.period == 1

    def test_nonzero_mean_rejected(self):
        with pytest.raises(mc.NonzeroMean):
            mc.make_kernel((-1, 1), (0.3, 0.7))

    def test_not_normalized_rejected(self):
        with pytest.raises(mc.NotNormalized):
            mc.make_kernel((-1, 1), (0.5, 0.6))

    def test_sublattice_support_rejected(self):
        with pytest.raises(mc.NotIrreducible):
            mc.make_kernel((-2, 2), (0.5, 0.5))

    def test_nonpositive_prob_rejected(self):
        with pytest.raises(ValueError):
            mc.make_kernel((-1, 0, 1), (0.5, 0.0, 0.5))

    def test_unit_preset_has_unit_variance(self):
        k = mc.unit_walk()
        assert k.variance == pytest.approx(1.0, abs=1e-15)
        assert k.period == 1


class TestHScale:
    def test_linear_small_lambda(self):
        s = mc.h_scale(mc.linear_potential(0.001))
        assert s.h_big == pytest.approx(10.0, rel=1e-10)

    def test_linear_identity(self):
        s = mc.h_scale(mc.linear_potential(1.0))
        assert s.h_big == pytest.approx(1.0, rel=1e-12)

    def test_cube_root_identity_across_lambda(self):
        for lam in np.logspace(-6, 0, 25):
            s = mc.h_scale(mc.linear_potential(float(lam)))
            assert abs(s.h_big * lam ** (1.0 / 3.0) - 1.0) < 1e-10


class TestPotential:
    @pytest.mark.parametrize("lam", [0.0, -0.5])
    def test_nonpositive_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lambda must be positive"):
            mc.linear_potential(lam)

    def test_tilt_spec_invariants(self):
        pot = mc.linear_potential(1.0)
        with pytest.raises(ValueError):
            mc.TiltSpec(a=0.0, b=2.0, potential=pot)
        with pytest.raises(ValueError):
            mc.TiltSpec(a=1.0, b=1.0, potential=pot)
        w = mc.TiltSpec(a=0.5, b=2.0, potential=pot).curve_weights(3)
        assert np.allclose(w, [0.5, 1.0, 2.0])


def _spec(n, m, nr, u, v=None, x_max=12):
    boundary = mc.Bridge(u=u, v=v) if v is not None else mc.Walk(u=u)
    return mc.EnsembleSpec(n=n, m_left=m, n_right=nr, boundary=boundary, x_max=x_max)


class TestAreaFunctional:
    def test_zero_heights(self):
        tilt = mc.TiltSpec(a=1.0, b=2.0, potential=mc.linear_potential(1.0))
        assert mc.area_functional(np.zeros((1, 4), dtype=int), tilt) == 0.0

    def test_single_curve_three_terms(self):
        tilt = mc.TiltSpec(a=1.0, b=2.0, potential=mc.linear_potential(1.0))
        spec = _spec(1, 0, 3, (1,), (1,))
        path = mc.PathConfig(heights=np.array([[1, 1, 1, 1]]), spec=spec)
        assert mc.area_functional(path, tilt) == pytest.approx(3.0)

    def test_two_curves_with_prefactors(self):
        tilt = mc.TiltSpec(a=0.5, b=2.0, potential=mc.linear_potential(1.0))
        heights = np.array([[2, 2, 2], [1, 1, 1]])
        assert mc.area_functional(heights, tilt) == pytest.approx(4.0)

    def test_additivity_exact_with_integer_terms(self):
        rng = np.random.default_rng(0)
        tilt = mc.TiltSpec(a=1.0, b=2.0, potential=mc.linear_potential(1.0))
        for _ in range(50):
            w = rng.integers(3, 9)
            h = rng.integers(0, 7, size=(2, w))
            k = int(rng.integers(1, w - 1))
            total = mc.area_functional(h, tilt)
            left = mc.area_functional(h[:, : k + 1], tilt)
            right = mc.area_functional(h[:, k:], tilt)
            assert total == left + right  # integer-valued terms: exact float sums

    def test_additivity_float_tolerance(self):
        rng = np.random.default_rng(1)
        tilt = mc.TiltSpec(a=0.7, b=1.7, potential=mc.linear_potential(0.31))
        for _ in range(25):
            w = rng.integers(3, 9)
            h = rng.integers(0, 7, size=(3, w))
            k = int(rng.integers(1, w - 1))
            total = mc.area_functional(h, tilt)
            parts = mc.area_functional(h[:, : k + 1], tilt) + mc.area_functional(h[:, k:], tilt)
            assert total == pytest.approx(parts, abs=1e-12)


class TestOrdering:
    def test_constant_ordered_columns(self):
        h = np.tile([[3], [2], [1]], (1, 5))
        assert mc.ordering_ok(h)

    def test_equal_rows_rejected(self):
        h = np.array([[2, 2, 2], [2, 1, 1]])
        assert not mc.ordering_ok(h)

    def test_wall_contact_rejected(self):
        h = np.array([[2, 2, 2], [1, 0, 1]])
        assert not mc.ordering_ok(h)

    def test_monotone_under_raising_top_curve(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            h = rng.integers(0, 6, size=(3, 6))
            before = mc.ordering_ok(h)
            lift = h.copy()
            lift[0] += rng.integers(0, 4, size=6)
            if before:
                assert mc.ordering_ok(lift)


class TestLogTiltWeight:
    def test_ordered_path(self):
        tilt = mc.TiltSpec(a=1.0, b=2.0, potential=mc.linear_potential(1.0))
        h = np.array([[1, 1, 1, 1]])
        assert mc.log_tilt_weight(h, tilt) == pytest.approx(-3.0)

    def test_unordered_path_is_minus_infinity(self):
        tilt = mc.TiltSpec(a=1.0, b=2.0, potential=mc.linear_potential(1.0))
        h = np.array([[1, 1], [1, 1]])
        assert mc.log_tilt_weight(h, tilt) == mc.NEG_INF

    def test_zero_path_is_minus_infinity(self):
        tilt = mc.TiltSpec(a=1.0, b=2.0, potential=mc.linear_potential(1.0))
        assert mc.log_tilt_weight(np.zeros((1, 3), dtype=int), tilt) == mc.NEG_INF


class TestRescale:
    def test_identity_at_unit_scale(self):
        spec = _spec(1, 0, 3, (2,), (2,), x_max=9)
        path = mc.PathConfig(heights=np.array([[2, 3, 2, 2]]), spec=spec)
        r = mc.rescale(path, mc.h_scale(mc.linear_potential(1.0)))
        assert np.allclose(r.times, [0, 1, 2, 3])
        assert np.allclose(r.values, path.heights)

    def test_half_scale_point(self):
        # H = 2: X(4) = 6 maps to value 3.0 at time 1.0
        scale = mc.ScaleInfo(lam=0.125, h_big=2.0, h_small=0.5)
        spec = _spec(1, 0, 4, (2,), (6,), x_max=9)
        path = mc.PathConfig(heights=np.array([[2, 3, 4, 5, 6]]), spec=spec)
        r = mc.rescale(path, scale)
        assert r.evaluate(1.0)[0] == pytest.approx(3.0)

    def test_midpoint_is_arithmetic_mean(self):
        spec = _spec(1, 0, 1, (2,), (4,), x_max=9)
        path = mc.PathConfig(heights=np.array([[2, 4]]), spec=spec)
        r = mc.rescale(path, mc.h_scale(mc.linear_potential(1.0)))
        assert r.evaluate(0.5)[0] == pytest.approx(3.0)

    def test_round_trip_exact_on_grid(self):
        rng = np.random.default_rng(3)
        scale = mc.h_scale(mc.linear_potential(0.2))
        h = rng.integers(1, 50, size=(2, 7))
        h.sort(axis=0)
        h = h[::-1] + np.array([[5], [0]])
        spec = mc.EnsembleSpec(
            n=2, m_left=-3, n_right=3,
            boundary=mc.Bridge(u=tuple(h[:, 0]), v=tuple(h[:, -1])), x_max=100,
        )
        path = mc.PathConfig(heights=h, spec=spec)
        r = mc.rescale(path, scale)
        back = r.values * scale.h_big
        assert np.allclose(back, h, atol=1e-9)

    def test_out_of_range_evaluation(self):
        spec = _spec(1, 0, 2, (1,), (1,), x_max=9)
        path = mc.PathConfig(heights=np.array([[1, 2, 1]]), spec=spec)
        r = mc.rescale(path, mc.h_scale(mc.linear_potential(1.0)))
        with pytest.raises(mc.OutOfRange):
            r.evaluate(2.5)


class TestSpecsAndPaths:
    def test_boundary_must_be_chamber_point(self):
        with pytest.raises(ValueError):
            _spec(2, 0, 2, (1, 1), (2, 1))
        with pytest.raises(ValueError):
            _spec(2, 0, 2, (1, 0), (2, 1))
        with pytest.raises(ValueError):
            _spec(1, 0, 2, (20,), (1,), x_max=10)

    def test_path_boundary_columns_must_match(self):
        spec = _spec(1, 0, 2, (1,), (1,), x_max=5)
        with pytest.raises(ValueError):
            mc.PathConfig(heights=np.array([[2, 2, 1]]), spec=spec)
        with pytest.raises(ValueError):
            mc.PathConfig(heights=np.array([[1, 2, 2]]), spec=spec)

    def test_heights_are_immutable(self):
        spec = _spec(1, 0, 2, (1,), (1,), x_max=5)
        path = mc.PathConfig(heights=np.array([[1, 2, 1]]), spec=spec)
        with pytest.raises(ValueError):
            path.heights[0, 1] = 3

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[3, 2, 1], [2, 1, 2]]),  # shape: one curve too many
            np.array([[3, 2, 4, 4]]),  # shape: one time too many
            np.array([[3, -1, 4]]),  # a negative height
            np.array([[2, 2, 4]]),  # left column off u
            np.array([[3, 2, 3]]),  # right column off v
        ],
    )
    def test_batch_raises_as_single_construction(self, bad):
        spec = _spec(1, 0, 2, (3,), (4,), x_max=9)
        good = np.array([[3, 5, 4]])
        with pytest.raises(ValueError) as single:
            mc.PathConfig(heights=bad, spec=spec)
        batch = np.stack([good, bad, good] if bad.shape == good.shape else [bad, bad])
        with pytest.raises(type(single.value)) as batched:
            mc.PathBatch(batch, spec)
        assert str(batched.value) == str(single.value)

    def test_batch_equals_single_construction(self):
        spec = _spec(2, 0, 3, (4, 2), (5, 1), x_max=9)
        heights = np.array([[[4, 5, 6, 5], [2, 1, 3, 1]], [[4, 4, 4, 5], [2, 3, 2, 1]]])
        paths = mc.PathBatch(heights.copy(), spec)
        assert len(paths) == 2
        for p, h in zip(paths, heights):
            one = mc.PathConfig(heights=h, spec=spec)
            assert p.spec == one.spec and p.heights.dtype == one.heights.dtype == np.int64
            assert np.array_equal(p.heights, one.heights)
            with pytest.raises(ValueError):
                p.heights[0, 1] = 3
        assert len(mc.PathBatch(np.zeros((0, 2, 4), dtype=np.int64), spec)) == 0

    def test_batch_items_are_read_only_views(self):
        spec = _spec(2, 0, 3, (4, 2), (5, 1), x_max=9)
        heights = np.array([[[4, 5, 6, 5], [2, 1, 3, 1]], [[4, 4, 4, 5], [2, 3, 2, 1]]])
        batch = mc.PathBatch(heights.copy(), spec)
        assert isinstance(batch, Sequence) and len(batch) == 2
        for i, p in enumerate(batch):
            assert type(p) is mc.PathConfig and p.spec is spec
            assert np.array_equal(p.heights, heights[i]) and np.shares_memory(p.heights, batch.heights[i])
            with pytest.raises(ValueError):
                p.heights[0, 1] = 3
        assert np.shares_memory(batch[-1].heights, batch.heights[1])
        with pytest.raises(IndexError):
            batch[2]

    def test_batch_slice_is_a_list_of_paths(self):
        spec = _spec(2, 0, 3, (4, 2), (5, 1), x_max=9)
        heights = np.array([[[4, 5, 6, 5], [2, 1, 3, 1]], [[4, 4, 4, 5], [2, 3, 2, 1]]])
        batch = mc.PathBatch(heights, spec)
        tail = batch[1:]
        assert type(tail) is list and len(tail) == 1 and type(tail[0]) is mc.PathConfig
        assert np.array_equal(tail[0].heights, heights[1])
        assert batch[:0] == [] and [p.heights.shape for p in batch[::-1]] == [(2, 4), (2, 4)]

    def test_batches_compare_by_identity(self):
        spec = _spec(1, 0, 2, (3,), (4,), x_max=9)
        heights = np.array([[[3, 5, 4]], [[3, 4, 4]]])
        batch = mc.PathBatch(heights, spec)
        assert batch == batch and batch != mc.PathBatch(heights, spec)

    def test_default_x_max_rule(self):
        assert mc.default_x_max(0.5, 1) == math.ceil(30 / 0.5 + 1 + 5)
