import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_law, brute_partition, chi_square_p
from ensembles import exact_engine as ee
from ensembles import model_core as mc


def tilt_of(a=1.0, b=2.0, lam=1.0):
    return mc.TiltSpec(a=a, b=b, potential=mc.linear_potential(lam))


def bridge_spec(n, m, nr, u, v, x_max):
    return mc.EnsembleSpec(n=n, m_left=m, n_right=nr, boundary=mc.Bridge(u=u, v=v), x_max=x_max)


def walk_spec(n, m, nr, u, x_max):
    return mc.EnsembleSpec(n=n, m_left=m, n_right=nr, boundary=mc.Walk(u=u), x_max=x_max)


class TestStateSpace:
    @pytest.mark.parametrize("n,x_max,count", [(1, 3, 3), (2, 3, 3), (2, 4, 6)])
    def test_counts(self, n, x_max, count):
        assert ee.enumerate_states(n, x_max).size == count

    def test_lexicographic_deterministic(self):
        s = ee.enumerate_states(2, 4)
        assert s.states == ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
        assert [s.id_of(t) for t in s.states] == list(range(6))

    def test_budget(self):
        with pytest.raises(ee.TooLarge):
            ee.enumerate_states(10, 60, max_states=1000)

    def test_id_of_rejects_non_state(self):
        s = ee.enumerate_states(2, 4)
        with pytest.raises(ValueError):
            s.id_of((1, 2))


class TestStepMatrix:
    def test_single_entry_value(self, srw):
        states = ee.enumerate_states(1, 6)
        step = ee.step_matrix(states, srw, tilt_of())
        assert step.entry((1,), (2,)) == pytest.approx(0.5 * math.exp(-1.0))

    def test_no_zero_step_for_srw(self, srw):
        states = ee.enumerate_states(1, 6)
        step = ee.step_matrix(states, srw, tilt_of())
        assert step.entry((1,), (1,)) == 0.0

    @pytest.mark.parametrize("kernel", ["srw", "lazy", "unit"])
    def test_predecessor_table_matches_matrix(self, request, kernel):
        kern = request.getfixturevalue(kernel)
        states = ee.enumerate_states(2, 7)
        pred, probs = ee.predecessor_table(states, kern)
        dense = np.zeros((states.size, states.size))
        for j, k in zip(*np.nonzero(pred >= 0)):
            dense[pred[j, k], j] += probs[k]
        assert pred.shape == (states.size, len(kern.offsets) ** 2)
        assert np.array_equal(dense, ee._step_probability_matrix(states, kern).toarray())

    def test_crossing_target_is_not_a_state(self, lazy):
        states = ee.enumerate_states(2, 4)
        with pytest.raises(ValueError):
            states.id_of((1, 2))


class TestPartitions:
    def test_bridge_unique_path(self, srw):
        spec = bridge_spec(1, 0, 2, (1,), (1,), x_max=10)
        res = ee.partition_bridge(spec, srw, tilt_of())
        expected = 0.25 * math.exp(-3.0)
        assert res.log_z == pytest.approx(math.log(expected), abs=1e-12)
        assert math.exp(res.log_z) == pytest.approx(
            brute_partition(spec, srw, 1.0, 2.0, 1.0), rel=1e-12
        )

    def test_bridge_parity_infeasible(self, srw):
        spec = bridge_spec(1, 0, 2, (1,), (2,), x_max=10)
        with pytest.raises(ee.ParityInfeasible):
            ee.partition_bridge(spec, srw, tilt_of())

    def test_bridge_vanishing_tilt(self, srw):
        spec = bridge_spec(1, 0, 2, (1,), (1,), x_max=10)
        res = ee.partition_bridge(spec, srw, tilt_of(a=1e-12))
        assert res.log_z == pytest.approx(math.log(0.25), abs=1e-9)

    def test_walk_single_step_lazy(self, lazy):
        spec = walk_spec(1, 0, 1, (1,), x_max=10)
        res = ee.partition_walk(spec, lazy, tilt_of())
        assert res.log_z == pytest.approx(math.log(0.75) - 1.0, abs=1e-12)

    def test_walk_matches_brute_force(self, lazy):
        spec = walk_spec(2, 0, 4, (3, 1), x_max=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ee.CutoffDominatedWarning)
            res = ee.partition_walk(spec, lazy, tilt_of(a=0.7, b=1.5, lam=0.9))
        assert math.exp(res.log_z) == pytest.approx(
            brute_partition(spec, lazy, 0.7, 1.5, 0.9), rel=1e-12
        )

    def test_walk_against_rejection_monte_carlo(self, unit):
        # vanishing tilt, generous cutoff: Z approaches the probability that
        # the free ordered pair stays admissible; 1e6 paths, 3 sigma
        spec = walk_spec(2, 0, 4, (4, 2), x_max=60)
        res = ee.partition_walk(spec, unit, tilt_of(a=1e-13))
        p_exact = math.exp(res.log_z)
        rng = np.random.default_rng(2024)
        n_mc = 1_000_000
        offs = np.array(unit.offsets)
        probs = np.array(unit.probs)
        steps = rng.choice(offs, size=(n_mc, 2, 4), p=probs)
        paths = np.concatenate(
            [np.tile([[4], [2]], (n_mc, 1, 1)), np.cumsum(steps, axis=2) + [[4], [2]]], axis=2
        )
        ok = (paths[:, 1, :] >= 1).all(axis=1) & (paths[:, 0, :] > paths[:, 1, :]).all(axis=1)
        p_hat = ok.mean()
        sigma = math.sqrt(p_exact * (1 - p_exact) / n_mc)
        assert abs(p_hat - p_exact) < 3 * sigma

    def test_cutoff_warning_at_blocked_top(self, srw):
        spec = walk_spec(1, 0, 2, (3,), x_max=3)
        with pytest.warns(ee.CutoffDominatedWarning):
            res = ee.partition_walk(spec, srw, tilt_of())
        assert res.cutoff_warning


class TestLaws:
    def test_left_boundary_point_mass(self, srw):
        spec = bridge_spec(1, 0, 2, (1,), (1,), x_max=8)
        law = ee.law_restricted(spec, srw, tilt_of(), [0])
        states = law.meta["states"]
        assert law.probs[states.id_of((1,))] == pytest.approx(1.0)

    def test_unique_path_joint_law(self, srw):
        spec = bridge_spec(1, 0, 2, (1,), (1,), x_max=8)
        law = ee.law_restricted(spec, srw, tilt_of(), [0, 1])
        assert np.max(law.probs) == pytest.approx(1.0)

    def test_joint_matches_brute_force(self, lazy):
        spec = bridge_spec(2, -2, 2, (3, 1), (2, 1), x_max=5)
        times = [-1, 0, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ee.CutoffDominatedWarning)
            law = ee.law_restricted(spec, lazy, tilt_of(lam=0.8), times)
        oracle = brute_law(spec, lazy, 1.0, 2.0, 0.8, times)
        states = law.meta["states"]
        s = states.size
        arr = law.probs.reshape(s, s, s)
        for key, p in oracle.items():
            ids = tuple(states.id_of(c) for c in key)
            assert arr[ids] == pytest.approx(p, abs=1e-12)

    def test_marginalization_consistency(self, lazy):
        spec = bridge_spec(1, 0, 4, (2,), (2,), x_max=7)
        joint = ee.law_restricted(spec, lazy, tilt_of(lam=0.5), [1, 2, 3])
        sub = ee.marginalize_product(joint, [2])
        direct = ee.law_restricted(spec, lazy, tilt_of(lam=0.5), [2])
        assert ee.tv_exact(sub, direct) <= 1e-12

    def test_budget_guard(self, lazy, monkeypatch):
        monkeypatch.setenv("ENSEMBLES_BUDGET", "100")
        spec = bridge_spec(1, 0, 4, (2,), (2,), x_max=7)
        with pytest.raises(ee.TooLarge):
            ee.law_restricted(spec, lazy, tilt_of(), [0, 1, 2, 3, 4])


class TestMarginal:
    def test_midpoint_point_mass(self, srw):
        spec = bridge_spec(1, 0, 2, (1,), (1,), x_max=8)
        d = ee.marginal(spec, srw, tilt_of(), 1)
        states = ee.enumerate_states(1, 8)
        assert d.probs[states.id_of((2,))] == pytest.approx(1.0)

    def test_probabilities_sum_to_one(self, lazy):
        spec = walk_spec(1, 0, 6, (2,), x_max=40)
        d = ee.marginal(spec, lazy, tilt_of(lam=0.4), 3)
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_time_reversal_symmetry(self, lazy):
        spec = bridge_spec(2, 0, 6, (4, 2), (4, 2), x_max=9)
        tilt = tilt_of(lam=0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ee.CutoffDominatedWarning)
            m1 = ee.marginal(spec, lazy, tilt, 1)
            m2 = ee.marginal(spec, lazy, tilt, 5)
        assert np.allclose(m1.probs, m2.probs, atol=1e-12)


class TestSteepBackward:
    """A start far above where the tilt holds the mass: backward messages
    there sit thousands of nats below their maximum, beyond one shared
    linear-space shift."""

    def test_high_start_walk_matches_brute_force(self, unit):
        spec = walk_spec(1, 0, 3, (20,), x_max=25)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ee.CutoffDominatedWarning)
            res = ee.ensemble_messages(spec, unit, tilt_of(a=100.0, b=2.0, lam=1.0))
        states = res.states
        for t in spec.times:
            d = ee.marginal_from_messages(res, t)
            oracle = brute_law(spec, unit, 100.0, 2.0, 1.0, [t])
            expected = np.zeros(states.size)
            for (col,), p in oracle.items():
                expected[states.id_of(col)] = p
            assert np.abs(d.probs - expected).max() <= 1e-12

    def test_three_curves_have_finite_marginals(self, unit):
        spec = walk_spec(3, 0, 10, (14, 13, 12), x_max=16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ee.CutoffDominatedWarning)
            res = ee.ensemble_messages(spec, unit, tilt_of(a=4.0, b=4.0, lam=1.0))
        for t in spec.times:
            d = ee.marginal_from_messages(res, t)
            assert d.log_z == pytest.approx(res.log_z, rel=1e-12)


class TestConditionalBridgeLaw:
    def test_empty_interior(self, lazy):
        spec = bridge_spec(1, 0, 4, (2,), (2,), x_max=7)
        res = ee.conditional_bridge_law(spec, lazy, tilt_of(), 1, 2, ((2,), (2,)))
        assert res.diagnostic_tv == 0.0
        assert res.law.probs.tolist() == [1.0]

    def test_zero_probability_endpoint(self, lazy):
        spec = bridge_spec(1, 0, 4, (2,), (2,), x_max=7)
        with pytest.raises(ee.ZeroProbabilityEndpoint):
            ee.conditional_bridge_law(spec, lazy, tilt_of(), 1, 3, ((2,), (7,)))

    def test_gibbs_diagnostic_on_random_instances(self, lazy, unit):
        from conftest import random_admissible_path

        rng = np.random.default_rng(5)
        kernels = [lazy, unit]
        done = 0
        while done < 10:
            n = int(rng.integers(1, 3))
            x_max = int(rng.integers(n + 1, 7))
            width = int(rng.integers(3, 7))
            kernel = kernels[int(rng.integers(0, 2))]
            tilt = tilt_of(lam=float(rng.uniform(0.2, 1.0)), b=float(rng.uniform(1.1, 4.0)))
            path = random_admissible_path(rng, n, x_max, width, kernel)
            if path is None:
                continue
            k_hi = min(width - 1, 4 if n == 1 else 3)
            if k_hi < 2:
                continue
            gap = int(rng.integers(2, k_hi + 1))
            k0 = int(rng.integers(0, width - gap))
            spec = bridge_spec(n, 0, width, tuple(path[0]), tuple(path[-1]), x_max)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ee.CutoffDominatedWarning)
                res = ee.conditional_bridge_law(
                    spec, kernel, tilt, k0, k0 + gap, (tuple(path[k0]), tuple(path[k0 + gap]))
                )
            assert res.diagnostic_tv <= 1e-10
            done += 1


class TestExactSample:
    def test_deterministic_given_seed(self, lazy):
        spec = bridge_spec(2, 0, 5, (3, 1), (3, 1), x_max=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ee.CutoffDominatedWarning)
            a = ee.exact_sample(spec, lazy, tilt_of(), seed=11, count=4)
            b = ee.exact_sample(spec, lazy, tilt_of(), seed=11, count=4)
        assert all((x.heights == y.heights).all() for x, y in zip(a, b))

    def test_zero_count(self, lazy):
        spec = bridge_spec(1, 0, 3, (1,), (2,), x_max=6)
        assert ee.exact_sample(spec, lazy, tilt_of(), seed=0, count=0) == []

    def test_chi_square_against_marginals(self, lazy):
        spec = bridge_spec(1, 0, 4, (1,), (1,), x_max=8)
        tilt = tilt_of(lam=0.5)
        samples = ee.exact_sample(spec, lazy, tilt, seed=99, count=20_000)
        res = ee.ensemble_messages(spec, lazy, tilt)
        for t in (1, 2, 3):
            counts = np.zeros(res.states.size)
            for s in samples:
                counts[res.states.id_of(s.column(t))] += 1
            assert chi_square_p(counts, ee.marginal_from_messages(res, t).probs) > 0.001


    @pytest.mark.filterwarnings("ignore::ensembles.exact_engine.CutoffDominatedWarning")
    @pytest.mark.parametrize("kernel", ["srw", "lazy", "unit"])
    @pytest.mark.parametrize("kind", ["bridge", "walk"])
    @pytest.mark.parametrize("n,u,steps,x_max", [(1, (2,), 4, 6), (2, (3, 1), 4, 6), (3, (6, 3, 1), 2, 8)])
    def test_full_path_law_matches_brute_force(self, request, kernel, kind, n, u, steps, x_max):
        kern = request.getfixturevalue(kernel)
        if kind == "bridge":
            spec = bridge_spec(n, 0, steps, u, u, x_max=x_max)
        else:
            spec = walk_spec(n, 0, steps, u, x_max=x_max)
        law = brute_law(spec, kern, 1.0, 2.0, 0.4, list(spec.times))
        paths = list(law)
        assert len(paths) > 1
        index = {p: i for i, p in enumerate(paths)}
        counts = np.zeros(len(paths))
        for s in ee.exact_sample(spec, kern, tilt_of(lam=0.4), seed=5, count=10_000):
            path = tuple(s.column(t) for t in spec.times)
            assert path in index, f"sampled path {path} has zero mass"
            counts[index[path]] += 1
        assert chi_square_p(counts, np.array([law[p] for p in paths])) > 0.001

    @pytest.mark.parametrize("boundary", [mc.Bridge(u=(3, 1), v=(4, 2)), mc.Walk(u=(3, 1))])
    def test_sample_i_independent_of_count(self, unit, boundary):
        spec = mc.EnsembleSpec(n=2, m_left=-6, n_right=6, boundary=boundary, x_max=20)
        tilt = tilt_of(lam=0.5)
        many = ee.exact_sample(spec, unit, tilt, seed=3, count=200)
        few = ee.exact_sample(spec, unit, tilt, seed=3, count=7)
        assert all(np.array_equal(a.heights, b.heights) for a, b in zip(many[:7], few))


def _first_above(weights, u):
    """Reference rule, one row at a time: first index whose cumulative
    weight exceeds u times the total."""
    w = [x / max(weights) for x in weights]
    target = u * float(np.cumsum(w)[-1])
    acc = 0.0
    for i, x in enumerate(w):
        acc += x
        if acc > target:
            return i
    raise AssertionError("no index above the target")


class TestCategorical:
    @pytest.mark.parametrize(
        "u,expected", [(0.0, 1), (np.nextafter(1.0, 0.0), 3), (0.5, 2)]
    )
    def test_zero_weight_ends_never_drawn(self, u, expected):
        w = np.array([[0.0, 1.0, 1.0, 1.0, 0.0]])
        assert ee.categorical(w, np.array([u])).tolist() == [expected]
        assert ee.categorical(np.repeat(w, 2, axis=0), np.array([u, u])).tolist() == [expected] * 2

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            ee.categorical(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([0.5, 0.5]))

    @given(
        st.lists(
            st.lists(st.sampled_from([0.0, 1e-300, 1e-3, 0.5, 1.0, 7.0]), min_size=1, max_size=8),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1 and all(max(r) > 0 for r in rows)),
        st.lists(
            st.one_of(st.just(0.0), st.just(float(np.nextafter(1.0, 0.0))), st.floats(0.0, 1.0, exclude_max=True)),
            min_size=6,
            max_size=6,
        ),
    )
    def test_matches_reference_rule(self, rows, us):
        w = np.array(rows)
        u = np.array(us[: len(rows)])
        got = ee.categorical(w, u)
        assert got.tolist() == [_first_above(r, x) for r, x in zip(rows, u)]
        assert np.all(w[np.arange(len(rows)), got] > 0)
        shared = ee.categorical(w[:1], u)
        assert shared.tolist() == [_first_above(rows[0], x) for x in u]


class TestTvExact:
    def test_identical(self):
        d = ee.Distribution(space=("x",), log_weights=np.log([0.5, 0.5]))
        assert ee.tv_exact(d, d) == 0.0

    def test_disjoint_supports(self):
        d1 = ee.Distribution(space=("x",), log_weights=np.array([0.0, mc.NEG_INF]))
        d2 = ee.Distribution(space=("x",), log_weights=np.array([mc.NEG_INF, 0.0]))
        assert ee.tv_exact(d1, d2) == pytest.approx(1.0)

    def test_half(self):
        d1 = ee.Distribution(space=("x",), log_weights=np.log([0.5, 0.5]))
        d2 = ee.Distribution(space=("x",), log_weights=np.array([0.0, mc.NEG_INF]))
        assert ee.tv_exact(d1, d2) == pytest.approx(0.5)

    def test_space_mismatch(self):
        d1 = ee.Distribution(space=("x",), log_weights=np.log([1.0]))
        d2 = ee.Distribution(space=("y",), log_weights=np.log([1.0]))
        with pytest.raises(ee.SpaceMismatch):
            ee.tv_exact(d1, d2)


class TestEngineInvariants:
    def test_partition_consistency_at_every_time(self, unit):
        from ensembles._linalg import logsumexp

        spec = bridge_spec(2, -3, 3, (4, 2), (3, 1), x_max=30)
        res = ee.partition_bridge(spec, unit, tilt_of(lam=0.7, b=3.0))
        for c in range(spec.width):
            val = float(logsumexp(res.forward[c] + res.backward[c]))
            assert val == pytest.approx(res.log_z, abs=1e-9)

    def test_monotone_tilt_strictly_decreases_log_z(self, lazy):
        spec = walk_spec(1, 0, 5, (2,), x_max=25)
        z1 = ee.partition_walk(spec, lazy, tilt_of(a=1.0, lam=0.5)).log_z
        z2 = ee.partition_walk(spec, lazy, tilt_of(a=1.5, lam=0.5)).log_z
        assert z2 < z1

    def test_cutoff_stability_under_doubling(self, lazy):
        lam = 0.5
        z = {}
        for x_max in (60, 120):
            spec = walk_spec(1, 0, 6, (1,), x_max=x_max)
            z[x_max] = ee.partition_walk(spec, lazy, tilt_of(lam=lam)).log_z
        assert abs(z[120] - z[60]) < 1e-8

    def test_restriction_consistency(self, unit):
        spec = bridge_spec(1, 0, 5, (2,), (2,), x_max=9)
        tilt = tilt_of(lam=0.6)
        full = ee.law_restricted(spec, unit, tilt, [1, 2, 4])
        sub = ee.marginalize_product(full, [1, 4])
        direct = ee.law_restricted(spec, unit, tilt, [1, 4])
        assert ee.tv_exact(sub, direct) <= 1e-12
