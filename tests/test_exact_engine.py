import hashlib
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_law,
    brute_partition,
    chi_square_p,
    combination_states,
    hand_area,
    iter_paths,
    searched_curve_factors,
)
from ensembles import brownian_oracle as bo
from ensembles import exact_engine as ee
from ensembles import gibbs_sampler as gs
from ensembles import model_core as mc
from ensembles._linalg import logsumexp
from ensembles._streams import spawned_uniforms


def tilt_of(a=1.0, b=2.0, lam=1.0):
    return mc.TiltSpec(a=a, b=b, potential=mc.linear_potential(lam))


def bridge_spec(n, m, nr, u, v, x_max):
    return mc.EnsembleSpec(n=n, m_left=m, n_right=nr, boundary=mc.Bridge(u=u, v=v), x_max=x_max)


def walk_spec(n, m, nr, u, x_max):
    return mc.EnsembleSpec(n=n, m_left=m, n_right=nr, boundary=mc.Walk(u=u), x_max=x_max)


def marginalize_product(dist, keep_times):
    """The marginal of a product law onto the sorted subset ``keep_times``
    of its times."""
    kind, n, x_max, times = dist.space
    arr = dist.log_weights.reshape((dist.meta["states"].size,) * len(times))
    drop = tuple(i for i, t in enumerate(times) if t not in keep_times)
    log_w = np.ravel(logsumexp(arr, axis=drop))
    return ee.Distribution(space=(kind, n, x_max, tuple(keep_times)), log_weights=log_w)


class TestStateSpace:
    @pytest.mark.parametrize("n,x_max,count", [(1, 3, 3), (2, 3, 3), (2, 4, 6)])
    def test_counts(self, n, x_max, count):
        assert ee.enumerate_states(n, x_max).size == count

    def test_lexicographic_deterministic(self):
        s = ee.enumerate_states(2, 4)
        assert s.arr.tolist() == [[2, 1], [3, 1], [3, 2], [4, 1], [4, 2], [4, 3]]
        assert [s.id_of(t) for t in s.arr] == list(range(6))

    @pytest.mark.parametrize(
        "n,x_max", [(1, 1), (1, 7), (2, 2), (2, 9), (3, 3), (3, 10), (4, 4), (4, 11), (5, 5), (5, 12), (6, 6), (6, 13)]
    )
    def test_enumeration_matches_sorted_tuples(self, n, x_max):
        reference = sorted(tuple(reversed(c)) for c in itertools.combinations(range(1, x_max + 1), n))
        s = ee.enumerate_states(n, x_max)
        assert s.arr.dtype == np.int64 and s.arr.shape == (len(reference), n)
        assert s.arr.tolist() == [list(t) for t in reference]
        assert not s.arr.flags.writeable

    def test_budget(self):
        with pytest.raises(ee.TooLarge):
            ee.enumerate_states(10, 60, max_states=1000)

    def test_id_of_rejects_non_state(self):
        s = ee.enumerate_states(2, 4)
        with pytest.raises(ValueError):
            s.id_of((1, 2))

    def test_ids_match_id_of(self):
        s = ee.enumerate_states(3, 7)
        cols = s.arr[::-1].reshape(5, 7, 3)
        assert s.ids(cols).tolist() == [[s.id_of(c) for c in row] for row in cols]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_smaller_caps_are_prefixes_and_ids_name_their_tops(self, n):
        # the block sampler's chains carry ids across local spaces of all caps
        for b in range(n + 1, n + 8):
            big = ee.enumerate_states(n, b)
            for a in range(n, b):
                assert (ee.enumerate_states(n, a).arr == big.arr[: math.comb(a, n)]).all()
            plan = gs._SweepPlan(walk_spec(n, 0, 1, tuple(range(n, 0, -1)), b), [])
            assert [plan.top(np.array([s])) for s in range(big.size)] == big.arr[:, 0].tolist()
            heights = plan.heights(np.arange(big.size)[:, None], np.empty((big.size, n, 1), dtype=np.int64))
            assert (heights[:, :, 0] == big.arr).all()
            assert plan.ids(big.arr[:, :, None]).ravel().tolist() == list(range(big.size))

    @pytest.mark.parametrize("col", [(1, 2), (3, 3), (2, 6), (1, 0), (0, -4)])
    def test_ids_reject_non_states(self, col):
        # (2, 6) has the key of (3, 1) and (1, 0) that of (0, 5) in base 5
        s = ee.enumerate_states(2, 4)
        with pytest.raises(ValueError, match="not a state"):
            s.ids(np.array([(4, 3), col]))



LIBRARY_LOOKUPS = {
    "ensemble_messages": lambda k: ee.ensemble_messages(bridge_spec(2, 0, 6, (4, 2), (3, 1), 9), k, tilt_of()),
    "exact_sample": lambda k: ee.exact_sample(walk_spec(2, 0, 6, (4, 2), 9), k, tilt_of(), seed=1, count=3),
    "conditional_bridge_law": lambda k: ee.conditional_bridge_law(
        walk_spec(2, 0, 6, (4, 2), 9), k, tilt_of(), 1, 4, ((3, 1), (4, 1))
    ),
    "sample_paths": lambda k: gs.sample_paths(
        bridge_spec(2, 0, 8, (4, 2), (3, 1), 9), k, tilt_of(),
        gs.McmcParams(block_len=4, overlap=2, sweeps=3, burn_in=1, chains=2),
    ),
    "polymer_marginal": lambda k: bo.polymer_marginal(
        2, 1.0, 2.0, bo.GridSpec(dx=0.25, height_cap=2.0, m_half=0.5), bo.Fixed(u=(1.0, 0.5), v=(0.75, 0.25)), 0.0
    ),
}


class TestLookups:
    """The library looks states up with ``ids``: the ``index`` dict behind
    ``id_of`` is only built for callers that look up one tuple at a time."""

    @pytest.mark.filterwarnings("ignore::ensembles.exact_engine.CutoffDominatedWarning")
    @pytest.mark.parametrize("name", sorted(LIBRARY_LOOKUPS))
    def test_library_never_builds_the_index(self, lazy, monkeypatch, name):
        made = []
        real = ee.enumerate_states
        monkeypatch.setattr(ee, "enumerate_states", lambda *a, **kw: made.append(real(*a, **kw)) or made[-1])
        LIBRARY_LOOKUPS[name](lazy)
        assert made
        assert all("index" not in states.__dict__ for states in made)

    def test_id_of_builds_the_index_once(self):
        s = ee.enumerate_states(2, 5)
        assert "index" not in s.__dict__
        assert s.id_of((5, 4)) == s.size - 1
        index = s.__dict__["index"]
        assert s.id_of((2, 1)) == 0 and s.__dict__["index"] is index


class TestStepMatrix:
    def test_single_entry_value(self, srw):
        states = ee.enumerate_states(1, 6)
        step = ee.step_matrix(states, srw, tilt_of())
        i, j = states.ids((1,)), states.ids((2,))
        assert step.chamber.matrix_t[j, i] * math.exp(step.log_tilt[i]) == pytest.approx(0.5 * math.exp(-1.0))

    def test_no_zero_step_for_srw(self, srw):
        states = ee.enumerate_states(1, 6)
        step = ee.step_matrix(states, srw, tilt_of())
        i = states.ids((1,))
        assert step.chamber.matrix_t[i, i] * math.exp(step.log_tilt[i]) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kernel", ["srw", "lazy", "unit", "unsorted"])
    def test_predecessors_list_column_nonzeros(self, request, kernel, n):
        if kernel == "unsorted":
            kern = mc.make_kernel((1, -1, 0), (0.25, 0.25, 0.5))
        else:
            kern = request.getfixturevalue(kernel)
        # the candidates a draw weighs for the state j at t + 1, read from
        # the rows of matrix_t (exact sampler) or from the cached padded
        # table (block sampler), are the nonzeros of column j of the step
        states = ee.enumerate_states(n, 7)
        step = ee.step_matrix(states, kern, tilt_of())
        mat_t = step.chamber.matrix_t
        pred, log_probs = step.chamber.candidates
        cols = step.matrix.tocsc()
        counts = np.diff(cols.indptr)
        assert pred.shape == log_probs.shape == (states.size, counts.max())
        rng = np.random.default_rng(n)
        for nxt in (np.arange(states.size), rng.permutation(states.size)[:5]):
            pos, real = ee.column_candidates(mat_t, nxt)
            assert pos.shape == real.shape == (nxt.size, counts[nxt].max())
            for r, j in enumerate(nxt):
                k = counts[j]
                src = cols.indices[cols.indptr[j] : cols.indptr[j + 1]]
                order = np.argsort(-src)  # descending source id
                p = cols.data[cols.indptr[j] : cols.indptr[j + 1]][order].tolist()
                assert real[r].tolist() == [True] * k + [False] * (real.shape[1] - k)
                assert mat_t.indices[pos[r, :k]].tolist() == src[order].tolist()
                assert mat_t.data[pos[r, :k]].tolist() == p
                assert pred[j, :k].tolist() == src[order].tolist()
                assert log_probs[j, :k].tolist() == np.log(p).tolist()  # bit for bit
                assert (pred[j, k:] == -1).all() and (log_probs[j, k:] == -np.inf).all()

    @pytest.mark.parametrize(
        "kernel,n",
        [(k, n) for k in ("asymmetric", "lazy", "srw", "unit", "unsorted") for n in (1, 2, 3, 4)]
        # the oracle's 13-tap stencil, the one kernel of reach 6; 13^4 moves per state is too slow for n = 4
        + [("stencil", n) for n in (1, 2, 3)],
    )
    def test_derived_matrix_matches_per_move_products(self, request, kernel, n):
        if kernel == "unsorted":
            kern = mc.make_kernel((1, -1, 0), (0.25, 0.25, 0.5))
        elif kernel == "asymmetric":
            kern = mc.make_kernel((-1, 0, 2), (0.5, 0.25, 0.25))
        elif kernel == "stencil":
            kern = bo._stencil_kernel()
        else:
            kern = request.getfixturevalue(kernel)
        states = ee.enumerate_states(n, n + 6)
        # every product move from every state, kept where it lands on a state
        expected = {}
        for i, state in enumerate(states.arr.tolist()):
            for combo in itertools.product(range(len(kern.offsets)), repeat=n):
                tgt = tuple(x + kern.offsets[c] for x, c in zip(state, combo))
                if tgt in states.index:
                    expected[states.index[tgt], i] = math.prod(kern.probs[c] for c in combo)
        mat_t = ee.step_matrix(states, kern).chamber.matrix_t
        assert mat_t.has_sorted_indices and mat_t.nnz == len(expected)
        rows = np.repeat(np.arange(states.size), np.diff(mat_t.indptr))
        got = dict(zip(zip(rows.tolist(), mat_t.indices.tolist()), mat_t.data.tolist()))
        assert got == expected  # bit for bit

    def test_curve_factors_hold_one_table_at_a_time(self, unit):
        states = ee.enumerate_states(3, 45)  # S = 14190, |offsets| = 5
        tracemalloc.start()
        try:
            factors = ee._curve_factors(states, unit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [f.shape[0] for f in factors] == [16082, 16166, 14190]
        assert sum(f.nnz for f in factors) == 207253
        assert peak < 1.5 * sum(a.nbytes for f in factors for a in (f.data, f.indices, f.indptr))

    def test_curve_factors_built_once_per_sampler(self, unit, monkeypatch):
        from ensembles import gibbs_sampler as gs

        calls = []
        build = ee._curve_factors

        def counted(states, kernel):
            calls.append(states.size)
            return build(states, kernel)

        monkeypatch.setattr(ee, "_curve_factors", counted)
        spec = bridge_spec(2, 0, 6, (3, 1), (3, 1), x_max=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ee.CutoffDominatedWarning)
            ee.exact_sample(spec, unit, tilt_of(), seed=3, count=5)
        assert len(calls) == 1
        ids = gs._init_ids(spec, unit, [np.random.default_rng(0)])  # exact_sample's chamber, x_max = 8
        assert len(calls) == 1
        # the full-window block's reach cutoff, 12, is capped at x_max = 9
        spaces, us = {}, np.full((1, 5), 0.5)
        plan = gs._SweepPlan(replace(spec, x_max=9), [([(0, 6)], [0])])
        gs._apply_block_batch(ids, plan, unit, tilt_of(), plan.groups[0], us, spaces)
        assert list(spaces) == [9] and spaces[9].step.chamber is ee.chamber(2, 9, unit)
        assert len(calls) == 2

    def test_rarest_product_move_raises_instead_of_vanishing(self):
        # a product of two 1e-200 moves is 1e-400, below the smallest double
        kernel = mc.make_kernel((-1, 0, 1), (1e-200, 1 - 2e-200, 1e-200))
        spec = bridge_spec(2, 0, 3, (2, 1), (4, 3), x_max=4)
        with pytest.raises(ValueError, match=r"n=2 curves has probability 10\^-400\.0"):
            ee.ensemble_messages(spec, kernel, tilt_of(a=1000.0, b=1.5))
        one = bridge_spec(1, 0, 3, (1,), (4,), x_max=4)
        res = ee.ensemble_messages(one, kernel, tilt_of(a=1000.0, b=1.5))
        assert res.log_z == pytest.approx(3 * math.log(1e-200) - 1000.0 * (1 + 2 + 3), rel=1e-12)

    def test_crossing_target_is_not_a_state(self, lazy):
        states = ee.enumerate_states(2, 4)
        with pytest.raises(ValueError):
            states.id_of((1, 2))


BUILD_KERNELS = {
    "srw": mc.simple_walk,
    "lazy": mc.lazy_walk,
    "unit": mc.unit_walk,
    "stencil": bo._stencil_kernel,
    "period2": lambda: mc.make_kernel((-3, -1, 1, 3), (0.1, 0.4, 0.4, 0.1)),
    "asymmetric": lambda: mc.make_kernel((-2, 1), (1 / 3, 2 / 3)),  # mean zero, period 3
}


class TestKeyTableBuild:
    """The chamber is built from a key table: the enumeration by prefixes
    and the factors by table lookups equal the itertools enumeration and
    the search-based build (``conftest``) array for array."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kernel", sorted(BUILD_KERNELS))
    def test_factors_match_search_reference(self, kernel, n):
        kern = BUILD_KERNELS[kernel]()
        for x_max in range(n, n + 13):
            states = ee.enumerate_states(n, x_max)
            assert states.arr.flags.c_contiguous and np.array_equal(states.arr, combination_states(n, x_max))
            got, ref = ee._curve_factors(states, kern), searched_curve_factors(states, kern)
            assert len(got) == len(ref) == n
            for f, r in zip(got, ref):
                assert f.shape == r.shape
                for name in ("indptr", "indices", "data"):
                    a, b = getattr(f, name), getattr(r, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (x_max, name)

    def test_one_state_chamber_that_cannot_move(self):
        # every move of (2, 1) under steps -2, +1 leaves the chamber: the middle stage is empty
        factors = ee._curve_factors(ee.enumerate_states(2, 2), BUILD_KERNELS["asymmetric"]())
        assert [f.shape for f in factors] == [(0, 1), (1, 0)] and all(f.nnz == 0 for f in factors)

    def test_key_table_is_held_to_the_budget_before_allocation(self, monkeypatch):
        srw = mc.simple_walk()
        states = ee.enumerate_states(5, 20)  # S = 15504; the key table has 21^5 = 4084101 entries
        entries = sum(f.shape[0] * len(srw.offsets) for f in ee._curve_factors(states, srw))
        assert entries < 1e6 < 21**5
        monkeypatch.setenv("ENSEMBLES_BUDGET", "1e6")
        tracemalloc.start()
        try:
            with pytest.raises(ee.TooLarge, match="key table of 4084101 entries"):
                ee.chamber(5, 20, srw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 21**5  # the int32 table alone takes four times this

    def test_five_curves_at_cap_24_build_under_the_default_budget(self, unit):
        built = ee.chamber(5, 24, unit)  # a key table of 25^5 = 9765625 entries
        assert built.states.size == math.comb(24, 5) and built.forward[-1].shape[0] == built.states.size

    def test_stencil_chamber_build_runs_no_binary_search(self, monkeypatch):
        # the oracle's n = 2 chamber at 190 sites; the search-based build made 26 searches
        calls, search = [], np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda *a, **k: calls.append(1) or search(*a, **k))
        killed = ee.chamber(2, 190, bo._stencil_kernel())
        assert killed.states.size == 17955 and calls == []


class TestPartitions:
    def test_bridge_unique_path(self, srw):
        spec = bridge_spec(1, 0, 2, (1,), (1,), x_max=10)
        res = ee.ensemble_messages(spec, srw, tilt_of())
        expected = 0.25 * math.exp(-3.0)
        assert res.log_z == pytest.approx(math.log(expected), abs=1e-12)
        assert math.exp(res.log_z) == pytest.approx(
            brute_partition(spec, srw, 1.0, 2.0, 1.0), rel=1e-12
        )

    def test_bridge_parity_infeasible(self, srw):
        spec = bridge_spec(1, 0, 2, (1,), (2,), x_max=10)
        with pytest.raises(ee.ParityInfeasible):
            ee.ensemble_messages(spec, srw, tilt_of())

    def test_bridge_vanishing_tilt(self, srw):
        spec = bridge_spec(1, 0, 2, (1,), (1,), x_max=10)
        res = ee.ensemble_messages(spec, srw, tilt_of(a=1e-12))
        assert res.log_z == pytest.approx(math.log(0.25), abs=1e-9)

    def test_walk_single_step_lazy(self, lazy):
        spec = walk_spec(1, 0, 1, (1,), x_max=10)
        res = ee.ensemble_messages(spec, lazy, tilt_of())
        assert res.log_z == pytest.approx(math.log(0.75) - 1.0, abs=1e-12)

    def test_walk_matches_brute_force(self, lazy):
        spec = walk_spec(2, 0, 4, (3, 1), x_max=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ee.CutoffDominatedWarning)
            res = ee.ensemble_messages(spec, lazy, tilt_of(a=0.7, b=1.5, lam=0.9))
        assert math.exp(res.log_z) == pytest.approx(
            brute_partition(spec, lazy, 0.7, 1.5, 0.9), rel=1e-12
        )

    def test_walk_against_rejection_monte_carlo(self, unit):
        # vanishing tilt, generous cutoff: Z approaches the probability that
        # the free ordered pair stays admissible; 1e6 paths, 3 sigma
        spec = walk_spec(2, 0, 4, (4, 2), x_max=60)
        res = ee.ensemble_messages(spec, unit, tilt_of(a=1e-13))
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
            res = ee.ensemble_messages(spec, srw, tilt_of())
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
        sub = marginalize_product(joint, [2])
        direct = ee.law_restricted(spec, lazy, tilt_of(lam=0.5), [2])
        assert ee.tv_exact(sub, direct) <= 1e-12

    def test_budget_guard(self, lazy, monkeypatch):
        monkeypatch.setenv("ENSEMBLES_BUDGET", "100")
        spec = bridge_spec(1, 0, 4, (2,), (2,), x_max=7)
        with pytest.raises(ee.TooLarge):
            ee.law_restricted(spec, lazy, tilt_of(), [0, 1, 2, 3, 4])


    @pytest.mark.filterwarnings("ignore::ensembles.exact_engine.CutoffDominatedWarning")
    def test_gap_law_runs_below_cube_budget(self, unit, monkeypatch):
        # S = 28 and at most K = 22 predecessors: summing out the column at
        # t = 1 needs a 28 x 28 x 22 table, below the 28^3 a power would take
        spec = bridge_spec(2, 0, 4, (3, 1), (3, 1), x_max=8)
        states = ee.enumerate_states(2, 8)
        mat_t = ee.step_matrix(states, unit).chamber.matrix_t
        s, k = states.size, int(np.diff(mat_t.indptr).max())
        assert s**2 * k < s**3
        monkeypatch.setenv("ENSEMBLES_BUDGET", str((s**2 * k + s**3) // 2))
        for times in ([0, 2], [0, 3], [1, 4]):
            law = ee.law_restricted(spec, unit, tilt_of(), times)
            arr = law.probs.reshape(s, s)
            expected = np.zeros((s, s))
            for (c0, c1), p in brute_law(spec, unit, 1.0, 2.0, 1.0, times).items():
                expected[states.id_of(c0), states.id_of(c1)] = p
            assert np.abs(arr - expected).max() <= 1e-12

    @pytest.mark.filterwarnings("ignore::ensembles.exact_engine.CutoffDominatedWarning")
    def test_budget_counts_summed_out_table(self, unit, monkeypatch):
        spec = bridge_spec(2, 0, 4, (3, 1), (3, 1), x_max=8)
        res = ee.ensemble_messages(spec, unit, tilt_of())
        s = res.states.size
        table = s * s * int(np.diff(res.step.chamber.matrix_t.indptr).max())
        monkeypatch.setenv("ENSEMBLES_BUDGET", str(table - 1))  # the 28^2 law itself fits
        ee.law_from_messages(res, [0, 1])
        tracemalloc.start()
        try:
            with pytest.raises(ee.TooLarge, match="28 x 28 x 22 table"):
                ee.law_from_messages(res, [0, 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table * 8 / 2


@st.composite
def random_kernels(draw):
    """A symmetric kernel reaching 1 or 2, with or without a zero step,
    and random positive weights; symmetric weights make the mean exactly 0."""
    reach = draw(st.integers(1, 2))
    weights = {z: draw(st.floats(0.05, 1.0)) for z in range(1, reach + 1)}
    if draw(st.booleans()):
        weights[0] = draw(st.floats(0.05, 1.0))
    total = sum(weights.values()) + sum(w for z, w in weights.items() if z)
    steps = sorted({z for z in weights} | {-z for z in weights})
    return mc.make_kernel(steps, [weights[abs(z)] / total for z in steps])


PRESET_KERNELS = st.sampled_from([mc.simple_walk(), mc.lazy_walk(), mc.unit_walk()])


@st.composite
def law_cases(draw, kernels=PRESET_KERNELS):
    """A small bridge or walk (n <= 2, width <= 6, a kernel drawn from
    ``kernels``) with one to three distinct times, and, for a bridge, an
    end that some path reaches."""
    kernel = draw(kernels)
    n = draw(st.integers(1, 2))
    x_max = draw(st.integers(n + 1, n + 3))
    gaps = draw(st.lists(st.integers(1, 3), max_size=2))
    times = [draw(st.integers(0, 6 - sum(gaps)))]
    for gap in gaps:
        times.append(times[-1] + gap)
    width = draw(st.integers(max(times[-1], 1), 6))
    chamber = sorted(tuple(reversed(c)) for c in itertools.combinations(range(1, x_max + 1), n))
    u = draw(st.sampled_from(chamber))
    tilt = (draw(st.floats(0.2, 2.0)), draw(st.floats(1.1, 3.0)), draw(st.floats(0.2, 1.0)))
    bridge = draw(st.booleans())
    return kernel, n, x_max, width, u, times, tilt, bridge, draw(st.integers(0, 10**6))


@st.composite
def three_curve_law_cases(draw):
    """``law_cases`` for three curves, x_max <= 5 and at most 4 steps,
    which keeps a path enumeration to about 10^4 paths."""
    kernel = draw(PRESET_KERNELS)
    x_max = draw(st.integers(4, 5))
    times = sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)))
    width = draw(st.integers(max(times[-1], 1), 4))
    chamber = sorted(tuple(reversed(c)) for c in itertools.combinations(range(1, x_max + 1), 3))
    u = draw(st.sampled_from(chamber))
    tilt = (draw(st.floats(0.2, 2.0)), draw(st.floats(1.1, 3.0)), draw(st.floats(0.2, 1.0)))
    return kernel, 3, x_max, width, u, times, tilt, draw(st.booleans()), draw(st.integers(0, 10**6))


class TestLawProperties:
    """Product and conditional laws against the brute-force path sum."""

    @pytest.mark.filterwarnings("ignore::ensembles.exact_engine.CutoffDominatedWarning")
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(law_cases())
    def test_laws_match_brute_force(self, case):
        kernel, n, x_max, width, u, times, (a, b, lam), bridge, pick = case
        spec = walk_spec(n, 0, width, u, x_max)
        ends = sorted({cols[-1] for cols, _ in iter_paths(spec, kernel)})
        assume(ends)  # some path stays in the chamber
        if bridge:
            spec = bridge_spec(n, 0, width, u, ends[pick % len(ends)], x_max)
        tilt = tilt_of(a=a, b=b, lam=lam)
        law = ee.law_restricted(spec, kernel, tilt, times)
        states = law.meta["states"]
        s = states.size
        expected = np.zeros((s,) * len(times))
        for key, p in brute_law(spec, kernel, a, b, lam, times).items():
            expected[tuple(states.id_of(c) for c in key)] = p
        assert np.abs(law.probs - expected.ravel()).max() <= 1e-12

        k, l = times[0], times[-1]
        if k == l or s ** (l - k + 1) > 10**5:
            return
        joint = brute_law(spec, kernel, a, b, lam, list(range(k, l + 1)))
        likeliest = max(joint, key=joint.get)  # columns at k..l of the heaviest window
        cond = ee.conditional_bridge_law(spec, kernel, tilt, k, l, (likeliest[0], likeliest[-1]))
        expected = np.zeros((s,) * (l - k - 1))
        for key, p in joint.items():
            if (key[0], key[-1]) == (likeliest[0], likeliest[-1]):
                expected[tuple(states.id_of(c) for c in key[1:-1])] += p
        assert np.abs(cond.law.probs - expected.ravel() / expected.sum()).max() <= 1e-12
        assert cond.diagnostic_tv <= 1e-10

    @pytest.mark.filterwarnings("ignore::ensembles.exact_engine.CutoffDominatedWarning")
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(law_cases(random_kernels()))
    def test_random_kernel_laws_match_brute_force(self, case):
        # the preset test's checks, run on symmetric kernels with random weights
        type(self).test_laws_match_brute_force.hypothesis.inner_test(self, case)

    @pytest.mark.filterwarnings("ignore::ensembles.exact_engine.CutoffDominatedWarning")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(three_curve_law_cases())
    def test_three_curve_laws_match_brute_force(self, case):
        # the preset test's checks, run on bridges and walks of three curves
        type(self).test_laws_match_brute_force.hypothesis.inner_test(self, case)


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


class TestSteepForward:
    """A bridge forced up against a steep tilt: its forward messages sit
    hundreds of nats below the states that stay low, beyond one shared
    linear-space shift, yet they alone reach the pinned end."""

    def test_forced_up_bridge_matches_brute_force(self, unit):
        spec = bridge_spec(1, 0, 4, (1,), (9,), x_max=12)
        res = ee.ensemble_messages(spec, unit, tilt_of(a=100.0, b=2.0, lam=1.0))
        (cols, prob), = list(iter_paths(spec, unit))  # 1, 3, 5, 7, 9
        assert res.log_z == pytest.approx(math.log(prob) - hand_area(cols, 100.0, 2.0, 1.0), rel=1e-12)
        states = res.states
        for t in spec.times:
            d = ee.marginal_from_messages(res, t)
            expected = np.zeros(states.size)
            for (col,), p in brute_law(spec, unit, 100.0, 2.0, 1.0, [t]).items():
                expected[states.id_of(col)] = p
            assert np.abs(d.probs - expected).max() <= 1e-12

    def test_two_curve_bridge_follows_its_one_path(self, unit):
        spec = bridge_spec(2, 0, 5, (2, 1), (12, 11), x_max=14)
        res = ee.ensemble_messages(spec, unit, tilt_of(a=30.0, b=2.0, lam=1.0))
        cols = [(2 + 2 * k, 1 + 2 * k) for k in range(6)]  # both curves +2 at every step
        assert res.log_z == pytest.approx(10 * math.log(0.05) - hand_area(cols, 30.0, 2.0, 1.0), rel=1e-12)
        for t, col in zip(spec.times, cols):
            assert ee.marginal_from_messages(res, t).probs[res.states.id_of(col)] == 1.0


class TestChainedBackwardRedo:
    """Rare moves under a steep tilt: a backward row redone at t + 1 carries
    most of the mass of a row at t that the first backward pass left above
    its ceiling, so the redo must reach every step before it."""

    @pytest.mark.filterwarnings("ignore::ensembles.exact_engine.CutoffDominatedWarning")
    @pytest.mark.parametrize("width,u,v", [(6, 3, 4), (7, 3, 3)])
    def test_rare_moves_match_brute_force(self, width, u, v):
        eps = 1e-250  # a path of two such moves has probability 0.0 in double
        kernel = mc.make_kernel((-1, 0, 1), (eps, 1 - 2 * eps, eps))
        spec = bridge_spec(1, 0, width, (u,), (v,), x_max=4)
        res = ee.ensemble_messages(spec, kernel, tilt_of(a=300.0, b=2.0, lam=1.0))
        states = res.states
        for t in spec.times:
            d = ee.marginal_from_messages(res, t)
            expected = np.zeros(states.size)
            for (col,), p in brute_law(spec, kernel, 300.0, 2.0, 1.0, [t]).items():
                expected[states.id_of(col)] = p
            assert np.abs(d.probs - expected).max() <= 1e-12

    @pytest.mark.filterwarnings("ignore::ensembles.exact_engine.CutoffDominatedWarning")
    @pytest.mark.parametrize("width,u,v", [(6, 3, 4), (7, 3, 3)])
    def test_exact_sample_matches_brute_force(self, width, u, v):
        # every candidate of a draw lies far below the largest forward
        # weight of its time row, so one shift per row weighs them all 0.0
        eps = 1e-250
        kernel = mc.make_kernel((-1, 0, 1), (eps, 1 - 2 * eps, eps))
        spec = bridge_spec(1, 0, width, (u,), (v,), x_max=4)
        law = brute_law(spec, kernel, 300.0, 2.0, 1.0, list(spec.times))
        paths = list(law)
        index = {p: i for i, p in enumerate(paths)}
        counts = np.zeros(len(paths))
        for s in ee.exact_sample(spec, kernel, tilt_of(a=300.0, b=2.0, lam=1.0), seed=4, count=500):
            path = tuple(s.column(t) for t in spec.times)
            assert path in index and law[path] > 0.0, f"sampled path {path} has zero mass"
            counts[index[path]] += 1
        assert chi_square_p(counts, np.array([law[p] for p in paths])) > 0.001


class TestSubnormalInputs:
    """The linear steps set their shifted inputs below the smallest normal
    double to 0.0, so a row a few hundred nats below its shift may be
    inexact, and is redone in log space when it could matter."""

    def test_inexact_rows_are_redone(self, unit):
        # rows between ~671 and ~708 nats below the shift lose part of their
        # terms; left unredone, the marginal at t = 2 errs by about 1e-8
        spec = walk_spec(1, 0, 4, (104,), x_max=113)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ee.CutoffDominatedWarning)
            res = ee.ensemble_messages(spec, unit, tilt_of(a=7.25, b=2.0, lam=1.0))
        states = res.states
        for t in spec.times:
            d = ee.marginal_from_messages(res, t)
            expected = np.zeros(states.size)
            for (col,), p in brute_law(spec, unit, 7.25, 2.0, 1.0, [t]).items():
                expected[states.id_of(col)] = p
            assert np.abs(d.probs - expected).max() <= 1e-12

    def test_sparse_products_get_no_subnormal_input(self, unit, monkeypatch):
        tiny = np.finfo(float).tiny
        subnormal = []
        real = ee._Chain.__matmul__

        def recorded(chain, v):
            subnormal.append(np.count_nonzero((v > 0) & (v < tiny)))
            return real(chain, v)

        monkeypatch.setattr(ee._Chain, "__matmul__", recorded)
        # a steep two-curve walk: its messages span hundreds of nats
        ee.ensemble_messages(walk_spec(2, 0, 10, (14, 12), x_max=30), unit, tilt_of(a=4.0, b=2.0, lam=1.0))
        # a one-hot start: the Gaussian front of the 112-step backward half
        # runs far below the top (the forward half's 16 steps stay above)
        grid = bo.GridSpec(dx=0.25, height_cap=80.0, m_half=4.0)
        bo._polymer_messages(1, 1.0, 2.0, grid, bo.ZeroBC(), 16)
        assert len(subnormal) > 100 and sum(subnormal) == 0


def dense_log_messages(spec, kernel, tilt):
    """States and the forward and backward log messages of ``spec``, summed
    in exact log space over the dense chamber: a move's log probability is
    the sum of its curves' log step probabilities."""
    states = ee.enumerate_states(spec.n, spec.x_max)
    cols = states.arr
    log_p = dict(zip(kernel.offsets, np.log(kernel.probs)))
    log_step = np.full((states.size, states.size), -np.inf)
    for i, j in itertools.product(range(states.size), repeat=2):
        moves = cols[j] - cols[i]
        if all(z in log_p for z in moves):
            log_step[i, j] = math.fsum(log_p[z] for z in moves)
    log_tilt = -(tilt.potential.value(cols) @ tilt.curve_weights(spec.n))
    fwd = np.full((spec.width, states.size), -np.inf)
    fwd[0, states.id_of(spec.boundary.u)] = 0.0
    for t in range(1, spec.width):
        fwd[t] = logsumexp((fwd[t - 1] + log_tilt)[:, None] + log_step, axis=0)
    bwd = np.full((spec.width, states.size), -np.inf)
    if isinstance(spec.boundary, mc.Bridge):
        bwd[-1, states.id_of(spec.boundary.v)] = 0.0
    else:
        bwd[-1] = 0.0
    for t in range(spec.width - 2, -1, -1):
        bwd[t] = log_tilt + logsumexp(log_step + bwd[t + 1][None, :], axis=1)
    return states, fwd, bwd


@st.composite
def rare_move_cases(draw):
    """A bridge or walk (n <= 2, x_max <= 9, up to 11 steps) under a
    symmetric kernel of reach 1 or 2 whose moves have probabilities down
    to 1e-300 (1e-150 for two curves: the engine refuses a product move
    below the smallest normal double), with a steep tilt (a up to 3000)."""
    n = draw(st.integers(1, 2))
    reach = draw(st.integers(1, 2))
    weights = [10.0 ** -draw(st.floats(0.0, 300.0 / n)) for _ in range(reach)]
    total = 1.0 + 2.0 * sum(weights)
    offsets = range(-reach, reach + 1)
    kernel = mc.make_kernel(offsets, [weights[abs(z) - 1] / total if z else 1.0 / total for z in offsets])
    x_max = draw(st.integers(n + 1, 9))
    chamber = sorted(tuple(reversed(c)) for c in itertools.combinations(range(1, x_max + 1), n))
    u = draw(st.sampled_from(chamber))
    steps = draw(st.integers(1, 11))
    a, b, lam = 10.0 ** draw(st.floats(-1.0, math.log10(3000.0))), draw(st.floats(1.1, 4.0)), draw(st.floats(0.2, 1.0))
    bridge = draw(st.booleans())
    return kernel, walk_spec(n, 0, steps, u, x_max), tilt_of(a=a, b=b, lam=lam), bridge, draw(st.integers(0, 10**6))


class TestDenseLogReference:
    """Marginals of the message passes against a dense log-space
    forward/backward reference, where rare moves and steep tilts put the
    mass far below any one linear-space shift."""

    @pytest.mark.filterwarnings("ignore::ensembles.exact_engine.CutoffDominatedWarning")
    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(rare_move_cases())
    def test_marginals_match_reference(self, case):
        kernel, spec, tilt, bridge, pick = case
        states, fwd, bwd = dense_log_messages(spec, kernel, tilt)
        if bridge:
            ends = np.flatnonzero(np.isfinite(fwd[-1]))
            v = tuple(int(x) for x in states.arr[ends[pick % ends.size]])
            spec = bridge_spec(spec.n, 0, spec.n_right, spec.boundary.u, v, spec.x_max)
            states, fwd, bwd = dense_log_messages(spec, kernel, tilt)
        res = ee.ensemble_messages(spec, kernel, tilt)
        ref = fwd + bwd
        assert res.log_z == pytest.approx(logsumexp(ref[0]), rel=1e-12)
        for t in spec.times:
            p = np.exp(ref[t] - ref[t].max())
            p /= p.sum()
            assert np.abs(ee.marginal_from_messages(res, t).probs - p).max() <= 1e-12


class TestFactoredStep:
    """The message passes step the one-curve factors: lost rows are redone
    factor by factor in exact log space, and the product CSR is never
    derived."""

    @staticmethod
    def config(name):
        if name == "steep-n3":  # TestSteepTilt's long walk: both passes redo rows
            return walk_spec(3, 0, 10, (14, 13, 12), x_max=16), mc.unit_walk(), tilt_of(a=4.0, b=4.0, lam=1.0)
        width, u, v = {"bridge-6": (6, 3, 4), "bridge-7": (7, 3, 3)}[name]  # TestChainedBackwardRedo's
        eps = 1e-250
        kernel = mc.make_kernel((-1, 0, 1), (eps, 1 - 2 * eps, eps))
        return bridge_spec(1, 0, width, (u,), (v,), x_max=4), kernel, tilt_of(a=300.0, b=2.0, lam=1.0)

    @pytest.mark.filterwarnings("ignore::ensembles.exact_engine.CutoffDominatedWarning")
    @pytest.mark.parametrize("name", ["bridge-6", "bridge-7", "steep-n3"])
    def test_redo_matches_derived_csr_without_building_it(self, monkeypatch, name):
        spec, kernel, tilt = self.config(name)
        calls = []
        real = ee._Chain.log_rows

        def recorded(chain, rows, log_v):
            out = real(chain, rows, log_v)
            calls.append((chain, rows, log_v.copy(), out))
            return out

        monkeypatch.setattr(ee._Chain, "log_rows", recorded)
        res = ee.ensemble_messages(spec, kernel, tilt)
        assert "matrix_t" not in res.step.chamber.__dict__ and "matrix" not in res.step.chamber.__dict__
        assert {chain is res.step.chamber.forward for chain, *_ in calls} == {True, False}  # both passes redo rows
        fresh = ee.step_matrix(res.states, kernel, tilt)
        for chain, rows, log_v, out in calls:
            mat = fresh.chamber.matrix_t if chain is res.step.chamber.forward else fresh.chamber.matrix
            np.testing.assert_allclose(out, ee._log_rows(mat, rows, log_v), rtol=1e-12, atol=0)

    def test_three_curves_at_default_cutoff_fail_before_messages(self, unit, monkeypatch):
        # lambda = 0.2 puts x_max at 158, so S = 644956: the two 81 x S
        # message arrays (836 MB) exceed the budget, and neither they nor
        # the step are built
        spec = walk_spec(3, -40, 40, (3, 2, 1), x_max=mc.default_x_max(0.2, 3))
        assert spec.x_max == 158

        def unreachable(*args, **kwargs):
            raise AssertionError("the chamber was built before the budget check")

        monkeypatch.setattr(ee, "chamber", unreachable)
        tracemalloc.start()
        try:
            with pytest.raises(ee.TooLarge, match="two 81 x 644956 message arrays"):
                ee.ensemble_messages(spec, unit, tilt_of(lam=0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


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

    @pytest.mark.filterwarnings("ignore::ensembles.exact_engine.CutoffDominatedWarning")
    def test_budget_counts_interior_law_only(self, unit, monkeypatch):
        # S = 28: the interior law on {1, 2} has 28^2 entries, the window
        # {0..3} with its two ends 28^4, above the budget
        monkeypatch.setenv("ENSEMBLES_BUDGET", "100000")
        spec = bridge_spec(2, 0, 6, (2, 1), (2, 1), x_max=8)
        tilt = tilt_of(lam=0.5)
        ends = ((2, 1), (3, 1))
        res = ee.conditional_bridge_law(spec, unit, tilt, 0, 3, ends)
        states = res.law.meta["states"]
        s = states.size
        assert s**2 <= 100000 < s**4
        # given its ends, the window is the bridge between them (the route
        # from the global law must agree with it)
        sub = bridge_spec(2, 0, 3, *ends, x_max=8)
        expected = np.zeros((s, s))
        for (c1, c2), p in brute_law(sub, unit, 1.0, 2.0, 0.5, [1, 2]).items():
            expected[states.id_of(c1), states.id_of(c2)] = p
        assert np.abs(res.law.probs - expected.ravel()).max() <= 1e-12
        assert res.diagnostic_tv <= 1e-10

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

    def test_zero_count(self, lazy, monkeypatch):
        spec = bridge_spec(1, 0, 3, (1,), (2,), x_max=6)
        monkeypatch.setattr(ee, "_compute_messages", None)  # a message pass would raise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = ee.exact_sample(spec, lazy, tilt_of(), seed=0, count=0)
        assert len(paths) == 0
        assert isinstance(paths, mc.PathBatch) and paths.spec is spec
        assert paths.heights.shape == (0, 1, 4) and paths.heights.dtype == np.int64

    def test_negative_count_raises(self, lazy):
        spec = bridge_spec(1, 0, 3, (1,), (2,), x_max=6)
        with pytest.raises(ValueError, match="count"):
            ee.exact_sample(spec, lazy, tilt_of(), seed=0, count=-1)

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

    # sha256 of the stacked little-endian int64 heights, recorded when each
    # sample still built its own numpy generator from SeedSequence(seed).spawn
    PINNED_DRAWS = {
        "ffbs-S66-bridge": (
            lambda: (mc.EnsembleSpec(n=1, m_left=0, n_right=4, boundary=mc.Bridge(u=(1,), v=(1,)),
                                     x_max=mc.default_x_max(0.5, 1)), mc.unit_walk(), tilt_of(lam=0.5), 7, 6000),
            "0b07ae6d6396819b89ba2643d6bcbf70c221c711b77382a73f7ccb79b363b16f",
        ),
        "walk-n2": (
            lambda: (walk_spec(2, -6, 6, (3, 1), x_max=16), mc.simple_walk(), tilt_of(lam=0.8), 5, 300),
            "6f92c18a4e3b5eedc467c5ec6bc3e7c3ec866eebced1a52056e7434b5b0f9e61",
        ),
        "lazy-bridge-n3": (
            lambda: (bridge_spec(3, 0, 8, (6, 3, 1), (5, 3, 1), x_max=15), mc.lazy_walk(), tilt_of(lam=0.8),
                     2**40 + 3, 250),
            "8df87d4ab643400ce9845efca053210ea2882d170b86e4b514f08a492c56e641",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_DRAWS))
    def test_pinned_draws(self, name):
        """A change of the random streams or of FFBS changes these draws."""
        make, digest = self.PINNED_DRAWS[name]
        spec, kernel, tilt, seed, count = make()
        heights = ee.exact_sample(spec, kernel, tilt, seed=seed, count=count).heights
        assert heights.shape == (count, spec.n, spec.width)
        assert hashlib.sha256(heights.astype("<i8").tobytes()).hexdigest() == digest


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

    def test_sampling_holds_no_copy_of_the_messages(self, unit):
        # the good-blocks window of half width 20: S = 12246, 41 columns,
        # so one (width, S) forward array is about 4 MB
        spec = walk_spec(2, -20, 20, (2, 1), x_max=mc.default_x_max(0.2, 2))
        res = ee.ensemble_messages(spec, unit, tilt_of(lam=0.2))
        assert res.states.size == 12246
        us = np.random.default_rng(0).random((48, ee.sample_draws(spec)))
        tracemalloc.start()
        try:
            heights = ee.sample_heights(res, us)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert heights.shape == (48, 2, 41)
        assert peak < res.forward.nbytes

    @pytest.mark.parametrize("boundary", [mc.Bridge(u=(3, 1), v=(4, 2)), mc.Walk(u=(3, 1))])
    def test_sample_i_independent_of_count(self, unit, boundary):
        spec = mc.EnsembleSpec(n=2, m_left=-6, n_right=6, boundary=boundary, x_max=20)
        tilt = tilt_of(lam=0.5)
        many = ee.exact_sample(spec, unit, tilt, seed=3, count=200)
        few = ee.exact_sample(spec, unit, tilt, seed=3, count=7)
        assert all(np.array_equal(a.heights, b.heights) for a, b in zip(many[:7], few))


class TestReachCap:
    """``exact_sample`` runs its messages on the states up to the window's
    reach when the reach lies below x_max's near band.  Every draw, every
    warning and every error must be the full space's."""

    TILTS = {
        "gentle": tilt_of(lam=0.4),
        "weak": tilt_of(a=0.05, lam=0.1),  # mass reaches the reach
        "steep": tilt_of(a=50.0, b=4.0, lam=1.0),  # message rows redone in log space
    }

    @staticmethod
    def full_space(spec, kernel, tilt, seed, count):
        """The draws and warnings of the full space's messages."""
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            res = ee.ensemble_messages(spec, kernel, tilt)
        us = spawned_uniforms(seed, count, ee.sample_draws(spec))
        return ee.sample_heights(res, us), [(w.category, str(w.message)) for w in seen]

    @staticmethod
    def capped(spec, kernel, tilt, seed, count):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            paths = ee.exact_sample(spec, kernel, tilt, seed=seed, count=count)
        return paths.heights, [(w.category, str(w.message)) for w in seen]

    @pytest.mark.parametrize("above", [-1, 0, 1])  # the reach less x_max's near band
    @pytest.mark.parametrize("kernel", ["srw", "lazy", "unit"])
    @pytest.mark.parametrize("kind", ["bridge", "walk"])
    @pytest.mark.parametrize("n,u,steps", [(1, (2,), 6), (2, (3, 1), 4), (3, (5, 3, 1), 4)])
    def test_draws_and_warnings_equal_the_full_space(self, request, above, kernel, kind, n, u, steps):
        kern = request.getfixturevalue(kernel)
        cap = u[0] + steps * kern.max_step
        x_max = cap - above + ee.CUTOFF_NEAR
        if kind == "bridge":
            spec = bridge_spec(n, 0, steps, u, u, x_max=x_max)
        else:
            spec = walk_spec(n, 0, steps, u, x_max=x_max)
        assert ee._reach(spec, kern) == cap
        for name, tilt in self.TILTS.items():
            want, want_warned = self.full_space(spec, kern, tilt, 17, 400)
            got, warned = self.capped(spec, kern, tilt, 17, 400)
            assert got.tobytes() == want.tobytes(), name
            assert warned == want_warned, name
            assert got[:, 0].max() <= cap

    def test_near_band_mass_warns_as_the_full_space(self, unit):
        # at a cap one site above the near band the full space runs, and its
        # band holds mass; two sites further up the reach runs, and no
        # reachable state is in the band
        for x_max, warned in ((9, True), (12, False)):
            spec = walk_spec(1, 0, 4, (1,), x_max=x_max)
            want = self.full_space(spec, unit, self.TILTS["weak"], 3, 50)
            got = self.capped(spec, unit, self.TILTS["weak"], 3, 50)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1]
            assert bool(got[1]) is warned
            assert all(cat is ee.CutoffDominatedWarning for cat, _ in got[1])

    @pytest.mark.parametrize("lam", [0.2, 0.5])
    @pytest.mark.parametrize("kind", ["bridge", "walk"])
    def test_default_cap_draws_equal_the_full_space(self, unit, lam, kind):
        # the blocks experiment's window 20 at lambda = 0.2: S = 12246 in
        # full, 3321 up to the reach
        x_max = mc.default_x_max(lam, 2)
        if kind == "bridge":
            spec = bridge_spec(2, -20, 20, (2, 1), (2, 1), x_max=x_max)
        else:
            spec = walk_spec(2, -20, 20, (2, 1), x_max=x_max)
        want = self.full_space(spec, unit, tilt_of(lam=lam), 8, 96)
        got = self.capped(spec, unit, tilt_of(lam=lam), 8, 96)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1] == []

    def test_infeasible_bridge_raises_as_the_full_space(self, unit, srw):
        # |u_top - v_top| = 11 > 4 steps x max_step 2: no path joins the ends
        spec = bridge_spec(1, 0, 4, (1,), (12,), x_max=40)
        assert ee._reach(spec, unit) < spec.x_max - ee.CUTOFF_NEAR
        with pytest.raises(ValueError) as want:
            self.full_space(spec, unit, tilt_of(), 0, 5)
        with pytest.raises(ValueError) as got:
            ee.exact_sample(spec, unit, tilt_of(), seed=0, count=5)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value) == "ensemble has zero total mass; nothing to sample"
        odd = bridge_spec(1, 0, 4, (1,), (2,), x_max=40)
        with pytest.raises(ee.ParityInfeasible) as want:
            self.full_space(odd, srw, tilt_of(), 0, 5)
        with pytest.raises(ee.ParityInfeasible) as got:
            ee.exact_sample(odd, srw, tilt_of(), seed=0, count=5)
        assert str(got.value) == str(want.value)

    def test_three_curves_at_the_default_cap(self, unit):
        # x_max = 158: the full space has 644956 states and the derived
        # product CSR 644956 x 125 entries, over the default budget; the
        # reach is 3 + 6 x 2 = 15, so 455 states
        spec = walk_spec(3, 0, 6, (3, 2, 1), x_max=mc.default_x_max(0.2, 3))
        tilt = tilt_of(lam=0.2)
        assert spec.x_max == 158 and ee._reach(spec, unit) == 15
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = ee.exact_sample(spec, unit, tilt, seed=6, count=4000)
        heights = samples.heights
        law_spec = replace(spec, x_max=15)
        res = ee.ensemble_messages(law_spec, unit, tilt)
        ids = res.states.ids(heights.transpose(0, 2, 1))
        for t in range(1, 7):
            counts = np.bincount(ids[:, t], minlength=res.states.size)
            assert chi_square_p(counts, ee.marginal(law_spec, unit, tilt, t).probs) > 0.001


def _first_above(log_weights, u):
    """Reference rule, one row at a time: first index whose cumulative
    weight, shifted by the row's largest, exceeds u times the total."""
    top = max(log_weights)
    w = [math.exp(x - top) for x in log_weights]
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
        log_w = np.array([[-np.inf, 0.0, 0.0, 0.0, -np.inf]])
        assert ee.categorical(log_w, np.array([u])).tolist() == [expected]
        assert ee.categorical(np.repeat(log_w, 2, axis=0), np.array([u, u])).tolist() == [expected] * 2

    @pytest.mark.parametrize("u,expected", [(0.0, 1), (0.5, 4), (np.nextafter(1.0, 0.0), 4)])
    def test_zero_weight_run_inside_never_drawn(self, u, expected):
        # two rows take pick's row-wise path; the run of -inf makes a flat stretch of cum
        log_w = np.array([[-np.inf, 0.0, -np.inf, -np.inf, 0.0, -np.inf]] * 2)
        assert ee.categorical(log_w, np.array([u, u])).tolist() == [expected] * 2
        assert ee.categorical(log_w[:1], np.array([u])).tolist() == [expected]

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            ee.categorical(np.array([[0.0, -np.inf], [-np.inf, -np.inf]]), np.array([0.5, 0.5]))

    @given(
        st.lists(
            st.lists(st.sampled_from([-np.inf, *np.log([1e-300, 1e-3, 0.5, 1.0, 7.0]).tolist()]), min_size=1, max_size=8),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1 and all(max(r) > -np.inf for r in rows)),
        st.lists(
            st.one_of(st.just(0.0), st.just(float(np.nextafter(1.0, 0.0))), st.floats(0.0, 1.0, exclude_max=True)),
            min_size=6,
            max_size=6,
        ),
    )
    def test_matches_reference_rule(self, rows, us):
        log_w = np.array(rows)
        u = np.array(us[: len(rows)])
        got = ee.categorical(log_w, u)
        assert got.tolist() == [_first_above(r, x) for r, x in zip(rows, u)]
        assert np.all(np.isfinite(log_w[np.arange(len(rows)), got]))
        shared = ee.categorical(log_w[:1], u)
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
        spec = bridge_spec(2, -3, 3, (4, 2), (3, 1), x_max=30)
        res = ee.ensemble_messages(spec, unit, tilt_of(lam=0.7, b=3.0))
        for c in range(spec.width):
            val = float(logsumexp(res.forward[c] + res.backward[c]))
            assert val == pytest.approx(res.log_z, abs=1e-9)

    def test_monotone_tilt_strictly_decreases_log_z(self, lazy):
        spec = walk_spec(1, 0, 5, (2,), x_max=25)
        z1 = ee.ensemble_messages(spec, lazy, tilt_of(a=1.0, lam=0.5)).log_z
        z2 = ee.ensemble_messages(spec, lazy, tilt_of(a=1.5, lam=0.5)).log_z
        assert z2 < z1

    def test_cutoff_stability_under_doubling(self, lazy):
        lam = 0.5
        z = {}
        for x_max in (60, 120):
            spec = walk_spec(1, 0, 6, (1,), x_max=x_max)
            z[x_max] = ee.ensemble_messages(spec, lazy, tilt_of(lam=lam)).log_z
        assert abs(z[120] - z[60]) < 1e-8

    def test_restriction_consistency(self, unit):
        spec = bridge_spec(1, 0, 5, (2,), (2,), x_max=9)
        tilt = tilt_of(lam=0.6)
        full = ee.law_restricted(spec, unit, tilt, [1, 2, 4])
        sub = marginalize_product(full, [1, 4])
        direct = ee.law_restricted(spec, unit, tilt, [1, 4])
        assert ee.tv_exact(sub, direct) <= 1e-12
