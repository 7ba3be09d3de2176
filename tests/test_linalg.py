import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

import ensembles._linalg as la


class TestLogsumexp:
    @pytest.mark.parametrize(
        "shape,axis", [((7,), None), ((4, 6), 0), ((4, 6), 1), ((3, 4, 5), (0, 2)), ((3, 4, 5), None), ((1, 5), 1)]
    )
    def test_matches_scipy(self, shape, axis):
        rng = np.random.default_rng(3)
        a = rng.normal(size=shape) * 300.0
        a[a < -150.0] = -np.inf
        a[0] = -np.inf  # an all -inf slice along some axes
        got = la.logsumexp(a, axis=axis)
        ref = scipy_logsumexp(a, axis=axis)
        assert np.shape(got) == np.shape(ref)
        assert np.array_equal(np.isneginf(got), np.isneginf(ref))
        fin = np.isfinite(ref)
        assert np.allclose(np.asarray(got)[fin], np.asarray(ref)[fin], rtol=1e-14, atol=0.0)

    def test_empty_and_zero_mass(self):
        assert la.logsumexp(np.array([])) == -np.inf
        assert la.logsumexp(np.full(3, -np.inf)) == -np.inf

    @pytest.mark.parametrize("x", [1.0, -np.inf, -800.0])
    def test_zero_dimensional(self, x):
        assert la.logsumexp(np.array(x)) == scipy_logsumexp(np.array(x)) == x
        assert la.logsumexp(np.array(x), overwrite=True) == x

    def test_input_kept_unless_overwritten(self):
        a = np.random.default_rng(4).normal(size=(5, 6))
        keep = a.copy()
        la.logsumexp(a, axis=1)
        assert np.array_equal(a, keep)
        assert np.array_equal(la.logsumexp(a, axis=1, overwrite=True), scipy_logsumexp(keep, axis=1))
