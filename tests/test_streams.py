import tracemalloc

import numpy as np
import pytest

from ensembles._streams import spawned_uniforms


def numpy_streams(seed, count, k):
    """The reference: one generator per spawned child, k draws each."""
    children = np.random.SeedSequence(seed).spawn(count)
    return np.array([np.random.default_rng(c).random(k) for c in children]).reshape(count, k)


class TestSpawnedUniforms:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32 + 5, 2**64 - 1, 2**70 + 3, np.uint64(7)], ids=repr)
    @pytest.mark.parametrize("count", [0, 1, 7, 1000])
    def test_bit_equal_to_numpy(self, seed, count):
        for k in (0, 1, 3, 64):
            got, ref = spawned_uniforms(seed, count, k), numpy_streams(seed, count, k)
            assert got.shape == ref.shape == (count, k) and got.dtype == ref.dtype == np.float64
            assert got.tobytes() == ref.tobytes(), f"seed={seed!r} count={count} k={k}"

    def test_negative_seed_raises_as_seed_sequence_does(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            spawned_uniforms(-1, 3, 2)

    def test_count_beyond_one_spawn_word_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2\\^32"):
                spawned_uniforms(7, 2**32, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5
