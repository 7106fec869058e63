"""The honest estimator kernels read 64-bit words in blocks.

They rest on two identities of numpy's PCG64 draws, pinned here so that a
numpy release that breaks one fails loudly: ``random`` is (w >> 11)·2⁻⁵³ of
the raw word w, and ``integers(2**k)`` is the top k bits of each 32-bit half
(low half first).  One 65,536-trial chunk of each honest kernel stays within
a fixed allocation budget.
"""
import tracemalloc

import numpy as np
import pytest

from mdiqct.analysis import CHUNK_SIZE, SCENARIOS, _chunk_rng, _raw_bits, _scenario_params
from mdiqct.devices import ChannelParams, DetectorParams
from mdiqct.protocol import BLOCK_WORDS, _uniforms

SEEDS = [0, 1, 17, 2**32 - 1]
SIZES = [1, 7, 4_097, 2 * BLOCK_WORDS + 3]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
class TestNumpyIdentities:
    def test_random_is_the_top_53_bits(self, seed, n):
        words = np.random.default_rng(seed).bit_generator.random_raw(n)
        np.testing.assert_array_equal(_uniforms(words), np.random.default_rng(seed).random(n))

    @pytest.mark.parametrize("bits", [1, 4])
    def test_power_of_two_ranges_are_top_bits_of_each_half(self, seed, n, bits):
        ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(_raw_bits(ours, n, bits), numpy_rng.integers(1 << bits, size=n))
        assert ours.random() == numpy_rng.random()  # a pending half word plays no part in a double


LOSSY = dict(channel=ChannelParams(15.0, 15.0), detector=DetectorParams(eta=0.3, dark=1e-2))
# Peak bytes of one chunk, by scenario.  Whole-chunk float64 and int64 arrays
# took 1.5–3.3 MiB; the run kernels now peak at 0.4–0.6 MiB and the round
# kernels, whose batched BSM sampler holds about seven float64 arrays of a
# BLOCK_WORDS block, at 1.1 MiB.
HONEST = {
    "honest-round-abort": ({}, 1280 * 1024),
    "honest-round-cause": (dict(cause_code=2), 1280 * 1024),
    "honest-run-abort": ({}, 768 * 1024),
    "honest-coin": ({}, 768 * 1024),
}


@pytest.mark.parametrize("devices", [{}, LOSSY], ids=["ideal", "lossy"])
@pytest.mark.parametrize("scenario", HONEST)
def test_one_chunk_stays_within_the_allocation_budget(scenario, devices):
    extra, budget = HONEST[scenario]
    params = _scenario_params(scenario, dict(devices, **extra))
    kernel = SCENARIOS[scenario].kernel
    kernel(_chunk_rng(0, 0), CHUNK_SIZE, params)  # builds the cached tables
    tracemalloc.start()
    try:
        kernel(_chunk_rng(0, 1), CHUNK_SIZE, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= budget
