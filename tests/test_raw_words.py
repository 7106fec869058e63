"""The honest estimator kernels read raw PCG64 words in blocks.

They rest on three identities of numpy's PCG64 draws, pinned here so that a
numpy release that breaks one fails loudly: ``random`` is (w >> 11)·2⁻⁵³ of
the raw word w, ``integers(2**k)`` is the top k bits of each 32-bit half
(low half first), and ``advance(n)`` leaves the state that drawing n words leaves.  A
generator on any other bit generator is refused, one 65,536-trial chunk of
each honest kernel stays within a fixed allocation budget, and the run code
the estimator reads in place of a deciding cell is that cell's code.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqct.analysis import CHUNK_SIZE, SCENARIOS, _chunk_rng, _raw_bits, _scenario_params
from mdiqct.devices import BAND_OUTCOME, ChannelParams, DetectorParams
from mdiqct.errors import ParameterError
from mdiqct.protocol import (
    BLOCK_WORDS,
    RUN_A_BIT,
    RUN_ABORT,
    _label_tables,
    _uniforms,
    sample_deciding_cells,
    sample_run_codes,
)
from mdiqct.qmath import ALL_LABELS

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

    def test_advance_skips_drawn_words(self, seed, n):
        drawn, skipped = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn.bit_generator.random_raw(n)
        skipped.bit_generator.advance(n)
        assert drawn.bit_generator.state == skipped.bit_generator.state


def test_other_bit_generators_are_refused():
    args = (0.9, ChannelParams(), DetectorParams(), False, 100)
    with pytest.raises(ParameterError, match="PCG64"):
        sample_deciding_cells(*args, np.random.Generator(np.random.MT19937(0)), 10)


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


@settings(max_examples=60, deadline=None)
@given(
    l_km=st.sampled_from([0.0, 15.0, 40.0]),
    eta=st.sampled_from([1.0, 0.3, 0.0]),
    dark=st.sampled_from([0.0, 1e-2, 0.5]),
    extended=st.booleans(),
    max_rounds=st.sampled_from([1, 30, 10**6]),
    n=st.sampled_from([1, 700, BLOCK_WORDS + 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_codes_are_the_codes_of_the_deciding_cells(l_km, eta, dark, extended, max_rounds, n, seed):
    args = (0.9, ChannelParams(l_km, l_km), DetectorParams(eta=eta, dark=dark), extended)
    code, found = sample_run_codes(*args, max_rounds, np.random.default_rng(seed), n)
    cell, reference_found = sample_deciding_cells(*args, max_rounds, np.random.default_rng(seed), n)
    np.testing.assert_array_equal(found, reference_found)
    pair, band = np.divmod(cell[found].astype(np.intp), 6)
    a_bit = np.array([label.bit for label in ALL_LABELS])[pair >> 2]
    _, _, zero = _label_tables(0.9)  # the exact zeros of the verification table
    np.testing.assert_array_equal(code[found] & RUN_A_BIT, a_bit)
    np.testing.assert_array_equal((code[found] & RUN_ABORT) != 0, zero[BAND_OUTCOME[band], pair])
