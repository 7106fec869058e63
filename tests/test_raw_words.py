"""The estimator kernels read 64-bit words: fair choices and the top bytes of
Born uniforms as the bytes of full-range words, honest runs as 16-bit prefixes.

The numpy identities behind that are pinned here, so that a numpy release
that breaks one fails loudly: ``random`` is (w >> 11)·2⁻⁵³ of the raw word w,
the law the kernels reproduce from fewer bits; bounded draws read the 32-bit
halves of raw words, low half first, so ``integers(2**k)`` is the top k bits
of each half and ``integers(0, 256, dtype=uint8)`` is the bytes of each half,
low byte first, that is the little-endian bytes of the words.  One
``CHUNK_SIZE``-trial chunk of each kernel stays within a fixed allocation
budget.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqct.analysis import CHUNK_SIZE, SCENARIOS, _born, _chunk_rng, _scenario_params
from mdiqct.devices import ChannelParams, DetectorParams

SEEDS = [0, 1, 17, 2**32 - 1]
SIZES = [1, 7, 4_097, 32_771]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
class TestNumpyIdentities:
    def test_random_is_the_top_53_bits(self, seed, n):
        words = np.random.default_rng(seed).bit_generator.random_raw(n)
        np.testing.assert_array_equal((words >> 11) * 2.0**-53, np.random.default_rng(seed).random(n))

    @pytest.mark.parametrize("bits", [1, 4])
    def test_power_of_two_ranges_are_top_bits_of_each_half(self, seed, n, bits):
        words = np.random.default_rng(seed).bit_generator.random_raw((n + 1) // 2)
        top_bits = words.view(np.uint32)[:n] >> (32 - bits)
        numpy_rng = np.random.default_rng(seed)
        np.testing.assert_array_equal(top_bits, numpy_rng.integers(1 << bits, size=n))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 7, 8, 9, 4_097, 65_537, 262_147])
def test_bytes_of_full_range_words_are_the_uint8_draw(seed, n):
    """The fair bytes of the attack kernels are today's ``integers(0, 256, uint8)``
    bytes, and the next double is drawn from the same word either way."""
    ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    words = ours.integers(0, 2**64 - 1, size=-(-n // 8), dtype=np.uint64, endpoint=True)
    np.testing.assert_array_equal(words.view(np.uint8)[:n], numpy_rng.integers(0, 256, size=n, dtype=np.uint8))
    assert ours.random() == numpy_rng.random()  # a pending half word plays no part in a double


LOSSY = dict(channel=ChannelParams(15.0, 15.0), detector=DetectorParams(eta=0.3, dark=1e-2))
# Peak bytes of one chunk, by scenario.  Whole-chunk float64 and int64 arrays
# took 1.5–3.3 MiB; every honest kernel now reads a 16-bit prefix per trial
# in blocks of 2¹⁶ runs, keeps its codes and indices in per-thread scratch,
# and peaks near 150–250 KiB.
HONEST = {
    "honest-round-abort": ({}, 768 * 1024),
    "honest-round-cause": (dict(cause_code=2), 768 * 1024),
    "honest-run-abort": ({}, 768 * 1024),
    "honest-coin": ({}, 768 * 1024),
}


def chunk_peak(scenario: str, params: dict) -> int:
    """Peak traced bytes of the second of two chunks: the first builds the
    cached tables and this thread's scratch buffers."""
    params = _scenario_params(scenario, params)
    kernel = SCENARIOS[scenario].kernel
    kernel(_chunk_rng(0, 0), CHUNK_SIZE, params)
    tracemalloc.start()
    try:
        kernel(_chunk_rng(0, 1), CHUNK_SIZE, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("devices", [{}, LOSSY], ids=["ideal", "lossy"])
@pytest.mark.parametrize("scenario", HONEST)
def test_one_chunk_stays_within_the_allocation_budget(scenario, devices):
    extra, budget = HONEST[scenario]
    assert chunk_peak(scenario, dict(devices, **extra)) <= budget


# The attack kernels hold at most two draws of a byte per trial at once (the
# fair choices, and the top bytes of Born uniforms), CHUNK_SIZE bytes each.
# Each budget leaves 128 KiB beside them, so one more array of a byte per
# trial, a whole-chunk temporary of the smallest kind, exceeds it.
ATTACK = {
    "bob-med": ({}, 1),
    "alice-individual": ({}, 1),
    "alice-individual/projective": (dict(med_model="projective", condition="wrong"), 2),
    "alice-coherent": (dict(sent="minus"), 2),
    "alice-blinding": ({}, 1),
    "table-cell": (dict(index_a=1, index_b=2, outcome="psi-plus"), 1),
    "cheating-cell": (dict(index_b=1, outcome="psi-plus"), 1),
}


@pytest.mark.parametrize("case", ATTACK)
def test_one_attack_chunk_holds_no_whole_chunk_temporary(case):
    params, draws = ATTACK[case]
    assert chunk_peak(case.split("/")[0], params) <= draws * CHUNK_SIZE + 128 * 1024


class BornWords:
    """A generator stand-in for :func:`analysis._born`: its first draw is the
    words whose bytes are ``tops``, every later word holds ``low`` in its
    top 45 bits, with other bits below."""

    def __init__(self, tops: np.ndarray, low: int) -> None:
        self.tops, self.low, self.lazy, self.calls = tops, low, 0, 0

    def integers(self, low, high, size, dtype, endpoint):
        assert (low, high, dtype, endpoint) == (0, 2**64 - 1, np.uint64, True)
        self.calls += 1
        if self.calls == 1:
            padded = np.zeros(size * 8, dtype=np.uint8)
            padded[:self.tops.size] = self.tops
            return padded.view(np.uint64)
        self.lazy += size
        return np.full(size, self.low << 19 | 0x5A5A5, dtype=np.uint64)


def threshold(p: float) -> int:
    """⌈p·2⁵³⌉, the number of uniforms k·2⁻⁵³ below p, in integers: p·256 is
    exact, T8 its integer part and frac the rest, so T8·2⁴⁵ + ⌈frac·2⁴⁵⌉."""
    t8 = math.floor(p * 256)
    return t8 * 2**45 + math.ceil((p * 256 - t8) * 2**45)


PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 2.0**-8, 1.0 - 2.0**-53, 2.0**-53, 5e-324]),
    st.integers(0, 256).map(lambda k: k / 256),
    st.floats(0.0, 2.0**-8),
    st.floats(0.0, 1.0),
)


class TestBornLaw:
    """``_born`` compares the uniform k = byte·2⁴⁵ + low with ⌈p·2⁵³⌉ exactly,
    for every byte and at the low parts where the comparison turns, so each
    outcome has the probability of ``rng.random() < p``."""

    @settings(max_examples=300, deadline=None)
    @given(p=PROBABILITIES)
    def test_threshold_in_integers_is_the_ceiling(self, p):
        assert threshold(p) == math.ceil(p * 2**53)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.lists(PROBABILITIES, min_size=1, max_size=2).map(sorted), min_size=1, max_size=4)
        .filter(lambda rows: len({len(row) for row in rows}) == 1),
        indexed=st.booleans(),
        data=st.data(),
    )
    def test_every_uniform_is_compared_exactly(self, rows, indexed, data):
        """Rows selected by an index or, for one row, without one."""
        cuts = np.array([[threshold(p) for p in row] for row in rows], dtype=object)
        # The low part at which some cut turns (below 2⁴⁵ once the top byte is capped at 255), or any other.
        turning = [t - min(t >> 45, 255) * 2**45 for t in cuts.ravel()]
        low = data.draw(st.one_of(
            st.sampled_from([max(t - 1, 0) for t in turning] + [min(t, 2**45 - 1) for t in turning]),
            st.integers(0, 2**45 - 1),
        ))
        trials = 256 * len(rows)
        tops = np.tile(np.arange(256, dtype=np.uint8), len(rows))
        index = np.repeat(np.arange(len(rows), dtype=np.uint8), 256)
        rng = BornWords(tops, low)
        below = _born(rng, trials, rows, index if len(rows) > 1 or indexed else None)
        expected = [sum((top << 45) + low < t for t in cuts[row]) for top, row in zip(tops.tolist(), index.tolist())]
        np.testing.assert_array_equal(below, expected)
        # Only trials whose byte ties with their cut's top byte draw low bits.
        ties = sum(any(top == min(t >> 45, 255) for t in cuts[row]) for top, row in zip(tops.tolist(), index.tolist()))
        assert rng.lazy <= ties
