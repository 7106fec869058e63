"""Whether an honest run finds its deciding round, decided without the round count.

``geometric_at_most`` must make the very draws of ``rng.geometric`` and agree
with ``rng.geometric(p, n) <= m`` element for element, on both sides of the
p = 1/3 switch between numpy's search and inversion branches, including at a
tie of the drawn value with the bound, which random draws almost never hit.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqct.devices import ChannelParams, DetectorParams
from mdiqct.protocol import (
    _exponential_found,
    _geometric_search_sum,
    _largest_found_word,
    geometric_at_most,
    sample_deciding_cells,
    sample_deciding_rounds,
)

THIRD = 1.0 / 3.0
EDGE_P = [THIRD, math.nextafter(THIRD, 0.0), math.nextafter(THIRD, 1.0), 1.0, 1e-300]
EDGE_M = [1, 2, 30, 10**6, np.iinfo(np.int64).max - 1]


@settings(max_examples=150, deadline=None)
@given(
    p=st.one_of(st.sampled_from(EDGE_P), st.floats(1e-300, 1.0, exclude_min=True)),
    m=st.one_of(st.sampled_from(EDGE_M), st.integers(1, np.iinfo(np.int64).max - 1)),
    seed=st.integers(0, 2**32 - 1),
)
def test_mask_equals_geometric_draw(p, m, seed):
    ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    found = geometric_at_most(ours, p, m, 2_000)
    np.testing.assert_array_equal(found, numpy_rng.geometric(p, 2_000) <= m)
    assert ours.random() == numpy_rng.random()  # the same draws, so the stream goes on alike


@settings(max_examples=60, deadline=None)
@given(
    l_km=st.sampled_from([0.0, 5.0, 40.0]),
    eta=st.sampled_from([1.0, 0.1, 0.0]),
    dark=st.sampled_from([0.0, 1e-4, 0.5]),
    extended=st.booleans(),
    max_rounds=st.sampled_from(EDGE_M),
    n=st.sampled_from([1, 700, 2_000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cells_and_mask_split_the_deciding_rounds(l_km, eta, dark, extended, max_rounds, n, seed):
    args = (0.9, ChannelParams(l_km, l_km), DetectorParams(eta=eta, dark=dark), extended)
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    cell, found = sample_deciding_cells(*args, max_rounds, ours, n)
    rounds, pair, band = sample_deciding_rounds(*args, reference, n)
    np.testing.assert_array_equal(found, rounds <= max_rounds)
    np.testing.assert_array_equal(cell[found], (6 * pair.astype(int) + band)[found])
    assert ours.random() == reference.random()


def test_skipped_words_leave_a_pending_half_word_in_place():
    """Every word is found at p = 1, but a pending 32-bit half must survive the draw."""
    ours, reference = np.random.default_rng(5), np.random.default_rng(5)
    ours.integers(2), reference.integers(2)  # each leaves the high half of a word pending
    found = geometric_at_most(ours, 1.0, 3, 1_001)
    np.testing.assert_array_equal(found, reference.geometric(1.0, 1_001) <= 3)
    np.testing.assert_array_equal(ours.integers(2, size=5), reference.integers(2, size=5))


# PCG64 steps its 128-bit LCG state s, then outputs rotr64(high ^ low, s >> 122).
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def emitting(word: int) -> np.random.Generator:
    """A PCG64 generator whose next raw word is ``word``: the stepped state has
    high half 0, so no rotation, and low half ``word``; its state inverts the step."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    state["state"]["state"] = (word - inc) * pow(PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)
    rng.bit_generator.state = state
    return rng


def test_emitting_generator_emits_the_word():
    for word in (0, 1, 0x7FF, 2**63, 2**64 - 1):
        assert emitting(word).bit_generator.random_raw() == word


class TestTies:
    """The found decision at a tie of the drawn value with its bound, and one step past it."""

    @pytest.mark.parametrize("p, m", [(0.5, 3), (0.6, 2), (0.75, 1), (0.5, 40)])
    def test_search_branch(self, p, m):
        largest = _largest_found_word(p, m)
        assert emitting(largest).random() == _geometric_search_sum(p, m)  # U equals S
        for word, found in ((largest, True), (largest + 1, False)):
            assert (emitting(word).geometric(p) <= m) == found
            assert geometric_at_most(emitting(word), p, m, 1).tolist() == [found]

    @staticmethod
    def tie(m: int) -> tuple[int, float, float]:
        """A seed whose first exponential E meets, for some p < 1/3, E / −log1p(−p) == m."""
        for seed in range(40):
            e = np.random.default_rng(seed).standard_exponential()
            p = -math.expm1(-e / m)
            for _ in range(64 if p < THIRD else 0):
                ratio = e / -math.log1p(-p)
                if ratio == m:
                    return seed, e, p
                p = math.nextafter(p, 1.0 if ratio > m else 0.0)
        raise AssertionError("no tie found")

    @pytest.mark.parametrize("m", [1, 30, 1_000])
    def test_inversion_branch(self, m):
        seed, e, p = self.tie(m)
        past = p  # the next smaller p whose quotient exceeds m
        while e / -math.log1p(-past) <= m:
            past = math.nextafter(past, 0.0)
        for q, found in ((p, True), (past, False)):
            assert (np.random.default_rng(seed).geometric(q) <= m) == found
            assert geometric_at_most(np.random.default_rng(seed), q, m, 1).tolist() == [found]
        above = e  # the next larger E whose quotient exceeds m
        while above / -math.log1p(-p) <= m:
            above = math.nextafter(above, math.inf)
        assert _exponential_found(np.array([e, above]), p, m).tolist() == [True, False]
