"""Whether an honest run finds its deciding round, decided without the round count.

``geometric_at_most`` must make the very draws of ``rng.geometric`` and agree
with ``rng.geometric(p, n) <= m`` element for element, on both sides of the
p = 1/3 switch between numpy's search and inversion branches.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqct.devices import ChannelParams, DetectorParams
from mdiqct.protocol import geometric_at_most, sample_deciding_cells, sample_deciding_rounds

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
