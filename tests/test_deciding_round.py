"""Honest runs drawn from the deciding round: one sampler for `run` and `estimate`.

An honest MDI run is a Geometric(p_round) round count plus one draw of the
deciding (label pair, band) cell; the honest baseline is a Geometric(t_a·η)
resend count plus one measurement.  These tests pin the transcript fields to
that sampler and the ``rounds`` field to its closed-form distribution.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_within_sigmas
from mdiqct.analysis import CHUNK_SIZE, bsm_success_probability, estimate
from mdiqct.devices import BAND_SAMPLES, ChannelParams, DetectorParams
from mdiqct.errors import ExhaustionError
from mdiqct.protocol import (
    GUIDE_BUCKETS,
    GUIDE_MIN_BATCH,
    Mode,
    RunConfig,
    _deciding_cells,
    _success_table,
    run_baseline,
    run_honest,
    sample_deciding_rounds,
)
from mdiqct.qmath import ALL_LABELS

REFERENCE = RunConfig(channel=ChannelParams(10.0, 10.0), detector=DetectorParams(eta=0.1, dark=1e-4))
LOSSY_DARK = RunConfig(channel=ChannelParams(15.0, 15.0), detector=DetectorParams(eta=0.3, dark=1e-2))
BASELINE = RunConfig(
    mode=Mode.BASELINE, channel=ChannelParams(20.0, 0.0), detector=DetectorParams(eta=0.3, dark=0.0)
)


def p_round(config: RunConfig) -> float:
    if config.mode is Mode.BASELINE:
        return config.channel.t_a * config.detector.eta
    return bsm_success_probability(config.channel, config.detector, extended=config.extended_dark_model)


def one_run(config: RunConfig, rng: np.random.Generator):
    return run_baseline(config, None, rng) if config.mode is Mode.BASELINE else run_honest(config, rng)


class TestOneSampler:
    @pytest.mark.parametrize("config", [REFERENCE, LOSSY_DARK])
    def test_run_honest_plays_the_sampled_deciding_round(self, config):
        for seed in range(30):
            rounds, pair, band = sample_deciding_rounds(
                config.y, config.channel, config.detector, config.extended_dark_model,
                np.random.default_rng(seed), 1,
            )
            t = run_honest(config, np.random.default_rng(seed))
            sample = BAND_SAMPLES[band[0]]
            assert t.rounds == rounds[0]
            assert t.bob_label == ALL_LABELS[pair[0] & 3]
            assert (t.outcome, t.cause) == (sample.outcome, sample.cause.value)
            if t.coin is not None:
                assert t.revealed_label == ALL_LABELS[pair[0] >> 2]

    def test_no_round_can_succeed_draws_nothing(self):
        config = RunConfig(detector=DetectorParams(eta=0.0, dark=0.0))
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        rounds, _, band = sample_deciding_rounds(
            config.y, config.channel, config.detector, False, rng, 5
        )
        assert rng.bit_generator.state == before
        assert (rounds > 10**18).all()
        assert all(BAND_SAMPLES[b].cause.value == "failure" for b in band)
        with pytest.raises(ExhaustionError):
            run_honest(config, rng)

    def test_baseline_without_detection_is_exhausted(self):
        config = RunConfig(mode=Mode.BASELINE, detector=DetectorParams(eta=0.0, dark=0.0))
        with pytest.raises(ExhaustionError):
            run_baseline(config, None, np.random.default_rng(0))


class TestRoundsField:
    """The ``rounds`` field against the geometric law at 4 sigma."""

    @pytest.mark.parametrize(
        "config", [REFERENCE, LOSSY_DARK, BASELINE], ids=["reference", "lossy-dark", "baseline"]
    )
    def test_rounds_are_geometric(self, config):
        p, n = p_round(config), 20_000
        rng = np.random.default_rng(61)
        rounds = np.array([one_run(config, rng).rounds for _ in range(n)])
        assert_within_sigmas(rounds.mean(), 1.0 / p, math.sqrt(1.0 - p) / p / math.sqrt(n), sigmas=4.0)
        assert_within_sigmas((rounds == 1).mean(), p, math.sqrt(p * (1.0 - p) / n), sigmas=4.0)

    @pytest.mark.parametrize(
        "config",
        [RunConfig(channel=LOSSY_DARK.channel, detector=LOSSY_DARK.detector, max_rounds=50),
         RunConfig(mode=Mode.BASELINE, channel=BASELINE.channel, detector=BASELINE.detector, max_rounds=5)],
        ids=["mdi", "baseline"],
    )
    def test_exhaustion_frequency(self, config):
        n = 5_000
        expected = (1.0 - p_round(config)) ** config.max_rounds
        rng = np.random.default_rng(62)
        exhausted = 0
        for _ in range(n):
            try:
                one_run(config, rng)
            except ExhaustionError:
                exhausted += 1
        assert_within_sigmas(exhausted / n, expected, math.sqrt(expected * (1.0 - expected) / n), sigmas=4.0)


def operating_points(*special):
    """Floats between the special values, which are drawn exactly as well."""
    return st.one_of(st.sampled_from(special), st.floats(min(special), max(special)))


class TestGuideTable:
    """The guide-table lookup of the deciding cell is a binary search, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        y=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
        l_a=operating_points(0.0, 200.0),
        l_b=operating_points(0.0, 200.0),
        eta=operating_points(0.0, 1.0),
        dark=operating_points(0.0, 0.5),
        extended=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lookup_equals_searchsorted(self, y, l_a, l_b, eta, dark, extended, seed):
        detector = DetectorParams(eta=eta, dark=dark)
        p_round, cumulative, guide = _success_table(y, ChannelParams(l_a, l_b), detector, extended)
        assume(p_round > 0.0)  # otherwise no cell is drawn
        starts = np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS
        edges = cumulative[cumulative < 1.0]
        u = np.concatenate([
            [0.0, 1.0 - 2.0**-53],
            starts,
            np.nextafter(starts[1:], 0.0),
            edges,
            np.nextafter(edges[edges > 0.0], 0.0),
            np.random.default_rng(seed).random(4 * GUIDE_BUCKETS),
        ])
        expected = np.searchsorted(cumulative, u, side="right")
        for size in (1, u.size):
            cells = _deciding_cells(u[-size:], cumulative, guide)
            assert cells.dtype == np.int8
            np.testing.assert_array_equal(cells, expected[-size:])

    @pytest.mark.parametrize("n", [1, GUIDE_MIN_BATCH - 1, GUIDE_MIN_BATCH, 3 * GUIDE_MIN_BATCH])
    def test_batch_size_picks_no_other_cells(self, n):
        """Small batches are searched outright, larger ones looked up: one uniform stream either way."""
        config = LOSSY_DARK
        args = (config.y, config.channel, config.detector, config.extended_dark_model)
        _, cumulative, _ = _success_table(*args)
        _, pair, band = sample_deciding_rounds(*args, np.random.default_rng(n), n)
        cells = np.searchsorted(cumulative, np.random.default_rng(n).random(n), side="right")
        np.testing.assert_array_equal(6 * pair.astype(int) + band, cells)


class TestPinnedHonestEstimates:
    """Honest estimates frozen from the binary-search sampler: the guide table changes no draw."""

    LOSSY = dict(channel=LOSSY_DARK.channel, detector=LOSSY_DARK.detector)
    FAR = dict(channel=ChannelParams(40.0, 40.0), detector=DetectorParams(eta=0.1, dark=1e-4))

    @pytest.mark.parametrize(
        "scenario, seed, params, mean, trials",
        [
            ("honest-run-abort", 0, LOSSY, 0.056436801914558174, 300_017),
            ("honest-coin", 1, LOSSY, 0.49921055141306, 283_109),
            ("honest-coin", 0, dict(LOSSY, extended=True), 0.4999365010250549, 275_595),
            ("honest-run-abort", 2, dict(FAR, max_rounds=30), 2.6665155641180333e-05, 300_017),
            (
                "honest-run-abort", 0,
                dict(channel=ChannelParams(5.0, 5.0), detector=DetectorParams(eta=0.0, dark=1e-3)),
                0.2454827559771613, 300_017,
            ),
        ],
        ids=["lossy", "coin", "extended", "max-rounds-30", "eta-0"],
    )
    def test_estimate_is_unchanged(self, scenario, seed, params, mean, trials):
        est = estimate(scenario, trials=300_017, seed=seed, **params)
        assert (est.mean, est.trials) == (mean, trials)

    @pytest.mark.parametrize(
        "scenario, seed, mean",
        [("honest-coin", 0, 0.50022631913541), ("honest-run-abort", 1, 0.0)],
        ids=["coin", "run-abort"],
    )
    def test_ideal_devices_are_unchanged(self, scenario, seed, mean):
        """Default (ideal) devices, the configuration of ``attack --adversary none``."""
        trials = 3 * CHUNK_SIZE + 17
        est = estimate(scenario, trials=trials, seed=seed)
        assert (est.mean, est.trials) == (mean, trials)
