"""Honest runs drawn from the deciding round: one sampler for `run` and `estimate`.

An honest MDI run is a Geometric(p_round) round count plus one draw of the
deciding (label pair, band) cell; the honest baseline is a Geometric(t_a·η)
resend count plus one measurement.  These tests pin the transcript fields to
that sampler and the ``rounds`` field to its closed-form distribution.
"""
import math

import numpy as np
import pytest

from conftest import assert_within_sigmas
from mdiqct.analysis import bsm_success_probability
from mdiqct.devices import BAND_SAMPLES, ChannelParams, DetectorParams
from mdiqct.errors import ExhaustionError
from mdiqct.protocol import Mode, RunConfig, run_baseline, run_honest, sample_deciding_rounds
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
