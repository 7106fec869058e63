"""Device models: transmittance, sources, and the sampled Bell measurement.

Monte Carlo checks are seeded and compared at three standard errors against
independently computed event-case products of (t, eta, d) factors.
"""
import math

import numpy as np
import pytest

from conftest import assert_within_sigmas
from mdiqct.devices import (
    BAND_OUTCOME,
    BAND_SAMPLES,
    CAUSE_BOTH,
    CAUSE_DARK_DARK,
    CAUSE_PHOTON_DARK,
    OUTCOME_FAILURE,
    OUTCOME_PSI_MINUS,
    OUTCOME_PSI_PLUS,
    BsmSample,
    ChannelParams,
    DetectorParams,
    EventCause,
    poisson_tail_at_least_two,
    round_rates,
    sample_bsm_ideal,
    sample_bsm_noisy,
    sample_bsm_noisy_batch,
    sample_photon_number,
    transmittance,
    validate_mu,
)
from mdiqct.errors import ParameterError
from mdiqct.qmath import BsmOutcome, atvy_state, bell_projection_probs

# The outcome of each integer code of the batch sampler.
OUTCOME_BY_CODE = {
    OUTCOME_FAILURE: BsmOutcome.FAILURE,
    OUTCOME_PSI_PLUS: BsmOutcome.PSI_PLUS,
    OUTCOME_PSI_MINUS: BsmOutcome.PSI_MINUS,
}


def length_for_t(t: float) -> float:
    """Fiber length giving transmittance t at the default 0.2 dB/km."""
    return -50.0 * math.log10(t)


class TestTransmittance:
    def test_zero_length(self):
        assert transmittance(0.0) == 1.0

    def test_fifty_km(self):
        assert transmittance(50.0) == pytest.approx(0.1, abs=1e-15)

    def test_fifteen_km(self):
        assert transmittance(15.0) == pytest.approx(10.0 ** (-0.3), abs=1e-15)

    def test_strictly_decreasing(self):
        lengths = np.linspace(0.0, 100.0, 21)
        values = [transmittance(l) for l in lengths]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_length_rejected(self):
        with pytest.raises(ParameterError):
            transmittance(-1.0)

    def test_channel_params_properties(self):
        ch = ChannelParams(50.0, 0.0)
        assert ch.t_a == pytest.approx(0.1, abs=1e-15)
        assert ch.t_b == 1.0
        with pytest.raises(ParameterError):
            ChannelParams(-1.0, 0.0)
        with pytest.raises(ParameterError):
            ChannelParams(1.0, 1.0, loss_coeff=0.0)


class TestSources:
    def test_single_photon_always_one(self, rng):
        assert all(sample_photon_number(None, rng) == 1 for _ in range(100))

    def test_weak_coherent_mean(self, rng):
        n = 1_000_000
        counts = rng.poisson(0.5, size=n)  # vectorized draw, same statistics
        assert_within_sigmas(counts.mean(), 0.5, math.sqrt(0.5 / n), 4.0)
        scalar = [sample_photon_number(0.5, rng) for _ in range(20_000)]
        assert_within_sigmas(np.mean(scalar), 0.5, math.sqrt(0.5 / 20_000), 4.0)

    def test_multiphoton_tail(self, rng):
        assert poisson_tail_at_least_two(0.5) == pytest.approx(0.09020401043104986, abs=1e-15)
        counts = rng.poisson(0.5, size=1_000_000)
        frac = (counts >= 2).mean()
        p = poisson_tail_at_least_two(0.5)
        assert_within_sigmas(frac, p, math.sqrt(p * (1 - p) / 1_000_000))

    def test_validation(self):
        validate_mu(0.5)
        for mu in (0.0, -1.0, None):
            with pytest.raises(ParameterError, match="mean photon number"):
                validate_mu(mu)


class TestDetectorParams:
    def test_ranges(self):
        DetectorParams(eta=0.0, dark=0.0)
        DetectorParams(eta=1.0, dark=0.5)
        with pytest.raises(ParameterError):
            DetectorParams(eta=1.2, dark=0.0)
        with pytest.raises(ParameterError):
            DetectorParams(eta=0.5, dark=1.0)


class TestIdealBsm:
    def test_identical_inputs_never_antisymmetric(self, rng):
        s = atvy_state(0, 0, 0.9)
        outcomes = [sample_bsm_ideal(s, s, rng) for _ in range(20_000)]
        assert BsmOutcome.PSI_MINUS not in outcomes

    def test_cross_pair_frequency(self, rng):
        """(phi00, phi11): symmetric projection probability 1/2."""
        a, b = atvy_state(0, 0, 0.9), atvy_state(1, 1, 0.9)
        n = 200_000
        hits = sum(sample_bsm_ideal(a, b, rng) is BsmOutcome.PSI_PLUS for _ in range(n))
        assert_within_sigmas(hits / n, 0.5, math.sqrt(0.25 / n))

    def test_same_pair_frequency(self, rng):
        """(phi00, phi00) at y=0.9: symmetric projection probability 0.18."""
        s = atvy_state(0, 0, 0.9)
        n = 200_000
        hits = sum(sample_bsm_ideal(s, s, rng) is BsmOutcome.PSI_PLUS for _ in range(n))
        assert_within_sigmas(hits / n, 0.18, math.sqrt(0.18 * 0.82 / n))


class TestNoisyBsm:
    def test_noiseless_limit_matches_ideal(self, rng):
        """d=0, eta=1, t=1: cause is always both-photons and the outcome
        distribution equals the ideal sampler's."""
        a, b = atvy_state(0, 0, 0.9), atvy_state(0, 1, 0.9)
        channel = ChannelParams(0.0, 0.0)
        det = DetectorParams(eta=1.0, dark=0.0)
        n = 100_000
        counts = {BsmOutcome.PSI_PLUS: 0, BsmOutcome.PSI_MINUS: 0, BsmOutcome.FAILURE: 0}
        for _ in range(n):
            s = sample_bsm_noisy(a, b, channel, det, rng)
            counts[s.outcome] += 1
            if s.outcome is not BsmOutcome.FAILURE:
                assert s.cause is EventCause.BOTH_PHOTONS
        p_plus, p_minus = bell_projection_probs(a, b)
        assert_within_sigmas(counts[BsmOutcome.PSI_PLUS] / n, p_plus, math.sqrt(p_plus / n))
        assert_within_sigmas(counts[BsmOutcome.PSI_MINUS] / n, p_minus, math.sqrt(p_minus / n))

    def test_fully_lossy_channel_only_dark_dark(self, rng):
        """t ~ 0: every success is a double dark count, 2d^2 per outcome."""
        a = atvy_state(0, 0, 0.9)
        channel = ChannelParams(2000.0, 2000.0)  # t = 1e-8
        det = DetectorParams(eta=0.5, dark=0.05)
        n = 200_000
        plus = minus = 0
        for _ in range(n):
            s = sample_bsm_noisy(a, a, channel, det, rng)
            if s.outcome is not BsmOutcome.FAILURE:
                assert s.cause is EventCause.DARK_DARK
                if s.outcome is BsmOutcome.PSI_PLUS:
                    plus += 1
                else:
                    minus += 1
        per_outcome = 2.0 * 0.05**2
        assert_within_sigmas(plus / n, per_outcome, math.sqrt(per_outcome / n))
        assert_within_sigmas(minus / n, per_outcome, math.sqrt(per_outcome / n))

    def test_case_frequencies_match_products(self, rng):
        """Every cause tag occurs with its analytic (t, eta, d) product."""
        y = 0.9
        a, b = atvy_state(0, 0, y), atvy_state(1, 0, y)
        t_a, t_b, eta, d = 0.7, 0.4, 0.3, 0.02
        channel = ChannelParams(length_for_t(t_a), length_for_t(t_b))
        det = DetectorParams(eta=eta, dark=d)
        n = 300_000
        tallies = {cause: 0 for cause in EventCause}
        for _ in range(n):
            tallies[sample_bsm_noisy(a, b, channel, det, rng).cause] += 1

        p_plus, p_minus = bell_projection_probs(a, b)
        p_both = t_a * t_b * eta * eta * (p_plus + p_minus)
        p_photon_dark = (t_a * eta * (1 - t_b) + t_b * eta * (1 - t_a)) * 2 * d
        p_none = (
            (1 - t_a) * (1 - t_b)
            + t_a * (1 - eta) * (1 - t_b)
            + t_b * (1 - eta) * (1 - t_a)
            + t_a * t_b * (1 - eta) ** 2
        )
        p_dark_dark = p_none * 4 * d * d
        for cause, expected in (
            (EventCause.BOTH_PHOTONS, p_both),
            (EventCause.PHOTON_DARK, p_photon_dark),
            (EventCause.DARK_DARK, p_dark_dark),
        ):
            se = math.sqrt(expected * (1 - expected) / n)
            assert_within_sigmas(tallies[cause] / n, expected, se)

    def test_default_model_omits_arrived_undetected_case(self, rng):
        """With lossless fibers the partner always arrives, so the default
        model never completes a single detection with a dark count."""
        a = atvy_state(0, 0, 0.9)
        channel = ChannelParams(0.0, 0.0)
        det = DetectorParams(eta=0.5, dark=0.1)
        for _ in range(50_000):
            s = sample_bsm_noisy(a, a, channel, det, rng)
            assert s.cause is not EventCause.PHOTON_DARK

    def test_extended_model_enables_that_case(self):
        gen = np.random.default_rng(2)
        a = atvy_state(0, 0, 0.9)
        channel = ChannelParams(0.0, 0.0)
        det = DetectorParams(eta=0.5, dark=0.1)
        n = 400_000
        hits = 0
        for _ in range(n):
            s = sample_bsm_noisy(a, a, channel, det, gen, extended=True)
            if s.cause is EventCause.PHOTON_DARK:
                hits += 1
        expected = 2 * 0.5 * 0.5 * 2 * 0.1  # P(exactly one detected) * 2d
        assert_within_sigmas(hits / n, expected, math.sqrt(expected * (1 - expected) / n))

    def test_absent_pulse_cannot_deliver_photon(self):
        """An empty pulse has transmittance 0, like a lost photon: with both
        pulses empty a round is dark+dark or a failure, in either dark model."""
        det = DetectorParams(eta=1.0, dark=0.05)
        for extended in (False, True):
            rates = round_rates(0.0, 0.0, det, extended)
            assert (rates.genuine, rates.photon_dark) == (0.0, 0.0)
            assert rates.dark_dark == pytest.approx(2 * 0.05**2, abs=1e-15)
            assert rates.dark_cuts == (0.0, 0.0, rates.dark_dark, 2 * rates.dark_dark)

    def test_sample_invariant_enforced(self):
        with pytest.raises(ParameterError):
            BsmSample(BsmOutcome.FAILURE, EventCause.BOTH_PHOTONS)
        with pytest.raises(ParameterError):
            BsmSample(BsmOutcome.PSI_PLUS, EventCause.FAILURE)


class TestBatchSampler:
    def test_matches_scalar_distribution(self, rng):
        """Batch and scalar samplers agree on outcome and cause marginals."""
        y = 0.9
        a, b = atvy_state(0, 0, y), atvy_state(0, 1, y)
        t = 0.6
        channel = ChannelParams(length_for_t(t), length_for_t(t))
        det = DetectorParams(eta=0.4, dark=0.02)
        n = 200_000

        p_plus, p_minus = bell_projection_probs(a, b)
        out, cause = sample_bsm_noisy_batch(
            np.full(n, p_plus), np.full(n, p_minus), channel, det, rng
        )
        scalar_out = np.empty(n, dtype=np.int8)
        scalar_cause = np.empty(n, dtype=np.int8)
        code_by_outcome = {outcome: code for code, outcome in OUTCOME_BY_CODE.items()}
        code_by_cause = {
            EventCause.FAILURE: 0, EventCause.BOTH_PHOTONS: CAUSE_BOTH,
            EventCause.PHOTON_DARK: CAUSE_PHOTON_DARK, EventCause.DARK_DARK: CAUSE_DARK_DARK,
        }
        for i in range(n):
            s = sample_bsm_noisy(a, b, channel, det, rng)
            scalar_out[i] = code_by_outcome[s.outcome]
            scalar_cause[i] = code_by_cause[s.cause]

        for code in (OUTCOME_PSI_PLUS, OUTCOME_PSI_MINUS):
            f_batch = (out == code).mean()
            f_scalar = (scalar_out == code).mean()
            se = math.sqrt(max(f_batch, 1e-9) / n) * math.sqrt(2.0)
            assert_within_sigmas(f_batch, f_scalar, se)
        for code in (CAUSE_BOTH, CAUSE_PHOTON_DARK, CAUSE_DARK_DARK):
            f_batch = (cause == code).mean()
            f_scalar = (scalar_cause == code).mean()
            se = math.sqrt(max(f_batch, 1e-9) / n) * math.sqrt(2.0)
            assert_within_sigmas(f_batch, f_scalar, se)

    def test_outcome_code_round_trip(self):
        """The batch sampler's outcome code of each band is the code of that band's scalar outcome."""
        assert OUTCOME_FAILURE == 0
        assert [OUTCOME_BY_CODE[code] for code in BAND_OUTCOME.tolist()] == [s.outcome for s in BAND_SAMPLES]

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ParameterError):
            sample_bsm_noisy_batch(
                np.zeros(3), np.zeros(4), ChannelParams(), DetectorParams(), rng
            )


class TestAbortMonotonicity:
    def test_abort_frequency_nondecreasing_in_dark_rate(self, rng):
        """Sampled per-round abort frequency grows with d at fixed (eta, t)."""
        from mdiqct.analysis import estimate

        channel = ChannelParams(20.0, 20.0)
        means = []
        for d in (1e-3, 1e-2, 5e-2):
            est = estimate(
                "honest-round-abort",
                trials=400_000,
                seed=77,
                y=0.9,
                channel=channel,
                detector=DetectorParams(eta=0.1, dark=d),
            )
            means.append(est.mean)
        assert means[0] <= means[1] <= means[2]
        assert means[2] > means[0]
