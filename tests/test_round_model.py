"""The seven-outcome round table and the inputs refused around it.

The table of :func:`mdiqct.devices.round_rates` is the one round model that
the closed forms and every BSM sampler read.  These tests check that it is a
probability distribution on its whole domain, that the closed forms and the
samplers agree with it, and that inputs outside the domain are refused.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mdiqct import analysis, cli
from mdiqct.analysis import (
    bsm_success_probability,
    estimate,
    honest_abort_breakdown,
    honest_abort_closed_form,
    sweep_distance,
)
from mdiqct.devices import (
    IDEAL_CHANNEL,
    IDEAL_DETECTOR,
    ChannelParams,
    DetectorParams,
    round_rates,
    sample_bsm_ideal,
    sample_bsm_noisy,
    sample_bsm_noisy_batch,
)
from mdiqct.errors import ParameterError
from mdiqct.protocol import is_zero_cell
from mdiqct.qmath import (
    ALL_LABELS,
    BELL_OUTCOMES,
    atvy_state,
    bell_projection_probs,
    state_for_label,
    verification_table,
)


def seven_outcomes(rates, p_plus, p_minus):
    """Band probabilities in table order; failure is the remainder."""
    pd, dd, g = rates.photon_dark, rates.dark_dark, rates.genuine
    success = [pd, pd, dd, dd, g * p_plus, g * p_minus]
    return success + [1.0 - sum(success)]


class TestRoundTableProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        l_a=st.floats(0.0, 200.0),
        l_b=st.floats(0.0, 200.0),
        eta=st.floats(0.0, 1.0),
        dark=st.floats(0.0, 1.0, exclude_max=True),
        extended=st.booleans(),
        y=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_table_is_a_distribution_behind_every_closed_form(self, l_a, l_b, eta, dark, extended, y):
        try:
            detector = DetectorParams(eta=eta, dark=dark)
        except ParameterError:
            assume(False)
        channel = ChannelParams(l_a, l_b)
        rates = round_rates(channel.t_a, channel.t_b, detector, extended)
        table = verification_table(y)

        zero_mass = 0.0
        for i, la in enumerate(ALL_LABELS):
            for j, lb in enumerate(ALL_LABELS):
                p_plus, p_minus = bell_projection_probs(state_for_label(la, y), state_for_label(lb, y))
                bands = seven_outcomes(rates, p_plus, p_minus)
                assert all(0.0 <= p <= 1.0 for p in bands), bands
                assert math.fsum(bands) == pytest.approx(1.0, abs=1e-12)
                for outcome in BELL_OUTCOMES:
                    if is_zero_cell(outcome, la, lb):
                        genuine = rates.genuine * table.panel(outcome)[i, j]
                        zero_mass += rates.photon_dark + rates.dark_dark + genuine
        zero_mass /= 16.0

        assert bsm_success_probability(channel, detector, extended=extended) <= 1.0 + 1e-12
        closed = honest_abort_closed_form(channel, detector, extended=extended)
        assert closed == pytest.approx(zero_mass, rel=1e-12, abs=1e-300)
        parts = honest_abort_breakdown(channel, detector, extended=extended)
        assert parts["photon+dark"] + parts["dark+dark"] == pytest.approx(closed, rel=1e-12, abs=1e-300)

    def test_failure_band_matches_an_independent_event_count(self):
        """The remainder band equals the probability of no coincidence."""
        t_a, t_b, eta, d = 0.7, 0.4, 0.3, 0.02
        channel = ChannelParams(-50.0 * math.log10(t_a), -50.0 * math.log10(t_b))
        det = DetectorParams(eta=eta, dark=d)
        p_plus, p_minus = 0.3, 0.45
        one_lost = t_a * eta * (1 - t_b) + t_b * eta * (1 - t_a)
        one_undetected = 2 * t_a * t_b * eta * (1 - eta)
        none = 1 - t_a * t_b * eta * eta - one_lost - one_undetected
        for extended, completable in ((False, one_lost), (True, one_lost + one_undetected)):
            rates = round_rates(channel.t_a, channel.t_b, det, extended)
            failure = (
                t_a * t_b * eta * eta * (1 - p_plus - p_minus)
                + completable * (1 - 2 * d)
                + (one_lost + one_undetected - completable)
                + none * (1 - 4 * d * d)
            )
            assert seven_outcomes(rates, p_plus, p_minus)[6] == pytest.approx(failure, rel=1e-12)


class TestSamplersReadTheTable:
    POINTS = [
        (ChannelParams(0.0, 0.0), DetectorParams(eta=0.1, dark=1e-4), False),
        (ChannelParams(10.0, 35.0), DetectorParams(eta=0.3, dark=0.02), True),
        (ChannelParams(200.0, 200.0), DetectorParams(eta=0.5, dark=0.5), False),
    ]

    @pytest.mark.parametrize("channel, detector, extended", POINTS)
    def test_one_uniform_per_round(self, channel, detector, extended):
        a, b = atvy_state(0, 0, 0.9), atvy_state(1, 1, 0.9)
        for seed in range(200):
            gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            sample_bsm_noisy(a, b, channel, detector, gen, extended=extended)
            ref.random()
            assert gen.bit_generator.state == ref.bit_generator.state
        gen, ref = np.random.default_rng(7), np.random.default_rng(7)
        sample_bsm_noisy_batch(np.full(50, 0.2), np.full(50, 0.3), channel, detector, gen, extended=extended)
        ref.random(50)
        assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("channel, detector, extended", POINTS)
    def test_scalar_and_batch_draw_the_same_rounds(self, channel, detector, extended):
        """Fed the same uniforms, both samplers land in the same band."""
        y = 0.9
        pairs = [(la, lb) for la in ALL_LABELS for lb in ALL_LABELS] * 500
        states = [(state_for_label(la, y), state_for_label(lb, y)) for la, lb in pairs]
        probs = np.array([bell_projection_probs(a, b) for a, b in states])
        outcome, cause = sample_bsm_noisy_batch(
            probs[:, 0], probs[:, 1], channel, detector, np.random.default_rng(3), extended=extended
        )
        gen = np.random.default_rng(3)
        scalar = [sample_bsm_noisy(a, b, channel, detector, gen, extended=extended) for a, b in states]
        codes = {"failure": 0, "both-photons": 1, "photon+dark": 2, "dark+dark": 3}
        assert [codes[s.cause.value] for s in scalar] == cause.tolist()
        assert [s.outcome.name for s in scalar] == [
            ("FAILURE", "PSI_PLUS", "PSI_MINUS")[c] for c in outcome.tolist()
        ]

    def test_ideal_sampler_is_the_ideal_device_case(self):
        a, b = atvy_state(0, 1, 0.8), atvy_state(1, 1, 0.8)
        for seed in range(100):
            ideal = sample_bsm_ideal(a, b, np.random.default_rng(seed))
            noisy = sample_bsm_noisy(a, b, IDEAL_CHANNEL, IDEAL_DETECTOR, np.random.default_rng(seed))
            assert ideal is noisy.outcome


class TestDarkCountDomain:
    @pytest.mark.parametrize("dark", [0.5000001, 0.9])
    def test_library_refuses_dark_above_half(self, dark):
        with pytest.raises(ParameterError, match="1/2"):
            DetectorParams(eta=0.1, dark=dark)

    def test_half_is_the_largest_accepted_value(self):
        det = DetectorParams(eta=0.1, dark=0.5)
        assert bsm_success_probability(ChannelParams(50.0, 50.0), det) <= 1.0

    def test_cli_refuses_dark_above_half(self, capsys):
        code = cli.main(["sweep", "--dark", "0.9", "--lmin", "50", "--lmax", "50", "--step", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "1/2" in captured.err


class TestEstimateRefusesWhatItWouldIgnore:
    @pytest.mark.parametrize(
        "scenario, params",
        [
            ("honest-round-abort", {"chanel": ChannelParams(10.0, 10.0)}),
            ("alice-individual", {"med_model": "nonsense"}),
            ("table-cell", {"index_a": 0, "index_b": 1, "outcome": "psi-plux"}),
            ("alice-blinding", {"count": "abortt"}),
            ("alice-individual", {"condition": "rigth"}),
            ("alice-individual", {"target_coin": 2}),
            ("alice-coherent", {"target_coin": -1}),
            ("alice-blinding", {"target_coin": 2}),
            ("table-cell", {"index_a": -1, "index_b": 0, "outcome": "psi-plus"}),
            ("cheating-cell", {"index_b": 7, "outcome": "psi-plus"}),
            ("honest-round-cause", {"cause_code": 7}),
            ("honest-run-abort", {"max_rounds": 0}),
            ("table-cell", {"index_b": 0, "outcome": "psi-plus"}),
            ("honest-round-cause", {}),
            ("cheating-cell", {"index_b": 0}),
            ("bob-med", {"med_model": "projective"}),
            ("alice-coherent", {"condition": "correct"}),
        ],
    )
    def test_refused(self, scenario, params):
        with pytest.raises(ParameterError):
            estimate(scenario, trials=10, seed=0, **params)

    def test_valid_choices_still_run(self):
        estimate("alice-individual", trials=10, seed=0, med_model="projective", condition="wrong")
        estimate("alice-blinding", trials=10, seed=0, count="abort")
        estimate("table-cell", trials=10, seed=0, index_a=0, index_b=1, outcome="psi-minus")


class TestSweepBounds:
    DET = DetectorParams(eta=0.1, dark=1e-4)

    @pytest.mark.parametrize(
        "l_min, l_max, step",
        [
            (0.0, 50.0, math.nan),
            (0.0, math.inf, 5.0),
            (math.nan, 50.0, 5.0),
            (0.0, 50.0, math.inf),
        ],
    )
    def test_non_finite_inputs_refused(self, l_min, l_max, step):
        with pytest.raises(ParameterError, match="finite"):
            sweep_distance(l_min, l_max, step, self.DET)

    def test_point_cap(self, monkeypatch):
        with pytest.raises(ParameterError, match="points"):
            sweep_distance(0.0, 1e9, 1e-9, self.DET)
        with pytest.raises(ParameterError, match="points"):
            sweep_distance(0.0, float(analysis.MAX_SWEEP_POINTS), 1.0, self.DET)
        monkeypatch.setattr(analysis, "MAX_SWEEP_POINTS", 11)
        assert len(sweep_distance(0.0, 50.0, 5.0, self.DET)) == 11
        with pytest.raises(ParameterError, match="points"):
            sweep_distance(0.0, 55.0, 5.0, self.DET)

    @pytest.mark.parametrize(
        "flags",
        [("--step", "nan"), ("--lmax", "inf"), ("--lmax", "1e9", "--step", "1e-9")],
    )
    def test_cli_usage_errors(self, capsys, flags):
        code = cli.main(["sweep", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
