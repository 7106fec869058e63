"""Closed forms, fairness solver, and the deterministic estimator."""
import math

import numpy as np
import pytest

from conftest import assert_within_sigmas
from mdiqct import analysis
from mdiqct.analysis import (
    bsm_success_probability,
    cheat_alice_coherent,
    cheat_alice_individual,
    cheat_bob,
    chi_square_uniform,
    closed_form_for_attack,
    estimate,
    honest_abort_breakdown,
    honest_abort_closed_form,
    honest_abort_given_success,
    solve_fair_y,
    sweep_distance,
)
from mdiqct.devices import (
    OUTCOME_FAILURE,
    OUTCOME_PSI_MINUS,
    OUTCOME_PSI_PLUS,
    ChannelParams,
    DetectorParams,
    outcome_from_code,
    sample_bsm_noisy_batch,
)
from mdiqct.errors import ParameterError, UnknownScenarioError
from mdiqct.protocol import RunConfig, Verdict, is_zero_cell, run_honest
from mdiqct.qmath import ALL_LABELS, BsmOutcome, verification_table


def hand_abort_formula(t_a, t_b, eta, d):
    """The six-term closed form written out literally, as an oracle."""
    return 0.5 * (
        (1 - t_a) * (1 - t_b) * 2 * d * d
        + t_a * (1 - t_b) * eta * d
        + t_b * (1 - t_a) * eta * d
        + t_a * (1 - t_b) * (1 - eta) * 2 * d * d
        + t_b * (1 - t_a) * (1 - eta) * 2 * d * d
        + t_a * t_b * (1 - eta) ** 2 * 2 * d * d
    )


def restart_loop(config, rng, n):
    """Independent reference for honest MDI runs: every round walked, n runs at once.

    Each pending run draws a uniform label pair and one round of the batch
    sampler until that round succeeds.  Returns (abort flags, round counts).
    """
    table = verification_table(config.y)
    p_plus = table.panel(BsmOutcome.PSI_PLUS).ravel()
    p_minus = table.panel(BsmOutcome.PSI_MINUS).ravel()
    zero = np.zeros((3, 16), dtype=bool)  # by (outcome code, label pair)
    for code in (OUTCOME_PSI_PLUS, OUTCOME_PSI_MINUS):
        for pair in range(16):
            la, lb = ALL_LABELS[pair >> 2], ALL_LABELS[pair & 3]
            zero[code, pair] = is_zero_cell(outcome_from_code(code), la, lb)
    abort = np.zeros(n, dtype=bool)
    rounds = np.zeros(n, dtype=np.int64)
    pending = np.arange(n)
    while pending.size:
        pair = rng.integers(16, size=pending.size)
        outcome, _ = sample_bsm_noisy_batch(
            p_plus[pair], p_minus[pair], config.channel, config.detector, rng,
            extended=config.extended_dark_model,
        )
        rounds[pending] += 1
        done = outcome != OUTCOME_FAILURE
        abort[pending[done]] = zero[outcome[done], pair[done]]
        pending = pending[~done]
    return abort, rounds


class TestClosedForms:
    def test_zero_dark_rate_gives_zero(self):
        ch = ChannelParams(30.0, 10.0)
        assert honest_abort_closed_form(ch, DetectorParams(eta=0.1, dark=0.0)) == 0.0

    def test_lossless_point_frozen(self):
        """t=1 leaves only the both-arrived-undetected term: (1-eta)^2 d^2."""
        value = honest_abort_closed_form(ChannelParams(), DetectorParams(eta=0.1, dark=1e-4))
        assert value == pytest.approx(8.1e-9, rel=1e-12)

    @pytest.mark.parametrize("l_km", [0.0, 10.0, 20.0, 50.0])
    def test_matches_hand_substitution(self, l_km):
        t = 10.0 ** (-0.02 * l_km)
        expected = hand_abort_formula(t, t, 0.1, 1e-4)
        got = honest_abort_closed_form(
            ChannelParams(l_km, l_km), DetectorParams(eta=0.1, dark=1e-4)
        )
        assert got == pytest.approx(expected, rel=1e-15)

    def test_asymmetric_fibers(self):
        t_a, t_b = 10.0 ** (-0.02 * 10.0), 10.0 ** (-0.02 * 35.0)
        got = honest_abort_closed_form(
            ChannelParams(10.0, 35.0), DetectorParams(eta=0.25, dark=2e-3)
        )
        assert got == pytest.approx(hand_abort_formula(t_a, t_b, 0.25, 2e-3), rel=1e-15)

    def test_breakdown_sums_to_total(self):
        ch = ChannelParams(20.0, 20.0)
        det = DetectorParams(eta=0.1, dark=1e-4)
        for extended in (False, True):
            parts = honest_abort_breakdown(ch, det, extended=extended)
            total = honest_abort_closed_form(ch, det, extended=extended)
            assert parts["photon+dark"] + parts["dark+dark"] == pytest.approx(total, rel=1e-12)

    def test_extended_model_adds_positive_term(self):
        ch = ChannelParams(20.0, 20.0)
        det = DetectorParams(eta=0.1, dark=1e-4)
        base = honest_abort_closed_form(ch, det)
        ext = honest_abort_closed_form(ch, det, extended=True)
        t = ch.t_a
        assert ext - base == pytest.approx(0.5 * 2 * t * t * 0.1 * 0.9 * 1e-4, rel=1e-9)

    def test_success_probability_and_conditioning(self):
        ch = ChannelParams(20.0, 20.0)
        det = DetectorParams(eta=0.1, dark=1e-4)
        t = ch.t_a
        dark_each = hand_abort_formula(t, t, 0.1, 1e-4) * 2.0  # undo the 1/2 prefactor
        expected_success = 0.5 * t * t * 0.01 + 2.0 * dark_each
        assert bsm_success_probability(ch, det) == pytest.approx(expected_success, rel=1e-12)
        cond = honest_abort_given_success(ch, det)
        assert cond == pytest.approx(
            honest_abort_closed_form(ch, det) / expected_success, rel=1e-12
        )
        assert cond > honest_abort_closed_form(ch, det)

    def test_cheat_closed_forms_at_fair_point(self):
        assert cheat_bob(0.9) == pytest.approx(0.9, abs=1e-15)
        assert cheat_alice_coherent(0.9) == pytest.approx(0.9, abs=1e-12)
        assert cheat_alice_individual() == 0.75

    def test_cheat_validation(self):
        with pytest.raises(ParameterError):
            cheat_bob(0.5)
        with pytest.raises(ParameterError):
            cheat_alice_coherent(1.0)

    def test_closed_form_for_attack_map(self):
        assert closed_form_for_attack("bob-med", 0.8) == 0.8
        assert closed_form_for_attack("alice-individual", 0.8) == 0.75
        assert closed_form_for_attack("alice-blinding", 0.8) == 1.0
        assert closed_form_for_attack("none", 0.8) == 0.5
        with pytest.raises(ParameterError):
            closed_form_for_attack("mitm", 0.8)


class TestSweep:
    def test_point_count_and_endpoints(self):
        det = DetectorParams(eta=0.1, dark=1e-4)
        points = sweep_distance(0.0, 50.0, 10.0, det)
        assert len(points) == 6
        assert points[0].l_km == 0.0 and points[-1].l_km == 50.0
        assert points[0].pr_abort == pytest.approx(8.1e-9, rel=1e-12)

    def test_zero_dark_curve_is_identically_zero(self):
        points = sweep_distance(0.0, 50.0, 5.0, DetectorParams(eta=0.1, dark=0.0))
        assert all(p.pr_abort == 0.0 for p in points)

    def test_positive_dark_curve_strictly_positive(self):
        points = sweep_distance(0.0, 50.0, 5.0, DetectorParams(eta=0.1, dark=1e-4))
        assert all(p.pr_abort > 0.0 for p in points)

    def test_dark_dark_share_grows_with_distance(self):
        """Short range: photon+dark coincidences dominate; long range the
        all-dark-count fakes take over.  The grid starts past the crossover:
        at exactly zero loss the photon+dark channel is closed (no partner
        photon is ever lost), so the share is trivially 1 at L = 0 and the
        monotone growth holds in the lossy region."""
        det = DetectorParams(eta=0.1, dark=1e-4)
        shares = []
        for l_km in (20.0, 40.0, 60.0, 80.0):
            parts = honest_abort_breakdown(ChannelParams(l_km, l_km), det)
            shares.append(parts["dark+dark"] / (parts["dark+dark"] + parts["photon+dark"]))
        assert all(a < b for a, b in zip(shares, shares[1:]))

    def test_validation(self):
        det = DetectorParams(eta=0.1, dark=1e-4)
        with pytest.raises(ParameterError):
            sweep_distance(0.0, 50.0, 0.0, det)
        with pytest.raises(ParameterError):
            sweep_distance(50.0, 0.0, 5.0, det)


class TestFairPoint:
    def test_root_and_bias(self):
        point = solve_fair_y(1e-10)
        assert point.y == pytest.approx(0.9, abs=1e-9)
        assert point.bias == pytest.approx(0.4, abs=1e-9)

    def test_residual_at_root(self):
        point = solve_fair_y(1e-10)
        assert abs(cheat_alice_coherent(point.y) - point.y) < 1e-9

    def test_idempotent(self):
        assert solve_fair_y(1e-10) == solve_fair_y(1e-10)

    def test_tolerance_monotone(self):
        """Tightening the tolerance never moves the root by more than the
        looser tolerance."""
        loose = solve_fair_y(1e-6).y
        tight = solve_fair_y(1e-12).y
        assert abs(loose - tight) <= 1e-6

    def test_crossing_is_unique_on_fine_grid(self):
        ys = np.arange(0.5005, 1.0, 0.001)
        diffs = np.array([cheat_alice_coherent(y) - cheat_bob(y) for y in ys])
        sign_changes = int(np.sum(np.sign(diffs[:-1]) != np.sign(diffs[1:])))
        assert sign_changes == 1

    def test_bad_tolerance(self):
        with pytest.raises(ParameterError):
            solve_fair_y(0.0)


class TestChiSquare:
    def test_balanced_counts_pass(self):
        stat, pvalue = chi_square_uniform([50_050, 49_950])
        assert pvalue > 0.5

    def test_skewed_counts_fail(self):
        _, pvalue = chi_square_uniform([60_000, 40_000])
        assert pvalue < 1e-6


class TestEstimatorDeterminism:
    def test_bit_identical_repeat(self):
        a = estimate("bob-med", trials=300_000, seed=42, y=0.9)
        b = estimate("bob-med", trials=300_000, seed=42, y=0.9)
        assert a == b

    def test_worker_count_does_not_change_result(self):
        one = estimate("alice-coherent", trials=500_000, seed=43, y=0.9, workers=1)
        four = estimate("alice-coherent", trials=500_000, seed=43, y=0.9, workers=4)
        assert one == four

    def test_seed_changes_result(self):
        a = estimate("bob-med", trials=100_000, seed=1, y=0.9)
        b = estimate("bob-med", trials=100_000, seed=2, y=0.9)
        assert a.mean != b.mean

    def test_stderr_formula(self):
        e = estimate("bob-med", trials=250_000, seed=44, y=0.9)
        assert e.stderr == pytest.approx(math.sqrt(e.mean * (1 - e.mean) / e.trials), rel=1e-12)
        assert e.trials == 250_000
        assert e.seed == 44

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenarioError):
            estimate("teleportation", trials=10, seed=0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            estimate("bob-med", trials=0, seed=0)
        with pytest.raises(ParameterError):
            estimate("bob-med", trials=10, seed=0, workers=0)
        with pytest.raises(ParameterError):
            estimate("bob-med", trials=10, seed=0, y=0.4)


class TestEstimatorAgainstClosedForms:
    def test_round_abort_matches_formula(self):
        """Event-level device rounds reproduce the six-term closed form."""
        ch = ChannelParams(10.0, 10.0)
        det = DetectorParams(eta=0.1, dark=1e-2)
        est = estimate("honest-round-abort", trials=4_000_000, seed=45, channel=ch, detector=det)
        expected = honest_abort_closed_form(ch, det)
        se = math.sqrt(expected * (1 - expected) / est.trials)
        assert_within_sigmas(est.mean, expected, se)

    def test_round_abort_extended_variant(self):
        ch = ChannelParams(10.0, 10.0)
        det = DetectorParams(eta=0.1, dark=1e-2)
        est = estimate(
            "honest-round-abort", trials=4_000_000, seed=46, channel=ch, detector=det,
            extended=True,
        )
        expected = honest_abort_closed_form(ch, det, extended=True)
        se = math.sqrt(expected * (1 - expected) / est.trials)
        assert_within_sigmas(est.mean, expected, se)

    def test_round_cause_fractions(self):
        """Cause tags among successes match their analytic shares."""
        from mdiqct.devices import CAUSE_DARK_DARK, CAUSE_PHOTON_DARK

        ch = ChannelParams(25.0, 25.0)
        det = DetectorParams(eta=0.1, dark=5e-3)
        t = ch.t_a
        success = bsm_success_probability(ch, det)
        p_photon_dark = 2.0 * (t * (1 - t) * 0.1 * 5e-3 * 2)  # both one-detected cases, 2d each
        for code, numerator in (
            (CAUSE_PHOTON_DARK, p_photon_dark),
            (CAUSE_DARK_DARK, 2.0 * (
                (1 - t) ** 2 * 2 * 5e-3**2
                + 2 * t * (1 - t) * 0.9 * 2 * 5e-3**2
                + t * t * 0.81 * 2 * 5e-3**2
            )),
        ):
            est = estimate(
                "honest-round-cause", trials=4_000_000, seed=47, channel=ch, detector=det,
                cause_code=code,
            )
            expected = numerator / success
            se = math.sqrt(expected * (1 - expected) / max(est.trials, 1))
            assert_within_sigmas(est.mean, expected, se)

    def test_run_abort_matches_conditioned_form(self):
        """Full-run aborts estimate the conditioned-on-first-success number."""
        ch = ChannelParams(15.0, 15.0)
        det = DetectorParams(eta=0.2, dark=5e-3)
        est = estimate("honest-run-abort", trials=400_000, seed=48, channel=ch, detector=det)
        expected = honest_abort_given_success(ch, det)
        se = math.sqrt(expected * (1 - expected) / est.trials)
        assert_within_sigmas(est.mean, expected, se)

    def test_run_abort_agrees_with_state_machine(self):
        """Cross-engine: run_honest's deciding-round sampler vs a restart loop."""
        ch = ChannelParams(15.0, 15.0)
        det = DetectorParams(eta=0.3, dark=1e-2)
        config = RunConfig(y=0.9, channel=ch, detector=det)
        rng = np.random.default_rng(49)
        n = 20_000
        runs = [run_honest(config, rng) for _ in range(n)]
        machine = sum(t.verdict is Verdict.ABORT for t in runs) / n
        loop_abort, loop_rounds = restart_loop(config, np.random.default_rng(50), n)
        ref = loop_abort.mean()
        se = math.sqrt(2.0) * math.sqrt(max(ref, 1e-9) * (1 - ref) / n)
        assert_within_sigmas(machine, ref, se)
        machine_rounds = sum(t.rounds for t in runs) / n
        se_rounds = math.sqrt(2.0) * loop_rounds.std() / math.sqrt(n)
        assert_within_sigmas(machine_rounds, loop_rounds.mean(), se_rounds)

    def test_honest_coin_uniform(self):
        est = estimate("honest-coin", trials=500_000, seed=51)
        assert_within_sigmas(est.mean, 0.5, est.stderr)

    def test_table_cell_scenario_matches_conditional_cell(self):
        """Sampled conditional frequencies vs normalized table cells."""
        from mdiqct.qmath import BsmOutcome, verification_table

        table = verification_table(0.9)
        for ia, ib in ((0, 0), (0, 1), (0, 3), (2, 1)):
            pp = table.panel(BsmOutcome.PSI_PLUS)[ia, ib]
            pm = table.panel(BsmOutcome.PSI_MINUS)[ia, ib]
            est = estimate(
                "table-cell", trials=200_000, seed=52, y=0.9,
                index_a=ia, index_b=ib, outcome="psi-plus",
            )
            expected = pp / (pp + pm)
            se = math.sqrt(max(expected * (1 - expected), 1e-12) / est.trials)
            assert_within_sigmas(est.mean, expected, se)

    def test_cheating_cell_scenario(self):
        from mdiqct.qmath import cheating_table, BsmOutcome, ALL_LABELS

        table = cheating_table(0.9)
        est = estimate(
            "cheating-cell", trials=200_000, seed=53, y=0.9,
            sent="plus", index_b=0, outcome="psi-plus",
        )
        expected = table.probability("plus", BsmOutcome.PSI_PLUS, ALL_LABELS[0])
        se = math.sqrt(expected * (1 - expected) / est.trials)
        assert_within_sigmas(est.mean, expected, se)

    def test_blinding_abort_count_is_zero(self):
        est = estimate("alice-blinding", trials=200_000, seed=54, count="abort")
        assert est.mean == 0.0
