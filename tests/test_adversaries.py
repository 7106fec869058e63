"""Cheating strategies: success rates, conditionals, symmetry, rejection."""
import math

import numpy as np
import pytest

from conftest import assert_within_sigmas
from mdiqct import adversaries, analysis
from mdiqct.adversaries import (
    Role,
    alice_blinding_attack,
    alice_coherent_attack,
    alice_individual_attack,
    bob_med_attack,
    by_name,
    identity_strategy,
)
from mdiqct.errors import ConfigurationError, ParameterError
from mdiqct.protocol import (
    Mode,
    RunConfig,
    Verdict,
    ideal_config,
    run_baseline,
    run_with_adversary,
)
from mdiqct.qmath import commitment_density, helstrom_probability


def run_success_rate(config, strategy, n, seed):
    rng = np.random.default_rng(seed)
    wins = sum(run_with_adversary(config, strategy, rng).adversary_success for _ in range(n))
    return wins / n


class TestBobMed:
    def test_success_rate_matches_y(self, rng):
        n = 30_000
        rate = run_success_rate(ideal_config(0.9), bob_med_attack(), n, 5)
        assert_within_sigmas(rate, 0.9, math.sqrt(0.09 / n))

    def test_success_rate_matches_helstrom_oracle(self):
        """Cross-module check: simulated rate vs the eigenvalue computation."""
        y = 0.75
        n = 30_000
        rate = run_success_rate(ideal_config(y), bob_med_attack(), n, 6)
        oracle = helstrom_probability(commitment_density(0, y), commitment_density(1, y), 0.5)
        assert_within_sigmas(rate, oracle, math.sqrt(oracle * (1 - oracle) / n))

    def test_near_symmetric_limit(self):
        """As y -> 1/2 the two commitments merge and the attack guesses blind."""
        y = 0.5 + 1e-9
        n = 30_000
        rate = run_success_rate(ideal_config(y), bob_med_attack(), n, 7)
        assert_within_sigmas(rate, 0.5, math.sqrt(0.25 / n))

    def test_monotone_in_y(self):
        """Estimator sweep: success strictly increases along the y grid."""
        rates = [
            analysis.estimate("bob-med", trials=200_000, seed=8, y=y).mean
            for y in (0.55, 0.65, 0.75, 0.85, 0.95)
        ]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_requires_ideal_devices(self, rng):
        from mdiqct.devices import DetectorParams

        config = RunConfig(detector=DetectorParams(eta=0.5, dark=0.0))
        with pytest.raises(ConfigurationError):
            run_with_adversary(config, bob_med_attack(), rng)


class TestAliceIndividual:
    def test_success_rate_three_quarters(self, rng):
        n = 30_000
        rate = run_success_rate(ideal_config(0.9), alice_individual_attack(), n, 9)
        assert_within_sigmas(rate, 0.75, math.sqrt(0.1875 / n))

    def test_conditional_success_decomposition(self):
        """Correct guesses always pass; wrong guesses pass half the time."""
        config = ideal_config(0.9)
        strategy = alice_individual_attack()
        rng = np.random.default_rng(10)
        correct_total = correct_wins = wrong_total = wrong_wins = 0
        for _ in range(30_000):
            t = run_with_adversary(config, strategy, rng)
            if t.cause == "med-correct":
                correct_total += 1
                correct_wins += t.adversary_success
            else:
                wrong_total += 1
                wrong_wins += t.adversary_success
        assert correct_wins == correct_total  # exactly 1.0
        assert_within_sigmas(
            wrong_wins / wrong_total, 0.5, math.sqrt(0.25 / wrong_total)
        )
        # the discrimination itself succeeds half the time
        total = correct_total + wrong_total
        assert_within_sigmas(correct_total / total, 0.5, math.sqrt(0.25 / total))

    def test_projective_variant_is_slightly_stronger(self):
        """A Born-sampled random-basis measurement beats the benchmark
        accounting: its wrong guesses keep the bit only with probability
        (2y-1)^2, so overall success is 3/4 + y(1-y)/2."""
        y = 0.9
        est = analysis.estimate(
            "alice-individual", trials=400_000, seed=11, y=y, med_model="projective"
        )
        expected = 0.75 + y * (1.0 - y) / 2.0
        assert_within_sigmas(est.mean, expected, est.stderr)
        gap_sigmas = (est.mean - 0.75) / est.stderr
        assert gap_sigmas > 5.0

    def test_estimator_agrees_with_state_machine(self):
        n = 30_000
        machine = run_success_rate(ideal_config(0.8), alice_individual_attack(), n, 12)
        est = analysis.estimate("alice-individual", trials=n, seed=13, y=0.8)
        se = math.sqrt(2.0) * est.stderr
        assert_within_sigmas(machine, est.mean, se)

    def test_bad_model_name(self):
        with pytest.raises(ParameterError):
            alice_individual_attack(med_model="helstrom")


class TestAliceCoherent:
    @pytest.mark.parametrize("sent", ["plus", "minus"])
    def test_success_matches_closed_form(self, sent):
        y = 0.75
        n = 30_000
        strategy = alice_coherent_attack(sent=sent)
        rate = run_success_rate(ideal_config(y), strategy, n, 14)
        expected = analysis.cheat_alice_coherent(y)
        assert_within_sigmas(rate, expected, math.sqrt(expected * (1 - expected) / n))

    def test_plus_and_minus_indistinguishable(self):
        n = 400_000
        e_plus = analysis.estimate("alice-coherent", trials=n, seed=15, y=0.9, sent="plus")
        e_minus = analysis.estimate("alice-coherent", trials=n, seed=16, y=0.9, sent="minus")
        se = math.sqrt(e_plus.stderr**2 + e_minus.stderr**2)
        assert_within_sigmas(e_plus.mean, e_minus.mean, se)

    def test_near_symmetric_limit_reaches_one(self):
        """At y -> 1/2 the commitment carries no information and the attack
        passes verification almost surely."""
        est = analysis.estimate("alice-coherent", trials=200_000, seed=17, y=0.5 + 1e-9)
        assert est.mean > 0.999

    def test_decreasing_in_y(self):
        rates = [
            analysis.estimate("alice-coherent", trials=200_000, seed=18, y=y).mean
            for y in (0.55, 0.65, 0.75, 0.85, 0.95)
        ]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_caught_rate_complements_closed_form(self):
        """Abort accounting: 1 - success equals (1 - 2 sqrt(y(1-y)))/4."""
        y = 0.9
        est = analysis.estimate("alice-coherent", trials=400_000, seed=19, y=y)
        caught = 1.0 - est.mean
        expected = (1.0 - 2.0 * math.sqrt(y * (1.0 - y))) / 4.0
        assert_within_sigmas(caught, expected, est.stderr)

    def test_bad_sent_state(self):
        with pytest.raises(ParameterError):
            alice_coherent_attack(sent="zero")


class TestAliceBlinding:
    def test_always_wins_never_caught(self, rng):
        config = RunConfig(mode=Mode.BASELINE)
        strategy = alice_blinding_attack(target_coin=1)
        for _ in range(20_000):
            t = run_baseline(config, strategy, rng)
            assert t.verdict is Verdict.ACCEPT
            assert t.adversary_success
            assert t.coin == 1

    def test_rejected_by_mdi_mode(self, rng):
        """The MDI black-box interface exposes no detection-control channel."""
        with pytest.raises(ConfigurationError):
            run_with_adversary(ideal_config(), alice_blinding_attack(), rng)


class TestCrossStrategyProperties:
    def test_strength_ordering_at_fair_point(self):
        """blinding > coherent = bob-med > individual > honest, with every
        strict gap resolved at more than five combined standard errors."""
        n = 1_000_000
        blinding = analysis.estimate("alice-blinding", trials=n, seed=20)
        coherent = analysis.estimate("alice-coherent", trials=n, seed=21, y=0.9)
        bob = analysis.estimate("bob-med", trials=n, seed=22, y=0.9)
        individual = analysis.estimate("alice-individual", trials=n, seed=23, y=0.9)
        honest = analysis.estimate("honest-coin", trials=n, seed=24, y=0.9)

        def gap_sigmas(hi, lo):
            return (hi.mean - lo.mean) / math.sqrt(hi.stderr**2 + lo.stderr**2 + 1e-18)

        assert blinding.mean == 1.0
        assert gap_sigmas(blinding, coherent) > 5.0
        assert gap_sigmas(coherent, individual) > 5.0
        assert gap_sigmas(bob, individual) > 5.0
        assert gap_sigmas(individual, honest) > 5.0
        # the two 0.9-level attacks coincide within noise
        assert abs(coherent.mean - bob.mean) <= 3.0 * math.sqrt(
            coherent.stderr**2 + bob.stderr**2
        )

    @pytest.mark.parametrize(
        "scenario,params",
        [
            ("bob-med", {"y": 0.9}),
            ("alice-individual", {"y": 0.9}),
            ("alice-coherent", {"y": 0.9}),
            ("alice-blinding", {}),
        ],
    )
    def test_target_coin_symmetry(self, scenario, params):
        n = 400_000
        e0 = analysis.estimate(scenario, trials=n, seed=25, target_coin=0, **params)
        e1 = analysis.estimate(scenario, trials=n, seed=26, target_coin=1, **params)
        se = math.sqrt(e0.stderr**2 + e1.stderr**2 + 1e-18)
        assert abs(e0.mean - e1.mean) <= 3.0 * se

    def test_state_machine_target_symmetry(self):
        """The sequential drivers also treat both targets alike."""
        n = 20_000
        r0 = run_success_rate(ideal_config(0.9), alice_coherent_attack(0), n, 27)
        r1 = run_success_rate(ideal_config(0.9), alice_coherent_attack(1), n, 28)
        se = math.sqrt(2.0 * 0.09 / n)
        assert abs(r0 - r1) <= 3.0 * se


class TestStrategySurface:
    def test_factories_validate(self):
        with pytest.raises(ParameterError):
            alice_coherent_attack(target_coin=2)

    def test_by_name_round_trip(self):
        for name in adversaries.STRATEGY_NAMES:
            strategy = by_name(name)
            assert strategy.name == name
        with pytest.raises(ParameterError):
            by_name("quantum-zeno")

    def test_roles_and_modes(self):
        assert bob_med_attack().role is Role.BOB
        assert alice_individual_attack().role is Role.BLACKBOX
        assert alice_coherent_attack().role is Role.ALICE
        assert alice_blinding_attack().role is Role.ALICE
        assert Mode.MDI not in alice_blinding_attack().supported_modes
        assert Mode.BASELINE in bob_med_attack().supported_modes
        # Name, role and modes belong to the class, and y to the run.
        with pytest.raises(TypeError):
            adversaries.ColludingBoxIndividual(role=Role.BOB)
        with pytest.raises(TypeError):
            adversaries.BobOptimalDiscrimination(y=0.9)

    def test_strategies_are_immutable(self):
        strategy = bob_med_attack()
        with pytest.raises(Exception):
            strategy.target_coin = 1

    def test_identity_strategy_supports_both_modes(self):
        s = identity_strategy()
        assert s.supported_modes == frozenset({Mode.MDI, Mode.BASELINE})


class TestStrategiesPlayTheRunsY:
    """Every strategy plays at the run's y, the one state parameter.

    A rigged box that read a y of its own (0.9) in a run at y = 0.7 would win
    0.819 instead of 0.855 under the projective model, and would refuse every
    state of the run under the basis-flip model.
    """

    @pytest.mark.parametrize("y", [0.6, 0.95])
    @pytest.mark.parametrize(
        "name,options",
        [
            pytest.param("bob-med", {}, id="bob-med"),
            pytest.param("alice-individual", {"med_model": "basis-flip"}, id="alice-individual-basis-flip"),
            pytest.param("alice-individual", {"med_model": "projective"}, id="alice-individual-projective"),
            pytest.param("alice-coherent", {"sent": "plus"}, id="alice-coherent-plus"),
            pytest.param("alice-coherent", {"sent": "minus"}, id="alice-coherent-minus"),
        ],
    )
    def test_success_matches_closed_form_at_the_runs_y(self, name, options, y):
        n = 6_000
        rate = run_success_rate(ideal_config(y), by_name(name, **options), n, 29)
        expected = analysis.closed_form_for_attack(name, y, med_model=options.get("med_model", "basis-flip"))
        assert_within_sigmas(rate, expected, math.sqrt(expected * (1 - expected) / n), sigmas=4.0)
