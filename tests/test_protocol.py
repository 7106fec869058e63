"""Protocol state machine: verification, honest runs, variants, ordering."""
import json
import math

import numpy as np
import pytest

from conftest import assert_within_sigmas
from mdiqct import adversaries, analysis
from mdiqct.devices import (
    ChannelParams,
    DetectorParams,
    EventCause,
    weak_coherent_source,
)
from mdiqct.errors import (
    ConfigurationError,
    ExhaustionError,
    ParameterError,
    PhaseOrderError,
)
from mdiqct.protocol import (
    Mode,
    RunConfig,
    RunView,
    Transcript,
    Verdict,
    ideal_config,
    is_zero_cell,
    run_baseline,
    run_honest,
    run_weak_coherent,
    run_with_adversary,
    transcript_json_line,
    transcript_to_record,
    verify,
)
from mdiqct.qmath import ALL_LABELS, BsmOutcome, StateLabel, verification_table

RECORD_FIELDS = {
    "rounds", "outcome", "bob_basis", "bob_bit", "b_prime", "revealed_basis",
    "revealed_bit", "verdict", "coin", "cause", "pulse_index",
    "multiphoton_slots", "adversary_success",
}


class TestVerify:
    def test_known_abort_cell(self):
        """Same bit, different basis is impossible for a symmetric outcome."""
        v = verify(BsmOutcome.PSI_PLUS, StateLabel(1, 0), StateLabel(0, 0), 0.9)
        assert v is Verdict.ABORT

    def test_known_accept_cell(self):
        v = verify(BsmOutcome.PSI_MINUS, StateLabel(0, 0), StateLabel(1, 0), 0.9)
        assert v is Verdict.ACCEPT

    def test_exactly_four_aborting_pairs_per_outcome(self):
        for outcome in (BsmOutcome.PSI_PLUS, BsmOutcome.PSI_MINUS):
            aborts = [
                (la, lb)
                for la in ALL_LABELS
                for lb in ALL_LABELS
                if verify(outcome, la, lb, 0.75) is Verdict.ABORT
            ]
            assert len(aborts) == 4

    @pytest.mark.parametrize("y", [0.55, 0.7, 0.9, 0.95])
    def test_structural_rule_matches_computed_table(self, y):
        """The y-independent zero-cell rule agrees with exact table zeros."""
        table = verification_table(y)
        for outcome in (BsmOutcome.PSI_PLUS, BsmOutcome.PSI_MINUS):
            for la in ALL_LABELS:
                for lb in ALL_LABELS:
                    assert is_zero_cell(outcome, la, lb) == table.is_zero_cell(outcome, la, lb)

    def test_failure_outcome_rejected(self):
        with pytest.raises(ParameterError):
            verify(BsmOutcome.FAILURE, StateLabel(0, 0), StateLabel(0, 0), 0.9)


class TestTranscriptInvariants:
    def test_coin_requires_accept(self):
        with pytest.raises(ParameterError):
            Transcript(
                rounds=1, outcome=BsmOutcome.PSI_PLUS, bob_label=StateLabel(0, 0),
                bob_random_bit=0, revealed_label=StateLabel(0, 0),
                verdict=Verdict.ABORT, coin=0,
            )

    def test_coin_formula_enforced(self):
        with pytest.raises(ParameterError):
            Transcript(
                rounds=1, outcome=BsmOutcome.PSI_PLUS, bob_label=StateLabel(0, 0),
                bob_random_bit=1, revealed_label=StateLabel(0, 0),
                verdict=Verdict.ACCEPT, coin=0,  # should be 0 ^ 1 = 1
            )

    def test_failure_outcome_rejected(self):
        with pytest.raises(ParameterError):
            Transcript(
                rounds=1, outcome=BsmOutcome.FAILURE, bob_label=None,
                bob_random_bit=None, revealed_label=None,
                verdict=Verdict.ABORT, coin=None,
            )


class TestHonestRuns:
    def test_ideal_runs_always_accept_and_coin_formula_holds(self, rng):
        config = ideal_config()
        for _ in range(2_000):
            t = run_honest(config, rng)
            assert t.verdict is Verdict.ACCEPT
            assert t.coin == t.revealed_label.bit ^ t.bob_random_bit
            assert t.rounds >= 1
            assert t.cause == EventCause.BOTH_PHOTONS.value

    def test_coin_is_uniform(self, rng):
        config = ideal_config()
        n = 20_000
        coins = [run_honest(config, rng).coin for _ in range(n)]
        ones = sum(coins)
        stat, pvalue = analysis.chi_square_uniform([n - ones, ones])
        assert pvalue > 0.001

    def test_loss_tolerance_with_zero_dark_rate(self, rng):
        """Loss and inefficiency only stretch the restart loop; no aborts."""
        config = RunConfig(
            y=0.9,
            channel=ChannelParams(15.0, 15.0),
            detector=DetectorParams(eta=0.4, dark=0.0),
        )
        saw_retry = False
        for _ in range(1_500):
            t = run_honest(config, rng)
            assert t.verdict is Verdict.ACCEPT
            saw_retry = saw_retry or t.rounds > 1
        assert saw_retry

    def test_dark_counts_cause_aborts_with_dark_cause_tags(self, rng):
        config = RunConfig(
            y=0.9,
            channel=ChannelParams(30.0, 30.0),
            detector=DetectorParams(eta=0.2, dark=0.02),
        )
        aborts = [run_honest(config, rng) for _ in range(2_000)]
        aborted = [t for t in aborts if t.verdict is Verdict.ABORT]
        assert aborted, "expected some dark-count aborts at this operating point"
        for t in aborted:
            assert t.cause in (EventCause.PHOTON_DARK.value, EventCause.DARK_DARK.value)
            assert t.coin is None

    def test_exhaustion_is_distinct_error(self, rng):
        config = RunConfig(detector=DetectorParams(eta=0.0, dark=0.0), max_rounds=5)
        with pytest.raises(ExhaustionError):
            run_honest(config, rng)

    def test_wrong_mode_rejected(self, rng):
        config = RunConfig(mode=Mode.BASELINE)
        with pytest.raises(ConfigurationError):
            run_honest(config, rng)

    def test_determinism_per_seed(self):
        config = RunConfig(channel=ChannelParams(10.0, 10.0), detector=DetectorParams(0.5, 1e-3))
        runs1 = [run_honest(config, np.random.default_rng(42)) for _ in range(1)]
        runs2 = [run_honest(config, np.random.default_rng(42)) for _ in range(1)]
        assert runs1 == runs2
        many1 = [transcript_json_line(run_honest(config, g)) for g in [np.random.default_rng(7)] * 50]
        many2 = [transcript_json_line(run_honest(config, g)) for g in [np.random.default_rng(7)] * 50]
        assert many1 == many2


class TestShieldingAndOrdering:
    def test_view_blocks_early_reads(self):
        view = RunView()
        with pytest.raises(PhaseOrderError):
            view.b_prime
        with pytest.raises(PhaseOrderError):
            view.announced_outcome
        with pytest.raises(PhaseOrderError):
            view.box_message
        with pytest.raises(PhaseOrderError):
            view.detection_record

    def test_probe_adversary_rejected_on_out_of_order_access(self, rng):
        """A strategy that peeks at b' while preparing its state is stopped."""

        class ProbeStrategy(adversaries.CoherentStateAlice):
            def prepare(self, view, prep_rng):
                view.b_prime  # out-of-order read
                return super().prepare(view, prep_rng)

        probe = ProbeStrategy(
            role=adversaries.Role.ALICE,
            target_coin=0,
            name="probe",
            supported_modes=frozenset({Mode.MDI}),
            y=0.9,
            sent="plus",
        )
        with pytest.raises(PhaseOrderError):
            run_with_adversary(ideal_config(), probe, rng)

    def test_identity_strategy_reproduces_honest_run_bitwise(self):
        config = ideal_config()
        t_honest = run_honest(config, np.random.default_rng(123))
        t_identity = run_with_adversary(
            config, adversaries.identity_strategy(), np.random.default_rng(123)
        )
        assert t_honest == t_identity


class TestWeakCoherent:
    def _config(self, mu: float, k: int, eta: float = 1.0, l_km: float = 0.0) -> RunConfig:
        return RunConfig(
            y=0.9,
            channel=ChannelParams(l_km, l_km),
            detector=DetectorParams(eta=eta, dark=0.0),
            source_a=weak_coherent_source(mu),
            source_b=weak_coherent_source(mu),
            mode=Mode.MDI_WEAK_COHERENT,
            k_pulses=k,
        )

    def test_single_slot_with_bright_source_behaves_like_one_round(self, rng):
        config = self._config(mu=20.0, k=1)
        for _ in range(500):
            t = run_weak_coherent(config, rng)
            if t.verdict is Verdict.ACCEPT:
                assert t.pulse_index == 1
                assert t.coin == t.revealed_label.bit ^ t.bob_random_bit

    def test_no_success_aborts(self, rng):
        """A vanishing source makes every slot fail, aborting the run."""
        config = self._config(mu=1e-9, k=3)
        t = run_weak_coherent(config, rng)
        assert t.verdict is Verdict.ABORT
        assert t.cause == "no-bsm-success"
        assert t.coin is None and t.pulse_index is None

    def test_abort_rate_matches_single_slot_failure_power(self, rng):
        """P(no success in K slots) = (1 - p)^K with p measured at K = 1."""
        mu, k, n = 1.0, 3, 4_000
        single = self._config(mu=mu, k=1)
        fails = sum(run_weak_coherent(single, rng).verdict is Verdict.ABORT for _ in range(n))
        q1 = fails / n  # per-slot failure probability
        se_q1 = math.sqrt(q1 * (1 - q1) / n)

        multi = self._config(mu=mu, k=k)
        fails_k = sum(run_weak_coherent(multi, rng).verdict is Verdict.ABORT for _ in range(n))
        qk = fails_k / n
        expected = q1**k
        # first-order error propagation from both estimates
        se = math.sqrt((k * q1 ** (k - 1) * se_q1) ** 2 + expected * (1 - expected) / n)
        assert_within_sigmas(qk, expected, se)

    def test_multiphoton_slots_flagged(self, rng):
        config = self._config(mu=2.0, k=4)
        flagged = 0
        for _ in range(300):
            t = run_weak_coherent(config, rng)
            assert all(1 <= s <= 4 for s in t.multiphoton_slots)
            flagged += bool(t.multiphoton_slots)
        assert flagged > 200  # P(n >= 2) ~ 0.59 per slot at mu = 2

    def test_first_success_index_recorded(self, rng):
        config = self._config(mu=1.0, k=5)
        seen_late = False
        for _ in range(400):
            t = run_weak_coherent(config, rng)
            if t.verdict is Verdict.ACCEPT and t.pulse_index > 1:
                seen_late = True
        assert seen_late

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            RunConfig(mode=Mode.MDI_WEAK_COHERENT, k_pulses=None)
        with pytest.raises(ParameterError):
            RunConfig(mode=Mode.MDI_WEAK_COHERENT, k_pulses=2)  # single-photon sources
        with pytest.raises(ParameterError):
            RunConfig(k_pulses=3)  # K outside weak-coherent mode
        with pytest.raises(ConfigurationError):
            run_weak_coherent(RunConfig(), np.random.default_rng(0))


class TestBaseline:
    def test_honest_baseline_never_aborts_and_coin_uniform(self, rng):
        config = RunConfig(mode=Mode.BASELINE)
        n = 5_000
        coins = []
        for _ in range(n):
            t = run_baseline(config, None, rng)
            assert t.verdict is Verdict.ACCEPT
            coins.append(t.coin)
        ones = sum(coins)
        _, pvalue = analysis.chi_square_uniform([n - ones, ones])
        assert pvalue > 0.001

    def test_lossy_baseline_resends(self, rng):
        config = RunConfig(
            mode=Mode.BASELINE,
            channel=ChannelParams(30.0, 0.0),
            detector=DetectorParams(eta=0.3, dark=0.0),
        )
        rounds = [run_baseline(config, None, rng).rounds for _ in range(500)]
        assert max(rounds) > 1
        assert all(r >= 1 for r in rounds)

    def test_requires_generator(self):
        with pytest.raises(ParameterError):
            run_baseline(RunConfig(mode=Mode.BASELINE), None, None)

    def test_dishonest_bob_in_baseline(self, rng):
        """The discrimination attack carries over to the baseline flow."""
        config = RunConfig(mode=Mode.BASELINE)
        strategy = adversaries.bob_med_attack(0.9, target_coin=0)
        n = 20_000
        wins = sum(
            run_baseline(config, strategy, rng).adversary_success for _ in range(n)
        )
        assert_within_sigmas(wins / n, 0.9, math.sqrt(0.09 / n))


class TestTranscriptSerialization:
    def test_record_fields_are_stable(self, rng):
        t = run_honest(ideal_config(), rng)
        record = transcript_to_record(t)
        assert set(record) == RECORD_FIELDS

    def test_json_round_trip(self, rng):
        t = run_honest(ideal_config(), rng)
        line = transcript_json_line(t)
        parsed = json.loads(line)
        assert parsed["verdict"] == "accept"
        assert parsed["coin"] in (0, 1)
        assert parsed["outcome"] in ("psi-plus", "psi-minus")
        assert "\n" not in line
