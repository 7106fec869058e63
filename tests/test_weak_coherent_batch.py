"""Weak-coherent runs drawn as one (n, K) batch of pulse slots.

The batch is gated against closed forms of the slot model.  A slot
succeeds with the probability of one honest round at transmittances
t·(1 − e^(−μ)): the round table is multilinear in (t_a, t_b), so averaging it
over independent photon presence evaluates it at the mean transmittance.
Slots are i.i.d., so the first success is geometric in the slot index and
the run aborts with probability (1 − s)^K.
"""
import math

import numpy as np
import pytest

from conftest import assert_within_sigmas
from mdiqct import cli, protocol
from mdiqct.devices import ChannelParams, DetectorParams, round_rates
from mdiqct.errors import ParameterError
from mdiqct.protocol import (
    Mode,
    RunConfig,
    Verdict,
    run_weak_coherent,
    sample_weak_coherent_runs,
    transcript_json_line,
)


def weak_config(mu, k, l_km=0.0, eta=1.0, dark=0.0, extended=False) -> RunConfig:
    return RunConfig(
        y=0.9,
        channel=ChannelParams(l_km, l_km),
        detector=DetectorParams(eta=eta, dark=dark),
        mu=mu,
        mode=Mode.MDI_WEAK_COHERENT,
        k_pulses=k,
        extended_dark_model=extended,
    )


def slot_success(config: RunConfig) -> float:
    """Per-slot success: one honest round at t·(1 − e^(−μ)), averaged over uniform labels."""
    rates = round_rates(
        config.channel.t_a * -math.expm1(-config.mu),
        config.channel.t_b * -math.expm1(-config.mu),
        config.detector,
        config.extended_dark_model,
    )
    return 0.5 * rates.genuine + 2.0 * (rates.photon_dark + rates.dark_dark)


def binomial_gate(hits: int, n: int, p: float) -> None:
    assert_within_sigmas(hits / n, p, math.sqrt(p * (1.0 - p) / n), sigmas=4.0)


OPERATING_POINTS = {
    "ideal": weak_config(mu=1.0, k=4),
    "lossy-dark": weak_config(mu=0.5, k=4, l_km=5.0, eta=0.5, dark=0.02, extended=True),
}


@pytest.mark.parametrize("name", sorted(OPERATING_POINTS))
class TestClosedForms:
    N = 20_000

    def runs(self, name: str, k: int | None = None):
        config = OPERATING_POINTS[name]
        if k is not None:
            config = weak_config(
                config.mu, k, config.channel.l_a, config.detector.eta, config.detector.dark,
                config.extended_dark_model,
            )
        return config, sample_weak_coherent_runs(config, np.random.default_rng(sum(map(ord, name))), self.N)

    def test_per_slot_success(self, name):
        config, runs = self.runs(name, k=1)
        binomial_gate(sum(t.outcome is not None for t in runs), self.N, slot_success(config))

    def test_abort_over_k_slots(self, name):
        config, runs = self.runs(name)
        aborted = sum(t.cause == "no-bsm-success" for t in runs)
        binomial_gate(aborted, self.N, (1.0 - slot_success(config)) ** config.k_pulses)

    def test_first_successful_slot(self, name):
        config, runs = self.runs(name)
        s = slot_success(config)
        for j in range(1, config.k_pulses + 1):
            hits = sum(t.pulse_index == j for t in runs)
            binomial_gate(hits, self.N, (1.0 - s) ** (j - 1) * s)
        for t in runs:
            assert t.rounds == (config.k_pulses if t.pulse_index is None else t.pulse_index)

    def test_multiphoton_slot_rate(self, name):
        config, runs = self.runs(name)
        mu = config.mu
        slots = [s for t in runs for s in t.multiphoton_slots]
        assert all(1 <= s <= config.k_pulses for s in slots)
        assert all(list(t.multiphoton_slots) == sorted(set(t.multiphoton_slots)) for t in runs)
        binomial_gate(len(slots), self.N * config.k_pulses, 1.0 - (math.exp(-mu) * (1.0 + mu)) ** 2)


class TestBatch:
    def test_one_run_is_the_one_run_batch(self):
        config = OPERATING_POINTS["lossy-dark"]
        for seed in range(30):
            single = run_weak_coherent(config, np.random.default_rng(seed))
            (row,) = sample_weak_coherent_runs(config, np.random.default_rng(seed), 1)
            assert single == row

    def test_accepting_runs_pass_the_verification_table(self):
        """Genuine coincidences never abort; every accept carries a coin a ⊕ b′."""
        config = OPERATING_POINTS["ideal"]
        runs = sample_weak_coherent_runs(config, np.random.default_rng(7), 2_000)
        decided = [t for t in runs if t.outcome is not None]
        assert decided
        assert all(t.verdict is Verdict.ACCEPT and t.cause == "both-photons" for t in decided)
        assert all(t.coin == t.revealed_label.bit ^ t.bob_random_bit for t in decided)

    def test_empty_batch(self):
        assert sample_weak_coherent_runs(OPERATING_POINTS["ideal"], np.random.default_rng(0), 0) == []


class TestPulseCountCap:
    def test_config_refuses_k_above_the_cap(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_K_PULSES", 5)
        assert RunConfig(mode=Mode.MDI_WEAK_COHERENT, mu=0.5, k_pulses=5).k_pulses == 5
        with pytest.raises(ParameterError):
            RunConfig(mode=Mode.MDI_WEAK_COHERENT, mu=0.5, k_pulses=6)

    def test_default_cap(self):
        too_many = protocol.MAX_K_PULSES + 1
        with pytest.raises(ParameterError):
            RunConfig(mode=Mode.MDI_WEAK_COHERENT, mu=0.5, k_pulses=too_many)

    def test_cli_usage_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(protocol, "MAX_K_PULSES", 5)
        target = tmp_path / "out.jsonl"
        argv = ["run", "--mode", "mdi-weak-coherent", "--k-pulses", "6", "--out", str(target)]
        assert cli.main(argv) == 2
        assert "k_pulses" in capsys.readouterr().err
        assert not target.exists()


class TestRunStreamBatches:
    @pytest.mark.parametrize("k, trials, sizes", [(10, 5, [2, 2, 1]), (10, 4, [2, 2]), (30, 3, [1, 1, 1])])
    def test_batch_sizes_follow_the_slot_budget(self, monkeypatch, capsys, k, trials, sizes):
        monkeypatch.setattr(cli, "RUN_BATCH_SLOTS", 25)
        drawn = []

        def spy(config, rng, n):
            drawn.append(n)
            return sample_weak_coherent_runs(config, rng, n)

        monkeypatch.setattr(protocol, "sample_weak_coherent_runs", spy)
        argv = ["run", "--mode", "mdi-weak-coherent", "--k-pulses", str(k), "--trials", str(trials)]
        assert cli.main(argv) == 0
        assert drawn == sizes
        assert len(capsys.readouterr().out.splitlines()) == trials

    def test_stream_is_the_batches_in_row_order(self, capsys):
        config = weak_config(mu=0.5, k=10, eta=0.1, dark=1e-4)
        argv = ["run", "--mode", "mdi-weak-coherent", "--trials", "250", "--seed", "8"]
        assert cli.main(argv) == 0
        rng = np.random.default_rng(8)
        runs = sample_weak_coherent_runs(config, rng, 250)  # 250 runs fit in one batch at K = 10
        assert capsys.readouterr().out == "".join(transcript_json_line(t) + "\n" for t in runs)
