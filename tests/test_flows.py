"""One driver per flow: role-based routing, shared steps 3-5, refused inputs.

Strategies reach the drivers through the role they declare, not their class,
so a strategy written from scratch plugs in as long as it supplies its role's
hooks.  The remaining tests cover inputs the library and the CLI refuse, and
the round table at the edge of the dark-count domain.
"""
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from mdiqct import adversaries, analysis, cli, protocol
from mdiqct.devices import ChannelParams, DetectorParams, round_rates, transmittance
from mdiqct.errors import ConfigurationError, ParameterError, PhaseOrderError
from mdiqct.protocol import Mode, Role, RunConfig, Verdict, ideal_config
from mdiqct.qmath import BsmOutcome, PureState, StateLabel, plus_state


@dataclass(frozen=True)
class PlainAlice:
    """An uncommitted-state A that shares no class with the packaged ones."""

    role: Role = Role.ALICE
    target_coin: int = 1
    name: str = "plain-alice"
    supported_modes: frozenset = frozenset({Mode.MDI})

    def prepare(self, view, rng):
        return plus_state()

    def reveal(self, view, rng):
        a = view.b_prime ^ self.target_coin
        return StateLabel(a, a)


class TestRouting:
    def test_protocol_does_not_import_adversaries(self):
        assert not hasattr(protocol, "adversaries")
        assert adversaries.Role is protocol.Role

    def test_strategy_enters_by_role_not_class(self):
        rng = np.random.default_rng(3)
        runs = [protocol.run_with_adversary(ideal_config(), PlainAlice(), rng) for _ in range(200)]
        assert all(t.cause == "both-photons" for t in runs)
        assert all(t.adversary_success == (t.verdict is Verdict.ACCEPT and t.coin == 1) for t in runs)
        assert sum(t.adversary_success for t in runs) > 150  # (3 + 2 sqrt(0.09))/4 = 0.9

    def test_role_without_a_driver_in_the_flow_is_refused(self):
        box_in_baseline = PlainAlice(role=Role.BLACKBOX, supported_modes=frozenset({Mode.BASELINE}))
        with pytest.raises(ConfigurationError, match="does not apply"):
            protocol.run_with_adversary(RunConfig(mode=Mode.BASELINE), box_in_baseline, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "strategy",
        [adversaries.alice_blinding_attack(1), adversaries.bob_med_attack(), adversaries.identity_strategy()],
    )
    def test_run_baseline_reaches_the_same_driver(self, strategy):
        config = RunConfig(mode=Mode.BASELINE)
        via_baseline = [protocol.run_baseline(config, strategy, g) for g in [np.random.default_rng(8)] * 50]
        via_router = [protocol.run_with_adversary(config, strategy, g) for g in [np.random.default_rng(8)] * 50]
        assert via_baseline == via_router

    def test_identity_strategy_matches_honest_baseline(self):
        config = RunConfig(mode=Mode.BASELINE)
        honest = protocol.run_baseline(config, None, np.random.default_rng(11))
        identity = protocol.run_with_adversary(config, adversaries.identity_strategy(), np.random.default_rng(11))
        assert honest == identity


class TestPhaseGatingPerRole:
    def test_rigged_box_receives_states_only(self):
        seen = []

        class RecordingBox(adversaries.ColludingBoxIndividual):
            def box_process(self, view, bob_state, y, rng):
                seen.append(bob_state)
                with pytest.raises(PhaseOrderError):
                    view.b_prime
                return super().box_process(view, bob_state, y, rng)

        strategy = RecordingBox(target_coin=0)
        t = protocol.run_with_adversary(ideal_config(), strategy, np.random.default_rng(2))
        assert t.rounds == 1 and t.cause in ("med-correct", "med-wrong")
        assert len(seen) == 1 and isinstance(seen[0], PureState)

    @pytest.mark.parametrize("mode, announced", [(Mode.MDI, BsmOutcome.PSI_PLUS), (Mode.BASELINE, None)])
    def test_dishonest_bob_sees_the_outcome_only_in_mdi(self, mode, announced):
        views = []

        class RecordingBob(adversaries.BobOptimalDiscrimination):
            def choose_b_prime(self, view, alice_state, rng):
                views.append(view)
                return super().choose_b_prime(view, alice_state, rng)

        strategy = RecordingBob(target_coin=0)
        t = protocol.run_with_adversary(ideal_config(mode=mode), strategy, np.random.default_rng(4))
        assert t.outcome is announced and t.bob_label is None and t.verdict is Verdict.ACCEPT
        if announced is None:
            with pytest.raises(PhaseOrderError):
                views[0].announced_outcome
        else:
            assert views[0].announced_outcome is announced


class TestIdealDeviceRegime:
    def test_library_message_names_the_quantities(self):
        lossy = RunConfig(channel=ChannelParams(5.0, 0.0))
        with pytest.raises(ConfigurationError, match="zero fiber lengths, eta 1 and dark 0"):
            protocol.run_with_adversary(lossy, adversaries.alice_coherent_attack(), np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["bob-med", "alice-individual", "alice-coherent"])
    def test_cli_run_under_lossy_defaults(self, capsys, name):
        code = cli.main(["run", "--adversary", name, "--trials", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "eta 1" in captured.err and "dark 0" in captured.err

    def test_run_help_names_the_flags(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", "--help"])
        assert "--eta 1 --dark 0" in " ".join(capsys.readouterr().out.split())


class TestNonFiniteChannel:
    @pytest.mark.parametrize(
        "l_a, l_b, loss_coeff",
        [(math.nan, 0.0, 0.2), (0.0, math.nan, 0.2), (0.0, 0.0, math.nan), (0.0, 0.0, math.inf)],
    )
    def test_channel_refuses(self, l_a, l_b, loss_coeff):
        with pytest.raises(ParameterError):
            ChannelParams(l_a, l_b, loss_coeff)

    @pytest.mark.parametrize("length, loss_coeff", [(math.nan, 0.2), (1.0, math.nan), (0.0, math.inf)])
    def test_transmittance_refuses(self, length, loss_coeff):
        with pytest.raises(ParameterError):
            transmittance(length, loss_coeff)

    def test_infinite_length_transmits_nothing(self):
        assert transmittance(math.inf) == 0.0
        assert ChannelParams(math.inf, 0.0).t_a == 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--la", "nan", "--max-rounds", "50"],
            ["sweep", "--loss-coeff", "nan"],
        ],
    )
    def test_cli_usage_error_leaves_no_file(self, capsys, tmp_path, argv):
        target = tmp_path / "out.json"
        code = cli.main([*argv, "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "nan" in captured.err
        assert not target.exists()


class TestOneClosedFormPerAttack:
    def test_projective_closed_form_matches_attack_output(self, capsys):
        y = 0.8
        code = cli.main(
            ["attack", "--adversary", "alice-individual", "--med-model", "projective",
             "--y", str(y), "--trials", "1000", "--seed", "1"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        expected = analysis.closed_form_for_attack("alice-individual", y, med_model="projective")
        assert doc["closed_form"] == expected == 0.75 + y * (1.0 - y) / 2.0

    def test_unknown_error_model_refused(self):
        with pytest.raises(ParameterError):
            analysis.closed_form_for_attack("alice-individual", 0.9, med_model="helstrom")

    def test_config_file_target_coin_refused(self, capsys, tmp_path):
        config = tmp_path / "attack.json"
        config.write_text(json.dumps({"target_coin": 2}))
        code = cli.main(["attack", "--adversary", "alice-coherent", "--trials", "1000", "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "target_coin" in captured.err


class TestRoundTableAtDarkHalf:
    @pytest.mark.parametrize(
        "l_a, l_b, eta",
        [(0.9542312848354878, 189.97707884501344, 0.0), (20.328368825206454, 55.63972581992789, 0.0)],
    )
    def test_failure_band_is_not_negative(self, l_a, l_b, eta):
        """At d = 1/2 with no detectable photon, dark counts fill the whole round."""
        channel = ChannelParams(l_a, l_b)
        rates = round_rates(channel.t_a, channel.t_b, DetectorParams(eta=eta, dark=0.5))
        success = [rates.photon_dark] * 2 + [rates.dark_dark] * 2 + [rates.genuine * 0.5] * 2
        assert 1.0 - sum(success) >= 0.0
        assert rates.dark_cuts[3] <= 1.0
