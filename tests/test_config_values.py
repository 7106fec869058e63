"""Inputs the CLI and the library refuse: typed config values, mu, seeds, integers.

The mean photon number mu is one value for both parties' weak-coherent
sources: required in mdi-weak-coherent mode and refused in every other mode,
so no source input is ignored silently.

A config-file value passes the same type and choices as its flag, and a
command takes only the keys of its own flags; a usage error exits 2 with a
message on stderr and writes no output file.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mdiqct
from mdiqct import cli
from mdiqct.adversaries import alice_blinding_attack, bob_med_attack
from mdiqct.devices import poisson_tail_at_least_two
from mdiqct.errors import ParameterError
from mdiqct.protocol import Mode, RunConfig
from mdiqct.qmath import StateLabel, commitment_density


def run_cli(capsys, tmp_path, argv, config=None):
    target = tmp_path / "out.txt"
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code = cli.main([*argv, "--out", str(target)])
    captured = capsys.readouterr()
    return code, captured.err, target


class TestConfigValuesAreTyped:
    @pytest.mark.parametrize(
        "argv, config",
        [
            (["sweep"], {"extended": "false"}),
            (["sweep"], {"extended": 1}),
            (["fair"], {"format": "xml"}),
            (["run"], {"trials": 2.7}),
            (["attack", "--trials", "100"], {"workers": 1.5}),
            (["run", "--trials", "2"], {"y": "abc"}),
            (["run", "--trials", "2"], {"mode": "nope"}),
            (["run", "--trials", "2"], {"seed": "x"}),
            (["run", "--trials", "2"], {"max_rounds": True}),
            (["fair"], {"seed": -3}),
            (["tables"], {"seed": 1}),
            (["sweep"], {"seed": 1}),
        ],
    )
    def test_refused_like_the_flag(self, capsys, tmp_path, argv, config):
        code, err, target = run_cli(capsys, tmp_path, argv, config)
        assert code == 2
        assert err.startswith("error:") and next(iter(config)) in err
        assert not target.exists()

    def test_integral_and_boolean_values_are_accepted(self, capsys, tmp_path):
        code, _, target = run_cli(
            capsys, tmp_path, ["run"], {"trials": 3.0, "extended": True, "seed": 4, "eta": 1}
        )
        assert code == 0
        assert len(target.read_text().splitlines()) == 3

    def test_store_true_value_reaches_the_command(self, capsys, tmp_path):
        code, _, target = run_cli(capsys, tmp_path, ["sweep", "--lmax", "5"], {"extended": False})
        assert code == 0
        assert json.loads(target.read_text())["extended"] is False


BAD_MU = [math.nan, math.inf, 1e19, 0.0, -1.0, -math.inf]


class TestMeanPhotonNumber:
    @pytest.mark.parametrize("mu", BAD_MU)
    def test_library_refuses(self, mu):
        with pytest.raises(ParameterError, match="mean photon number"):
            RunConfig(mode=Mode.MDI_WEAK_COHERENT, mu=mu, k_pulses=1)

    @pytest.mark.parametrize("mu", BAD_MU)
    def test_multiphoton_tail_refuses(self, mu):
        with pytest.raises(ParameterError, match="mean photon number"):
            poisson_tail_at_least_two(mu)

    def test_large_finite_mean_is_accepted(self):
        assert RunConfig(mode=Mode.MDI_WEAK_COHERENT, mu=1e18, k_pulses=1).mu == 1e18
        assert poisson_tail_at_least_two(1e18) == 1.0

    @pytest.mark.parametrize("mu", ["nan", "inf", "1e19", "-inf", "0", "-1"])
    def test_cli_usage_error(self, capsys, tmp_path, mu):
        code, err, target = run_cli(capsys, tmp_path, ["run", "--mode", "mdi-weak-coherent", f"--mu={mu}"])
        assert code == 2
        assert err.startswith("error:") and "mean photon number" in err
        assert not target.exists()

    def test_weak_coherent_mode_requires_mu(self):
        with pytest.raises(ParameterError, match="mean photon number"):
            RunConfig(mode=Mode.MDI_WEAK_COHERENT, k_pulses=1)

    @pytest.mark.parametrize("mode", [Mode.MDI, Mode.BASELINE])
    def test_library_refuses_mu_outside_weak_coherent_mode(self, mode):
        """Before, the MDI and baseline flows ran as single-photon flows and ignored mu."""
        with pytest.raises(ParameterError, match="mean photon number mu only applies"):
            RunConfig(mode=mode, mu=0.5)

    @pytest.mark.parametrize("mode", ["mdi", "baseline"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_cli_refuses_mu_outside_weak_coherent_mode(self, capsys, tmp_path, mode, source):
        argv = ["run", "--trials", "2", "--mode", mode]
        if source == "flag":
            code, err, target = run_cli(capsys, tmp_path, [*argv, "--mu", "0.5"])
        else:
            code, err, target = run_cli(capsys, tmp_path, argv, {"mu": 0.5})
        assert code == 2
        assert err.startswith("error:") and "mu" in err
        assert not target.exists()


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "argv",
        [["run", "--seed", "-1"], ["attack", "--seed", "-1", "--trials", "100"]],
    )
    def test_flag(self, capsys, tmp_path, argv):
        code, err, target = run_cli(capsys, tmp_path, argv)
        assert code == 2
        assert "seed" in err and "-1" in err
        assert not target.exists()

    def test_config_file(self, capsys, tmp_path):
        code, err, target = run_cli(capsys, tmp_path, ["run", "--trials", "2"], {"seed": -3})
        assert code == 2 and "seed" in err
        assert not target.exists()

    def test_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "-1")
        code, err, target = run_cli(capsys, tmp_path, ["attack", "--trials", "100"])
        assert code == 2 and "seed" in err
        assert not target.exists()


@pytest.mark.parametrize(
    "build",
    [
        lambda: RunConfig(max_rounds=2.5),
        lambda: RunConfig(max_rounds=True),
        lambda: RunConfig(mode=Mode.MDI_WEAK_COHERENT, mu=0.5, k_pulses=2.5),
        lambda: bob_med_attack(target_coin=1.0),
        lambda: alice_blinding_attack(target_coin=True),
        lambda: StateLabel.from_index(2.0),
        lambda: commitment_density(1.0, 0.9),
    ],
    ids=[
        "max_rounds-float", "max_rounds-bool", "k_pulses-float", "target-float", "target-bool",
        "label-index-float", "committed-bit-float",
    ],
)
def test_integer_parameters_refuse_non_integers(build):
    with pytest.raises(ParameterError, match="must be an integer"):
        build()


def test_package_import_leaves_scipy_stats_unloaded():
    code = "import sys, mdiqct.cli; sys.exit('scipy.stats' in sys.modules)"
    # The child imports mdiqct from where this process did, as pytest's pythonpath is not inherited.
    env = dict(os.environ, PYTHONPATH=str(Path(mdiqct.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env, check=False).returncode == 0
