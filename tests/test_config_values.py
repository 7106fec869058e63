"""Inputs the CLI and the library refuse: typed config values, mu, seeds.

A config-file value passes the same type and choices as its flag; a usage
error exits 2 with a message on stderr and writes no output file.
"""
import json
import math
import subprocess
import sys

import pytest

from mdiqct import cli
from mdiqct.devices import SourceKind, SourceModel, weak_coherent_source
from mdiqct.errors import ParameterError


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


class TestMeanPhotonNumber:
    @pytest.mark.parametrize("mu", [math.nan, math.inf, 1e19, 0.0, -1.0])
    def test_library_refuses(self, mu):
        with pytest.raises(ParameterError, match="mean photon number"):
            SourceModel(SourceKind.WEAK_COHERENT, mu=mu)

    def test_large_finite_mean_is_accepted(self):
        assert weak_coherent_source(1e18).mu == 1e18

    @pytest.mark.parametrize("mu", ["nan", "inf", "1e19"])
    def test_cli_usage_error(self, capsys, tmp_path, mu):
        code, err, target = run_cli(capsys, tmp_path, ["run", "--mode", "mdi-weak-coherent", "--mu", mu])
        assert code == 2
        assert err.startswith("error:") and "mean photon number" in err
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


def test_package_import_leaves_scipy_stats_unloaded():
    code = "import sys, mdiqct.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], check=False).returncode == 0
