"""Command-line interface: determinism, schema conformance, exit codes."""
import json
import math
from pathlib import Path

import jsonschema
import pytest

from mdiqct import analysis, cli

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schemas" / "cli-output.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(doc):
    VALIDATOR.validate(doc)


class TestTables:
    def test_json_output_matches_schema_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--y", "0.9")
        assert code == 0
        doc = json.loads(out)
        validate(doc)
        assert doc["verification"]["psi-plus"][0][0] == pytest.approx(0.18, abs=1e-12)
        assert doc["verification"]["psi-plus"][0][2] == 0.0
        assert doc["cheating"]["plus"]["psi-plus"][0] == pytest.approx(0.8, abs=1e-12)
        assert len(doc["zero_cells"]["psi-plus"]) == 4

    def test_csv_output_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--y", "0.9", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "section,outcome,row,col,probability,zero_cell"
        assert len(lines) == 1 + 32 + 16  # header + verification + cheating rows

    def test_text_output_renders(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--format", "text")
        assert code == 0
        assert "psi-plus" in out and "0.180000" in out

    def test_out_of_range_y_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "tables.json"
        code, out, err = run_cli(capsys, "tables", "--y", "0.3", "--out", str(target))
        assert code == 2
        assert not target.exists()  # usage errors never leave partial files
        assert "y" in err

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "tables", "--y", "0.8")
        _, out2, _ = run_cli(capsys, "tables", "--y", "0.8")
        assert out1 == out2


class TestFair:
    def test_fair_point(self, capsys):
        code, out, _ = run_cli(capsys, "fair")
        assert code == 0
        doc = json.loads(out)
        validate(doc)
        assert doc["y"] == pytest.approx(0.9, abs=1e-9)
        assert doc["bias"] == pytest.approx(0.4, abs=1e-9)

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "fair", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("y,bias")
        assert float(row.split(",")[0]) == pytest.approx(0.9, abs=1e-9)


    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0.5"])
    def test_tolerance_the_bisection_cannot_use_is_refused(self, capsys, tolerance):
        """Each once printed y = 0.75, the bracket's midpoint, as the fair point (NaN and
        Infinity in the JSON), because the bisection never ran."""
        code, out, err = run_cli(capsys, "fair", "--tolerance", tolerance)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "tolerance" in err


class TestSweep:
    def test_default_grid_schema(self, capsys):
        code, out, _ = run_cli(capsys, "sweep")
        assert code == 0
        doc = json.loads(out)
        validate(doc)
        assert len(doc["points"]) == 11
        assert doc["points"][0]["pr_abort"] == pytest.approx(8.1e-9, rel=1e-9)

    def test_csv_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--lmin", "0", "--lmax", "50", "--step", "5",
            "--eta", "0.1", "--dark", "1e-4", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 12  # header + 11 points
        assert lines[0] == "l_km,pr_abort,pr_abort_given_success"

    def test_matches_library_values(self, capsys):
        from mdiqct.devices import DetectorParams

        _, out, _ = run_cli(capsys, "sweep", "--step", "10")
        doc = json.loads(out)
        points = analysis.sweep_distance(0.0, 50.0, 10.0, DetectorParams(eta=0.1, dark=1e-4))
        assert [p["pr_abort"] for p in doc["points"]] == [pt.pr_abort for pt in points]


class TestRun:
    def test_stream_matches_schema(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--trials", "25", "--seed", "4",
                               "--eta", "1.0", "--dark", "0", "--la", "0", "--lb", "0")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 25
        for line in lines:
            record = json.loads(line)
            validate(record)
            assert record["verdict"] == "accept"

    def test_deterministic_stream(self, capsys):
        args = ("run", "--trials", "30", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_weak_coherent_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--trials", "20", "--mode", "mdi-weak-coherent",
            "--k-pulses", "5", "--mu", "1.0", "--eta", "1.0", "--dark", "0",
            "--la", "0", "--lb", "0", "--seed", "3",
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().split("\n")]
        for r in records:
            validate(r)
            if r["verdict"] == "accept":
                assert 1 <= r["pulse_index"] <= 5

    def test_blinding_on_baseline(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--trials", "40", "--mode", "baseline",
            "--adversary", "alice-blinding", "--seed", "2",
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().split("\n")]
        assert all(r["adversary_success"] for r in records)
        assert all(r["verdict"] == "accept" for r in records)

    def test_blinding_on_mdi_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--trials", "5", "--mode", "mdi",
            "--adversary", "alice-blinding",
        )
        assert code == 2
        assert "alice-blinding" in err

    def test_adversary_run_with_ideal_devices(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--trials", "30", "--adversary", "bob-med",
            "--eta", "1.0", "--dark", "0", "--la", "0", "--lb", "0", "--seed", "6",
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().split("\n")]
        wins = sum(r["adversary_success"] for r in records)
        assert wins >= 20  # ~0.9 of 30

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "runs.jsonl"
        code, out, _ = run_cli(capsys, "run", "--trials", "10", "--seed", "1",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert len(target.read_text().strip().split("\n")) == 10


class TestAttack:
    def test_individual_attack_mean(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--adversary", "alice-individual",
            "--trials", "1000000", "--seed", "3",
        )
        assert code == 0
        doc = json.loads(out)
        validate(doc)
        assert doc["mean"] == pytest.approx(0.75, abs=0.002)
        assert doc["closed_form"] == 0.75

    def test_deterministic_and_worker_invariant(self, capsys):
        base = ("attack", "--adversary", "alice-coherent", "--trials", "300000",
                "--seed", "5")
        _, out1, _ = run_cli(capsys, *base, "--workers", "1")
        _, out4, _ = run_cli(capsys, *base, "--workers", "4")
        assert out1.replace('"workers": 1', '"workers": 4') == out4

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--adversary", "bob-med", "--trials", "100000",
            "--seed", "7", "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("adversary,y")
        assert row.startswith("bob-med,0.9")

    def test_blinding_estimate_is_one(self, capsys):
        _, out, _ = run_cli(
            capsys, "attack", "--adversary", "alice-blinding", "--trials", "100000",
            "--seed", "8",
        )
        doc = json.loads(out)
        validate(doc)
        assert doc["mean"] == 1.0

    def test_honest_baseline_estimate(self, capsys):
        _, out, _ = run_cli(
            capsys, "attack", "--adversary", "none", "--trials", "200000", "--seed", "9",
        )
        doc = json.loads(out)
        assert doc["mean"] == pytest.approx(0.5, abs=0.01)

    def test_projective_model_flag(self, capsys):
        _, out, _ = run_cli(
            capsys, "attack", "--adversary", "alice-individual", "--med-model",
            "projective", "--trials", "400000", "--seed", "10",
        )
        doc = json.loads(out)
        validate(doc)
        assert doc["med_model"] == "projective"
        assert doc["mean"] == pytest.approx(0.795, abs=0.01)
        assert doc["closed_form"] == pytest.approx(0.795, abs=1e-12)


    @pytest.mark.parametrize(
        "adversary, flag, value",
        [
            ("alice-individual", "sent", "minus"),
            ("bob-med", "sent", "plus"),
            ("alice-coherent", "med_model", "projective"),
            ("none", "med_model", "basis-flip"),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_option_the_adversary_does_not_take_is_refused(self, capsys, tmp_path, adversary, flag, value, source):
        """``--sent`` and ``--med-model`` were once dropped without a word."""
        argv = ["attack", "--adversary", adversary, "--trials", "1000"]
        if source == "flag":
            argv += ["--" + flag.replace("_", "-"), value]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag: value}))
            argv += ["--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and flag in err

    def test_default_variant_options_stay_silent(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "--adversary", "bob-med", "--trials", "1000", "--target-coin", "1")
        assert code == 0
        doc = json.loads(out)
        assert (doc["med_model"], doc["sent"]) == (None, None)


class TestConfigAndEnvironment:
    def test_config_file_applies(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"y": 0.75, "trials": 50000, "seed": 11}))
        _, out, _ = run_cli(capsys, "attack", "--adversary", "bob-med",
                            "--config", str(cfg))
        doc = json.loads(out)
        assert doc["y"] == 0.75
        assert doc["trials"] == 50000
        assert doc["seed"] == 11

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"y": 0.75}))
        _, out, _ = run_cli(capsys, "attack", "--adversary", "bob-med",
                            "--config", str(cfg), "--y", "0.9", "--trials", "50000")
        doc = json.loads(out)
        assert doc["y"] == 0.9

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"banana": 1}))
        code, _, err = run_cli(capsys, "attack", "--adversary", "bob-med",
                               "--config", str(cfg))
        assert code == 2
        assert "banana" in err

    def test_missing_config_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "attack", "--adversary", "bob-med",
                             "--config", "/nonexistent/cfg.json")
        assert code == 2

    def test_env_var_sets_default_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "777")
        _, out, _ = run_cli(capsys, "attack", "--adversary", "bob-med",
                            "--trials", "10000")
        assert json.loads(out)["seed"] == 777

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "777")
        _, out, _ = run_cli(capsys, "attack", "--adversary", "bob-med",
                            "--trials", "10000", "--seed", "5")
        assert json.loads(out)["seed"] == 5

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "pi")
        code, _, _ = run_cli(capsys, "attack", "--adversary", "bob-med",
                             "--trials", "1000")
        assert code == 2


class TestExitCodes:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["tables", "--frequency", "1"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["teleport"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_is_runtime_error(self, capsys, monkeypatch, tmp_path, value):
        """JSON output is strict: a non-finite float fails loudly instead of
        printing a NaN or Infinity token, and writes no file."""
        with pytest.raises(ValueError):
            cli._render_json({"mean": value})
        monkeypatch.setattr(analysis, "closed_form_for_attack", lambda *args, **kwargs: value)
        target = tmp_path / "out.json"
        code, out, err = run_cli(capsys, "attack", "--trials", "10", "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("runtime error:")
        assert not target.exists()

    def test_unwritable_output_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "fair", "--out", "/nonexistent-dir/x.json")
        assert code == 1
        assert "runtime error" in err
