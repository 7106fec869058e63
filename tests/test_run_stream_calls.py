"""Per-call paths of a run stream: the direct record writer, the parser built
once per process, and the options that only weak-coherent mode reads."""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqct import cli
from mdiqct.devices import EventCause
from mdiqct.protocol import Transcript, Verdict, transcript_json_line, transcript_to_record
from mdiqct.qmath import ALL_LABELS, BsmOutcome

# Every cause a flow writes, then arbitrary text for json's string escapes.
CAUSES = [
    None, *(c.value for c in EventCause if c is not EventCause.FAILURE),
    "med-correct", "med-wrong", "controlled-detection", "baseline-detection", "no-bsm-success",
]
optional_bit = st.one_of(st.none(), st.integers(0, 1))
optional_label = st.one_of(st.none(), st.sampled_from(ALL_LABELS))


@st.composite
def transcripts(draw) -> Transcript:
    verdict = draw(st.sampled_from(Verdict))
    revealed, b_prime = draw(optional_label), draw(optional_bit)
    if verdict is Verdict.ACCEPT:
        revealed = revealed or draw(st.sampled_from(ALL_LABELS))
        b_prime = draw(st.integers(0, 1)) if b_prime is None else b_prime
    return Transcript(
        rounds=draw(st.integers(1, 2**63 - 1)),
        outcome=draw(st.sampled_from([None, BsmOutcome.PSI_PLUS, BsmOutcome.PSI_MINUS])),
        bob_label=draw(optional_label),
        bob_random_bit=b_prime,
        revealed_label=revealed,
        verdict=verdict,
        coin=(revealed.bit ^ b_prime) if verdict is Verdict.ACCEPT else None,
        cause=draw(st.one_of(st.sampled_from(CAUSES), st.text())),
        pulse_index=draw(st.one_of(st.none(), st.integers(1, 10**6))),
        multiphoton_slots=tuple(draw(st.lists(st.integers(1, 10**6), max_size=6))),
        adversary_success=draw(st.sampled_from([None, True, False])),
    )


@settings(max_examples=400, deadline=None)
@given(transcripts())
def test_writer_equals_json_dumps(t):
    reference = json.dumps(transcript_to_record(t), sort_keys=True, separators=(",", ":"))
    assert transcript_json_line(t) == reference


def call(argv, out=None):
    """(exit code, stdout, stderr, --out bytes) of one ``main`` call."""
    argv = list(argv) + (["--out", str(out)] if out is not None else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    written = out.read_bytes() if out is not None and out.exists() else None
    if written is not None:
        out.unlink()
    return code, stdout.getvalue(), stderr.getvalue(), written


def test_repeated_main_calls_match_a_fresh_parser(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trials": 7, "mode": "baseline", "eta": 0.5}))
    cases = [
        (["run", "--trials", "5", "--seed", "3"], None),
        (["run", "--config", str(config)], None),
        (["run", "--mode", "mdi-weak-coherent", "--trials", "20", "--k-pulses", "3"], "777"),
        (["run", "--trials", "5"], "12"),
        (["tables", "--y", "0.8", "--format", "csv"], None),
        (["attack", "--adversary", "bob-med", "--trials", "1000", "--seed", "2"], None),
        (["sweep", "--lmax", "10", "--step", "2"], None),
        (["run", "--no-such-flag"], None),  # argparse usage error
        (["run", "--trials", "0"], None),  # refused by the command
        (["fair", "--tolerance", "1e-6"], "5"),
    ]
    out = tmp_path / "out.txt"

    def results(fresh_parser: bool):
        seen = []
        for argv, seed in cases:
            if fresh_parser:
                cli._parser.cache_clear()
            if seed is None:
                monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(cli.SEED_ENV_VAR, seed)
            seen.append((call(argv), call(argv, out)))
        return seen

    fresh = results(fresh_parser=True)
    first, second = results(fresh_parser=False), results(fresh_parser=False)
    assert first == fresh and second == fresh
    assert [c[0][0] for c in fresh] == [0, 0, 0, 0, 0, 0, 0, 2, 2, 0]
    assert fresh[1][1][3] and fresh[1][0][3] is None  # --out holds the stream, stdout mode writes no file


class TestModeOptions:
    @pytest.mark.parametrize(
        "argv, config",
        [
            (["run", "--mode", "mdi", "--k-pulses", "3"], None),
            (["run", "--mode", "baseline", "--mu", "0.5"], None),
            (["run", "--k-pulses", "10"], None),  # the default mode is mdi
            (["run", "--mode", "mdi"], {"k_pulses": 3}),
            (["run"], {"mode": "baseline", "mu": 0.5}),
        ],
        ids=["k-flag", "mu-flag", "k-flag-default-mode", "k-config", "mu-config"],
    )
    def test_refused_outside_weak_coherent_mode(self, capsys, tmp_path, argv, config):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        target = tmp_path / "out.jsonl"
        assert cli.main([*argv, "--out", str(target)]) == 2
        assert "only applies to mode mdi-weak-coherent" in capsys.readouterr().err
        assert not target.exists()

    def test_accepted_in_weak_coherent_mode(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mode": "mdi-weak-coherent", "k_pulses": 3, "mu": 0.2}))
        assert cli.main(["run", "--trials", "4", "--config", str(path)]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 4 and all(r["rounds"] <= 3 for r in records)
