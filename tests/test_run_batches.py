"""Runs drawn as a batch: one engine per flow route, for one run or many.

``sample_runs`` draws each stage once for the whole batch, so its draws
differ from those of single calls while its law is theirs.  Each route's
batch is gated here against its closed form at 4σ; a one-run batch must
equal a single call; a batch's record lines must equal the transcript
writer's; and ``run`` streams, which are written in batches, are pinned by
digest and written in place only once they are complete.
"""
import hashlib
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import assert_within_sigmas
from mdiqct import adversaries, analysis, cli, devices, protocol
from mdiqct.devices import ChannelParams, DetectorParams
from mdiqct.errors import ConfigurationError, ExhaustionError, ParameterError
from mdiqct.protocol import (
    Mode,
    RunConfig,
    Verdict,
    ideal_config,
    is_zero_cell,
    run_with_adversary,
    sample_run_lines,
    sample_runs,
    transcript_json_line,
)
from mdiqct.qmath import ALL_LABELS, BELL_OUTCOMES

LOSSY = RunConfig(y=0.8, channel=ChannelParams(20.0, 20.0), detector=DetectorParams(eta=0.2, dark=0.02),
                  extended_dark_model=True)
LOSSY_BASELINE = RunConfig(y=0.8, channel=ChannelParams(20.0, 0.0), detector=DetectorParams(eta=0.2, dark=0.0),
                           mode=Mode.BASELINE)
WEAK = RunConfig(detector=DetectorParams(eta=0.1, dark=1e-4), mode=Mode.MDI_WEAK_COHERENT, mu=0.5, k_pulses=10)

# route -> (config, strategy or None for honest play)
ROUTES = {
    "mdi": (LOSSY, None),
    "mdi-weak-coherent": (WEAK, None),
    "baseline": (LOSSY_BASELINE, None),
    "baseline/alice-blinding": (LOSSY_BASELINE, adversaries.alice_blinding_attack(target_coin=1)),
    "baseline/bob-med": (ideal_config(0.7, mode=Mode.BASELINE), adversaries.bob_med_attack(target_coin=1)),
    "mdi/bob-med": (ideal_config(0.7), adversaries.bob_med_attack()),
    "mdi/alice-individual/basis-flip": (ideal_config(0.7), adversaries.alice_individual_attack(1)),
    "mdi/alice-individual/projective":
        (ideal_config(0.7), adversaries.alice_individual_attack(med_model="projective")),
    "mdi/alice-coherent/plus": (ideal_config(0.7), adversaries.alice_coherent_attack(1)),
    "mdi/alice-coherent/minus": (ideal_config(0.7), adversaries.alice_coherent_attack(sent="minus")),
}
ATTACKS = [name for name, (_, strategy) in ROUTES.items() if strategy is not None]
N = 20_000
N_SIZES = 6_000  # runs per batch size: a size-1 batch costs a single call


def seed_of(name: str) -> int:
    return sum(map(ord, name))


def single_call(config, strategy, rng):
    if strategy is not None:
        return run_with_adversary(config, strategy, rng)
    if config.mode is Mode.MDI_WEAK_COHERENT:
        return protocol.run_weak_coherent(config, rng)
    if config.mode is Mode.MDI:
        return protocol.run_honest(config, rng)
    return protocol.run_baseline(config, None, rng)


@pytest.mark.parametrize("route", sorted(ROUTES))
class TestOneEnginePerRoute:
    def test_one_run_batch_is_a_single_call(self, route):
        config, strategy = ROUTES[route]
        for seed in range(20):
            (row,) = sample_runs(config, strategy, np.random.default_rng(seed), 1)
            assert row == single_call(config, strategy, np.random.default_rng(seed))

    def test_lines_equal_the_transcript_writer(self, route):
        config, strategy = ROUTES[route]
        lines = sample_run_lines(config, strategy, np.random.default_rng(seed_of(route)), 1_000)
        runs = sample_runs(config, strategy, np.random.default_rng(seed_of(route)), 1_000)
        assert lines == [transcript_json_line(t) for t in runs]

    def test_empty_batch_draws_nothing(self, route):
        config, strategy = ROUTES[route]
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        assert sample_runs(config, strategy, rng, 0) == []
        assert sample_run_lines(config, strategy, rng, 0) == []
        assert rng.bit_generator.state == before


def test_empty_batch_still_checks_the_route():
    with pytest.raises(ConfigurationError):
        sample_runs(ideal_config(), adversaries.alice_blinding_attack(), np.random.default_rng(0), 0)
    with pytest.raises(ConfigurationError):
        sample_run_lines(LOSSY, adversaries.bob_med_attack(), np.random.default_rng(0), 0)


# ---------------------------------------------------------------------------
# The law of a batch
# ---------------------------------------------------------------------------

def closed_form(route: str) -> float:
    config, strategy = ROUTES[route]
    return analysis.closed_form_for_attack(strategy.name, config.y, med_model=getattr(strategy, "med_model", "basis-flip"))


def success_rate_gate(runs, expected: float) -> None:
    n = len(runs)
    wins = sum(t.adversary_success for t in runs)
    if expected == 1.0:
        assert wins == n
    else:
        assert_within_sigmas(wins / n, expected, math.sqrt(expected * (1.0 - expected) / n), sigmas=4.0)


@pytest.mark.parametrize("route", ATTACKS)
def test_attack_success_matches_its_closed_form(route):
    config, strategy = ROUTES[route]
    runs = sample_runs(config, strategy, np.random.default_rng(seed_of(route)), N)
    success_rate_gate(runs, closed_form(route))
    if strategy.role is protocol.Role.ALICE and config.mode is Mode.BASELINE:
        assert all(t.verdict is Verdict.ACCEPT and t.coin == 1 for t in runs)  # blinding is never caught


def test_honest_mdi_abort_given_success_and_rounds():
    config, _ = ROUTES["mdi"]
    runs = sample_runs(config, None, np.random.default_rng(31), N)
    channel, detector, extended = config.channel, config.detector, config.extended_dark_model
    abort = analysis.honest_abort_given_success(channel, detector, extended=extended)
    aborts = sum(t.verdict is Verdict.ABORT for t in runs)
    assert_within_sigmas(aborts / N, abort, math.sqrt(abort * (1.0 - abort) / N), sigmas=4.0)
    p_round = analysis.bsm_success_probability(channel, detector, extended=extended)
    mean_rounds = sum(t.rounds for t in runs) / N
    assert_within_sigmas(mean_rounds, 1.0 / p_round, math.sqrt(1.0 - p_round) / p_round / math.sqrt(N), sigmas=4.0)


def test_honest_baseline_never_aborts_and_resends_geometrically():
    config, _ = ROUTES["baseline"]
    runs = sample_runs(config, None, np.random.default_rng(32), N)
    assert all(t.verdict is Verdict.ACCEPT for t in runs)
    p = config.channel.t_a * config.detector.eta
    mean_rounds = sum(t.rounds for t in runs) / N
    assert_within_sigmas(mean_rounds, 1.0 / p, math.sqrt(1.0 - p) / p / math.sqrt(N), sigmas=4.0)


@pytest.mark.parametrize("route", ["mdi/bob-med", "mdi/alice-coherent/plus"])
@pytest.mark.parametrize("size", [1, 7, cli.RUN_BATCH_ROWS])
def test_batch_sizes_draw_the_same_law(route, size):
    """Batches of 1, of 7 and of the CLI's size each follow the closed form."""
    config, strategy = ROUTES[route]
    rng = np.random.default_rng(seed_of(route) + size)
    runs = [t for _ in range(-(-N_SIZES // size)) for t in sample_runs(config, strategy, rng, size)]
    success_rate_gate(runs, closed_form(route))


def test_honest_rounds_past_the_cap_exhaust_the_batch():
    config = RunConfig(detector=DetectorParams(eta=0.1, dark=0.0), max_rounds=50)  # p_round = 0.005
    with pytest.raises(ExhaustionError):
        sample_runs(config, None, np.random.default_rng(0), 100)


# ---------------------------------------------------------------------------
# The codes every route shares
# ---------------------------------------------------------------------------

def test_abort_rule_is_the_zero_cells():
    """B's check in steps 3–5, for every outcome code and label pair."""
    def accepts(code, a, b):
        fields = protocol._finish(ideal_config(), None, protocol.RunView(), np.random.default_rng(0), 1, code, a, b, 1)
        return fields[5]

    for code, outcome in zip((devices.OUTCOME_PSI_PLUS, devices.OUTCOME_PSI_MINUS), BELL_OUTCOMES):
        for a in ALL_LABELS:
            for b in ALL_LABELS:
                assert accepts(code, a.index, b.index) != is_zero_cell(outcome, a, b)
    # Baseline (code 0): B, measuring in A's basis, aborts on the other bit;
    # a dishonest B (label -1) never aborts.
    for a in ALL_LABELS:
        for b in ALL_LABELS:
            assert accepts(0, a.index, b.index) != (a.basis == b.basis and a.bit != b.bit)
        assert all(accepts(code, a.index, -1) for code in (0, devices.OUTCOME_PSI_PLUS, devices.OUTCOME_PSI_MINUS))


def test_band_causes_keep_their_device_codes():
    for sample, code in zip(devices.BAND_SAMPLES, devices.BAND_CAUSE.tolist()):
        assert protocol.CAUSES[code] == (None if code == devices.CAUSE_FAILURE else sample.cause.value)


# ---------------------------------------------------------------------------
# Pinned run streams
# ---------------------------------------------------------------------------

IDEAL = ["--eta", "1", "--dark", "0"]
# Enough transcripts for more than one batch of every flow.
STREAM_TRIALS = cli.RUN_BATCH_ROWS + 904
STREAMS = {
    "mdi": ["--mode", "mdi"],
    "mdi-weak-coherent": ["--mode", "mdi-weak-coherent", "--k-pulses", "30"],
    "baseline": ["--mode", "baseline"],
    "baseline/alice-blinding": ["--mode", "baseline", "--adversary", "alice-blinding"],
    "baseline/bob-med": ["--mode", "baseline", "--adversary", "bob-med", *IDEAL],
    "mdi/bob-med": ["--adversary", "bob-med", *IDEAL],
    "mdi/alice-individual": ["--adversary", "alice-individual", "--target-coin", "1", *IDEAL],
    "mdi/alice-coherent": ["--adversary", "alice-coherent", *IDEAL],
}
# (stream, seed) -> sha256 of the --out file.  The weak-coherent streams are
# those of the per-row writer they replaced; the others were recorded when
# the streams became batched.
STREAM_DIGESTS = {
    ("baseline", 3): "409b8d09cd80ae1372671a6584088135c97b0c7a6bab56d3cab3fa59a982ac58",
    ("baseline", 4): "51551f606d656cc90a5d2e91776d0e68b1e5ea8a90c5e74490ba5b2626bff32c",
    ("baseline/alice-blinding", 3): "484cb80b95e3deb985ef950c444e70f83cefd1b7ac3be8268208a1a1cf68cbb6",
    ("baseline/alice-blinding", 4): "c320528ad4815af61b59b422ce01120b2322239304393cec8fbd218e8066a688",
    ("baseline/bob-med", 3): "7a73c7be2fda6825dfe8d33c5b36afbc2f1d3ffada5a6a72981977ed43bf8911",
    ("baseline/bob-med", 4): "86e9e1c09f2847cbdfd06aa5cd108a0f0487e3afae9f92a579fb3f80988b559a",
    ("mdi", 3): "4af9affe5abf52ee0521c9b00cdc8b4d74d5cfab51a4b7d4fa043c622a599d57",
    ("mdi", 4): "b58dcc671518d0c37e5a447658096f970df9afd2ea508a2ed853cbacde25e0c4",
    ("mdi-weak-coherent", 3): "13d4e8f4cbe58e434235c081ee2f78db73e4b047244623481ef0163a834ee004",
    ("mdi-weak-coherent", 4): "8267216a06b247f1b84290ecdfaf14e3346a11d8b74b5773a37069b373c5d0d9",
    ("mdi/alice-coherent", 3): "92341362aa21f0ecf5759d52322873ee2d52ac2de01801ddf894dc447ac0587f",
    ("mdi/alice-coherent", 4): "687dac373901327023276cc7c41be8e9959a8c8aaa33b20a669a2fdad5274eb7",
    ("mdi/alice-individual", 3): "eeaa988e4f5d103ab0115f205a2b39a990edc37856e5d757396a4347e1b15886",
    ("mdi/alice-individual", 4): "87b0edb888e885e5236b3dc907935acf9432057ae7144350308973ac9132de3f",
    ("mdi/bob-med", 3): "a2d2f0618a8c4c6ba1fe864cf5dc4e3f6ee0a95a0b9a68e6ecbe07048777abd9",
    ("mdi/bob-med", 4): "96dd4ea88dd9caab43fb1702b45fbe6acb70764cbdeb413847ee7c09bd807d1f",
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("seed", [3, 4])
def test_run_stream_is_pinned(stream, seed, tmp_path):
    out = tmp_path / "run.jsonl"
    argv = ["run", *STREAMS[stream], "--trials", str(STREAM_TRIALS), "--seed", str(seed), "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STREAM_DIGESTS[(stream, seed)]


# ---------------------------------------------------------------------------
# Run streams in bounded memory
# ---------------------------------------------------------------------------

def traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stream_memory_does_not_grow_with_trials(tmp_path):
    argv = ["run", "--out", str(tmp_path / "run.jsonl"), "--trials"]
    traced_peak([*argv, "10"])  # fills the caches
    small, large = traced_peak([*argv, str(10**4)]), traced_peak([*argv, str(10**5)])
    assert large <= 1.5 * small


def fail_in_second_batch(monkeypatch, error):
    """Make ``run``'s second batch raise ``error``; returns the sizes drawn."""
    real = protocol.sample_run_lines
    batches = []

    def failing(config, strategy, rng, n):
        if batches:
            raise error
        batches.append(n)
        return real(config, strategy, rng, n)

    monkeypatch.setattr(protocol, "sample_run_lines", failing)
    return batches


@pytest.mark.parametrize("to_file", [True, False])
def test_exhaustion_after_the_first_batch_writes_nothing(to_file, tmp_path, monkeypatch, capsys):
    batches = fail_in_second_batch(monkeypatch, ExhaustionError("no successful projection within 1000000 rounds"))
    target = tmp_path / "run.jsonl"
    target.write_text("earlier output\n")
    argv = ["run", "--trials", str(3 * cli.RUN_BATCH_ROWS)] + (["--out", str(target)] if to_file else [])
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert batches == [cli.RUN_BATCH_ROWS]
    assert captured.out == "" and captured.err.startswith("runtime error:")
    assert target.read_text() == "earlier output\n"  # left as it was
    assert [p.name for p in tmp_path.iterdir()] == ["run.jsonl"]  # no temporary file left behind


def test_a_usage_error_in_a_later_batch_is_still_a_usage_error(monkeypatch, capsys):
    fail_in_second_batch(monkeypatch, ParameterError("refused"))
    assert cli.main(["run", "--trials", str(2 * cli.RUN_BATCH_ROWS)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: refused\n"


# ---------------------------------------------------------------------------
# --out is written in place
# ---------------------------------------------------------------------------

# A stream of three batches, larger than the in-memory part of the spool.
SMALL_BATCHES = ["run", "--trials", "50", "--seed", "9"]


@pytest.fixture
def small_batches(monkeypatch, tmp_path):
    """Batches of 20 runs and a 1 kB in-memory spool; the expected bytes."""
    monkeypatch.setattr(cli, "RUN_BATCH_ROWS", 20)
    monkeypatch.setattr(cli, "SPOOL_BYTES", 1024)
    reference = tmp_path / "reference.jsonl"
    assert cli.main([*SMALL_BATCHES, "--out", str(reference)]) == 0
    expected = reference.read_bytes()
    reference.unlink()
    assert len(expected) > 2 * 1024 and expected.count(b"\n") == 50
    return expected


def test_a_fifo_out_receives_the_stream(small_batches, tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    # A daemon: were the FIFO replaced rather than opened, its reader would wait forever.
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code = cli.main([*SMALL_BATCHES, "--out", str(fifo)])
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert code == 0 and received == [small_batches]
    assert fifo.is_fifo()


def test_a_symlinked_out_writes_through_the_link(small_batches, tmp_path):
    target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
    target.write_text("earlier output\n")
    link.symlink_to(target)
    assert cli.main([*SMALL_BATCHES, "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == small_batches


def test_an_existing_out_keeps_its_mode_and_links(small_batches, tmp_path):
    out, other_name = tmp_path / "run.jsonl", tmp_path / "hard-link.jsonl"
    out.write_text("earlier output\n")
    out.chmod(0o640)
    os.link(out, other_name)
    assert cli.main([*SMALL_BATCHES, "--out", str(out)]) == 0
    assert other_name.read_bytes() == small_batches
    assert out.stat().st_mode & 0o777 == 0o640 and out.stat().st_nlink == 2
