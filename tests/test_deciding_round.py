"""Honest runs drawn from the deciding round: one run table for `run` and `estimate`.

An honest MDI run is one draw of the deciding (label pair, band) cell plus a
Geometric(p_round) round count; the estimator draws a whole run as one word
over the 96 deciding cells, weighted by P(found), and a "not found" cell.
The honest baseline is a Geometric(t_a·η) resend count plus one measurement.
These tests pin the transcript fields to that table, the table's masses to
their closed forms, its guide lookup to a binary search, and the ``rounds``
field to its closed-form distribution.
"""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_within_sigmas
from mdiqct.analysis import CHUNK_SIZE, bsm_success_probability, estimate, honest_abort_given_success
from mdiqct.devices import BAND_SAMPLES, ChannelParams, DetectorParams
from mdiqct.errors import ExhaustionError
from mdiqct.protocol import (
    BLOCK_WORDS,
    GUIDE_BUCKETS,
    GUIDE_MIN_BATCH,
    RUN_ABORT,
    RUN_NOT_FOUND,
    Mode,
    RunConfig,
    _run_table,
    run_baseline,
    run_honest,
    sample_run_codes,
)
from mdiqct.qmath import ALL_LABELS, verification_table

REFERENCE = RunConfig(channel=ChannelParams(10.0, 10.0), detector=DetectorParams(eta=0.1, dark=1e-4))
LOSSY_DARK = RunConfig(channel=ChannelParams(15.0, 15.0), detector=DetectorParams(eta=0.3, dark=1e-2))
BASELINE = RunConfig(
    mode=Mode.BASELINE, channel=ChannelParams(20.0, 0.0), detector=DetectorParams(eta=0.3, dark=0.0)
)


def p_round(config: RunConfig) -> float:
    if config.mode is Mode.BASELINE:
        return config.channel.t_a * config.detector.eta
    return bsm_success_probability(config.channel, config.detector, extended=config.extended_dark_model)


def one_run(config: RunConfig, rng: np.random.Generator):
    return run_baseline(config, None, rng) if config.mode is Mode.BASELINE else run_honest(config, rng)


def deciding_cell_table(config: RunConfig) -> tuple[float, np.ndarray]:
    """p_round and the cumulative weights with P(found) = 1 that ``run_honest`` searches."""
    p, cumulative, _ = _run_table(config.y, config.channel, config.detector, config.extended_dark_model, None)
    return p, cumulative


class TestOneSampler:
    @pytest.mark.parametrize("config", [REFERENCE, LOSSY_DARK])
    def test_run_honest_plays_the_sampled_deciding_round(self, config):
        p, cumulative = deciding_cell_table(config)
        for seed in range(30):
            reference = np.random.default_rng(seed)  # one uniform picks the cell, then the round count
            pair, band = divmod(int(np.searchsorted(cumulative, reference.random(), side="right")), 6)
            rounds = reference.geometric(p)
            t = run_honest(config, np.random.default_rng(seed))
            sample = BAND_SAMPLES[band]
            assert t.rounds == rounds
            assert t.bob_label == ALL_LABELS[pair & 3]
            assert (t.outcome, t.cause) == (sample.outcome, sample.cause.value)
            if t.coin is not None:
                assert t.revealed_label == ALL_LABELS[pair >> 2]

    def test_no_round_can_succeed_draws_nothing(self):
        config = RunConfig(detector=DetectorParams(eta=0.0, dark=0.0))
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(ExhaustionError):
            run_honest(config, rng)
        assert rng.bit_generator.state == before
        codes = sample_run_codes(config.y, config.channel, config.detector, False, 10**6, rng, 5)
        assert (codes == RUN_NOT_FOUND).all()

    def test_baseline_without_detection_is_exhausted(self):
        config = RunConfig(mode=Mode.BASELINE, detector=DetectorParams(eta=0.0, dark=0.0))
        with pytest.raises(ExhaustionError):
            run_baseline(config, None, np.random.default_rng(0))


class TestRoundsField:
    """The ``rounds`` field against the geometric law at 4 sigma."""

    @pytest.mark.parametrize(
        "config", [REFERENCE, LOSSY_DARK, BASELINE], ids=["reference", "lossy-dark", "baseline"]
    )
    def test_rounds_are_geometric(self, config):
        p, n = p_round(config), 20_000
        rng = np.random.default_rng(61)
        rounds = np.array([one_run(config, rng).rounds for _ in range(n)])
        assert_within_sigmas(rounds.mean(), 1.0 / p, math.sqrt(1.0 - p) / p / math.sqrt(n), sigmas=4.0)
        assert_within_sigmas((rounds == 1).mean(), p, math.sqrt(p * (1.0 - p) / n), sigmas=4.0)

    @pytest.mark.parametrize(
        "config",
        [RunConfig(channel=LOSSY_DARK.channel, detector=LOSSY_DARK.detector, max_rounds=50),
         RunConfig(mode=Mode.BASELINE, channel=BASELINE.channel, detector=BASELINE.detector, max_rounds=5)],
        ids=["mdi", "baseline"],
    )
    def test_exhaustion_frequency(self, config):
        n = 5_000
        expected = (1.0 - p_round(config)) ** config.max_rounds
        rng = np.random.default_rng(62)
        exhausted = 0
        for _ in range(n):
            try:
                one_run(config, rng)
            except ExhaustionError:
                exhausted += 1
        assert_within_sigmas(exhausted / n, expected, math.sqrt(expected * (1.0 - expected) / n), sigmas=4.0)


def operating_points(*special):
    """Floats between the special values, which are drawn exactly as well."""
    return st.one_of(st.sampled_from(special), st.floats(min(special), max(special)))


# Round caps: the ones named, any other, and None, the unbounded cap of run_honest's table.
MAX_ROUNDS = st.one_of(st.sampled_from([1, 30, 10**6, 2**62, None]), st.integers(1, 2**63 - 2))


@st.composite
def run_tables(draw):
    """(y, channel, detector, extended, max_rounds) of a run table."""
    return (
        draw(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)),
        ChannelParams(draw(operating_points(0.0, 200.0)), draw(operating_points(0.0, 200.0))),
        DetectorParams(eta=draw(operating_points(0.0, 1.0)), dark=draw(operating_points(0.0, 0.5))),
        draw(st.booleans()),
        draw(MAX_ROUNDS),
    )


def cell_codes(y: float) -> np.ndarray:
    """The run code of each of the 97 cells, read off the verification table."""
    table = verification_table(y)
    codes = []
    for pair in range(16):
        alice, bob = ALL_LABELS[pair >> 2], ALL_LABELS[pair & 3]
        for band in range(6):
            zero = table.probability(BAND_SAMPLES[band].outcome, alice, bob) == 0.0
            codes.append(alice.bit | RUN_ABORT * zero)
    return np.array([*codes, RUN_NOT_FOUND], dtype=np.uint8)


def searched_codes(cumulative: np.ndarray, words: np.ndarray, y: float) -> np.ndarray:
    """The codes of a binary search of each word's uniform (w >> 11)·2⁻⁵³."""
    return cell_codes(y)[np.searchsorted(cumulative, (words >> 11) * 2.0**-53, side="right")]


class ChosenWords:
    """A generator stand-in whose 64-bit words are ``words``, in order:
    ``integers`` over the whole uint64 range returns them, ``random`` their uniforms."""

    def __init__(self, words: np.ndarray) -> None:
        self.words, self.used = words, 0

    def take(self, n: int) -> np.ndarray:
        self.used += n
        return self.words[self.used - n:self.used]

    def integers(self, low, high, size, dtype, endpoint):
        assert (low, high, dtype, endpoint) == (0, 2**64 - 1, np.uint64, True)
        return self.take(size)

    def random(self, n: int) -> np.ndarray:
        return (self.take(n) >> 11) * 2.0**-53


def edge_words(cumulative: np.ndarray, seed: int) -> np.ndarray:
    """The first and last word, each bucket's first word and the word below it,
    at each cumulative weight c the first word whose uniform reaches c, the
    word below it and the last word with its uniform, then random words."""
    words = [0, 2**64 - 1]
    for b in range(GUIDE_BUCKETS):
        start = b << 52
        words += [start, start - 1] if b else [start]
    for c in cumulative[(cumulative > 0.0) & (cumulative < 1.0)]:
        first = math.ceil(c * 2.0**53) << 11  # c·2⁵³ is exact
        words += [first, first - 1, first | 0x7FF]
    chosen = np.array(words, dtype=np.uint64)
    drawn = np.random.default_rng(seed).integers(0, 2**64 - 1, size=4 * GUIDE_BUCKETS, dtype=np.uint64, endpoint=True)
    return np.concatenate([chosen, drawn])


class TestGuideTable:
    """The run codes drawn through the guide table are a binary search's, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(table=run_tables(), seed=st.integers(0, 2**32 - 1))
    def test_lookup_equals_searchsorted(self, table, seed):
        _, cumulative, _ = _run_table(*table)
        words = edge_words(cumulative, seed)
        assert words.size > BLOCK_WORDS  # the lookup runs over more than one block
        expected = searched_codes(cumulative, words, table[0])
        looked_up = ChosenWords(words)
        np.testing.assert_array_equal(sample_run_codes(*table, looked_up, words.size), expected)
        assert looked_up.used == words.size
        for start in range(0, words.size, GUIDE_MIN_BATCH - 1):  # below GUIDE_MIN_BATCH: searched outright
            part = words[start:start + GUIDE_MIN_BATCH - 1]
            searched = sample_run_codes(*table, ChosenWords(part), part.size)
            np.testing.assert_array_equal(searched, expected[start:start + part.size])

    @pytest.mark.parametrize("n", [1, GUIDE_MIN_BATCH - 1, GUIDE_MIN_BATCH, 3 * GUIDE_MIN_BATCH])
    def test_batch_size_picks_no_other_cells(self, n):
        """Small batches are searched outright, larger ones looked up: one word stream either way."""
        config = LOSSY_DARK
        args = (config.y, config.channel, config.detector, config.extended_dark_model, 30)
        _, cumulative, _ = _run_table(*args)
        codes = sample_run_codes(*args, np.random.default_rng(n), n)
        words = np.random.default_rng(n).integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True)
        np.testing.assert_array_equal(codes, searched_codes(cumulative, words, config.y))
        uniforms = np.random.default_rng(n).random(n)  # random(n) reads the same words
        np.testing.assert_array_equal(codes, cell_codes(config.y)[np.searchsorted(cumulative, uniforms, side="right")])

    @pytest.mark.parametrize("n", [1, 3 * GUIDE_MIN_BATCH])
    def test_any_bit_generator_is_read_through_its_words(self, n):
        config = LOSSY_DARK
        args = (config.y, config.channel, config.detector, config.extended_dark_model, 30)
        _, cumulative, _ = _run_table(*args)

        def mt19937():
            return np.random.Generator(np.random.MT19937(n))

        codes = sample_run_codes(*args, mt19937(), n)
        if n >= GUIDE_MIN_BATCH:
            words = mt19937().integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True)
            np.testing.assert_array_equal(codes, searched_codes(cumulative, words, config.y))
        else:
            cells = np.searchsorted(cumulative, mt19937().random(n), side="right")
            np.testing.assert_array_equal(codes, cell_codes(config.y)[cells])


def not_found_probability(p_round: float, max_rounds) -> float:
    """(1 − p_round)^max_rounds in 40-digit decimals, or 0 for an unbounded cap."""
    if max_rounds is None:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 40
        return float((1 - Decimal(p_round)) ** max_rounds)


class TestRunTable:
    """The masses of the 97 run cells against their closed forms, to 1e-12."""

    @staticmethod
    def masses(table) -> tuple[np.ndarray, float]:
        """The weight of each deciding cell, and that of the not-found cell."""
        _, cumulative, _ = _run_table(*table)
        return np.diff(cumulative, prepend=0.0), 1.0 - cumulative[-1]

    @settings(max_examples=150, deadline=None)
    @given(table=run_tables())
    def test_not_found_mass_is_the_chance_of_no_success(self, table):
        y, channel, detector, extended, max_rounds = table
        p_round = bsm_success_probability(channel, detector, extended=extended)
        _, not_found = self.masses(table)
        if p_round == 0.0:
            assert not_found == 1.0
        else:
            assert not_found == pytest.approx(not_found_probability(p_round, max_rounds), rel=0.0, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(table=run_tables())
    def test_abort_mass_is_abort_given_success_times_found(self, table):
        y, channel, detector, extended, max_rounds = table
        p_round = bsm_success_probability(channel, detector, extended=extended)
        found = 1.0 - not_found_probability(p_round, max_rounds) if p_round > 0.0 else 0.0
        mass, _ = self.masses(table)
        abort = mass[(cell_codes(y)[:96] & RUN_ABORT) != 0].sum()
        expected = honest_abort_given_success(channel, detector, extended=extended) * found
        assert abort == pytest.approx(expected, rel=0.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(table=run_tables())
    def test_no_dark_counts_no_abort(self, table):
        """c07: without dark counts no bucket or cell of positive weight aborts."""
        y, channel, detector, extended, max_rounds = table
        table = (y, channel, DetectorParams(eta=detector.eta, dark=0.0), extended, max_rounds)
        _, _, by_bucket = _run_table(*table)
        mass, _ = self.masses(table)
        assert not (by_bucket & RUN_ABORT).any()
        assert (mass[(cell_codes(y)[:96] & RUN_ABORT) != 0] == 0.0).all()


class TestPinnedHonestEstimates:
    """Honest estimates frozen from a binary search of each run's word alone
    (every chunk below ``GUIDE_MIN_BATCH``): the guide table changes no draw."""

    LOSSY = dict(channel=LOSSY_DARK.channel, detector=LOSSY_DARK.detector)
    FAR = dict(channel=ChannelParams(40.0, 40.0), detector=DetectorParams(eta=0.1, dark=1e-4))

    @pytest.mark.parametrize(
        "scenario, seed, params, mean, trials",
        [
            ("honest-run-abort", 0, LOSSY, 0.056436801914558174, 300_017),
            ("honest-coin", 1, LOSSY, 0.5002490206952093, 283_109),
            ("honest-coin", 0, dict(LOSSY, extended=True), 0.4992579691213556, 275_595),
            ("honest-run-abort", 2, dict(FAR, max_rounds=30), 1.6665722275737707e-05, 300_017),
            (
                "honest-run-abort", 0,
                dict(channel=ChannelParams(5.0, 5.0), detector=DetectorParams(eta=0.0, dark=1e-3)),
                0.24562941433318777, 300_017,
            ),
        ],
        ids=["lossy", "coin", "extended", "max-rounds-30", "eta-0"],
    )
    def test_estimate_is_unchanged(self, scenario, seed, params, mean, trials):
        est = estimate(scenario, trials=300_017, seed=seed, **params)
        assert (est.mean, est.trials) == (mean, trials)

    @pytest.mark.parametrize(
        "scenario, seed, mean",
        [("honest-coin", 0, 0.49950413223140494), ("honest-run-abort", 1, 0.0)],
        ids=["coin", "run-abort"],
    )
    def test_ideal_devices_are_unchanged(self, scenario, seed, mean):
        """Default (ideal) devices, the configuration of ``attack --adversary none``."""
        trials = 3 * CHUNK_SIZE + 17
        est = estimate(scenario, trials=trials, seed=seed)
        assert (est.mean, est.trials) == (mean, trials)
