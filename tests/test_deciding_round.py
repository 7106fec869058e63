"""Honest runs drawn from the deciding round: one run table for `run` and `estimate`.

An honest MDI run is one draw of the deciding (label pair, band) cell plus a
Geometric(p_round) round count; the estimator draws a whole run as one
uniform over the 96 deciding cells, weighted by P(found), and a "not found"
cell, from a 16-bit prefix per run that only a run in a cut guide bucket
completes.  The honest baseline is a Geometric(t_a·η) resend count plus one
measurement.  These tests pin the transcript fields to that table, the
table's masses to their closed forms (capped at one round, the per-round
law), its guide lookup to a binary search of the completed uniforms, the
estimates to a test-local implementation of that law, and the ``rounds``
field to its closed-form distribution.
"""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_within_sigmas
from mdiqct.analysis import (
    CHUNK_SIZE,
    _run_codes,
    bsm_success_probability,
    estimate,
    honest_abort_closed_form,
    honest_abort_given_success,
)
from mdiqct.devices import (
    BAND_SAMPLES,
    CAUSE_BOTH,
    CAUSE_DARK_DARK,
    CAUSE_PHOTON_DARK,
    ChannelParams,
    DetectorParams,
    EventCause,
    round_rates,
)
from mdiqct.errors import ExhaustionError
from mdiqct.protocol import (
    GUIDE_BUCKETS,
    RUN_A_BIT,
    RUN_ABORT,
    RUN_BLOCK,
    RUN_CAUSE_SHIFT,
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
        out = np.empty(5, np.uint8)
        codes = sample_run_codes(config.y, config.channel, config.detector, False, 10**6, rng, out)
        assert codes is out and (codes == RUN_NOT_FOUND).all()

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


CAUSE_CODES = {
    EventCause.BOTH_PHOTONS: CAUSE_BOTH,
    EventCause.PHOTON_DARK: CAUSE_PHOTON_DARK,
    EventCause.DARK_DARK: CAUSE_DARK_DARK,
}


def cell_codes(y: float) -> np.ndarray:
    """The run code of each of the 97 cells, read off the verification table
    and each band's event cause."""
    table = verification_table(y)
    codes = []
    for pair in range(16):
        alice, bob = ALL_LABELS[pair >> 2], ALL_LABELS[pair & 3]
        for band in range(6):
            sample = BAND_SAMPLES[band]
            zero = table.probability(sample.outcome, alice, bob) == 0.0
            codes.append(alice.bit | RUN_ABORT * zero | CAUSE_CODES[sample.cause] << RUN_CAUSE_SHIFT)
    return np.array([*codes, RUN_NOT_FOUND], dtype=np.uint8)


WORD_MAX = 2**64 - 1
LOW_BITS = 37  # a run's 53-bit uniform: its 16-bit prefix over 37 low bits


def cut_buckets(cumulative: np.ndarray) -> np.ndarray:
    """Whether a cumulative weight c lies strictly inside each guide bucket,
    b < c·GUIDE_BUCKETS < b + 1 (c·GUIDE_BUCKETS is exact)."""
    cut = np.zeros(GUIDE_BUCKETS, dtype=bool)
    for c in cumulative.tolist():
        scaled = c * GUIDE_BUCKETS
        if scaled != math.floor(scaled) and scaled < GUIDE_BUCKETS:
            cut[math.floor(scaled)] = True
    return cut


def searched_codes(cumulative: np.ndarray, uniforms: np.ndarray, y: float) -> np.ndarray:
    """The codes of a binary search of each 53-bit uniform k, read as k·2⁻⁵³."""
    return cell_codes(y)[np.searchsorted(cumulative, uniforms * 2.0**-53, side="right")]


def reference_block(cumulative: np.ndarray, y: float, rng, m: int) -> np.ndarray:
    """The codes of one block of m runs by the prefix-and-complete law: ⌈m/4⌉
    words give one 16-bit prefix per run, four to a word, low half-word first;
    then each run in a cut bucket (prefix >> 4) reads one more word, in run
    order, whose top 37 bits are the low bits of its uniform.  Every uniform
    is binary-searched; the other runs keep low bits 0, as their bucket has
    one cell."""
    words = rng.integers(0, WORD_MAX, size=-(-m // 4), dtype=np.uint64, endpoint=True)
    prefix = (words[:, None] >> np.arange(0, 64, 16, dtype=np.uint64) & 0xFFFF).ravel()[:m]
    low = np.zeros(m, dtype=np.uint64)
    unsure = cut_buckets(cumulative)[(prefix >> 4).astype(np.intp)]
    low[unsure] = rng.integers(0, WORD_MAX, size=int(unsure.sum()), dtype=np.uint64, endpoint=True) >> (64 - LOW_BITS)
    return searched_codes(cumulative, prefix << LOW_BITS | low, y)


def reference_codes(cumulative: np.ndarray, y: float, rng, n: int) -> np.ndarray:
    """n runs, drawn in blocks of RUN_BLOCK."""
    blocks = [reference_block(cumulative, y, rng, min(RUN_BLOCK, n - start)) for start in range(0, n, RUN_BLOCK)]
    return np.concatenate(blocks)


class ChosenWords:
    """A generator stand-in whose 64-bit words are ``words``, in order, from
    ``integers`` over the whole uint64 range."""

    def __init__(self, words: np.ndarray) -> None:
        self.words, self.used = words, 0

    def integers(self, low, high, size, dtype, endpoint):
        assert (low, high, dtype, endpoint) == (0, WORD_MAX, np.uint64, True)
        self.used += size
        return self.words[self.used - size:self.used]


def drawn_codes(table: tuple, rng, n: int) -> np.ndarray:
    """The codes of ``n`` runs as the estimator draws them: through
    ``_run_codes``, one block of at most ``RUN_BLOCK`` runs at a time, each
    copied before the next overwrites it."""
    y, channel, detector, extended, max_rounds = table
    p = {"y": y, "channel": channel, "detector": detector, "extended": extended}
    return np.concatenate([block.copy() for block in _run_codes(rng, n, p, max_rounds)])


def edge_uniforms(cumulative: np.ndarray, seed: int) -> np.ndarray:
    """53-bit uniforms: the first and last, each bucket's first and the one
    below it, at each cumulative weight c the first uniform that reaches c,
    the one below it and the last with the same prefix, then a block of
    random ones."""
    uniforms = [0, 2**53 - 1]
    for b in range(1, GUIDE_BUCKETS):
        uniforms += [b << 41, (b << 41) - 1]
    for c in cumulative[(cumulative > 0.0) & (cumulative < 1.0)].tolist():
        first = math.ceil(c * 2.0**53)  # c·2⁵³ is exact
        uniforms += [first, first - 1, first | (1 << LOW_BITS) - 1]
    drawn = np.random.default_rng(seed).integers(0, 2**53, size=RUN_BLOCK, dtype=np.uint64)
    return np.concatenate([np.array(uniforms, dtype=np.uint64), drawn])


def words_for(cumulative: np.ndarray, uniforms: np.ndarray, seed: int) -> np.ndarray:
    """The words that make the prefix-and-complete law read ``uniforms``:
    per block, the prefixes packed four to a word, then a word per run in a
    cut bucket carrying its low bits, with random bits below them."""
    cut, junk = cut_buckets(cumulative), np.random.default_rng(seed + 1)
    words = []
    for start in range(0, uniforms.size, RUN_BLOCK):
        block = uniforms[start:start + RUN_BLOCK]
        prefix = np.zeros(-(-block.size // 4) * 4, dtype=np.uint16)
        prefix[:block.size] = block >> LOW_BITS
        low = block[cut[(block >> (LOW_BITS + 4)).astype(np.intp)]] & (1 << LOW_BITS) - 1
        filler = junk.integers(0, 1 << (64 - LOW_BITS), size=low.size, dtype=np.uint64)
        words += [prefix.view(np.uint64), low << (64 - LOW_BITS) | filler]
    return np.concatenate(words)


class TestGuideTable:
    """The run codes drawn through the guide table are a binary search's of
    the prefix-and-complete uniforms, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(table=run_tables(), seed=st.integers(0, 2**32 - 1))
    def test_lookup_equals_searchsorted(self, table, seed):
        _, cumulative, _ = _run_table(*table)
        uniforms = edge_uniforms(cumulative, seed)
        assert uniforms.size > RUN_BLOCK  # the lookup runs over more than one block
        words = words_for(cumulative, uniforms, seed)
        looked_up = ChosenWords(words)
        codes = drawn_codes(table, looked_up, uniforms.size)
        np.testing.assert_array_equal(codes, searched_codes(cumulative, uniforms, table[0]))
        assert looked_up.used == words.size

    @pytest.mark.parametrize("n", [1, 511, 512, 1536, RUN_BLOCK + 5])
    def test_batch_size_picks_no_other_cells(self, n):
        """Any batch size reads the same law: ⌈m/4⌉ prefix words per block of m runs,
        then a word per run in a cut bucket."""
        config = LOSSY_DARK
        args = (config.y, config.channel, config.detector, config.extended_dark_model, 30)
        _, cumulative, _ = _run_table(*args)
        codes = drawn_codes(args, np.random.default_rng(n), n)
        np.testing.assert_array_equal(codes, reference_codes(cumulative, config.y, np.random.default_rng(n), n))

    @pytest.mark.parametrize("n", [1, 1536])
    def test_any_bit_generator_is_read_through_its_words(self, n):
        """The words come from ``rng.integers``, which gives full 64-bit words
        on MT19937 too (its ``random_raw`` gives 32-bit ones)."""
        config = LOSSY_DARK
        args = (config.y, config.channel, config.detector, config.extended_dark_model, 30)
        _, cumulative, _ = _run_table(*args)

        def mt19937():
            return np.random.Generator(np.random.MT19937(n))

        codes = drawn_codes(args, mt19937(), n)
        np.testing.assert_array_equal(codes, reference_codes(cumulative, config.y, mt19937(), n))


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

    @settings(max_examples=150, deadline=None)
    @given(table=run_tables())
    def test_one_round_is_the_round_law(self, table):
        """A run capped at one round is one physical round: its abort, cause
        and not-found masses are the per-round closed forms."""
        y, channel, detector, extended, _ = table
        mass, not_found = self.masses((y, channel, detector, extended, 1))
        codes = cell_codes(y)[:96]
        abort = mass[(codes & RUN_ABORT) != 0].sum()
        expected = honest_abort_closed_form(channel, detector, extended=extended)
        assert abort == pytest.approx(expected, rel=0.0, abs=1e-12)
        rates = round_rates(channel.t_a, channel.t_b, detector, extended)
        band_mass = {
            CAUSE_BOTH: 0.5 * rates.genuine,
            CAUSE_PHOTON_DARK: 2.0 * rates.photon_dark,
            CAUSE_DARK_DARK: 2.0 * rates.dark_dark,
        }
        for cause, expected in band_mass.items():
            assert mass[codes >> RUN_CAUSE_SHIFT == cause].sum() == pytest.approx(expected, rel=0.0, abs=1e-12)
        success = bsm_success_probability(channel, detector, extended=extended)
        assert not_found == pytest.approx(1.0 - success, rel=0.0, abs=1e-12)


def reference_estimate(scenario: str, trials: int, seed: int, **params) -> tuple[float, int]:
    """(mean, trials) of an honest scenario by the prefix-and-complete law, in
    chunks of CHUNK_SIZE trials seeded by SeedSequence(seed, spawn_key=(chunk,)):
    each block of runs, then for ``honest-coin`` b′ of each run of the block,
    one bit each from ⌈m/64⌉ words, low bit of each byte first."""
    config = RunConfig(**{key: params[key] for key in ("channel", "detector") if key in params})
    extended = params.get("extended", False)
    max_rounds = params.get("max_rounds", config.max_rounds)
    _, cumulative, _ = _run_table(config.y, config.channel, config.detector, extended, max_rounds)
    num = den = 0
    for chunk in range(-(-trials // CHUNK_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))
        size = min(CHUNK_SIZE, trials - chunk * CHUNK_SIZE)
        for start in range(0, size, RUN_BLOCK):
            m = min(RUN_BLOCK, size - start)
            codes = reference_block(cumulative, config.y, rng, m)
            if scenario == "honest-run-abort":
                num, den = num + np.count_nonzero(codes & RUN_ABORT), den + m
            else:
                words = rng.integers(0, WORD_MAX, size=-(-m // 64), dtype=np.uint64, endpoint=True)
                b_prime = (words[:, None] >> np.arange(64, dtype=np.uint64) & 1).ravel()[:m]
                accepted = (codes & (RUN_ABORT | RUN_NOT_FOUND)) == 0
                num += np.count_nonzero(accepted & ((codes & RUN_A_BIT) == b_prime))
                den += np.count_nonzero(accepted)
    return num / den, den


LOSSY = dict(channel=LOSSY_DARK.channel, detector=LOSSY_DARK.detector)
FAR = dict(channel=ChannelParams(40.0, 40.0), detector=DetectorParams(eta=0.1, dark=1e-4))
# (scenario, seed, params, mean, trials) of 300,017 trials, frozen from reference_estimate.
PINNED = {
    "lossy": ("honest-run-abort", 0, LOSSY, 0.056283477269621386, 300_017),
    "coin": ("honest-coin", 1, LOSSY, 0.49999293590748867, 283_122),
    "extended": ("honest-coin", 0, dict(LOSSY, extended=True), 0.5006964344009576, 275_690),
    "max-rounds-30": ("honest-run-abort", 2, dict(FAR, max_rounds=30), 3.99977334617705e-05, 300_017),
    "eta-0": (
        "honest-run-abort", 0,
        dict(channel=ChannelParams(5.0, 5.0), detector=DetectorParams(eta=0.0, dark=1e-3)),
        0.24645936730251952, 300_017,
    ),
}
# (scenario, seed, mean) on default (ideal) devices, at 3·CHUNK_SIZE + 17 trials.
IDEAL = {"coin": ("honest-coin", 0, 0.4988524367123615), "run-abort": ("honest-run-abort", 1, 0.0)}
IDEAL_TRIALS = 3 * CHUNK_SIZE + 17


class TestPinnedHonestEstimates:
    """Honest estimates frozen from ``reference_estimate``, a test-local
    implementation of the prefix-and-complete law: the seed→output mapping
    of the honest scenarios moves only with a deliberate change of draws."""

    @pytest.mark.parametrize("case", PINNED)
    def test_estimate_is_unchanged(self, case):
        scenario, seed, params, mean, trials = PINNED[case]
        est = estimate(scenario, trials=300_017, seed=seed, **params)
        assert (est.mean, est.trials) == (mean, trials)

    @pytest.mark.parametrize("case", IDEAL)
    def test_ideal_devices_are_unchanged(self, case):
        """Default (ideal) devices, the configuration of ``attack --adversary none``."""
        scenario, seed, mean = IDEAL[case]
        est = estimate(scenario, trials=IDEAL_TRIALS, seed=seed)
        assert (est.mean, est.trials) == (mean, IDEAL_TRIALS)

    @pytest.mark.parametrize("case", [*PINNED, *(f"ideal-{case}" for case in IDEAL)])
    def test_pins_follow_the_reference_law(self, case):
        if case.startswith("ideal-"):
            scenario, seed, mean = IDEAL[case.removeprefix("ideal-")]
            params, trials, pinned = {}, IDEAL_TRIALS, (mean, None)
        else:
            scenario, seed, params, mean, count = PINNED[case]
            trials, pinned = 300_017, (mean, count)
        reference = reference_estimate(scenario, trials, seed, **params)
        assert reference[0] == pinned[0]
        assert pinned[1] in (None, reference[1])
