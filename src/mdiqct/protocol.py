"""The coin-tossing protocol: one driver per flow, strategies plugged in by role.

One run of the main (measurement-device-independent) flow:

1. A picks a uniform label (α, a) and sends the matching polarization state.
2. B picks his own uniform label (β, b), sends his state, and the black box
   projects the pair onto a Bell state.  On a failure click the parties
   restart from step 1 with fresh randomness.
3. B sends A a uniform random bit b′.
4. A reveals her label.
5. B accepts unless the (outcome, revealed, own-label) triple sits on a
   zero cell of the verification table; on accept the coin is x = a ⊕ b′.

Also provided: the fixed-pulse-count variant for weak-coherent sources, and
a deliberately simplified non-MDI baseline flow (B measures in a random
basis himself) used to demonstrate the detector-control attack that the
MDI design removes.  Weak-coherent runs are drawn as one (n, K) batch of
pulse slots by :func:`sample_weak_coherent_runs`; K is capped at
:data:`MAX_K_PULSES`.

Each flow has one driver for steps 1–2; steps 3–5 are written once for all
of them.  A cheating strategy plays one party: it declares a :class:`Role`,
and the driver calls that role's hooks, listed in :mod:`mdiqct.adversaries`.

Honest runs do not walk their failed rounds.  Rounds are i.i.d., so the
round count is Geometric(p_round) and does not depend on the deciding round,
which is one round drawn from the round model conditioned on success.  An
honest MDI run therefore draws its deciding (label pair, band) cell and then
its round count; the honest baseline likewise draws its round count from
Geometric(t_a·η) and its labels and measurement once.  The estimator reads
the round count only as ``rounds <= max_rounds``, so
:func:`sample_run_codes` draws a whole run as one uniform: a categorical
over the 96 deciding cells, each weighted by P(found), and one cell for the
run that finds no success within ``max_rounds``.  It reads a 16-bit prefix
of that uniform per run, four to a 64-bit word, and completes the uniform
from one more word only for a run whose guide bucket a cell boundary cuts.
A run capped at one round is one physical round, so the per-round estimates
draw the same table with ``max_rounds`` 1.  Every flow draws from the
caller's generator alone.

A rigged box (role ``BLACKBOX``) receives only B's quantum state and emits
only an outcome: B's classical label never flows into it.  Strategies
observe the run through a phase-gated view, so reading b′ before step 3 has
fixed it raises instead of leaking.
"""
from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Optional

import numpy as np

from . import devices
from .devices import ChannelParams, DetectorParams
# sample_photon_number is unused here but stays importable from this module:
# perfbench/tracer.py wraps protocol.sample_photon_number by name.
from .devices import sample_photon_number  # noqa: F401
from .errors import ConfigurationError, ExhaustionError, ParameterError, PhaseOrderError
from .qmath import (
    ALL_LABELS,
    BsmOutcome,
    PureState,
    StateLabel,
    state_for_label,
    validate_int,
    validate_y,
    verification_table,
)

DEFAULT_MAX_ROUNDS = 1_000_000
# The largest pulse count K of a weak-coherent run: a run draws its K slots
# at once, at a peak of 50–80 bytes per slot (tracemalloc at K = 10 and 10⁶).
MAX_K_PULSES = 10**6


class Mode(Enum):
    MDI = "mdi"
    MDI_WEAK_COHERENT = "mdi-weak-coherent"
    BASELINE = "baseline"


class Role(Enum):
    """Which party a strategy plays, or a measurement box colluding with A."""

    ALICE = "alice"
    BOB = "bob"
    BLACKBOX = "blackbox-colluding-with-alice"
    HONEST = "honest"


class Verdict(Enum):
    ACCEPT = "accept"
    ABORT = "abort"


def is_zero_cell(outcome: BsmOutcome, label_a: StateLabel, label_b: StateLabel) -> bool:
    """Whether the verification table assigns probability exactly 0.

    The zero set is the same for every admissible y: the bits must match,
    and the bases match exactly for a Ψ⁻ outcome and differ for Ψ⁺.
    """
    if outcome is BsmOutcome.FAILURE:
        raise ParameterError("verification is only defined for Bell outcomes")
    same_basis = label_a.basis == label_b.basis
    return label_a.bit == label_b.bit and same_basis == (outcome is BsmOutcome.PSI_MINUS)


def verify(outcome: BsmOutcome, revealed: StateLabel, bob: StateLabel, y: float) -> Verdict:
    """B's step-5 check: abort iff the revealed combination is impossible."""
    validate_y(y)
    return Verdict.ABORT if is_zero_cell(outcome, revealed, bob) else Verdict.ACCEPT


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transcript:
    """Full record of one protocol execution."""

    rounds: int
    outcome: Optional[BsmOutcome]
    bob_label: Optional[StateLabel]
    bob_random_bit: Optional[int]
    revealed_label: Optional[StateLabel]
    verdict: Verdict
    coin: Optional[int]
    cause: Optional[str] = None
    pulse_index: Optional[int] = None
    multiphoton_slots: tuple[int, ...] = ()
    adversary_success: Optional[bool] = None

    def __post_init__(self) -> None:
        if (self.coin is not None) != (self.verdict is Verdict.ACCEPT):
            raise ParameterError("coin must be present exactly on accepting transcripts")
        if self.coin is not None:
            if self.revealed_label is None or self.bob_random_bit is None:
                raise ParameterError("accepting transcript is missing reveal or b'")
            if self.coin != (self.revealed_label.bit ^ self.bob_random_bit):
                raise ParameterError("coin must equal revealed bit XOR b'")
        if self.outcome is BsmOutcome.FAILURE:
            raise ParameterError("a completed run cannot record a failure outcome")


def transcript_to_record(t: Transcript) -> dict:
    """Flat dict with stable field names for the line-delimited record stream."""
    return {
        "rounds": t.rounds,
        "outcome": t.outcome.value if t.outcome is not None else None,
        "bob_basis": t.bob_label.basis if t.bob_label is not None else None,
        "bob_bit": t.bob_label.bit if t.bob_label is not None else None,
        "b_prime": t.bob_random_bit,
        "revealed_basis": t.revealed_label.basis if t.revealed_label is not None else None,
        "revealed_bit": t.revealed_label.bit if t.revealed_label is not None else None,
        "verdict": t.verdict.value,
        "coin": t.coin,
        "cause": t.cause,
        "pulse_index": t.pulse_index,
        "multiphoton_slots": list(t.multiphoton_slots),
        "adversary_success": t.adversary_success,
    }


_JSON_STRING = json.encoder.encode_basestring_ascii  # the string encoder of json.dumps


def transcript_json_line(t: Transcript) -> str:
    """One record line, byte for byte ``json.dumps(transcript_to_record(t),
    sort_keys=True, separators=(",", ":"))`` for the plain ints, strings and
    enums a transcript holds, written directly with its keys in sorted order."""
    bob, revealed, success = t.bob_label, t.revealed_label, t.adversary_success
    return (
        f'{{"adversary_success":{"null" if success is None else "true" if success else "false"},'
        f'"b_prime":{"null" if t.bob_random_bit is None else t.bob_random_bit},'
        f'"bob_basis":{"null" if bob is None else bob.basis},'
        f'"bob_bit":{"null" if bob is None else bob.bit},'
        f'"cause":{"null" if t.cause is None else _JSON_STRING(t.cause)},'
        f'"coin":{"null" if t.coin is None else t.coin},'
        f'"multiphoton_slots":[{",".join(map(str, t.multiphoton_slots))}],'
        f'"outcome":{"null" if t.outcome is None else _JSON_STRING(t.outcome.value)},'
        f'"pulse_index":{"null" if t.pulse_index is None else t.pulse_index},'
        f'"revealed_basis":{"null" if revealed is None else revealed.basis},'
        f'"revealed_bit":{"null" if revealed is None else revealed.bit},'
        f'"rounds":{t.rounds},"verdict":{_JSON_STRING(t.verdict.value)}}}'
    )


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the random generator."""

    y: float = 0.9
    channel: ChannelParams = field(default_factory=ChannelParams)
    detector: DetectorParams = field(default_factory=DetectorParams)
    # The mean photon number of both parties' weak-coherent sources; set in
    # weak-coherent mode only, where it is required.
    mu: Optional[float] = None
    max_rounds: int = DEFAULT_MAX_ROUNDS
    mode: Mode = Mode.MDI
    k_pulses: Optional[int] = None
    extended_dark_model: bool = False

    def __post_init__(self) -> None:
        validate_y(self.y)
        validate_int("max_rounds", self.max_rounds, 1)
        if self.mode is Mode.MDI_WEAK_COHERENT:
            validate_int("k_pulses", self.k_pulses, 1, MAX_K_PULSES)
            devices.validate_mu(self.mu)
        elif self.k_pulses is not None:
            raise ParameterError("pulse count K only applies to weak-coherent mode")
        elif self.mu is not None:
            raise ParameterError("mean photon number mu only applies to weak-coherent mode")

    @property
    def is_ideal(self) -> bool:
        """Lossless channel, unit-efficiency detectors, no dark counts."""
        return (self.channel.l_a, self.channel.l_b) == (0.0, 0.0) and self.detector == devices.IDEAL_DETECTOR


def ideal_config(y: float = 0.9, mode: Mode = Mode.MDI, max_rounds: int = DEFAULT_MAX_ROUNDS) -> RunConfig:
    """Perfect channel and detectors; the regime of the cheating analyses."""
    return RunConfig(
        y=y,
        channel=devices.IDEAL_CHANNEL,
        detector=devices.IDEAL_DETECTOR,
        max_rounds=max_rounds,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# Phase-gated view for strategies
# ---------------------------------------------------------------------------

class RunView:
    """What an adversary may observe, released phase by phase.

    The driver fills each slot once the protocol has fixed its value; reading
    it earlier raises :class:`PhaseOrderError`, so a strategy structurally
    cannot condition its early moves on later messages.
    """

    __slots__ = ("_outcome", "_b_prime", "_box_message", "_detection_record")

    def _get(self, slot: str, name: str):
        try:
            return getattr(self, slot)
        except AttributeError:  # the slot is not filled yet
            raise PhaseOrderError(f"{name} is not available in this protocol phase") from None

    @property
    def announced_outcome(self) -> BsmOutcome:
        return self._get("_outcome", "announced_outcome")

    @property
    def b_prime(self) -> int:
        return self._get("_b_prime", "b_prime")

    @property
    def box_message(self):
        """Classical side information smuggled out of a colluding black box."""
        return self._get("_box_message", "box_message")

    @property
    def detection_record(self):
        """Basis/outcome pair leaked by a controlled detector (baseline only)."""
        return self._get("_detection_record", "detection_record")


# ---------------------------------------------------------------------------
# The deciding round of honest MDI play
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _label_tables(y: float) -> tuple[np.ndarray, np.ndarray]:
    """p⁺ and p⁻ by label pair 4·a + b (a, b: A's and B's label indices)."""
    table = verification_table(y)
    p_plus = np.array(table.panel(BsmOutcome.PSI_PLUS)).ravel()
    p_minus = np.array(table.panel(BsmOutcome.PSI_MINUS)).ravel()
    for arr in (p_plus, p_minus):
        arr.setflags(write=False)
    return p_plus, p_minus


# Buckets of the guide table.  A power of two, so u·M and c·M are exact and
# each bucket [b/M, (b+1)/M) has exact bounds.
GUIDE_BUCKETS = 1 << 12

# Honest runs are drawn in blocks of at most RUN_BLOCK runs.  A run reads a
# 16-bit prefix, four to a 64-bit word; the prefix is the top of the run's
# 53-bit uniform, so its guide bucket is prefix >> 4.  Only a run in a cut
# bucket completes its uniform, with the top 37 bits of one more word.
RUN_BLOCK = 1 << 16
_PREFIX_BITS = 16
_BUCKET_SHIFT = _PREFIX_BITS - (GUIDE_BUCKETS.bit_length() - 1)
_LOW_BITS = 53 - _PREFIX_BITS
_WORD_MAX = (1 << 64) - 1
# The bits of a run code (see sample_run_codes): A's bit, the abort and the
# not-found flag, then the deciding band's cause code (devices.CAUSE_*) in the
# two bits from RUN_CAUSE_SHIFT on.
RUN_A_BIT = 1
RUN_ABORT = 2
RUN_NOT_FOUND = 4
RUN_CAUSE_SHIFT = 3
# A bucket code with this bit set marks a bucket that a cumulative weight
# cuts: its words are searched.  Every code below it is some cell's code.
_UNSURE = 0x80

# The run code of each cell: the 96 deciding cells 6·pair + band, then cell
# 96, the run that finds no success (cause 0), then _UNSURE at index 97, which
# a guide entry −1 (a cut bucket) gathers.  A's bit, the zero cells of
# is_zero_cell and the band's cause are the same for every y.
_RUN_CODES = np.array([
    *(
        ALL_LABELS[pair >> 2].bit * RUN_A_BIT
        + is_zero_cell(devices.BAND_SAMPLES[band].outcome, ALL_LABELS[pair >> 2], ALL_LABELS[pair & 3]) * RUN_ABORT
        + (int(devices.BAND_CAUSE[band]) << RUN_CAUSE_SHIFT)
        for pair in range(16)
        for band in range(6)
    ),
    RUN_NOT_FOUND,
    _UNSURE,
], dtype=np.uint8)
_RUN_CODES.setflags(write=False)


def found_probability(p_round: float, max_rounds: Optional[int]) -> float:
    """P(found) = 1 − (1 − p_round)^max_rounds, that a run succeeds within
    ``max_rounds`` rounds; 1 for ``max_rounds`` None."""
    if max_rounds is None or p_round >= 1.0:  # log1p(−1) is a domain error
        return 1.0
    return -math.expm1(max_rounds * math.log1p(-p_round))


@lru_cache(maxsize=32)
def _run_table(
    y: float, channel: ChannelParams, detector: DetectorParams, extended: bool, max_rounds: Optional[int]
) -> tuple[float, np.ndarray, np.ndarray]:
    """The per-round success probability p_round, the cumulative weights of
    the 96 deciding cells, and the uint8 run code of each of the
    ``GUIDE_BUCKETS`` buckets of [0, 1).

    Cell 6·pair + band is a successful (label pair, band) round, pair-major,
    weighted by its share of p_round times :func:`found_probability`.  Cell
    96 holds the rest: the run that finds no success within ``max_rounds``.
    With ``max_rounds`` 1, P(found) is p_round, so each cell weighs its mass
    in one round and cell 96 that of a failed round.  The cell of a uniform
    u is #{c <= u} over the weights c.  A bucket's code is the code of the
    cell of every u in it, or ``_UNSURE`` where a cumulative weight falls
    strictly inside the bucket.
    """
    p_plus, p_minus = _label_tables(y)
    genuine, pd, dd, _ = devices.round_rates(channel.t_a, channel.t_b, detector, extended)
    success = np.column_stack([np.tile((pd, pd, dd, dd), (16, 1)), genuine * p_plus, genuine * p_minus])
    cumulative = np.cumsum(success)
    p_round = float(cumulative[-1]) / 16.0  # uniform pairs: 1/16 each
    if p_round > 0.0:
        cumulative /= cumulative[-1]
        cumulative *= found_probability(p_round, max_rounds)  # times 1 leaves them bit for bit
    # The cell of u is #{c <= u}.  At u = b/M that is #{c·M <= b} = #{ceil(c·M) <= b},
    # and it holds over the whole bucket unless some c·M lies in (b, b+1).
    scaled = cumulative * GUIDE_BUCKETS
    counts = np.bincount(np.ceil(scaled).astype(np.intp), minlength=GUIDE_BUCKETS + 1)
    cell = counts[:GUIDE_BUCKETS].cumsum()
    cell[scaled[scaled % 1.0 != 0.0].astype(np.intp)] = -1
    by_bucket = _RUN_CODES[cell]
    for arr in (cumulative, by_bucket):
        arr.setflags(write=False)
    return p_round, cumulative, by_bucket


_SCRATCH = threading.local()


def _scratch(name: str, dtype, n: int) -> np.ndarray:
    """The first ``n`` items of this thread's buffer ``name``, which later
    calls in the same thread reuse: the estimator's kernels write their
    per-chunk arrays there through ``out=`` instead of allocating them."""
    buffers = vars(_SCRATCH)
    buffer = buffers.get(name)
    if buffer is None or buffer.size < n:
        buffer = buffers[name] = np.empty(n, dtype)
    return buffer[:n]


def _words(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` full-range 64-bit words, from any bit generator.  On a fresh PCG64
    generator their bytes are those of ``rng.integers(0, 256, size=8 * n,
    dtype=np.uint8)``."""
    return rng.integers(0, _WORD_MAX, size=n, dtype=np.uint64, endpoint=True)


def sample_run_codes(
    y: float,
    channel: ChannelParams,
    detector: DetectorParams,
    extended: bool,
    max_rounds: int,
    rng: np.random.Generator,
    out: np.ndarray,
) -> np.ndarray:
    """The uint8 run codes of ``out.size`` <= ``RUN_BLOCK`` independent honest
    MDI runs, written to and returned in ``out``.

    Rounds are i.i.d., so whether a run succeeds within ``max_rounds``
    rounds does not depend on its deciding round, and a run is one draw
    over the 97 cells of :func:`_run_table`.  A run code holds A's bit
    (``RUN_A_BIT``), whether B's check aborts the run (``RUN_ABORT``),
    whether the run finds no success (``RUN_NOT_FOUND``) and the event cause
    of its deciding round (``code >> RUN_CAUSE_SHIFT``, 0 for a run with no
    success), which is all the estimator reads of a run.  With ``max_rounds``
    1 a run is one physical round, and its code that round's.

    The block first reads one 16-bit prefix per run, four to a word
    (little-endian): the top 16 bits of the run's 53-bit uniform u, whose
    guide bucket is prefix >> 4.  Each run in a bucket that a cumulative
    weight cuts then reads one more word, in run order, whose top 37 bits
    complete u, and u is binary-searched.  So the cell of every run follows
    exactly the law of ``cumulative.searchsorted(rng.random(), side="right")``,
    from about 16 bits per run.
    """
    _, cumulative, by_bucket = _run_table(y, channel, detector, extended, max_rounds)
    m = out.size
    index = _scratch("run-index", np.intp, m)
    prefix = _words(rng, -(-m // 4)).view(np.uint16)[:m]
    np.right_shift(prefix, _BUCKET_SHIFT, out=index)
    np.take(by_bucket, index, out=out, mode="clip")  # clip: out is written unbuffered
    unsure = np.flatnonzero(np.greater_equal(out, _UNSURE, out=_scratch("run-cut", np.bool_, m)))
    low = _words(rng, unsure.size) >> (64 - _LOW_BITS)
    u = ((prefix[unsure].astype(np.uint64) << _LOW_BITS) | low) * 2.0**-53
    out[unsure] = _RUN_CODES[cumulative.searchsorted(u, side="right")]
    return out


# ---------------------------------------------------------------------------
# Steps 3–5, shared by every flow
# ---------------------------------------------------------------------------

class _Run:
    """One execution in progress; ``strategy`` is None for honest play."""

    __slots__ = ("config", "strategy", "role", "view", "rng")

    def __init__(self, config: RunConfig, strategy, rng: np.random.Generator) -> None:
        self.config = config
        self.strategy = strategy
        self.role = Role.HONEST if strategy is None else strategy.role
        self.view = RunView()
        self.rng = rng

    def finish(
        self,
        rounds: int,
        outcome: Optional[BsmOutcome],
        alice: Optional[StateLabel],
        bob: Optional[StateLabel],
        cause: Optional[str],
        **record,
    ) -> Transcript:
        """Steps 3–5: b′, A's reveal, B's check, and the coin.

        ``alice`` is None when a strategy plays A: she reveals whatever fits
        b′.  ``bob`` is None when a strategy plays B: he steers b′ from his
        measurement of A's photon and, being the verifier, never aborts.
        ``outcome`` is None in the baseline flow, which has no box.
        """
        view, strategy, rng = self.view, self.strategy, self.rng
        if self.role is Role.BOB:
            alice_state = state_for_label(alice, self.config.y)
            b_prime, guessed_bit = strategy.choose_b_prime(view, alice_state, rng)
            cause = "med-correct" if guessed_bit == alice.bit else "med-wrong"
        else:
            b_prime = int(rng.integers(2))
        view._b_prime = b_prime
        revealed = alice if alice is not None else strategy.reveal(view, rng)

        if bob is None:
            verdict = Verdict.ACCEPT
        elif outcome is None:  # baseline: B measured A's photon himself
            caught = bob.basis == revealed.basis and bob.bit != revealed.bit
            verdict = Verdict.ABORT if caught else Verdict.ACCEPT
        else:
            verdict = verify(outcome, revealed, bob, self.config.y)
        coin = (revealed.bit ^ b_prime) if verdict is Verdict.ACCEPT else None
        return Transcript(
            rounds=rounds,
            outcome=outcome,
            bob_label=bob,
            bob_random_bit=b_prime,
            revealed_label=revealed,
            verdict=verdict,
            coin=coin,
            cause=cause,
            adversary_success=(
                None if self.role is Role.HONEST
                else verdict is Verdict.ACCEPT and coin == strategy.target_coin
            ),
            **record,
        )


# ---------------------------------------------------------------------------
# The MDI flow
# ---------------------------------------------------------------------------

def _run_mdi(config: RunConfig, strategy, rng: np.random.Generator) -> Transcript:
    """Steps 1–2 of the main flow, then the shared steps 3–5.

    Honest play draws its deciding (label pair, band) cell from
    :func:`_run_table` with P(found) = 1, then its Geometric(p_round) round
    count; failed rounds are not walked.
    In role ``ALICE`` A sends whatever ``prepare`` returns, which the honest
    success table does not describe, so her rounds are walked one by one.
    In role ``BLACKBOX`` her own rigged box replaces the projection:
    ``box_process`` receives B's state and the run's y, never his label,
    announces an outcome and smuggles a guess of B's label to A.
    """
    run = _Run(config, strategy, rng)
    view, y = run.view, config.y
    if run.role is Role.BLACKBOX:
        # The rigged box always announces a Bell outcome, so no round fails.
        bob = ALL_LABELS[rng.integers(4)]
        outcome, guess = strategy.box_process(view, state_for_label(bob, y), y, rng)
        view._outcome = outcome
        view._box_message = guess
        return run.finish(1, outcome, None, bob, "med-correct" if guess == bob else "med-wrong")

    if run.role is Role.HONEST:
        p_round, cumulative, _ = _run_table(y, config.channel, config.detector, config.extended_dark_model, None)
        if p_round <= 0.0:
            raise ExhaustionError(f"no successful projection within {config.max_rounds} rounds")
        # The deciding cell, then the round count: a binary search of one
        # uniform, the law that sample_run_codes draws from fewer bits.
        pair, band = divmod(int(cumulative.searchsorted(rng.random(), side="right")), 6)
        rounds = int(rng.geometric(p_round))
        alice, bob, sample = ALL_LABELS[pair >> 2], ALL_LABELS[pair & 3], devices.BAND_SAMPLES[band]
    else:
        alice, rounds, sample = None, 0, devices.BAND_SAMPLES[devices.FAILURE_BAND]
        while sample.outcome is BsmOutcome.FAILURE and rounds <= config.max_rounds:
            rounds += 1
            state_a = strategy.prepare(view, rng)
            bob = ALL_LABELS[rng.integers(4)]
            sample = devices.sample_bsm_noisy(
                state_a, state_for_label(bob, y), config.channel, config.detector, rng,
                extended=config.extended_dark_model,
            )
    if rounds > config.max_rounds:
        raise ExhaustionError(f"no successful projection within {config.max_rounds} rounds")
    view._outcome = sample.outcome
    return run.finish(rounds, sample.outcome, alice, bob, sample.cause.value)


def run_honest(config: RunConfig, rng: np.random.Generator) -> Transcript:
    """One honest execution of the main flow.

    Failed rounds are not simulated: the deciding round and the round count
    are drawn directly (see :func:`_run_mdi`), which is exact because rounds
    are i.i.d.  A run whose round count exceeds ``config.max_rounds``, or in
    which no round can succeed, raises :class:`ExhaustionError`.
    """
    if config.mode is not Mode.MDI:
        raise ConfigurationError(f"run_honest requires mdi mode, got {config.mode.value}")
    return _run_mdi(config, None, rng)


@lru_cache(maxsize=32)
def _slot_band_edges(
    y: float, channel: ChannelParams, detector: DetectorParams, extended: bool
) -> np.ndarray:
    """Upper edges of the six success bands of one weak-coherent slot, shape (6, 64).

    Column 32·(A's pulse non-empty) + 16·(B's pulse non-empty) + (label pair
    4·a + b) holds the band edges of the :func:`~mdiqct.devices.round_rates`
    table in band order, an empty pulse having transmittance 0.  The band of
    a uniform u is the number of edges at or below u; 6 is the failure band.
    """
    p_plus, p_minus = _label_tables(y)
    blocks = []
    for t_a in (0.0, channel.t_a):
        for t_b in (0.0, channel.t_b):
            rates = devices.round_rates(t_a, t_b, detector, extended)
            plus_cut = rates.dark_cuts[3] + rates.genuine * p_plus
            dark = [np.full(16, cut) for cut in rates.dark_cuts]
            blocks.append([*dark, plus_cut, plus_cut + rates.genuine * p_minus])
    edges = np.concatenate(blocks, axis=1)
    edges.setflags(write=False)
    return edges


def sample_weak_coherent_runs(config: RunConfig, rng: np.random.Generator, n: int) -> list[Transcript]:
    """``n`` independent runs of the fixed-pulse-count weak-coherent variant.

    Steps 1–2 of all n runs are drawn as one (n, K) batch of pulse slots,
    one draw of each kind for the whole batch, in this order: the label
    pair 4·a + b of every slot (A's and B's label indices, uniform), A's
    photon numbers, B's photon numbers (both Poissonian with mean μ),
    and one uniform per slot that picks the slot's band of the round table
    (see :func:`_slot_band_edges`).  The first successful slot j decides the
    run: its ``rounds`` and ``pulse_index`` are j, its ``cause`` the band's
    event cause.  A run without one aborts after all K slots with cause
    ``no-bsm-success``.  ``multiphoton_slots`` lists every slot in which
    either pulse held two or more photons.  Steps 3–5 of the runs with a
    success then follow in row order.
    """
    if config.mode is not Mode.MDI_WEAK_COHERENT:
        raise ConfigurationError(f"weak-coherent runs require weak-coherent mode, got {config.mode.value}")
    validate_int("n", n, 0)
    k = int(config.k_pulses)
    edges = _slot_band_edges(config.y, config.channel, config.detector, config.extended_dark_model)
    pair = rng.integers(16, size=(n, k))
    photons_a = rng.poisson(config.mu, size=(n, k))
    photons_b = rng.poisson(config.mu, size=(n, k))
    u = rng.random((n, k))

    column = pair + 32 * (photons_a > 0) + 16 * (photons_b > 0)
    success = u < edges[devices.FAILURE_BAND - 1][column]
    rows = np.arange(n)
    first = success.argmax(axis=1)  # the first successful slot, or 0 if none
    found = success[rows, first]
    first_column = column[rows, first]
    band = (u[rows, first] >= edges[:, first_column]).sum(axis=0)
    multi_rows, multi_slots = np.nonzero((photons_a >= 2) | (photons_b >= 2))
    ends = np.searchsorted(multi_rows, rows, side="right").tolist()
    multi_slots = (multi_slots + 1).tolist()

    run = _Run(config, None, rng)  # honest play: its view is never read, so one serves every row
    transcripts = []
    start = 0
    for ok, slot, cell_pair, cell_band, end in zip(
        found.tolist(), (first + 1).tolist(), (first_column & 15).tolist(), band.tolist(), ends
    ):
        multiphoton, start = tuple(multi_slots[start:end]), end
        if not ok:
            transcripts.append(Transcript(
                rounds=k, outcome=None, bob_label=None, bob_random_bit=None, revealed_label=None,
                verdict=Verdict.ABORT, coin=None, cause="no-bsm-success", multiphoton_slots=multiphoton,
            ))
            continue
        sample = devices.BAND_SAMPLES[cell_band]
        transcripts.append(run.finish(
            slot, sample.outcome, ALL_LABELS[cell_pair >> 2], ALL_LABELS[cell_pair & 3], sample.cause.value,
            pulse_index=slot, multiphoton_slots=multiphoton,
        ))
    return transcripts


def run_weak_coherent(config: RunConfig, rng: np.random.Generator) -> Transcript:
    """One run of the fixed-pulse-count variant for weak-coherent sources.

    Both parties emit K pulse slots with fresh labels per slot; the first
    slot with a successful projection (index j) carries the labels used in
    the remaining steps.  If every slot fails the run aborts, so this
    variant is not loss tolerant.  Multi-photon emissions are treated as
    "photon present" (no multi-photon interference model) and their slot
    indices are flagged on the transcript.  This is the one-run batch of
    :func:`sample_weak_coherent_runs`, which documents the draws.
    """
    return sample_weak_coherent_runs(config, rng, 1)[0]


# ---------------------------------------------------------------------------
# The baseline (non-MDI) flow
# ---------------------------------------------------------------------------

def _measure_in_basis(state: PureState, basis: int, y: float, rng: np.random.Generator) -> int:
    """Projective measurement in one preparation basis; returns the bit."""
    p0 = abs(state.overlap(state_for_label(ALL_LABELS[2 * basis], y))) ** 2
    return 0 if rng.random() < p0 else 1


def _run_baseline(config: RunConfig, strategy, rng: np.random.Generator) -> Transcript:
    """Simplified direct-measurement flow used to stage detector attacks.

    A sends her state straight to B, who measures in a uniformly random
    preparation basis; honest play draws the number of pulses up to the
    first detection as Geometric(t_a·η), then the labels and the
    measurement of the detected pulse.  After the reveal, B aborts iff he
    measured in A's basis and recorded the orthogonal bit.  This check is a
    deliberate simplification: it is just strong enough to show that a
    detector-controlling A evades it completely while the MDI flow gives
    her no such handle.  In role ``ALICE`` she owns B's detection:
    ``control_detection`` fixes the recorded bit, and she learns it
    together with B's basis.
    """
    run = _Run(config, strategy, rng)
    if run.role is Role.ALICE:
        # Every controlled detection succeeds, so no round is resent.
        bob_basis = int(rng.integers(2))
        recorded = run.strategy.control_detection(run.view, bob_basis, rng)
        run.view._detection_record = (bob_basis, recorded)
        # StateLabel checks the bit that the strategy chose.
        return run.finish(1, None, None, StateLabel(bob_basis, recorded), "controlled-detection")

    detect_prob = config.channel.t_a * config.detector.eta
    rounds = int(rng.geometric(detect_prob)) if detect_prob > 0.0 else None
    if rounds is None or rounds > config.max_rounds:
        raise ExhaustionError(f"no detection within {config.max_rounds} rounds")
    alice = ALL_LABELS[rng.integers(4)]
    bob_basis = int(rng.integers(2))
    recorded = _measure_in_basis(state_for_label(alice, config.y), bob_basis, config.y, rng)
    return run.finish(rounds, None, alice, ALL_LABELS[2 * bob_basis + recorded], "baseline-detection")


def run_baseline(
    config: RunConfig,
    strategy=None,
    rng: Optional[np.random.Generator] = None,
) -> Transcript:
    """One run of the baseline flow, honest or with ``strategy`` playing a party."""
    if rng is None:
        raise ParameterError("run_baseline requires a random generator")
    if config.mode is not Mode.BASELINE:
        raise ConfigurationError(f"run_baseline requires baseline mode, got {config.mode.value}")
    if strategy is not None:
        return run_with_adversary(config, strategy, rng)
    return _run_baseline(config, None, rng)


# ---------------------------------------------------------------------------
# Dishonest B, in either flow
# ---------------------------------------------------------------------------

def _run_dishonest_bob(config: RunConfig, strategy, rng: np.random.Generator) -> Transcript:
    """B measures A's photon in his own lab instead of joining a projection.

    In the MDI flow he announces Ψ⁺ as if the box had succeeded; the
    baseline flow announces no outcome.  He steers b′ at step 3.
    """
    run = _Run(config, strategy, rng)
    alice = ALL_LABELS[rng.integers(4)]
    outcome = BsmOutcome.PSI_PLUS if config.mode is Mode.MDI else None
    if outcome is not None:
        run.view._outcome = outcome
    return run.finish(1, outcome, alice, None, None)


# ---------------------------------------------------------------------------
# Routing a strategy to its flow
# ---------------------------------------------------------------------------

# (mode, role) -> (driver, whether the strategy is analysed for ideal devices
# only).  The cheating analyses grant the dishonest party perfect devices;
# detector control is modelled at the information level and runs on any.
_ROUTES = {
    (Mode.MDI, Role.HONEST): (_run_mdi, False),
    (Mode.MDI, Role.ALICE): (_run_mdi, True),
    (Mode.MDI, Role.BLACKBOX): (_run_mdi, True),
    (Mode.MDI, Role.BOB): (_run_dishonest_bob, True),
    (Mode.BASELINE, Role.HONEST): (_run_baseline, False),
    (Mode.BASELINE, Role.ALICE): (_run_baseline, False),
    (Mode.BASELINE, Role.BOB): (_run_dishonest_bob, True),
}


def run_with_adversary(config: RunConfig, strategy, rng: np.random.Generator) -> Transcript:
    """Run the protocol with one party's messages produced by a strategy.

    The honest counterpart follows the normal flow.  The strategy declares
    its role and the modes it applies to; a mismatch (for example attaching
    the detector-control attack to the MDI flow, which exposes no
    detection-control channel) is a configuration error.
    """
    route = _ROUTES.get((config.mode, strategy.role))
    if route is None or config.mode not in strategy.supported_modes:
        raise ConfigurationError(
            f"strategy {strategy.name!r} does not apply to mode {config.mode.value!r}"
        )
    driver, ideal_only = route
    if ideal_only and not config.is_ideal:
        raise ConfigurationError(
            f"strategy {strategy.name!r} is analyzed for ideal devices; "
            "use zero fiber lengths, eta 1 and dark 0"
        )
    return driver(config, strategy, rng)
