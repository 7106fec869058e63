"""The coin-tossing protocol: one engine per flow, strategies plugged in by role.

One run of the main (measurement-device-independent) flow:

1. A picks a uniform label (α, a) and sends the matching polarization state.
2. B picks his own uniform label (β, b), sends his state, and the black box
   projects the pair onto a Bell state.  On a failure click the parties
   restart from step 1 with fresh randomness.
3. B sends A a uniform random bit b′.
4. A reveals her label.
5. B accepts unless the (outcome, revealed, own-label) triple sits on a
   zero cell of the verification table; on accept the coin is x = a ⊕ b′.

Also provided: the fixed-pulse-count variant for weak-coherent sources (K
capped at :data:`MAX_K_PULSES`), and a deliberately simplified non-MDI
baseline flow (B measures in a random basis himself) used to demonstrate the
detector-control attack that the MDI design removes.

Each flow route (mode, role) is written once, for one run or a batch: its
steps 1–2, then the steps 3–5 that every route shares.  A cheating strategy
plays one party: it declares a :class:`Role`, and the route calls that
role's hooks, listed in :mod:`mdiqct.adversaries`.  Each stage makes one
draw per kind, for the rows that need it, in row order; numpy's array draws
equal the same number of scalar draws, so a one-run batch draws exactly as a
single run.  The single-run functions (:func:`run_honest`,
:func:`run_baseline`, :func:`run_with_adversary`) play one run;
:func:`sample_runs` and :func:`sample_run_lines` a batch.

Honest runs do not walk their failed rounds.  Rounds are i.i.d., so the
round count is Geometric(p_round) and does not depend on the deciding round,
which is one round drawn from the round model conditioned on success.  The
estimator reads the round count only as ``rounds <= max_rounds``, so
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
    bell_projection_probs,
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
    return _record_line(t.rounds, t.outcome, t.bob_label, t.bob_random_bit, t.revealed_label, t.verdict,
                        t.coin, t.cause, t.pulse_index, t.multiphoton_slots, t.adversary_success)


def _record_line(rounds, outcome, bob, b_prime, revealed, verdict, coin, cause, pulse_index, slots, success) -> str:
    """The record writer: one line from a transcript's fields, in field order."""
    return (
        f'{{"adversary_success":{"null" if success is None else "true" if success else "false"},'
        f'"b_prime":{"null" if b_prime is None else b_prime},'
        f'"bob_basis":{"null" if bob is None else bob.basis},'
        f'"bob_bit":{"null" if bob is None else bob.bit},'
        f'"cause":{"null" if cause is None else _JSON_STRING(cause)},'
        f'"coin":{"null" if coin is None else coin},'
        f'"multiphoton_slots":[{",".join(map(str, slots))}],'
        f'"outcome":{"null" if outcome is None else _JSON_STRING(outcome.value)},'
        f'"pulse_index":{"null" if pulse_index is None else pulse_index},'
        f'"revealed_basis":{"null" if revealed is None else revealed.basis},'
        f'"revealed_bit":{"null" if revealed is None else revealed.bit},'
        f'"rounds":{rounds},"verdict":{_JSON_STRING(verdict.value)}}}'
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

    The engine fills each slot once the protocol has fixed its value:
    ``announced_outcome`` (the box's outcome code), ``b_prime``,
    ``box_message`` (side information smuggled out of a colluding box) and
    ``detection_record`` (B's basis and recorded bit, leaked by a controlled
    detector in the baseline flow).  Reading a slot earlier raises
    :class:`PhaseOrderError`, so a strategy structurally cannot condition
    its early moves on later messages.  ``size`` is the number of runs the
    current hook call plays, or None for one run: each slot then holds a
    scalar, else an array with one entry per run.
    """

    __slots__ = ("size", "announced_outcome", "b_prime", "box_message", "detection_record")

    def __init__(self, size: Optional[int] = None) -> None:
        self.size = size

    def __getattr__(self, name: str):
        # Called only for a name that is not set: an unfilled slot, or no slot at all.
        if name in RunView.__slots__:
            raise PhaseOrderError(f"{name} is not available in this protocol phase")
        raise AttributeError(name)


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
# Labels, states and draws for one run or a batch
# ---------------------------------------------------------------------------

# A flow's stages use the same code for one run and for a batch: values are
# scalars for one run (``size`` None) and arrays with one entry per row for a
# batch.  Labels are flat indices 2·basis + bit, outcomes the codes of
# devices.OUTCOME_*, and -1 stands for a field the run does not have.

@lru_cache(maxsize=32)
def _label_states(y: float) -> tuple[tuple[PureState, ...], PureState, np.ndarray]:
    """The four label states at y: one by one, as one batch of four, and
    the table |⟨label i|label j⟩|²."""
    states = tuple(state_for_label(label, y) for label in ALL_LABELS)
    batch = PureState(np.array([s.amp_h for s in states]), np.array([s.amp_v for s in states]))
    overlaps = np.array([[abs(a.overlap(b)) ** 2 for b in states] for a in states])
    for arr in (batch.amp_h, batch.amp_v, overlaps):
        arr.setflags(write=False)
    return states, batch, overlaps


def label_states(y: float, label=None) -> PureState:
    """The state of label index ``label`` at y; for an index array, the
    batch of states, one per row; for None, the four as one batch."""
    states, batch, _ = _label_states(y)
    if label is None:
        return batch
    if isinstance(label, np.ndarray):
        return PureState(batch.amp_h[label], batch.amp_v[label])
    return states[label]


def uniform_ints(rng: np.random.Generator, k: int, size: Optional[int]):
    """Uniform integers in [0, k): a Python int for one run (``size`` None),
    whose arithmetic is cheaper than a numpy scalar's, else an array."""
    drawn = rng.integers(k, size=size)
    return int(drawn) if size is None else drawn


def draw_where(mask, draw, fill):
    """``draw(k)`` for the k rows where ``mask`` holds, in row order, and
    ``fill`` in the other rows; for one run, ``draw(None)`` if ``mask``
    holds, else ``fill``.  A stage draws only for the rows that need it."""
    if not isinstance(mask, np.ndarray):
        return draw(None) if mask else fill
    out = np.array(np.broadcast_to(fill, mask.shape))
    out[mask] = draw(np.count_nonzero(mask))
    return out


def _check_rounds(rounds, max_rounds: int, message: str) -> None:
    """Raise :class:`ExhaustionError` if any run took more than ``max_rounds`` rounds."""
    if (rounds.max(initial=0) if isinstance(rounds, np.ndarray) else rounds) > max_rounds:
        raise ExhaustionError(f"{message} within {max_rounds} rounds")


# Causes by code: the band causes at their devices.CAUSE_* codes, then the
# causes that attacks and the other flows write.
CAUSES = (
    None, "both-photons", "photon+dark", "dark+dark",
    "med-correct", "med-wrong", "controlled-detection", "baseline-detection", "no-bsm-success",
)
_MED_CORRECT, _CONTROLLED, _DETECTED, _NO_SUCCESS = 4, 6, 7, 8  # med-wrong is _MED_CORRECT + 1


# ---------------------------------------------------------------------------
# Steps 3–5, shared by every flow
# ---------------------------------------------------------------------------

# The fields of one run (scalars) or of a batch (arrays, or a scalar that
# every row shares), as a plain tuple: rounds, outcome, B's label, b′, the
# revealed label, whether B accepts, the cause code, and the adversary's
# success (None for honest play); weak-coherent runs add the pulse index and
# the multiphoton slots.
_Rows = tuple


def _finish(config: RunConfig, strategy, view: RunView, rng: np.random.Generator,
            rounds, outcome, alice, bob, cause) -> _Rows:
    """Steps 3–5: b′, A's reveal, B's check, and the coin.

    ``alice`` is None when a strategy plays A: she reveals whatever fits b′.
    ``bob`` is -1 when a strategy plays B: he steers b′ from his measurement
    of A's photon and, being the verifier, never aborts.  ``outcome`` is 0
    in the baseline flow, which has no box.
    """
    role = Role.HONEST if strategy is None else strategy.role
    if role is Role.BOB:
        b_prime, guessed_bit = strategy.choose_b_prime(view, label_states(config.y, alice), rng)
        cause = _MED_CORRECT + (guessed_bit != (alice & 1))
    else:
        b_prime = uniform_ints(rng, 2, view.size)
    view.b_prime = b_prime
    revealed = alice if alice is not None else strategy.reveal(view, rng)
    # B aborts on a zero cell of the verification table, where the XOR of the
    # revealed and B's label index is 2 for Ψ⁺ (code 1: same bit, other basis)
    # and 0 for Ψ⁻ (code 2), see is_zero_cell; in the baseline flow (code 0) he
    # aborts on the same basis with the other bit, XOR 1.  A dishonest B's
    # label is -1, whose XOR with any label is negative: he never aborts.
    accept = (revealed ^ bob) != (outcome + 1) % 3
    success = None if role is Role.HONEST else accept & (((revealed & 1) ^ b_prime) == strategy.target_coin)
    return rounds, outcome, bob, b_prime, revealed, accept, cause, success


# ---------------------------------------------------------------------------
# The MDI flow, steps 1–2
# ---------------------------------------------------------------------------

def _mdi_honest(config: RunConfig, strategy, view: RunView, rng: np.random.Generator) -> _Rows:
    """Honest play draws its deciding (label pair, band) cell from
    :func:`_run_table` with P(found) = 1, then its Geometric(p_round) round
    count; failed rounds are not walked."""
    p_round, cumulative, _ = _run_table(
        config.y, config.channel, config.detector, config.extended_dark_model, None
    )
    if p_round <= 0.0:
        raise ExhaustionError(f"no successful projection within {config.max_rounds} rounds")
    # The deciding cell, then the round count: a binary search of one
    # uniform, the law that sample_run_codes draws from fewer bits.
    pair, band = divmod(cumulative.searchsorted(rng.random(view.size), side="right"), 6)
    rounds = rng.geometric(p_round, view.size)
    _check_rounds(rounds, config.max_rounds, "no successful projection")
    outcome = view.announced_outcome = devices.BAND_OUTCOME[band]
    return _finish(config, strategy, view, rng, rounds, outcome, pair >> 2, pair & 3, devices.BAND_CAUSE[band])


def _mdi_alice(config: RunConfig, strategy, view: RunView, rng: np.random.Generator) -> _Rows:
    """A sends whatever ``prepare`` returns, which the honest success table
    does not describe, so rounds are walked: each round, every run still
    without a success calls ``prepare`` (with ``view.size`` its number of
    runs), draws B's label and draws its band."""
    rates = devices.round_rates(config.channel.t_a, config.channel.t_b, config.detector, config.extended_dark_model)
    size = view.size
    pending = None if size is None else np.arange(size)
    if pending is not None:
        rounds, bob, band = (np.zeros(size, np.int64) for _ in range(3))
    for round_index in range(1, config.max_rounds + 1):
        view.size = None if pending is None else pending.size
        state = strategy.prepare(view, rng)
        label = uniform_ints(rng, 4, view.size)
        drawn = devices.bsm_band(rng.random(view.size), rates,
                                 *bell_projection_probs(state, label_states(config.y, label)))
        if pending is None:
            if drawn != devices.FAILURE_BAND:
                rounds, bob, band = round_index, label, drawn
                break
            continue
        done = drawn != devices.FAILURE_BAND
        rounds[pending[done]], bob[pending[done]], band[pending[done]] = round_index, label[done], drawn[done]
        pending = pending[~done]
        if not pending.size:
            break
    else:
        raise ExhaustionError(f"no successful projection within {config.max_rounds} rounds")
    view.size = size
    outcome = view.announced_outcome = devices.BAND_OUTCOME[band]
    return _finish(config, strategy, view, rng, rounds, outcome, None, bob, devices.BAND_CAUSE[band])


def _mdi_box(config: RunConfig, strategy, view: RunView, rng: np.random.Generator) -> _Rows:
    """A's own rigged box replaces the projection: ``box_process`` receives
    B's state and the run's y, never his label, announces an outcome and
    smuggles a guess of B's label to A.  It always announces a Bell outcome,
    so no round fails."""
    bob = uniform_ints(rng, 4, view.size)
    outcome, guess = strategy.box_process(view, label_states(config.y, bob), config.y, rng)
    view.announced_outcome, view.box_message = outcome, guess
    return _finish(config, strategy, view, rng, 1, outcome, None, bob, _MED_CORRECT + (guess != bob))


def _dishonest_bob(config: RunConfig, strategy, view: RunView, rng: np.random.Generator) -> _Rows:
    """B measures A's photon in his own lab instead of joining a projection.

    In the MDI flow he announces Ψ⁺ as if the box had succeeded; the
    baseline flow announces no outcome.  He steers b′ at step 3.
    """
    alice = uniform_ints(rng, 4, view.size)
    outcome = devices.OUTCOME_PSI_PLUS if config.mode is Mode.MDI else 0
    if outcome:
        view.announced_outcome = outcome
    return _finish(config, strategy, view, rng, 1, outcome, alice, -1, None)


# ---------------------------------------------------------------------------
# The weak-coherent flow
# ---------------------------------------------------------------------------

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


def _weak_coherent(config: RunConfig, strategy, view: RunView, rng: np.random.Generator) -> _Rows:
    """Steps 1–2 of all runs as one (n, K) batch of pulse slots, one draw of
    each kind for the whole batch, in this order: the label pair 4·a + b of
    every slot (A's and B's label indices, uniform), A's photon numbers, B's
    photon numbers (both Poissonian with mean μ), and one uniform per slot
    that picks the slot's band of the round table (see
    :func:`_slot_band_edges`).  The first successful slot j decides the run:
    its ``rounds`` and ``pulse_index`` are j, its ``cause`` the band's event
    cause.  A run without one aborts after all K slots with cause
    ``no-bsm-success``.  ``multiphoton_slots`` lists every slot in which
    either pulse held two or more photons.  Steps 3–5 of the runs with a
    success then follow, as one batch.  One run draws the K slots of the
    one-run batch.
    """
    n, k = view.size, int(config.k_pulses)
    edges = _slot_band_edges(config.y, config.channel, config.detector, config.extended_dark_model)
    pair = rng.integers(16, size=(n or 1, k))
    photons_a = rng.poisson(config.mu, size=(n or 1, k))
    photons_b = rng.poisson(config.mu, size=(n or 1, k))
    u = rng.random((n or 1, k))

    column = pair + 32 * (photons_a > 0) + 16 * (photons_b > 0)
    success = u < edges[devices.FAILURE_BAND - 1][column]
    if n is None:
        first, slots = int(success[0].argmax()), ((photons_a[0] >= 2) | (photons_b[0] >= 2)).nonzero()[0]
        multiphoton = tuple((slots + 1).tolist())
        if not success[0, first]:
            return k, 0, -1, -1, -1, False, _NO_SUCCESS, None, -1, multiphoton
        cell = int(column[0, first])
        band = int((u[0, first] >= edges[:, cell]).sum())
        decided = _finish(config, strategy, view, rng, first + 1, int(devices.BAND_OUTCOME[band]),
                          (cell & 15) >> 2, cell & 3, int(devices.BAND_CAUSE[band]))
        return (*decided, first + 1, multiphoton)
    rows = np.arange(n)
    first = success.argmax(axis=1)  # the first successful slot, or 0 if none
    found = success[rows, first]
    first = first[found]
    cell = column[found, first]
    band = (u[found, first] >= edges[:, cell]).sum(axis=0)
    decided = _finish(
        config, strategy, RunView(first.size), rng, first + 1, devices.BAND_OUTCOME[band],
        (cell & 15) >> 2, cell & 3, devices.BAND_CAUSE[band],
    )
    # Runs without a success keep these fields: K rounds, no outcome or labels, an abort.
    fields = np.array([k, 0, -1, -1, -1, 0, _NO_SUCCESS, -1])[:, None].repeat(n, axis=1)
    fields[:, found] = [*decided[:7], first + 1]
    multi_rows, multi_slots = np.nonzero((photons_a >= 2) | (photons_b >= 2))
    ends = np.searchsorted(multi_rows, rows, side="right").tolist()
    multi_slots = (multi_slots + 1).tolist()
    multiphoton = [tuple(multi_slots[start:end]) for start, end in zip([0, *ends], ends)]
    return (*fields[:7], None, fields[7], multiphoton)


# ---------------------------------------------------------------------------
# The baseline (non-MDI) flow, steps 1–2
# ---------------------------------------------------------------------------

def _baseline_honest(config: RunConfig, strategy, view: RunView, rng: np.random.Generator) -> _Rows:
    """Simplified direct-measurement flow used to stage detector attacks.

    A sends her state straight to B, who measures in a uniformly random
    preparation basis; honest play draws the number of pulses up to the
    first detection as Geometric(t_a·η), then A's label, B's basis and the
    Born outcome of the detected pulse.  After the reveal, B aborts iff he
    measured in A's basis and recorded the orthogonal bit.  This check is a
    deliberate simplification: it is just strong enough to show that a
    detector-controlling A evades it completely while the MDI flow gives
    her no such handle.
    """
    detect_prob = config.channel.t_a * config.detector.eta
    if detect_prob <= 0.0:
        raise ExhaustionError(f"no detection within {config.max_rounds} rounds")
    size = view.size
    rounds = rng.geometric(detect_prob, size)
    _check_rounds(rounds, config.max_rounds, "no detection")
    alice = uniform_ints(rng, 4, size)
    bob_basis = uniform_ints(rng, 2, size)
    # B records bit 0 with probability |⟨φ_{β,0}|φ_A⟩|².
    recorded = rng.random(size) >= _label_states(config.y)[2][alice, 2 * bob_basis]
    return _finish(config, strategy, view, rng, rounds, 0, alice, 2 * bob_basis + recorded, _DETECTED)


def _baseline_alice(config: RunConfig, strategy, view: RunView, rng: np.random.Generator) -> _Rows:
    """A owns B's detection: ``control_detection`` fixes the recorded bit,
    and she learns it together with B's basis.  Every controlled detection
    succeeds, so no round is resent."""
    bob_basis = uniform_ints(rng, 2, view.size)
    recorded = strategy.control_detection(view, bob_basis, rng)
    view.detection_record = (bob_basis, recorded)
    return _finish(config, strategy, view, rng, 1, 0, None, 2 * bob_basis + recorded, _CONTROLLED)


# ---------------------------------------------------------------------------
# Routing a strategy to its flow
# ---------------------------------------------------------------------------

# (mode, role) -> (steps 1–2 of the flow, whether the strategy is analysed for
# ideal devices only).  The cheating analyses grant the dishonest party
# perfect devices; detector control is modelled at the information level and
# runs on any.
_ROUTES = {
    (Mode.MDI, Role.HONEST): (_mdi_honest, False),
    (Mode.MDI, Role.ALICE): (_mdi_alice, True),
    (Mode.MDI, Role.BLACKBOX): (_mdi_box, True),
    (Mode.MDI, Role.BOB): (_dishonest_bob, True),
    (Mode.MDI_WEAK_COHERENT, Role.HONEST): (_weak_coherent, False),
    (Mode.BASELINE, Role.HONEST): (_baseline_honest, False),
    (Mode.BASELINE, Role.ALICE): (_baseline_alice, False),
    (Mode.BASELINE, Role.BOB): (_dishonest_bob, True),
}


def _route(config: RunConfig, strategy):
    """Steps 1–2 of the flow that ``config.mode`` and the strategy's role
    select (``strategy`` None: honest play), once the pairing is checked."""
    if strategy is None:
        return _ROUTES[(config.mode, Role.HONEST)][0]
    route = _ROUTES.get((config.mode, strategy.role))
    if route is None or config.mode not in strategy.supported_modes:
        raise ConfigurationError(
            f"strategy {strategy.name!r} does not apply to mode {config.mode.value!r}"
        )
    steps, ideal_only = route
    if ideal_only and not config.is_ideal:
        raise ConfigurationError(
            f"strategy {strategy.name!r} is analyzed for ideal devices; "
            "use zero fiber lengths, eta 1 and dark 0"
        )
    return steps


def _batch(config: RunConfig, strategy, rng: np.random.Generator, n: int) -> list[list]:
    """The transcript fields of ``n`` runs drawn as one batch, one list per
    field; for ``n`` 0, one empty list, drawing nothing."""
    validate_int("n", n, 0)
    steps = _route(config, strategy)
    return _fields(steps(config, strategy, RunView(n), rng), n) if n else [[]]


def sample_runs(config: RunConfig, strategy, rng: np.random.Generator, n: int) -> list[Transcript]:
    """``n`` independent runs of the flow that ``config`` and ``strategy``
    select (None: honest play), drawn as one batch.

    Each stage makes one draw of each kind for the rows that need it, in
    row order, so a batch follows the law of ``n`` single runs while its
    draws differ from theirs; a one-run batch draws exactly as one single
    run.  ``n`` 0 draws nothing and returns [] once the route is checked.
    """
    return list(map(Transcript, *_batch(config, strategy, rng, n)))


def sample_run_lines(config: RunConfig, strategy, rng: np.random.Generator, n: int) -> list[str]:
    """The record lines of ``sample_runs(config, strategy, rng, n)``, written
    by the record writer of :func:`transcript_json_line` from the batch's
    fields without building the transcripts."""
    return list(map(_record_line, *_batch(config, strategy, rng, n)))


def run_with_adversary(config: RunConfig, strategy, rng: np.random.Generator) -> Transcript:
    """Run the protocol with one party's messages produced by a strategy.

    The honest counterpart follows the normal flow.  The strategy declares
    its role and the modes it applies to; a mismatch (for example attaching
    the detector-control attack to the MDI flow, which exposes no
    detection-control channel) is a configuration error.
    """
    return _transcript(*_route(config, strategy)(config, strategy, RunView(), rng))


def run_honest(config: RunConfig, rng: np.random.Generator) -> Transcript:
    """One honest execution of the main flow.

    Failed rounds are not simulated: the deciding round and the round count
    are drawn directly (see :func:`_mdi_honest`), which is exact because
    rounds are i.i.d.  A run whose round count exceeds ``config.max_rounds``,
    or in which no round can succeed, raises :class:`ExhaustionError`.
    """
    if config.mode is not Mode.MDI:
        raise ConfigurationError(f"run_honest requires mdi mode, got {config.mode.value}")
    return _transcript(*_route(config, None)(config, None, RunView(), rng))


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
    return _transcript(*_route(config, strategy)(config, strategy, RunView(), rng))


def sample_weak_coherent_runs(config: RunConfig, rng: np.random.Generator, n: int) -> list[Transcript]:
    """``n`` independent runs of the fixed-pulse-count weak-coherent variant,
    drawn as one batch (see :func:`_weak_coherent` for the draws)."""
    if config.mode is not Mode.MDI_WEAK_COHERENT:
        raise ConfigurationError(f"weak-coherent runs require weak-coherent mode, got {config.mode.value}")
    return sample_runs(config, None, rng, n)


def run_weak_coherent(config: RunConfig, rng: np.random.Generator) -> Transcript:
    """One run of the fixed-pulse-count variant for weak-coherent sources.

    Both parties emit K pulse slots with fresh labels per slot; the first
    slot with a successful projection (index j) carries the labels used in
    the remaining steps.  If every slot fails the run aborts, so this
    variant is not loss tolerant.  Multi-photon emissions are treated as
    "photon present" (no multi-photon interference model) and their slot
    indices are flagged on the transcript.  It draws as the one-run batch of
    :func:`sample_weak_coherent_runs`.
    """
    if config.mode is not Mode.MDI_WEAK_COHERENT:
        raise ConfigurationError(f"weak-coherent runs require weak-coherent mode, got {config.mode.value}")
    return _transcript(*_weak_coherent(config, None, RunView(), rng))


# ---------------------------------------------------------------------------
# Fields to transcripts and record lines
# ---------------------------------------------------------------------------

# Transcript fields by code; where a field can be missing, code -1 (the last
# entry) is None.
_OUTCOMES = np.array([None, BsmOutcome.PSI_PLUS, BsmOutcome.PSI_MINUS], dtype=object)
_LABELS = np.array([*ALL_LABELS, None], dtype=object)
_BITS = np.array([0, 1, None], dtype=object)
_SUCCESSES = np.array([False, True, None], dtype=object)
_VERDICTS = np.array([Verdict.ABORT, Verdict.ACCEPT], dtype=object)
_CAUSES = np.array(CAUSES, dtype=object)


def _transcript(rounds, outcome, bob, b_prime, revealed, accept, cause, success,
                pulse_index=-1, multiphoton=()) -> Transcript:
    """The transcript of one run's fields (Python or numpy scalars)."""
    return Transcript(
        int(rounds),
        _OUTCOMES[outcome],
        _LABELS[bob],
        None if b_prime < 0 else int(b_prime),
        _LABELS[revealed],
        _VERDICTS[1 if accept else 0],
        int((revealed & 1) ^ b_prime) if accept else None,
        CAUSES[cause],
        None if pulse_index < 0 else int(pulse_index),
        multiphoton,
        None if success is None else bool(success),
    )


def _fields(rows: _Rows, n: int) -> list[list]:
    """The transcript fields of a batch's rows, one list per field in the
    order of :class:`Transcript`, a code that every row shares repeated."""
    def values(table: np.ndarray, codes) -> list:
        return table[codes].tolist() if isinstance(codes, np.ndarray) else [table[codes]] * n

    rounds, outcome, bob, b_prime, revealed, accept, cause, success, *weak = rows
    pulse_index, multiphoton = weak or (None, [()] * n)
    accept = accept.astype(np.intp)
    return [
        rounds.tolist() if isinstance(rounds, np.ndarray) else [rounds] * n,
        values(_OUTCOMES, outcome),
        values(_LABELS, bob),
        values(_BITS, b_prime),
        values(_LABELS, revealed),
        values(_VERDICTS, accept),
        values(_BITS, np.where(accept, (revealed & 1) ^ b_prime, -1)),
        values(_CAUSES, cause),
        [None] * n if pulse_index is None else [None if p < 0 else p for p in pulse_index.tolist()],
        multiphoton,
        [None] * n if success is None else values(_SUCCESSES, success.astype(np.intp)),
    ]
