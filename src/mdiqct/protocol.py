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
MDI design removes.

Each flow has one driver for steps 1–2; steps 3–5 are written once for all
of them.  A cheating strategy plays one party: it declares a :class:`Role`,
and the driver calls that role's hooks, listed in :mod:`mdiqct.adversaries`.

The black box interface receives only quantum states and emits only an
outcome: B's classical label never flows into it.  Strategies observe the
run through a phase-gated view, so reading b′ before step 3 has fixed it
raises instead of leaking.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import devices
from .devices import (
    BsmSample,
    ChannelParams,
    DetectorParams,
    SourceKind,
    SourceModel,
    sample_photon_number,
    single_photon_source,
)
from .errors import ConfigurationError, ExhaustionError, ParameterError, PhaseOrderError
from .qmath import (
    BsmOutcome,
    PureState,
    StateLabel,
    state_for_label,
    validate_y,
)

DEFAULT_MAX_ROUNDS = 1_000_000


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


def transcript_json_line(t: Transcript) -> str:
    return json.dumps(transcript_to_record(t), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the random generator."""

    y: float = 0.9
    channel: ChannelParams = field(default_factory=ChannelParams)
    detector: DetectorParams = field(default_factory=DetectorParams)
    source_a: SourceModel = field(default_factory=single_photon_source)
    source_b: SourceModel = field(default_factory=single_photon_source)
    max_rounds: int = DEFAULT_MAX_ROUNDS
    mode: Mode = Mode.MDI
    k_pulses: Optional[int] = None
    extended_dark_model: bool = False

    def __post_init__(self) -> None:
        validate_y(self.y)
        if self.max_rounds < 1:
            raise ParameterError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.mode is Mode.MDI_WEAK_COHERENT:
            if self.k_pulses is None or self.k_pulses < 1:
                raise ParameterError("weak-coherent mode needs a pulse count K >= 1")
            if (
                self.source_a.kind is not SourceKind.WEAK_COHERENT
                or self.source_b.kind is not SourceKind.WEAK_COHERENT
            ):
                raise ParameterError("weak-coherent mode needs weak-coherent sources")
        elif self.k_pulses is not None:
            raise ParameterError("pulse count K only applies to weak-coherent mode")
        if self.mode is Mode.BASELINE and self.source_a.kind is not SourceKind.SINGLE_PHOTON:
            raise ParameterError("the baseline flow is defined for single-photon sources")

    @property
    def is_ideal(self) -> bool:
        """Lossless channel, unit-efficiency detectors, no dark counts."""
        return (
            self.channel.l_a == 0.0
            and self.channel.l_b == 0.0
            and self.detector.eta == 1.0
            and self.detector.dark == 0.0
        )


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


BlackBox = Callable[[PureState, PureState, np.random.Generator], BsmSample]


def _honest_box(config: RunConfig) -> BlackBox:
    def box(state_a: PureState, state_b: PureState, rng: np.random.Generator) -> BsmSample:
        return devices.sample_bsm_noisy(
            state_a,
            state_b,
            config.channel,
            config.detector,
            rng,
            extended=config.extended_dark_model,
        )

    return box


def _uniform_label(rng: np.random.Generator) -> StateLabel:
    return StateLabel(basis=int(rng.integers(2)), bit=int(rng.integers(2)))


# ---------------------------------------------------------------------------
# Steps 3–5, shared by every flow
# ---------------------------------------------------------------------------

class _Run:
    """One execution in progress; ``strategy`` is None for honest play.

    Party randomness (labels, b′) and device noise come from separate child
    streams so that device-model changes do not shift the parties' choices.
    """

    __slots__ = ("config", "strategy", "role", "view", "party_rng", "device_rng")

    def __init__(self, config: RunConfig, strategy, rng: np.random.Generator) -> None:
        self.config = config
        self.strategy = strategy
        self.role = Role.HONEST if strategy is None else strategy.role
        self.view = RunView()
        self.party_rng, self.device_rng = rng.spawn(2)

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
        view, strategy = self.view, self.strategy
        if self.role is Role.BOB:
            alice_state = state_for_label(alice, self.config.y)
            b_prime, guessed_bit = strategy.choose_b_prime(view, alice_state, self.device_rng)
            cause = "med-correct" if guessed_bit == alice.bit else "med-wrong"
        else:
            b_prime = int(self.party_rng.integers(2))
        view._b_prime = b_prime
        revealed = alice if alice is not None else strategy.reveal(view, self.device_rng)

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

def _run_mdi(config: RunConfig, strategy, rng: np.random.Generator, box: Optional[BlackBox] = None) -> Transcript:
    """Steps 1–2 of the main flow, then the shared steps 3–5.

    Honest A draws a label and sends its state; in role ``ALICE`` she sends
    whatever ``prepare`` returns.  In role ``BLACKBOX`` her own rigged box
    replaces the projection: ``box_process`` receives B's state, never his
    label, announces an outcome and smuggles a guess of B's label to A.
    """
    run = _Run(config, strategy, rng)
    party_rng, device_rng, view, y = run.party_rng, run.device_rng, run.view, config.y
    if run.role is Role.BLACKBOX:
        # The rigged box always announces a Bell outcome, so no round fails.
        bob = _uniform_label(party_rng)
        outcome, guess = strategy.box_process(view, state_for_label(bob, y), device_rng)
        view._outcome = outcome
        view._box_message = guess
        return run.finish(1, outcome, None, bob, "med-correct" if guess == bob else "med-wrong")

    box = box or _honest_box(config)
    prepare = strategy.prepare if run.role is Role.ALICE else None
    alice = None
    for rounds in range(1, config.max_rounds + 1):
        if prepare is None:
            alice = _uniform_label(party_rng)
            state_a = state_for_label(alice, y)
        else:
            state_a = prepare(view, device_rng)
        bob = _uniform_label(party_rng)
        sample = box(state_a, state_for_label(bob, y), device_rng)
        if sample.outcome is not BsmOutcome.FAILURE:
            break
    else:
        raise ExhaustionError(f"no successful projection within {config.max_rounds} rounds")
    view._outcome = sample.outcome
    return run.finish(rounds, sample.outcome, alice, bob, sample.cause.value)


def run_honest(
    config: RunConfig,
    rng: np.random.Generator,
    box: Optional[BlackBox] = None,
) -> Transcript:
    """One honest execution of the main flow, restarting on failure clicks."""
    if config.mode is not Mode.MDI:
        raise ConfigurationError(f"run_honest requires mdi mode, got {config.mode.value}")
    return _run_mdi(config, None, rng, box)


def run_weak_coherent(config: RunConfig, rng: np.random.Generator) -> Transcript:
    """The fixed-pulse-count variant for weak-coherent sources.

    Both parties emit K pulse slots with fresh labels per slot; the first
    slot with a successful projection (index j) carries the labels used in
    the remaining steps.  If every slot fails the run aborts, so this
    variant is not loss tolerant.  Multi-photon emissions are treated as
    "photon present" (no multi-photon interference model) and their slot
    indices are flagged on the transcript.
    """
    if config.mode is not Mode.MDI_WEAK_COHERENT:
        raise ConfigurationError(f"run_weak_coherent requires weak-coherent mode, got {config.mode.value}")
    run = _Run(config, None, rng)
    party_rng, device_rng = run.party_rng, run.device_rng
    k = int(config.k_pulses)

    multiphoton: list[int] = []
    first: Optional[tuple[int, BsmSample, StateLabel, StateLabel]] = None
    for slot in range(1, k + 1):
        alice = _uniform_label(party_rng)
        bob = _uniform_label(party_rng)
        n_a = sample_photon_number(config.source_a, device_rng)
        n_b = sample_photon_number(config.source_b, device_rng)
        if n_a >= 2 or n_b >= 2:
            multiphoton.append(slot)
        candidate = devices.sample_bsm_noisy(
            state_for_label(alice, config.y),
            state_for_label(bob, config.y),
            config.channel,
            config.detector,
            device_rng,
            extended=config.extended_dark_model,
            present_a=n_a >= 1,
            present_b=n_b >= 1,
        )
        if first is None and candidate.outcome is not BsmOutcome.FAILURE:
            first = (slot, candidate, alice, bob)

    if first is None:
        return Transcript(
            rounds=k,
            outcome=None,
            bob_label=None,
            bob_random_bit=None,
            revealed_label=None,
            verdict=Verdict.ABORT,
            coin=None,
            cause="no-bsm-success",
            multiphoton_slots=tuple(multiphoton),
        )
    slot, sample, alice, bob = first
    return run.finish(
        slot, sample.outcome, alice, bob, sample.cause.value,
        pulse_index=slot, multiphoton_slots=tuple(multiphoton),
    )


# ---------------------------------------------------------------------------
# The baseline (non-MDI) flow
# ---------------------------------------------------------------------------

def _measure_in_basis(state: PureState, basis: int, y: float, rng: np.random.Generator) -> int:
    """Projective measurement in one preparation basis; returns the bit."""
    p0 = abs(state.overlap(state_for_label(StateLabel(basis, 0), y))) ** 2
    return 0 if rng.random() < p0 else 1


def _run_baseline(config: RunConfig, strategy, rng: np.random.Generator) -> Transcript:
    """Simplified direct-measurement flow used to stage detector attacks.

    A sends her state straight to B, who measures in a uniformly random
    preparation basis (resending on detection failure).  After the reveal,
    B aborts iff he measured in A's basis and recorded the orthogonal bit.
    This check is a deliberate simplification: it is just strong enough to
    show that a detector-controlling A evades it completely while the MDI
    flow gives her no such handle.  In role ``ALICE`` she owns B's
    detection: ``control_detection`` fixes the recorded bit, and she learns
    it together with B's basis.
    """
    run = _Run(config, strategy, rng)
    party_rng, device_rng = run.party_rng, run.device_rng
    if run.role is Role.ALICE:
        # Every controlled detection succeeds, so no round is resent.
        bob_basis = int(party_rng.integers(2))
        recorded = run.strategy.control_detection(run.view, bob_basis, device_rng)
        run.view._detection_record = (bob_basis, recorded)
        return run.finish(1, None, None, StateLabel(bob_basis, recorded), "controlled-detection")

    detect_prob = config.channel.t_a * config.detector.eta
    for rounds in range(1, config.max_rounds + 1):
        alice = _uniform_label(party_rng)
        bob_basis = int(party_rng.integers(2))
        if device_rng.random() < detect_prob:
            recorded = _measure_in_basis(
                state_for_label(alice, config.y), bob_basis, config.y, device_rng
            )
            break
    else:
        raise ExhaustionError(f"no detection within {config.max_rounds} rounds")
    return run.finish(rounds, None, alice, StateLabel(bob_basis, recorded), "baseline-detection")


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
    alice = _uniform_label(run.party_rng)
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
