"""Pluggable cheating strategies for the protocol drivers.

A strategy is built from its options alone: the coin value it pushes
toward, plus ``med_model`` for the rigged box or ``sent`` for the
uncommitted state.  Its name, its role (which party it replaces, or a
rigged measurement box colluding with A) and the protocol modes it
applies to are constants of its class; :data:`STRATEGIES` maps each name
to its class.  The driver of each flow in :mod:`mdiqct.protocol` calls the
hooks of the declared role:

* ``BOB``, either flow: ``choose_b_prime`` (his measurement of A's photon);
* ``ALICE``, MDI flow: ``prepare`` (the state sent each round), ``reveal``;
* ``ALICE``, baseline flow: ``control_detection`` (B's recorded bit), ``reveal``;
* ``BLACKBOX``, MDI flow: ``box_process`` (sees B's state and the run's y
  only), ``reveal``;
* ``HONEST``: none.

Everything a strategy may legitimately observe arrives through the
phase-gated :class:`~mdiqct.protocol.RunView`; the run's y is the one state
parameter of every flow, so no strategy holds a copy of it.

Expected success rates at the fair point y = 0.9, ideal devices:

* detector control (baseline flow only): 1.0
* B's optimal two-state discrimination: y = 0.9
* A's uncommitted-state attack: (3 + 2√(y(1−y)))/4 = 0.9
* A's rigged-box individual attack: 3/4
* honest play: 1/2
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ParameterError
from .protocol import Mode, Role, RunView
from .qmath import (
    ALL_LABELS,
    SENT_STATES,
    BsmOutcome,
    PureState,
    StateLabel,
    minus_state,
    plus_state,
    state_for_label,
    validate_int,
)


@dataclass(frozen=True)
class AdversaryStrategy:
    """Common surface of every strategy, immutable; on its own, honest play."""

    name: ClassVar[str] = "none"
    role: ClassVar[Role] = Role.HONEST
    supported_modes: ClassVar[frozenset] = frozenset({Mode.MDI, Mode.BASELINE})

    target_coin: int = 0

    def __post_init__(self) -> None:
        validate_int("target_coin", self.target_coin, 0, 1)


@dataclass(frozen=True)
class BobOptimalDiscrimination(AdversaryStrategy):
    """B measures A's incoming photon in the {H, V} basis and steers b′.

    {H, V} is the optimal two-state measurement separating the two committed
    bits (the bit-0 and bit-1 mixtures are diagonal, so the positive
    eigenspace of their difference is spanned by |H⟩).  The guess is right
    with probability y, and b′ = guess ⊕ target makes the coin land on the
    target exactly when the guess is right.
    """

    name = "bob-med"
    role = Role.BOB

    def choose_b_prime(
        self, view: RunView, alice_state: PureState, rng: np.random.Generator
    ) -> tuple[int, int]:
        p_h = abs(alice_state.amp_h) ** 2
        guessed_bit = 0 if rng.random() < p_h else 1
        return guessed_bit ^ self.target_coin, guessed_bit


MED_MODELS = ("basis-flip", "projective")


@dataclass(frozen=True)
class ColludingBoxIndividual(AdversaryStrategy):
    """A's rigged box discriminates B's photon and fakes a Bell outcome.

    The box guesses B's full label with the optimal four-state success of
    1/2, smuggles the guess to A, and announces Ψ⁺ or Ψ⁻ uniformly at
    random.  After b′ arrives, A needs a = b′ ⊕ target and picks the basis
    consistent with the guess and the announced outcome (choosing uniformly
    when both bases are consistent).  A correct guess always passes
    verification.

    Two error models for the wrong half of the guesses:

    * ``basis-flip`` (default): a wrong guess misidentifies the basis and
      keeps the bit, which pins the caught-given-wrong probability at
      exactly 1/2 and the total success at 3/4 for every y.  This is the
      benchmark accounting for the attack.
    * ``projective``: the box actually measures in a uniformly random
      preparation basis (an optimal four-state measurement).  Its errors
      then keep the bit only with probability (2y−1)², which lowers the
      caught rate and lifts the total success to 3/4 + y(1−y)/2.
    """

    name = "alice-individual"
    role = Role.BLACKBOX
    supported_modes = frozenset({Mode.MDI})

    med_model: str = "basis-flip"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.med_model not in MED_MODELS:
            raise ParameterError(f"med_model must be one of {MED_MODELS}, got {self.med_model!r}")

    def _identify(self, state: PureState, y: float) -> StateLabel:
        # Simulation-level peek used only to drive the abstract error model.
        for label in ALL_LABELS:
            if abs(state.overlap(state_for_label(label, y))) ** 2 > 1.0 - 1e-9:
                return label
        raise ParameterError("input state is not one of the four honest states")

    def box_process(
        self, view: RunView, bob_state: PureState, y: float, rng: np.random.Generator
    ) -> tuple[BsmOutcome, StateLabel]:
        if self.med_model == "projective":
            basis = int(rng.integers(2))
            p0 = abs(bob_state.overlap(state_for_label(ALL_LABELS[2 * basis], y))) ** 2
            guess = ALL_LABELS[2 * basis + (0 if rng.random() < p0 else 1)]
        else:
            actual = self._identify(bob_state, y)
            if rng.random() < 0.5:
                guess = actual
            else:
                guess = ALL_LABELS[actual.index ^ 2]
        outcome = BsmOutcome.PSI_PLUS if rng.random() < 0.5 else BsmOutcome.PSI_MINUS
        return outcome, guess

    def reveal(self, view: RunView, rng: np.random.Generator) -> StateLabel:
        guess: StateLabel = view.box_message
        outcome = view.announced_outcome
        a = view.b_prime ^ self.target_coin
        if guess.bit == a:
            # Only one basis avoids the zero cell against the guessed label.
            basis = guess.basis if outcome is BsmOutcome.PSI_PLUS else guess.basis ^ 1
        else:
            basis = int(rng.integers(2))
        return ALL_LABELS[2 * basis + a]


@dataclass(frozen=True)
class CoherentStateAlice(AdversaryStrategy):
    """A sends |+⟩ or |−⟩ instead of committing, then reveals to fit b′.

    Either state sits at equal trace distance from the two honest states it
    may later impersonate, which is what makes it optimal among
    single-state submissions.  The box performs the honest projection; after
    b′ arrives A reveals a = b′ ⊕ target with the basis that points the
    verification zero cell at the B labels least likely given the announced
    outcome.  Success is (3 + 2√(y(1−y)))/4 for both states.
    """

    name = "alice-coherent"
    role = Role.ALICE
    supported_modes = frozenset({Mode.MDI})

    sent: str = "plus"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sent not in SENT_STATES:
            raise ParameterError(f"sent state must be one of {SENT_STATES}, got {self.sent!r}")

    def prepare(self, view: RunView, rng: np.random.Generator) -> PureState:
        return plus_state() if self.sent == "plus" else minus_state()

    def reveal(self, view: RunView, rng: np.random.Generator) -> StateLabel:
        a = view.b_prime ^ self.target_coin
        basis = a if self.sent == "plus" else a ^ 1
        return ALL_LABELS[2 * basis + a]


@dataclass(frozen=True)
class DetectorControlAlice(AdversaryStrategy):
    """A owns B's detection events in the baseline flow.

    Modeled at the information level: every detection she allows succeeds,
    and she learns the basis B measured in together with the recorded bit.
    Knowing both, she can always reveal a label that passes B's check while
    the coin lands on her target, so success is 1 and the abort rate 0.
    The MDI drivers refuse this strategy: the black-box interface carries
    quantum states in and one outcome out, with no detection-control hook.
    """

    name = "alice-blinding"
    role = Role.ALICE
    supported_modes = frozenset({Mode.BASELINE})

    def control_detection(self, view: RunView, bob_basis: int, rng: np.random.Generator) -> int:
        # She may inject any click pattern; which bit gets recorded is
        # irrelevant because she learns it either way.
        return int(rng.integers(2))

    def reveal(self, view: RunView, rng: np.random.Generator) -> StateLabel:
        bob_basis, recorded = view.detection_record
        a = view.b_prime ^ self.target_coin
        basis = bob_basis if recorded == a else bob_basis ^ 1
        return ALL_LABELS[2 * basis + a]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# The public factory names, as aliases of their classes.
identity_strategy = AdversaryStrategy
bob_med_attack = BobOptimalDiscrimination
alice_individual_attack = ColludingBoxIndividual
alice_coherent_attack = CoherentStateAlice
alice_blinding_attack = DetectorControlAlice

# Command-line name -> class; a class's options are its dataclass fields.
STRATEGIES = {
    cls.name: cls
    for cls in (AdversaryStrategy, BobOptimalDiscrimination, ColludingBoxIndividual, CoherentStateAlice,
                DetectorControlAlice)
}
STRATEGY_NAMES = tuple(STRATEGIES)


def by_name(name: str, target_coin: int = 0, **options) -> AdversaryStrategy:
    """Construct a strategy from its command-line name and options."""
    cls = STRATEGIES.get(name)
    if cls is None:
        raise ParameterError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")
    return cls(target_coin=target_coin, **options)
