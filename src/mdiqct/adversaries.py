"""Pluggable cheating strategies for the protocol drivers.

Each strategy declares its role (which party it replaces, or whether it is a
rigged measurement box colluding with A), the coin value it pushes toward,
and the protocol modes it applies to.  The driver of each flow in
:mod:`mdiqct.protocol` calls the hooks of the declared role:

* ``BOB``, either flow: ``choose_b_prime`` (his measurement of A's photon);
* ``ALICE``, MDI flow: ``prepare`` (the state sent each round), ``reveal``;
* ``ALICE``, baseline flow: ``control_detection`` (B's recorded bit), ``reveal``;
* ``BLACKBOX``, MDI flow: ``box_process`` (sees B's state only), ``reveal``;
* ``HONEST``: none.

Everything a strategy may legitimately observe arrives through the
phase-gated :class:`~mdiqct.protocol.RunView`.

Expected success rates at the fair point y = 0.9, ideal devices:

* detector control (baseline flow only): 1.0
* B's optimal two-state discrimination: y = 0.9
* A's uncommitted-state attack: (3 + 2√(y(1−y)))/4 = 0.9
* A's rigged-box individual attack: 3/4
* honest play: 1/2
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .protocol import Mode, Role, RunView
from .qmath import (
    ALL_LABELS,
    BsmOutcome,
    PureState,
    StateLabel,
    minus_state,
    plus_state,
    state_for_label,
    validate_y,
)


@dataclass(frozen=True)
class AdversaryStrategy:
    """Common surface of every strategy; immutable after construction."""

    role: Role
    target_coin: int
    name: str
    supported_modes: frozenset

    def __post_init__(self) -> None:
        if self.target_coin not in (0, 1):
            raise ParameterError(f"target coin must be 0 or 1, got {self.target_coin}")


@dataclass(frozen=True)
class BobOptimalDiscrimination(AdversaryStrategy):
    """B measures A's incoming photon in the {H, V} basis and steers b′.

    {H, V} is the optimal two-state measurement separating the two committed
    bits (the bit-0 and bit-1 mixtures are diagonal, so the positive
    eigenspace of their difference is spanned by |H⟩).  The guess is right
    with probability y, and b′ = guess ⊕ target makes the coin land on the
    target exactly when the guess is right.
    """

    y: float = 0.9

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

    y: float = 0.9
    med_model: str = "basis-flip"

    def __post_init__(self) -> None:
        super().__post_init__()
        validate_y(self.y)
        if self.med_model not in MED_MODELS:
            raise ParameterError(f"med_model must be one of {MED_MODELS}, got {self.med_model!r}")

    def _identify(self, state: PureState) -> StateLabel:
        # Simulation-level peek used only to drive the abstract error model.
        for label in ALL_LABELS:
            if abs(state.overlap(state_for_label(label, self.y))) ** 2 > 1.0 - 1e-9:
                return label
        raise ParameterError("input state is not one of the four honest states")

    def box_process(
        self, view: RunView, bob_state: PureState, rng: np.random.Generator
    ) -> tuple[BsmOutcome, StateLabel]:
        if self.med_model == "projective":
            basis = int(rng.integers(2))
            p0 = abs(bob_state.overlap(state_for_label(StateLabel(basis, 0), self.y))) ** 2
            guess = StateLabel(basis, 0 if rng.random() < p0 else 1)
        else:
            actual = self._identify(bob_state)
            if rng.random() < 0.5:
                guess = actual
            else:
                guess = StateLabel(actual.basis ^ 1, actual.bit)
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
        return StateLabel(basis, a)


SENT_STATES = ("plus", "minus")


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

    y: float = 0.9
    sent: str = "plus"

    def __post_init__(self) -> None:
        super().__post_init__()
        validate_y(self.y)
        if self.sent not in SENT_STATES:
            raise ParameterError(f"sent state must be one of {SENT_STATES}, got {self.sent!r}")

    def prepare(self, view: RunView, rng: np.random.Generator) -> PureState:
        return plus_state() if self.sent == "plus" else minus_state()

    def reveal(self, view: RunView, rng: np.random.Generator) -> StateLabel:
        a = view.b_prime ^ self.target_coin
        basis = a if self.sent == "plus" else a ^ 1
        return StateLabel(basis, a)


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

    def control_detection(self, view: RunView, bob_basis: int, rng: np.random.Generator) -> int:
        # She may inject any click pattern; which bit gets recorded is
        # irrelevant because she learns it either way.
        return int(rng.integers(2))

    def reveal(self, view: RunView, rng: np.random.Generator) -> StateLabel:
        bob_basis, recorded = view.detection_record
        a = view.b_prime ^ self.target_coin
        basis = bob_basis if recorded == a else bob_basis ^ 1
        return StateLabel(basis, a)


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------

def bob_med_attack(y: float, target_coin: int = 0) -> BobOptimalDiscrimination:
    """B's optimal-discrimination attack; success probability y."""
    validate_y(y)
    return BobOptimalDiscrimination(
        role=Role.BOB,
        target_coin=target_coin,
        name="bob-med",
        supported_modes=frozenset({Mode.MDI, Mode.BASELINE}),
        y=y,
    )


def alice_individual_attack(
    y: float, target_coin: int = 0, med_model: str = "basis-flip"
) -> ColludingBoxIndividual:
    """A's rigged-box attack; success 3/4 under the benchmark error model."""
    return ColludingBoxIndividual(
        role=Role.BLACKBOX,
        target_coin=target_coin,
        name="alice-individual",
        supported_modes=frozenset({Mode.MDI}),
        y=y,
        med_model=med_model,
    )


def alice_coherent_attack(
    y: float, target_coin: int = 0, sent_state: str = "plus"
) -> CoherentStateAlice:
    """A's uncommitted-state attack; success (3 + 2√(y(1−y)))/4."""
    return CoherentStateAlice(
        role=Role.ALICE,
        target_coin=target_coin,
        name="alice-coherent",
        supported_modes=frozenset({Mode.MDI}),
        y=y,
        sent=sent_state,
    )


def alice_blinding_attack(target_coin: int = 0) -> DetectorControlAlice:
    """A's detector-control attack on the baseline flow; success 1."""
    return DetectorControlAlice(
        role=Role.ALICE,
        target_coin=target_coin,
        name="alice-blinding",
        supported_modes=frozenset({Mode.BASELINE}),
    )


def identity_strategy(target_coin: int = 0) -> AdversaryStrategy:
    """Honest play wrapped in the strategy interface, for consistency checks."""
    return AdversaryStrategy(
        role=Role.HONEST,
        target_coin=target_coin,
        name="none",
        supported_modes=frozenset({Mode.MDI, Mode.BASELINE}),
    )


STRATEGY_NAMES = ("none", "bob-med", "alice-individual", "alice-coherent", "alice-blinding")


def by_name(name: str, y: float = 0.9, target_coin: int = 0, **kwargs) -> AdversaryStrategy:
    """Construct a strategy from its command-line name."""
    if name == "none":
        return identity_strategy(target_coin)
    if name == "bob-med":
        return bob_med_attack(y, target_coin)
    if name == "alice-individual":
        return alice_individual_attack(y, target_coin, **kwargs)
    if name == "alice-coherent":
        return alice_coherent_attack(y, target_coin, **kwargs)
    if name == "alice-blinding":
        return alice_blinding_attack(target_coin)
    raise ParameterError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")
