"""Exact finite-dimensional quantum math for the coin-tossing simulator.

Everything here is closed-form linear algebra on one or two polarization
qubits: construction of the four commitment states and the |±⟩ cheating
states, Bell projections |Ψ⁺⟩/|Ψ⁻⟩ at the measurement station, the
verification table used to catch a lying committer, trace distance, and
two optimal-discrimination oracles (Helstrom two-state, and a grid-search
bound for the uniform four-state ensemble).

All operations are pure functions of their inputs; the value types are
immutable and safe to share across workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ParameterError

# Algebraic identities are checked at this tolerance; sampled estimates
# carry their own explicit tolerances.
ATOL = 1e-12

_SQRT2 = math.sqrt(2.0)


def validate_y(y: float) -> float:
    """Check the state-family coefficient y, which must lie in (1/2, 1)."""
    if not (0.5 < y < 1.0):
        raise ParameterError(f"coefficient y must lie in (1/2, 1), got {y}")
    return float(y)


# ---------------------------------------------------------------------------
# Labels and outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateLabel:
    """Classical preparation label: a basis choice and a bit, both in {0, 1}."""

    basis: int
    bit: int

    def __post_init__(self) -> None:
        if self.basis not in (0, 1) or self.bit not in (0, 1):
            raise ParameterError(f"label fields must be bits, got {self}")

    @property
    def index(self) -> int:
        """Flat index 2*basis + bit; row/column order of the tables."""
        return 2 * self.basis + self.bit

    @classmethod
    def from_index(cls, index: int) -> "StateLabel":
        if index not in (0, 1, 2, 3):
            raise ParameterError(f"label index must be in 0..3, got {index}")
        return cls(basis=index >> 1, bit=index & 1)


ALL_LABELS: tuple[StateLabel, ...] = tuple(StateLabel.from_index(i) for i in range(4))


class BsmOutcome(Enum):
    """The only outputs of the measurement black box."""

    PSI_PLUS = "psi-plus"
    PSI_MINUS = "psi-minus"
    FAILURE = "failure"


BELL_OUTCOMES: tuple[BsmOutcome, BsmOutcome] = (BsmOutcome.PSI_PLUS, BsmOutcome.PSI_MINUS)


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PureState:
    """Normalized single-photon polarization state a|H⟩ + b|V⟩.

    Amplitudes are complex for generality; the honest states and the |±⟩
    cheating states are all real-valued.
    """

    amp_h: complex
    amp_v: complex

    def __post_init__(self) -> None:
        norm_sq = abs(self.amp_h) ** 2 + abs(self.amp_v) ** 2
        if abs(norm_sq - 1.0) > ATOL:
            raise ParameterError(f"state is not normalized: |a|^2+|b|^2 = {norm_sq!r}")

    def ket(self) -> np.ndarray:
        return np.array([self.amp_h, self.amp_v], dtype=complex)

    def density(self) -> "DensityMatrix":
        k = self.ket()
        return DensityMatrix(np.outer(k, k.conj()))

    def overlap(self, other: "PureState") -> complex:
        """Inner product ⟨self|other⟩."""
        return complex(np.vdot(self.ket(), other.ket()))

    def bloch_vector(self) -> tuple[float, float, float]:
        a, b = self.amp_h, self.amp_v
        return (
            2.0 * (a.conjugate() * b).real,
            2.0 * (a.conjugate() * b).imag,
            abs(a) ** 2 - abs(b) ** 2,
        )


def atvy_state(alpha: int, a: int, y: float) -> PureState:
    """One of the four commitment states.

    |φ_{α,0}⟩ = √y|H⟩ + (−1)^α √(1−y)|V⟩
    |φ_{α,1}⟩ = √(1−y)|H⟩ − (−1)^α √y|V⟩

    For each basis α the two states are orthogonal; across bases they are
    not, which is what lets the committer be caught only probabilistically.
    """
    validate_y(y)
    if alpha not in (0, 1) or a not in (0, 1):
        raise ParameterError(f"alpha and a must be bits, got alpha={alpha}, a={a}")
    sign = -1.0 if alpha else 1.0
    if a == 0:
        return PureState(math.sqrt(y), sign * math.sqrt(1.0 - y))
    return PureState(math.sqrt(1.0 - y), -sign * math.sqrt(y))


def state_for_label(label: StateLabel, y: float) -> PureState:
    return atvy_state(label.basis, label.bit, y)


def plus_state() -> PureState:
    """|+⟩ = (|H⟩ + |V⟩)/√2."""
    return PureState(1.0 / _SQRT2, 1.0 / _SQRT2)


def minus_state() -> PureState:
    """|−⟩ = (|H⟩ − |V⟩)/√2."""
    return PureState(1.0 / _SQRT2, -1.0 / _SQRT2)


@dataclass(frozen=True)
class TwoQubitState:
    """Product-free carrier of a two-photon amplitude vector over {HH, HV, VH, VV}."""

    amps: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        norm_sq = sum(abs(c) ** 2 for c in self.amps)
        if abs(norm_sq - 1.0) > ATOL:
            raise ParameterError(f"two-qubit state is not normalized: {norm_sq!r}")

    @classmethod
    def product(cls, state_a: PureState, state_b: PureState) -> "TwoQubitState":
        k = np.kron(state_a.ket(), state_b.ket())
        return cls(tuple(complex(c) for c in k))

    def ket(self) -> np.ndarray:
        return np.array(self.amps, dtype=complex)


# Bell basis kets in the {HH, HV, VH, VV} ordering (first slot = sender A).
_PSI_PLUS_KET = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / _SQRT2
_PSI_MINUS_KET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / _SQRT2
_PHI_PLUS_KET = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / _SQRT2
_PHI_MINUS_KET = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / _SQRT2


class BellProbs(NamedTuple):
    psi_plus: float
    psi_minus: float
    phi_plus: float
    phi_minus: float


def bell_projection_probs(state_a: PureState, state_b: PureState) -> tuple[float, float]:
    """Projection probabilities onto |Ψ⁺⟩ and |Ψ⁻⟩ for a product input.

    Only these two Bell states are resolvable with linear optics; the
    remainder 1 − p⁺ − p⁻ is the failure probability of the measurement.
    """
    a, b = state_a, state_b
    ap = (a.amp_h * b.amp_v + a.amp_v * b.amp_h) / _SQRT2
    am = (a.amp_h * b.amp_v - a.amp_v * b.amp_h) / _SQRT2
    return abs(ap) ** 2, abs(am) ** 2


def bell_basis_probs(state_a: PureState, state_b: PureState) -> BellProbs:
    """Projection probabilities onto the full Bell basis (sums to 1)."""
    ket = TwoQubitState.product(state_a, state_b).ket()
    return BellProbs(
        psi_plus=abs(np.vdot(_PSI_PLUS_KET, ket)) ** 2,
        psi_minus=abs(np.vdot(_PSI_MINUS_KET, ket)) ** 2,
        phi_plus=abs(np.vdot(_PHI_PLUS_KET, ket)) ** 2,
        phi_minus=abs(np.vdot(_PHI_MINUS_KET, ket)) ** 2,
    )


# ---------------------------------------------------------------------------
# Density matrices
# ---------------------------------------------------------------------------

class DensityMatrix:
    """2×2 Hermitian, positive-semidefinite, unit-trace matrix.

    Validated on construction; the wrapped array is read-only.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        m = np.array(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ParameterError(f"density matrix must be 2x2, got shape {m.shape}")
        if not np.allclose(m, m.conj().T, atol=ATOL, rtol=0.0):
            raise ParameterError("density matrix is not Hermitian")
        tr = m.trace()
        if abs(tr - 1.0) > ATOL:
            raise ParameterError(f"density matrix trace must be 1, got {tr!r}")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -ATOL:
            raise ParameterError(f"density matrix has negative eigenvalue {eigs.min()!r}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DensityMatrix is immutable")

    def __repr__(self) -> str:
        return f"DensityMatrix({self.matrix.tolist()!r})"

    @classmethod
    def mixture(cls, components: list[tuple[float, "DensityMatrix"]]) -> "DensityMatrix":
        """Convex mixture Σ wᵢ ρᵢ; weights must sum to 1."""
        total = sum(w for w, _ in components)
        if abs(total - 1.0) > ATOL:
            raise ParameterError(f"mixture weights must sum to 1, got {total!r}")
        return cls(sum(w * rho.matrix for w, rho in components))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def commitment_density(a: int, y: float) -> DensityMatrix:
    """Mixed state seen by the receiver when only the committed bit is known.

    Equal mixture of the two basis choices for the given bit.  The basis-sign
    cross terms cancel, so the result is diagonal: diag(y, 1−y) for a = 0 and
    diag(1−y, y) for a = 1.
    """
    if a not in (0, 1):
        raise ParameterError(f"committed bit must be 0 or 1, got {a}")
    validate_y(y)
    return DensityMatrix.mixture(
        [(0.5, atvy_state(0, a, y).density()), (0.5, atvy_state(1, a, y).density())]
    )


def honest_ensemble_density(y: float) -> DensityMatrix:
    """Average state of the uniform four-state honest ensemble (equals I/2)."""
    validate_y(y)
    return DensityMatrix.mixture(
        [(0.25, state_for_label(lab, y).density()) for lab in ALL_LABELS]
    )


# ---------------------------------------------------------------------------
# Verification and cheating tables
# ---------------------------------------------------------------------------

class VerificationTable:
    """Bell-outcome probabilities for every honest label pair.

    Layout: one 4×4 panel per resolvable Bell outcome; row index is the
    sender A label, column index the sender B label, both in the flat
    2*basis + bit order.  Cells that are exactly zero form the cheat-detection
    set; there are four of them per outcome and the set does not depend on y.
    """

    def __init__(self, y: float) -> None:
        validate_y(y)
        self.y = float(y)
        plus = np.empty((4, 4))
        minus = np.empty((4, 4))
        for i, la in enumerate(ALL_LABELS):
            sa = state_for_label(la, y)
            for j, lb in enumerate(ALL_LABELS):
                p, m = bell_projection_probs(sa, state_for_label(lb, y))
                plus[i, j] = p
                minus[i, j] = m
        plus.setflags(write=False)
        minus.setflags(write=False)
        self._panels = {BsmOutcome.PSI_PLUS: plus, BsmOutcome.PSI_MINUS: minus}

    def panel(self, outcome: BsmOutcome) -> np.ndarray:
        """The full 4×4 probability panel for one Bell outcome (read-only)."""
        if outcome is BsmOutcome.FAILURE:
            raise ParameterError("no panel for the failure outcome")
        return self._panels[outcome]

    def probability(self, outcome: BsmOutcome, label_a: StateLabel, label_b: StateLabel) -> float:
        return float(self.panel(outcome)[label_a.index, label_b.index])

    def is_zero_cell(self, outcome: BsmOutcome, label_a: StateLabel, label_b: StateLabel) -> bool:
        return self.probability(outcome, label_a, label_b) == 0.0

    def zero_cells(self, outcome: BsmOutcome) -> list[tuple[StateLabel, StateLabel]]:
        panel = self.panel(outcome)
        return [
            (la, lb)
            for i, la in enumerate(ALL_LABELS)
            for j, lb in enumerate(ALL_LABELS)
            if panel[i, j] == 0.0
        ]

    def cells(self) -> Iterator[tuple[BsmOutcome, StateLabel, StateLabel, float]]:
        for outcome in BELL_OUTCOMES:
            panel = self.panel(outcome)
            for i, la in enumerate(ALL_LABELS):
                for j, lb in enumerate(ALL_LABELS):
                    yield outcome, la, lb, float(panel[i, j])


def verification_table(y: float) -> VerificationTable:
    return VerificationTable(y)


class CheatingTable:
    """Conditional Bell-outcome probabilities when slot A carries |+⟩ or |−⟩.

    For either cheating state the raw success probability is 1/2 for every
    honest B label, so the panels are normalized to p⁺ + p⁻ = 1.
    """

    SENT_STATES = ("plus", "minus")

    def __init__(self, y: float) -> None:
        validate_y(y)
        self.y = float(y)
        panels: dict[str, dict[BsmOutcome, np.ndarray]] = {}
        for name, state in (("plus", plus_state()), ("minus", minus_state())):
            row_p = np.empty(4)
            row_m = np.empty(4)
            for j, lb in enumerate(ALL_LABELS):
                p, m = bell_projection_probs(state, state_for_label(lb, y))
                row_p[j] = p / (p + m)
                row_m[j] = m / (p + m)
            row_p.setflags(write=False)
            row_m.setflags(write=False)
            panels[name] = {BsmOutcome.PSI_PLUS: row_p, BsmOutcome.PSI_MINUS: row_m}
        self._panels = panels

    def probability(self, sent: str, outcome: BsmOutcome, label_b: StateLabel) -> float:
        if sent not in self.SENT_STATES:
            raise ParameterError(f"sent state must be one of {self.SENT_STATES}, got {sent!r}")
        if outcome is BsmOutcome.FAILURE:
            raise ParameterError("no panel for the failure outcome")
        return float(self._panels[sent][outcome][label_b.index])

    def row(self, sent: str, outcome: BsmOutcome) -> np.ndarray:
        if sent not in self.SENT_STATES:
            raise ParameterError(f"sent state must be one of {self.SENT_STATES}, got {sent!r}")
        return self._panels[sent][outcome]


def cheating_table(y: float) -> CheatingTable:
    return CheatingTable(y)


# ---------------------------------------------------------------------------
# Discrimination oracles
# ---------------------------------------------------------------------------

def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """D(ρ, σ) = ½ Tr|ρ − σ| via eigenvalues of the Hermitian difference."""
    diff = rho.matrix - sigma.matrix
    eigs = np.linalg.eigvalsh(diff)
    return float(0.5 * np.abs(eigs).sum())


def helstrom_probability(rho0: DensityMatrix, rho1: DensityMatrix, prior0: float) -> float:
    """Optimal success probability for guessing between two mixed states.

    Equals prior1 plus the sum of positive eigenvalues of
    prior0·ρ0 − prior1·ρ1; for equal priors this is ½ + ½·D(ρ0, ρ1).
    """
    if not (0.0 <= prior0 <= 1.0):
        raise ParameterError(f"prior must lie in [0, 1], got {prior0}")
    prior1 = 1.0 - prior0
    gamma = prior0 * rho0.matrix - prior1 * rho1.matrix
    eigs = np.linalg.eigvalsh(gamma)
    return float(prior1 + eigs[eigs > 0.0].sum())


def _axis_guessing_success(y: float, axes: np.ndarray) -> np.ndarray:
    """Success of the best guess assignment for projective measurements.

    ``axes`` is an (n, 3) array of Bloch measurement axes.  For each axis the
    two projectors are (I ± n·σ)/2; the guess for each outcome is the ensemble
    member with the largest Born probability, so the success probability is
    1/4 + (max_i n·r_i + max_i (−n·r_i)) / 8 for unit Bloch vectors r_i.
    """
    bloch = np.array([state_for_label(lab, y).bloch_vector() for lab in ALL_LABELS])
    dots = axes @ bloch.T  # (n, 4)
    return 0.25 + (dots.max(axis=1) + (-dots).max(axis=1)) / 8.0


def guessing_success_for_measurement(y: float, basis_state: PureState) -> float:
    """Four-state guessing success when measuring in the basis of one state."""
    validate_y(y)
    axis = np.array([basis_state.bloch_vector()])
    return float(_axis_guessing_success(y, axis)[0])


def four_state_guessing_bound(y: float) -> float:
    """Analytic ceiling on the four-state guessing probability.

    For any POVM with one guess per element, success ≤ ¼ Σ Tr(Eᵢ)·λmax(ρᵢ);
    the ensemble members are pure (λmax = 1) and Σ Tr(Eᵢ) = Tr(I) = 2, so the
    bound is ½ independent of y.
    """
    validate_y(y)
    lam_max = max(
        float(state_for_label(lab, y).density().eigenvalues().max()) for lab in ALL_LABELS
    )
    return 0.25 * 2.0 * lam_max


def four_state_guessing_probability(y: float, grid_step_deg: float = 1.0) -> float:
    """Best guessing probability over a grid of projective measurements.

    Scans Bloch measurement axes in ``grid_step_deg`` steps over a hemisphere
    (an axis and its negation give the same measurement).  Converges to the
    analytic bound of ½ as the grid refines; at 1° resolution it is within
    1e-3 of it.
    """
    validate_y(y)
    if grid_step_deg <= 0.0:
        raise ParameterError("grid step must be positive")
    thetas = np.deg2rad(np.arange(0.0, 180.0 + grid_step_deg / 2.0, grid_step_deg))
    phis = np.deg2rad(np.arange(0.0, 180.0, grid_step_deg))
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    axes = np.column_stack(
        [
            (np.sin(t) * np.cos(p)).ravel(),
            (np.sin(t) * np.sin(p)).ravel(),
            np.cos(t).ravel(),
        ]
    )
    return float(_axis_guessing_success(y, axes).max())
