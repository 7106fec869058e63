"""Exact finite-dimensional quantum math for the coin-tossing simulator.

Everything here is closed-form linear algebra on one or two polarization
qubits: construction of the four commitment states and the |±⟩ cheating
states, Bell projections |Ψ⁺⟩/|Ψ⁻⟩ at the measurement station, the
verification table used to catch a lying committer, trace distance, and
two optimal-discrimination oracles (Helstrom two-state, and the exact ½
bound for the uniform four-state ensemble).

All operations are pure functions of their inputs; the value types are
immutable and safe to share across workers.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ParameterError

# Algebraic identities are checked at this tolerance; sampled estimates
# carry their own explicit tolerances.
ATOL = 1e-12

_SQRT2 = math.sqrt(2.0)


def validate_y(y: float) -> float:
    """Check the state-family coefficient y: a real number (``numbers.Real``,
    which numpy floats and integers are too; never a bool) in (1/2, 1)."""
    # A Python float is tested first: the state constructors call this once per round.
    if type(y) is not float and (isinstance(y, bool) or not isinstance(y, numbers.Real)):
        raise ParameterError(f"coefficient y must be a real number, got {y!r}")
    if not (0.5 < y < 1.0):
        raise ParameterError(f"coefficient y must lie in (1/2, 1), got {y}")
    return float(y)


def validate_int(name: str, value, low: int, high: float = math.inf) -> None:
    """Check an integer parameter in [low, high]: a Python or numpy integer, never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        bounds = f"lie in [{low}, {high}]" if high < math.inf else f"be >= {low}"
        raise ParameterError(f"{name} must {bounds}, got {value}")


# ---------------------------------------------------------------------------
# Labels and outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateLabel:
    """Classical preparation label: a basis choice and a bit, both in {0, 1}."""

    basis: int
    bit: int

    def __post_init__(self) -> None:
        validate_int("label basis", self.basis, 0, 1)
        validate_int("label bit", self.bit, 0, 1)

    @property
    def index(self) -> int:
        """Flat index 2*basis + bit; row/column order of the tables."""
        return 2 * self.basis + self.bit

    @classmethod
    def from_index(cls, index: int) -> "StateLabel":
        validate_int("label index", index, 0, 3)
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


def bell_projection_probs(state_a: PureState, state_b: PureState) -> tuple[float, float]:
    """Projection probabilities onto |Ψ⁺⟩ and |Ψ⁻⟩ for a product input.

    Only these two Bell states are resolvable with linear optics; the
    remainder 1 − p⁺ − p⁻ is the failure probability of the measurement.
    """
    a, b = state_a, state_b
    ap = (a.amp_h * b.amp_v + a.amp_v * b.amp_h) / _SQRT2
    am = (a.amp_h * b.amp_v - a.amp_v * b.amp_h) / _SQRT2
    return abs(ap) ** 2, abs(am) ** 2


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


def commitment_density(a: int, y: float) -> DensityMatrix:
    """Mixed state seen by the receiver when only the committed bit is known.

    Equal mixture of the two basis choices for the given bit.  The basis-sign
    cross terms cancel, so the result is diagonal: diag(y, 1−y) for a = 0 and
    diag(1−y, y) for a = 1.
    """
    validate_int("committed bit", a, 0, 1)
    validate_y(y)
    return DensityMatrix.mixture(
        [(0.5, atvy_state(0, a, y).density()), (0.5, atvy_state(1, a, y).density())]
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

    def zero_cells(self, outcome: BsmOutcome) -> list[tuple[StateLabel, StateLabel]]:
        panel = self.panel(outcome)
        return [
            (la, lb)
            for i, la in enumerate(ALL_LABELS)
            for j, lb in enumerate(ALL_LABELS)
            if panel[i, j] == 0.0
        ]


def verification_table(y: float) -> VerificationTable:
    return VerificationTable(y)


# The two cheating states A may send in place of a commitment: |+⟩ and |−⟩.
SENT_STATES = ("plus", "minus")


class CheatingTable:
    """Conditional Bell-outcome probabilities when slot A carries |+⟩ or |−⟩.

    For either cheating state the raw success probability is 1/2 for every
    honest B label, so the panels are normalized to p⁺ + p⁻ = 1.
    """

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
        return float(self.row(sent, outcome)[label_b.index])

    def row(self, sent: str, outcome: BsmOutcome) -> np.ndarray:
        if sent not in SENT_STATES:
            raise ParameterError(f"sent state must be one of {SENT_STATES}, got {sent!r}")
        if outcome is BsmOutcome.FAILURE:
            raise ParameterError("no panel for the failure outcome")
        return self._panels[sent][outcome]


def cheating_table(y: float) -> CheatingTable:
    """The cheating table at y, shared between callers (its panels are read-only)."""
    return _cheating_table(validate_y(y))


@lru_cache(maxsize=32)
def _cheating_table(y: float) -> CheatingTable:
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


def four_state_guessing_bound(y: float) -> float:
    """Analytic ceiling on the four-state guessing probability.

    For any POVM with one guess per element, success ≤ ¼ Σ Tr(Eᵢ)·λmax(ρᵢ);
    the ensemble members are pure (λmax = 1) and Σ Tr(Eᵢ) = Tr(I) = 2, so the
    bound is ½ independent of y.  Measuring in a preparation basis reaches it.
    """
    validate_y(y)
    return 0.5
