"""Closed-form quantum math: states, tables, and discrimination oracles.

Expected values are frozen from independent derivations: the commitment
densities are expanded by hand, the table cells follow the structural
pattern {2y(1-y), (1-2y)^2/2, 0, 1/2}, and the trace-distance and
Helstrom values come from the pure-state overlap formula.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_pure_state
from mdiqct.errors import ParameterError
from mdiqct.qmath import (
    ALL_LABELS,
    BsmOutcome,
    DensityMatrix,
    PureState,
    StateLabel,
    atvy_state,
    bell_projection_probs,
    cheating_table,
    commitment_density,
    four_state_guessing_bound,
    helstrom_probability,
    minus_state,
    plus_state,
    state_for_label,
    trace_distance,
    validate_y,
    verification_table,
)

Y_GRID = [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]

# Verification panels at y = 0.9, from the cell values
# 2y(1-y) = 0.18, (1-2y)^2/2 = 0.32, 1/2, and the four structural zeros.
PANEL_PSI_PLUS_09 = [
    [0.18, 0.32, 0.00, 0.50],
    [0.32, 0.18, 0.50, 0.00],
    [0.00, 0.50, 0.18, 0.32],
    [0.50, 0.00, 0.32, 0.18],
]
PANEL_PSI_MINUS_09 = [
    [0.00, 0.50, 0.18, 0.32],
    [0.50, 0.00, 0.32, 0.18],
    [0.18, 0.32, 0.00, 0.50],
    [0.32, 0.18, 0.50, 0.00],
]


def structural_cell(outcome: BsmOutcome, la: StateLabel, lb: StateLabel, y: float) -> float:
    """Independent oracle: table cells from the label relations alone."""
    same_basis = la.basis == lb.basis
    same_bit = la.bit == lb.bit
    if outcome is BsmOutcome.PSI_PLUS:
        if same_basis and same_bit:
            return 2.0 * y * (1.0 - y)
        if same_basis:
            return 0.5 * (1.0 - 2.0 * y) ** 2
        if same_bit:
            return 0.0
        return 0.5
    if same_basis and same_bit:
        return 0.0
    if same_basis:
        return 0.5
    if same_bit:
        return 2.0 * y * (1.0 - y)
    return 0.5 * (2.0 * y - 1.0) ** 2


class TestStates:
    def test_atvy_amplitudes_frozen(self):
        """(alpha=0,a=0,y=0.9) -> (sqrt(0.9), sqrt(0.1)); sign flips with alpha."""
        s = atvy_state(0, 0, 0.9)
        assert s.amp_h == pytest.approx(math.sqrt(0.9), abs=1e-15)
        assert s.amp_v == pytest.approx(math.sqrt(0.1), abs=1e-15)
        s = atvy_state(1, 0, 0.9)
        assert s.amp_h == pytest.approx(math.sqrt(0.9), abs=1e-15)
        assert s.amp_v == pytest.approx(-math.sqrt(0.1), abs=1e-15)

    def test_atvy_bit_one_states(self):
        s = atvy_state(0, 1, 0.9)
        assert s.amp_h == pytest.approx(math.sqrt(0.1), abs=1e-15)
        assert s.amp_v == pytest.approx(-math.sqrt(0.9), abs=1e-15)
        s = atvy_state(1, 1, 0.9)
        assert s.amp_v == pytest.approx(math.sqrt(0.9), abs=1e-15)

    def test_symmetric_limit(self):
        """As y -> 1/2 every amplitude magnitude approaches 1/sqrt(2)."""
        s = atvy_state(0, 1, 0.5 + 1e-9)
        assert abs(s.amp_h) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)
        assert abs(s.amp_v) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)

    @pytest.mark.parametrize("y", Y_GRID)
    def test_unit_norm_and_real(self, y):
        for la in ALL_LABELS:
            s = atvy_state(la.basis, la.bit, y)
            norm = abs(s.amp_h) ** 2 + abs(s.amp_v) ** 2
            assert norm == pytest.approx(1.0, abs=1e-12)
            assert s.amp_h.imag == 0.0 and s.amp_v.imag == 0.0

    @pytest.mark.parametrize("y", [0.5, 1.0, 0.2, 1.3, -0.1])
    def test_y_out_of_range(self, y):
        with pytest.raises(ParameterError):
            atvy_state(0, 0, y)

    def test_bad_bits_rejected(self):
        with pytest.raises(ParameterError):
            atvy_state(2, 0, 0.9)
        with pytest.raises(ParameterError):
            atvy_state(0, -1, 0.9)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ParameterError):
            PureState(1.0, 1.0)

    def test_same_basis_states_orthogonal(self):
        for y in (0.6, 0.9):
            for basis in (0, 1):
                ov = atvy_state(basis, 0, y).overlap(atvy_state(basis, 1, y))
                assert abs(ov) == pytest.approx(0.0, abs=1e-12)


class TestDensities:
    def test_commitment_density_diag(self):
        """Hand expansion: the basis cross terms cancel, leaving diag(y, 1-y)."""
        rho0 = commitment_density(0, 0.9)
        np.testing.assert_allclose(rho0.matrix, np.diag([0.9, 0.1]), atol=1e-12)
        rho1 = commitment_density(1, 0.9)
        np.testing.assert_allclose(rho1.matrix, np.diag([0.1, 0.9]), atol=1e-12)

    @pytest.mark.parametrize("y", Y_GRID)
    def test_uniform_ensemble_is_maximally_mixed(self, y):
        rho = DensityMatrix.mixture([(0.25, state_for_label(lab, y).density()) for lab in ALL_LABELS])
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2.0, atol=1e-12)

    def test_invalid_bit(self):
        with pytest.raises(ParameterError):
            commitment_density(2, 0.9)

    def test_density_validation(self):
        with pytest.raises(ParameterError):
            DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
        with pytest.raises(ParameterError):
            DensityMatrix(np.diag([0.6, 0.6]))  # trace 1.2
        with pytest.raises(ParameterError):
            DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue

    def test_density_is_immutable(self):
        rho = commitment_density(0, 0.9)
        with pytest.raises((AttributeError, ValueError)):
            rho.matrix = np.eye(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0


class TestBellProjection:
    def test_identical_states_frozen(self):
        """(phi00, phi00) -> (2y(1-y), 0) = (0.18, 0) at y = 0.9."""
        s = atvy_state(0, 0, 0.9)
        p_plus, p_minus = bell_projection_probs(s, s)
        assert p_plus == pytest.approx(0.18, abs=1e-12)
        assert p_minus == 0.0

    def test_cross_basis_frozen(self):
        """(phi00, phi11) -> (1/2, (2y-1)^2/2) = (0.5, 0.32) at y = 0.9."""
        p_plus, p_minus = bell_projection_probs(atvy_state(0, 0, 0.9), atvy_state(1, 1, 0.9))
        assert p_plus == pytest.approx(0.5, abs=1e-12)
        assert p_minus == pytest.approx(0.32, abs=1e-12)

    def test_plus_state_row(self):
        """|+> vs phi00: raw pair sums to 1/2 and normalizes to (0.8, 0.2)."""
        p_plus, p_minus = bell_projection_probs(plus_state(), atvy_state(0, 0, 0.9))
        total = p_plus + p_minus
        assert total == pytest.approx(0.5, abs=1e-12)
        assert p_plus / total == pytest.approx(0.8, abs=1e-12)
        assert p_minus / total == pytest.approx(0.2, abs=1e-12)

    def test_swap_symmetry(self, rng):
        """Swapping the two inputs leaves both projection probabilities unchanged."""
        for _ in range(50):
            a, b = random_pure_state(rng), random_pure_state(rng)
            pab = bell_projection_probs(a, b)
            pba = bell_projection_probs(b, a)
            assert pab[0] == pytest.approx(pba[0], abs=1e-12)
            assert pab[1] == pytest.approx(pba[1], abs=1e-12)

    def test_identical_state_antisymmetry(self, rng):
        """The antisymmetric projection vanishes for any repeated pure state."""
        for _ in range(100):
            s = random_pure_state(rng)
            assert bell_projection_probs(s, s)[1] == pytest.approx(0.0, abs=1e-12)

    def test_full_bell_basis_completeness(self, rng):
        """p± of the product state and its Φ± projections, from the two-photon
        amplitudes over {HH, HV, VH, VV}, sum to 1."""
        for _ in range(100):
            a, b = random_pure_state(rng), random_pure_state(rng)
            hh, _, _, vv = np.kron(a.ket(), b.ket())
            phi = (abs(hh + vv) ** 2 / 2.0, abs(hh - vv) ** 2 / 2.0)
            probs = (*bell_projection_probs(a, b), *phi)
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)
            assert all(-1e-15 <= p <= 1.0 + 1e-12 for p in probs)


class TestVerificationTable:
    def test_all_32_cells_frozen_at_fair_point(self):
        table = verification_table(0.9)
        for panel, frozen in (
            (table.panel(BsmOutcome.PSI_PLUS), PANEL_PSI_PLUS_09),
            (table.panel(BsmOutcome.PSI_MINUS), PANEL_PSI_MINUS_09),
        ):
            np.testing.assert_allclose(panel, frozen, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("y", Y_GRID)
    def test_matches_structural_oracle(self, y):
        table = verification_table(y)
        for outcome in (BsmOutcome.PSI_PLUS, BsmOutcome.PSI_MINUS):
            panel = table.panel(outcome)
            for la in ALL_LABELS:
                for lb in ALL_LABELS:
                    assert panel[la.index, lb.index] == pytest.approx(structural_cell(outcome, la, lb, y), abs=1e-12)

    def test_single_cell_lookup(self):
        table = verification_table(0.9)
        assert table.probability(
            BsmOutcome.PSI_MINUS, StateLabel(0, 1), StateLabel(0, 0)
        ) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("y", Y_GRID)
    def test_exactly_four_zero_cells_per_outcome(self, y):
        table = verification_table(y)
        for outcome in (BsmOutcome.PSI_PLUS, BsmOutcome.PSI_MINUS):
            assert len(table.zero_cells(outcome)) == 4

    def test_zero_set_is_y_independent(self):
        reference = {
            outcome: set(
                (la.index, lb.index) for la, lb in verification_table(0.9).zero_cells(outcome)
            )
            for outcome in (BsmOutcome.PSI_PLUS, BsmOutcome.PSI_MINUS)
        }
        for y in Y_GRID:
            table = verification_table(y)
            for outcome, cells in reference.items():
                got = set((la.index, lb.index) for la, lb in table.zero_cells(outcome))
                assert got == cells

    @pytest.mark.parametrize("y", Y_GRID)
    def test_row_sums_are_one(self, y):
        """2y(1-y) + (1-2y)^2/2 + 0 + 1/2 = 1 for every row of either panel."""
        table = verification_table(y)
        for outcome in (BsmOutcome.PSI_PLUS, BsmOutcome.PSI_MINUS):
            sums = np.asarray(table.panel(outcome)).sum(axis=1)
            np.testing.assert_allclose(sums, np.ones(4), atol=1e-12)

    def test_label_swap_symmetry(self):
        table = verification_table(0.75)
        for outcome in (BsmOutcome.PSI_PLUS, BsmOutcome.PSI_MINUS):
            panel = np.asarray(table.panel(outcome))
            np.testing.assert_allclose(panel, panel.T, atol=1e-12)

    def test_failure_panel_rejected(self):
        with pytest.raises(ParameterError):
            verification_table(0.9).panel(BsmOutcome.FAILURE)


class TestCheatingTable:
    def test_frozen_rows_at_fair_point(self):
        """(1 +- 2 sqrt(y(1-y)))/2 = 0.8 / 0.2 at y = 0.9."""
        table = cheating_table(0.9)
        np.testing.assert_allclose(
            table.row("plus", BsmOutcome.PSI_PLUS), [0.8, 0.2, 0.2, 0.8], atol=1e-12
        )
        np.testing.assert_allclose(
            table.row("plus", BsmOutcome.PSI_MINUS), [0.2, 0.8, 0.8, 0.2], atol=1e-12
        )
        np.testing.assert_allclose(
            table.row("minus", BsmOutcome.PSI_PLUS), [0.2, 0.8, 0.8, 0.2], atol=1e-12
        )
        np.testing.assert_allclose(
            table.row("minus", BsmOutcome.PSI_MINUS), [0.8, 0.2, 0.2, 0.8], atol=1e-12
        )

    @pytest.mark.parametrize("y", Y_GRID)
    def test_rows_normalized(self, y):
        table = cheating_table(y)
        for sent in ("plus", "minus"):
            total = np.asarray(table.row(sent, BsmOutcome.PSI_PLUS)) + np.asarray(
                table.row(sent, BsmOutcome.PSI_MINUS)
            )
            np.testing.assert_allclose(total, np.ones(4), atol=1e-12)

    @pytest.mark.parametrize("y", Y_GRID)
    def test_raw_success_probability_is_half(self, y):
        """Either cheating state triggers a Bell outcome with probability 1/2."""
        for state in (plus_state(), minus_state()):
            for la in ALL_LABELS:
                p, m = bell_projection_probs(state, atvy_state(la.basis, la.bit, y))
                assert p + m == pytest.approx(0.5, abs=1e-12)

    def test_bad_sent_state(self):
        with pytest.raises(ParameterError):
            cheating_table(0.9).probability("circle", BsmOutcome.PSI_PLUS, StateLabel(0, 0))

    def test_shared_per_y_and_refuses_what_validate_y_refuses(self):
        assert cheating_table(0.9) is cheating_table(np.float64(0.9))
        assert cheating_table(0.8) is not cheating_table(0.9)
        for y in ("0.9", [0.9], 1.0):
            with pytest.raises(ParameterError):
                cheating_table(y)


class TestInputTypes:
    @pytest.mark.parametrize("y", ["0.9", None, 0.9j, complex(0.9, 0.0), True, [0.9]])
    def test_validate_y_refuses_non_real(self, y):
        with pytest.raises(ParameterError):
            validate_y(y)

    @pytest.mark.parametrize("y", [0.9, np.float64(0.9), np.float32(0.75), 0.6, Fraction(9, 10)])
    def test_validate_y_accepts_real_numbers(self, y):
        assert validate_y(y) == float(y)

    @pytest.mark.parametrize("y", [1, 0, np.int64(1)])
    def test_integers_are_real_but_outside_the_interval(self, y):
        with pytest.raises(ParameterError, match=r"\(1/2, 1\)"):
            validate_y(y)

    @pytest.mark.parametrize("fields", [(1.0, 0), (0, 1.0), (True, 0), (0, False), ("1", 0), (2, 0), (0, -1)])
    def test_state_label_refuses_non_bit_fields(self, fields):
        with pytest.raises(ParameterError):
            StateLabel(*fields)

    def test_state_label_takes_numpy_integers(self):
        label = StateLabel(np.int8(1), np.int64(0))
        assert label == ALL_LABELS[2] and label.index == 2


class TestTraceDistance:
    def test_identical_states(self):
        rho = commitment_density(0, 0.9)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        h = PureState(1.0, 0.0).density()
        v = PureState(0.0, 1.0).density()
        assert trace_distance(h, v) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("y", Y_GRID)
    def test_plus_state_equidistant(self, y):
        """|+> sits at equal trace distance from phi00 and phi11 (and the
        pure-state formula sqrt(1 - overlap^2) reproduces the value)."""
        plus = plus_state()
        d00 = trace_distance(plus.density(), atvy_state(0, 0, y).density())
        d11 = trace_distance(plus.density(), atvy_state(1, 1, y).density())
        assert d00 == pytest.approx(d11, abs=1e-12)
        expected = math.sqrt(1.0 - abs(plus.overlap(atvy_state(0, 0, y))) ** 2)
        assert d00 == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("y", Y_GRID)
    def test_minus_state_equidistant(self, y):
        minus = minus_state()
        d01 = trace_distance(minus.density(), atvy_state(0, 1, y).density())
        d10 = trace_distance(minus.density(), atvy_state(1, 0, y).density())
        assert d01 == pytest.approx(d10, abs=1e-12)

    def test_frozen_value_at_fair_point(self):
        """Overlap |<+|phi00>|^2 = 0.8 at y = 0.9, so D = sqrt(0.2)."""
        d = trace_distance(plus_state().density(), atvy_state(0, 0, 0.9).density())
        assert d == pytest.approx(math.sqrt(0.2), abs=1e-12)


class TestHelstrom:
    @pytest.mark.parametrize("y", Y_GRID)
    def test_commitment_discrimination_equals_y(self, y):
        """The two commitment mixtures are optimally told apart with probability y."""
        p = helstrom_probability(commitment_density(0, y), commitment_density(1, y), 0.5)
        assert p == pytest.approx(y, abs=1e-12)

    def test_indistinguishable_states(self):
        rho = commitment_density(0, 0.8)
        assert helstrom_probability(rho, rho, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_states(self):
        h = PureState(1.0, 0.0).density()
        v = PureState(0.0, 1.0).density()
        assert helstrom_probability(h, v, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_extreme_priors(self):
        rho0 = commitment_density(0, 0.9)
        rho1 = commitment_density(1, 0.9)
        assert helstrom_probability(rho0, rho1, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert helstrom_probability(rho0, rho1, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_equals_half_plus_half_trace_distance(self):
        rho0 = commitment_density(0, 0.7)
        rho1 = commitment_density(1, 0.7)
        expected = 0.5 + 0.5 * trace_distance(rho0, rho1)
        assert helstrom_probability(rho0, rho1, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_invalid_prior(self):
        rho = commitment_density(0, 0.9)
        with pytest.raises(ParameterError):
            helstrom_probability(rho, rho, 1.5)


def projective_guessing_success(y: float, axes: np.ndarray) -> np.ndarray:
    """Four-state guessing success of the projective measurement along each
    Bloch axis of ``axes`` (shape (n, 3)), each outcome guessing its likeliest
    state: outcome ± of a state with Bloch vector r has probability
    (1 ± n·r)/2, so the success is ¼ + (max n·r + max −n·r)/8."""
    kets = [state_for_label(lab, y).ket() for lab in ALL_LABELS]
    bloch = np.array([[2 * (h.conjugate() * v).real, 2 * (h.conjugate() * v).imag, abs(h) ** 2 - abs(v) ** 2]
                      for h, v in kets])
    dots = axes @ bloch.T
    return 0.25 + (dots.max(axis=1) + (-dots).max(axis=1)) / 8.0


def axis_grid(step_deg: float) -> np.ndarray:
    """Bloch axes over a hemisphere in ``step_deg`` steps (an axis and its
    negation give the same measurement)."""
    t, p = np.meshgrid(np.deg2rad(np.arange(0.0, 180.0 + step_deg / 2.0, step_deg)),
                       np.deg2rad(np.arange(0.0, 180.0, step_deg)), indexing="ij")
    return np.column_stack([(np.sin(t) * np.cos(p)).ravel(), (np.sin(t) * np.sin(p)).ravel(), np.cos(t).ravel()])


class TestFourStateGuessing:
    def test_grid_reaches_half(self):
        assert projective_guessing_success(0.9, axis_grid(1.0)).max() == pytest.approx(0.5, abs=1e-3)

    def test_near_symmetric_limit(self):
        assert projective_guessing_success(0.5 + 1e-9, axis_grid(1.0)).max() == pytest.approx(0.5, abs=1e-3)

    def test_analytic_bound_is_half(self):
        for y in Y_GRID:
            assert four_state_guessing_bound(y) == 0.5

    def test_grid_never_exceeds_bound(self):
        """No projective measurement beats the bound, on a grid and at random axes."""
        rng = np.random.default_rng(11)
        random_axes = rng.normal(size=(10_000, 3))
        random_axes /= np.linalg.norm(random_axes, axis=1, keepdims=True)
        for y in (0.6, 0.9):
            for axes in (axis_grid(2.0), random_axes):
                assert projective_guessing_success(y, axes).max() <= four_state_guessing_bound(y) + 1e-12

    def test_preparation_basis_measurement_is_exactly_half(self):
        """Measuring in the {phi00, phi01} basis identifies two of the four
        states perfectly and the other two never: success exactly 1/2."""
        for y in (0.6, 0.75, 0.9):
            h, v = atvy_state(0, 0, y).ket().real
            axis = np.array([[2 * h * v, 0.0, h * h - v * v]])
            assert projective_guessing_success(y, axis)[0] == pytest.approx(four_state_guessing_bound(y), abs=1e-12)
