"""Measurement-device-independent quantum coin tossing: simulator and analysis.

The package splits along the natural seams of the problem:

* :mod:`mdiqct.qmath` - exact one/two-qubit math, verification and cheating
  tables, discrimination oracles;
* :mod:`mdiqct.devices` - fiber loss, detectors, photon numbers, and the
  sampled Bell-state measurement;
* :mod:`mdiqct.protocol` - one driver per protocol flow (main flow, fixed-pulse
  weak-coherent variant, non-MDI baseline); strategies enter by role;
* :mod:`mdiqct.adversaries` - pluggable cheating strategies;
* :mod:`mdiqct.analysis` - closed forms, the fairness solver, and the seeded
  Monte Carlo estimator;
* :mod:`mdiqct.cli` - the ``mdiqct`` command.
"""

from .adversaries import (
    alice_blinding_attack,
    alice_coherent_attack,
    alice_individual_attack,
    bob_med_attack,
    identity_strategy,
)
from .analysis import (
    Estimate,
    FairPoint,
    SweepPoint,
    cheat_alice_coherent,
    cheat_alice_individual,
    cheat_bob,
    estimate,
    honest_abort_closed_form,
    honest_abort_given_success,
    solve_fair_y,
    sweep_distance,
)
from .devices import (
    ChannelParams,
    DetectorParams,
    sample_bsm_ideal,
    sample_bsm_noisy,
    sample_photon_number,
    transmittance,
)
from .errors import (
    ConfigurationError,
    ExhaustionError,
    ParameterError,
    PhaseOrderError,
    UnknownScenarioError,
)
from .protocol import (
    Mode,
    RunConfig,
    Transcript,
    Verdict,
    ideal_config,
    is_zero_cell,
    run_baseline,
    run_honest,
    run_weak_coherent,
    run_with_adversary,
    verify,
)
from .qmath import (
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
    trace_distance,
    verification_table,
)

__version__ = "0.1.0"
