"""Physical-layer models: fiber loss, detectors, photon numbers, and the sampled BSM.

A source is a single-photon source, or, in the weak-coherent flow only, a
weak-coherent one whose mean photon number μ is the same for both parties:
:func:`validate_mu` is the one check of μ, :func:`sample_photon_number`
draws one emission's photon count.

The measurement station is modeled as four gated single-photon detectors
behind a beam splitter.  A genuine two-photon coincidence performs the ideal
Bell projection; when one or both photons are missing, dark counts can fake a
coincidence, uniformly over {Ψ⁺, Ψ⁻} and independently of the prepared
labels, so a fake lands in a verification zero cell with probability exactly
1/4 for uniformly chosen labels.  :func:`round_rates` is the one round model:
it splits a round into seven outcomes, {both-photons, photon+dark, dark+dark}
× {Ψ⁺, Ψ⁻} plus failure.  The closed forms of the analysis module and every
sampler read that table; it is a probability distribution only for dark-count
probabilities d ≤ 1/2, so :class:`DetectorParams` refuses larger values.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import ParameterError
from .qmath import BsmOutcome, PureState, bell_projection_probs

DEFAULT_LOSS_COEFF_DB_PER_KM = 0.2


def transmittance(length_km: float, loss_coeff_db_per_km: float = DEFAULT_LOSS_COEFF_DB_PER_KM) -> float:
    """Survival probability of a photon over a fiber of the given length.

    t = 10^(−coeff·L/10); at the default 0.2 dB/km this is 10^(−0.02 L).
    An infinite length gives t = 0; a NaN input or an infinite coefficient
    is refused (each check is written so that NaN fails it).
    """
    if not length_km >= 0.0:
        raise ParameterError(f"fiber length must be >= 0, got {length_km}")
    if not 0.0 < loss_coeff_db_per_km < math.inf:
        raise ParameterError(f"loss coefficient must be finite and > 0, got {loss_coeff_db_per_km}")
    return 10.0 ** (-(loss_coeff_db_per_km / 10.0) * length_km)


@dataclass(frozen=True)
class ChannelParams:
    """Fiber lengths (km) from each party to the measurement station."""

    l_a: float = 0.0
    l_b: float = 0.0
    loss_coeff: float = DEFAULT_LOSS_COEFF_DB_PER_KM

    def __post_init__(self) -> None:
        for length in (self.l_a, self.l_b):
            transmittance(length, self.loss_coeff)  # refuses what it cannot evaluate

    @cached_property
    def t_a(self) -> float:
        return transmittance(self.l_a, self.loss_coeff)

    @cached_property
    def t_b(self) -> float:
        return transmittance(self.l_b, self.loss_coeff)


@dataclass(frozen=True)
class DetectorParams:
    """Detection efficiency and per-gate dark count probability.

    ``dark`` is a per-detector per-gate probability, not a rate: the protocol
    is round based and every quantity here is per round.
    """

    eta: float = 1.0
    dark: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.eta <= 1.0):
            raise ParameterError(f"detector efficiency must lie in [0, 1], got {self.eta}")
        if not (0.0 <= self.dark <= 0.5):
            raise ParameterError(
                "dark count probability must lie in [0, 1/2]: one dark count completes a Bell "
                f"outcome with probability d and two with 2d², got {self.dark}"
            )


IDEAL_CHANNEL = ChannelParams(0.0, 0.0)
IDEAL_DETECTOR = DetectorParams(eta=1.0, dark=0.0)


# The largest mean numpy's Poisson sampler accepts (its internal POISSON_LAM_MAX).
MAX_POISSON_MEAN = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def validate_mu(mu: Optional[float]) -> None:
    """Check a weak-coherent mean photon number: finite, > 0 and at most
    ``MAX_POISSON_MEAN``.  None, NaN and infinities are refused."""
    if mu is None or not 0.0 < mu <= MAX_POISSON_MEAN:  # written so that NaN fails
        raise ParameterError(f"mean photon number must lie in (0, {MAX_POISSON_MEAN:.4g}], got {mu}")


def sample_photon_number(mu: Optional[float], rng: np.random.Generator) -> int:
    """Photon count of one emission: 1 for a single-photon source (``mu``
    None), else Poissonian with mean ``mu``."""
    return 1 if mu is None else int(rng.poisson(mu))


# ---------------------------------------------------------------------------
# The round model and the BSM samplers
# ---------------------------------------------------------------------------

class EventCause(Enum):
    """What produced the round's output, for diagnostics and case accounting."""

    BOTH_PHOTONS = "both-photons"
    PHOTON_DARK = "photon+dark"
    DARK_DARK = "dark+dark"
    FAILURE = "failure"


@dataclass(frozen=True)
class BsmSample:
    outcome: BsmOutcome
    cause: EventCause

    def __post_init__(self) -> None:
        success = self.outcome is not BsmOutcome.FAILURE
        if (self.cause is EventCause.FAILURE) == success:
            raise ParameterError(f"inconsistent sample: {self.outcome} with cause {self.cause}")


# Integer codes for the vectorized sampler.
OUTCOME_FAILURE, OUTCOME_PSI_PLUS, OUTCOME_PSI_MINUS = 0, 1, 2
CAUSE_FAILURE, CAUSE_BOTH, CAUSE_PHOTON_DARK, CAUSE_DARK_DARK = 0, 1, 2, 3

class RoundRates(NamedTuple):
    """Probability of each event cause per Bell outcome in one round.

    ``dark_cuts`` holds the upper edges of the four dark bands, the
    thresholds every sampler compares its uniform draw against.
    """

    genuine: float
    photon_dark: float
    dark_dark: float
    dark_cuts: tuple[float, float, float, float]


@lru_cache(maxsize=256)
def round_rates(t_a: float, t_b: float, detector: DetectorParams, extended: bool = False) -> RoundRates:
    """The round model for photon survival probabilities t_a and t_b.

    ``t_a``/``t_b`` are the fiber transmittances, or 0 for a pulse that
    carried no photon.  Event cases, per Bell outcome:

    * both photons transmitted and detected: the ideal projection decides;
    * one photon detected while the partner photon was lost in the fiber: a
      dark count completes a coincidence with probability d;
    * no photon detected: two dark counts fake a coincidence with
      probability 2d².

    The default model gives no dark-count completion to a detected photon
    whose partner arrived but went undetected; ``extended=True`` adds that
    case.  The (1−d)² probability that the two uninvolved detectors stay
    quiet is omitted.  A round whose ideal projection probabilities are p⁺
    and p⁻ thus has seven outcomes, laid out as bands of the unit interval
    in this order: photon+dark Ψ⁺ and Ψ⁻ (``photon_dark`` each), dark+dark
    Ψ⁺ and Ψ⁻ (``dark_dark`` each), both-photons Ψ⁺ and Ψ⁻ (``genuine · p±``),
    and failure (the rest).
    """
    eta, d = detector.eta, detector.dark
    pd = (t_a * (1.0 - t_b) * eta + t_b * (1.0 - t_a) * eta) * d
    if extended:
        pd += 2.0 * t_a * t_b * eta * (1.0 - eta) * d
    # Neither photon detected; as a product of two factors in [0, 1] it cannot
    # round above 1, which at d = 1/2 would leave a negative failure band.
    no_detection = (1.0 - t_a * eta) * (1.0 - t_b * eta)
    dd = no_detection * 2.0 * d * d
    return RoundRates(t_a * t_b * eta * eta, pd, dd, (pd, pd + pd, pd + pd + dd, pd + pd + dd + dd))


# The seven bands in table order, as samples and as integer codes.
BAND_SAMPLES = tuple(
    BsmSample(outcome, cause)
    for cause in (EventCause.PHOTON_DARK, EventCause.DARK_DARK, EventCause.BOTH_PHOTONS)
    for outcome in (BsmOutcome.PSI_PLUS, BsmOutcome.PSI_MINUS)
) + (BsmSample(BsmOutcome.FAILURE, EventCause.FAILURE),)
FAILURE_BAND = 6
BAND_OUTCOME = np.array([OUTCOME_PSI_PLUS, OUTCOME_PSI_MINUS] * 3 + [OUTCOME_FAILURE], dtype=np.int8)
BAND_CAUSE = np.repeat(
    np.array([CAUSE_PHOTON_DARK, CAUSE_DARK_DARK, CAUSE_BOTH, CAUSE_FAILURE], dtype=np.int8), (2, 2, 2, 1)
)


def bsm_band(u, rates: RoundRates, p_plus, p_minus):
    """The band of the :func:`round_rates` table that a uniform ``u`` picks,
    for one round (scalars) or many (equal-shape arrays).

    ``p_plus``/``p_minus`` are the rounds' ideal projection probabilities.
    The band is the number of band edges at or below u; a u at or above the
    round's success mass ``dark_cuts[3] + genuine`` fails even where rounding
    puts the last edge above it (p⁺ + p⁻ = 1).
    """
    cuts, genuine = rates.dark_cuts, rates.genuine
    plus_cut = cuts[3] + genuine * p_plus
    band = sum(u >= cut for cut in (*cuts, plus_cut, plus_cut + genuine * p_minus))
    return band + (u >= cuts[3] + genuine) * (FAILURE_BAND - band)


def sample_bsm_noisy(
    state_a: PureState,
    state_b: PureState,
    channel: ChannelParams,
    detector: DetectorParams,
    rng: np.random.Generator,
    *,
    extended: bool = False,
) -> BsmSample:
    """One round of the lossy, dark-count-afflicted Bell measurement.

    One uniform draw picks a band of the :func:`round_rates` table.  The
    states enter only through their ideal projection probabilities, which
    are computed when the draw lands in the both-photons band.
    """
    rates = round_rates(channel.t_a, channel.t_b, detector, extended)
    cuts = rates.dark_cuts
    u = rng.random()
    if u < cuts[3]:
        return BAND_SAMPLES[bisect_right(cuts, u)]
    if u >= cuts[3] + rates.genuine:
        return BAND_SAMPLES[FAILURE_BAND]
    p_plus, p_minus = bell_projection_probs(state_a, state_b)
    plus_cut = cuts[3] + rates.genuine * p_plus
    return BAND_SAMPLES[4 + bisect_right((plus_cut, plus_cut + rates.genuine * p_minus), u)]


def sample_bsm_ideal(state_a: PureState, state_b: PureState, rng: np.random.Generator) -> BsmOutcome:
    """One lossless, noiseless, unit-efficiency Bell measurement."""
    return sample_bsm_noisy(state_a, state_b, IDEAL_CHANNEL, IDEAL_DETECTOR, rng).outcome


def sample_bsm_noisy_batch(
    p_plus: np.ndarray,
    p_minus: np.ndarray,
    channel: ChannelParams,
    detector: DetectorParams,
    rng: np.random.Generator,
    *,
    extended: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`sample_bsm_noisy` for many independent rounds.

    ``p_plus``/``p_minus`` give the per-round ideal projection probabilities
    for whatever states each round carries; each round's uniform draw picks
    its band (:func:`bsm_band`).  Returns int8 arrays of outcome and cause
    codes.
    """
    p_plus = np.asarray(p_plus, dtype=float)
    p_minus = np.asarray(p_minus, dtype=float)
    if p_plus.shape != p_minus.shape:
        raise ParameterError("probability arrays must have matching shapes")
    rates = round_rates(channel.t_a, channel.t_b, detector, extended)
    band = bsm_band(rng.random(p_plus.shape[0]), rates, p_plus, p_minus)  # intp: cheaper gathers than int8
    return BAND_OUTCOME[band], BAND_CAUSE[band]


def poisson_tail_at_least_two(mu: float) -> float:
    """P(n ≥ 2) for a Poissonian source: 1 − e^(−mu)(1 + mu)."""
    validate_mu(mu)
    return float(1.0 - math.exp(-mu) * (1.0 + mu))
