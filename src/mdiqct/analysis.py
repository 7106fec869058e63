"""Closed forms, the fairness solver, and reproducible Monte Carlo estimation.

Every quantitative claim of the protocol analysis is available twice: as a
closed-form evaluator and as a seeded Monte Carlo scenario that samples the
actual event structure (labels, device event causes from the round table of
:func:`mdiqct.devices.round_rates`, reveals, verification).  The test suite
gates the two paths against each other at three standard errors.

Estimation is deterministic and worker-count independent: trials are split
into fixed-size chunks, each chunk's generator is derived from
``SeedSequence(seed, spawn_key=(chunk_index,))``, and per-chunk integer
counts are summed, so the result is bit-identical no matter how chunks are
scheduled.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adversaries import MED_MODELS
from .devices import (
    BAND_OUTCOME,
    CAUSE_BOTH,
    CAUSE_DARK_DARK,
    CAUSE_PHOTON_DARK,
    ChannelParams,
    DetectorParams,
    round_rates,
    sample_bsm_noisy_batch,
)
from .errors import ParameterError, UnknownScenarioError
from .protocol import DEFAULT_MAX_ROUNDS, _label_tables, sample_deciding_rounds
# verification_table is unused here but stays importable from this module:
# perfbench/tracer.py wraps analysis.verification_table by name.
from .qmath import ALL_LABELS, BsmOutcome, cheating_table, validate_y, verification_table  # noqa: F401

# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def honest_abort_closed_form(
    channel: ChannelParams, detector: DetectorParams, *, extended: bool = False
) -> float:
    """Per-round probability that honest parties abort.

    A genuine two-photon projection can never land on a verification zero
    cell, so only dark-count-faked coincidences abort.  A fake is uniform
    over the two Bell outcomes (factor 2) and hits a zero cell with
    probability 1/4 under uniform labels, giving Pr = 2 · 1/4 · (dark mass
    per Bell outcome).
    """
    rates = round_rates(channel.t_a, channel.t_b, detector, extended)
    return 0.5 * (rates.photon_dark + rates.dark_dark)


def honest_abort_breakdown(
    channel: ChannelParams, detector: DetectorParams, *, extended: bool = False
) -> dict[str, float]:
    """Abort probability split by event cause (photon+dark vs dark+dark)."""
    rates = round_rates(channel.t_a, channel.t_b, detector, extended)
    return {"photon+dark": 0.5 * rates.photon_dark, "dark+dark": 0.5 * rates.dark_dark}


def bsm_success_probability(
    channel: ChannelParams, detector: DetectorParams, *, extended: bool = False
) -> float:
    """Per-round probability of any non-failure output under uniform labels.

    A genuine coincidence projects onto {Ψ⁺, Ψ⁻} with label-pair-averaged
    probability exactly 1/2 (each table row sums to 1 across the partner's
    four labels), independent of y.
    """
    rates = round_rates(channel.t_a, channel.t_b, detector, extended)
    return rates.genuine * 0.5 + 2.0 * (rates.photon_dark + rates.dark_dark)


def honest_abort_given_success(
    channel: ChannelParams, detector: DetectorParams, *, extended: bool = False
) -> float:
    """Abort probability conditioned on the round that first succeeds.

    The per-round closed form is unconditional; because rounds are i.i.d.,
    conditioning on the first success just divides by the per-round success
    probability.  Both numbers are reported by the distance sweep.
    """
    success = bsm_success_probability(channel, detector, extended=extended)
    abort = honest_abort_closed_form(channel, detector, extended=extended)
    return abort / success if success > 0.0 else 0.0


MAX_SWEEP_POINTS = 100_000


@dataclass(frozen=True)
class SweepPoint:
    """One distance point of the honest-abort curve (symmetric fibers)."""

    l_km: float
    pr_abort: float
    pr_abort_given_success: float


def sweep_distance(
    l_min: float,
    l_max: float,
    step: float,
    detector: DetectorParams,
    *,
    loss_coeff: float = 0.2,
    extended: bool = False,
) -> list[SweepPoint]:
    """Honest-abort curve over symmetric fiber lengths l_a = l_b = L.

    A grid of more than ``MAX_SWEEP_POINTS`` points is refused.
    """
    if not all(math.isfinite(v) for v in (l_min, l_max, step)):
        raise ParameterError(f"sweep bounds and step must be finite, got {l_min}, {l_max}, {step}")
    if step <= 0.0:
        raise ParameterError(f"sweep step must be > 0, got {step}")
    if l_max < l_min:
        raise ParameterError(f"sweep needs l_min <= l_max, got {l_min} > {l_max}")
    span = (l_max - l_min) / step + 1e-9
    if span >= MAX_SWEEP_POINTS:  # floor(span) + 1 points
        raise ParameterError(f"sweep grid exceeds {MAX_SWEEP_POINTS} points; use a larger step")
    points = []
    n_steps = int(math.floor(span))
    for i in range(n_steps + 1):
        l_km = l_min + i * step
        channel = ChannelParams(l_km, l_km, loss_coeff)
        points.append(
            SweepPoint(
                l_km=l_km,
                pr_abort=honest_abort_closed_form(channel, detector, extended=extended),
                pr_abort_given_success=honest_abort_given_success(
                    channel, detector, extended=extended
                ),
            )
        )
    return points


def cheat_bob(y: float) -> float:
    """B's best cheating probability with single-photon sources: y."""
    validate_y(y)
    return float(y)


def cheat_alice_coherent(y: float) -> float:
    """A's best single-state cheating probability: (3 + 2√(y(1−y)))/4."""
    validate_y(y)
    return (3.0 + 2.0 * math.sqrt(y * (1.0 - y))) / 4.0


def cheat_alice_individual() -> float:
    """A's rigged-box individual attack under the benchmark error model: 3/4."""
    return 0.75


@dataclass(frozen=True)
class FairPoint:
    y: float
    bias: float


def solve_fair_y(tolerance: float = 1e-10) -> FairPoint:
    """The y at which both parties' best cheating probabilities coincide.

    Root of (3 + 2√(y(1−y)))/4 − y on (1/2, 1), found by bisection; the
    difference is positive near 1/2 and negative near 1, and monotone on the
    interval, so no general solver is needed.  The root is 0.9 and the
    resulting bias over a fair coin is 0.4.
    """
    if tolerance <= 0.0:
        raise ParameterError(f"tolerance must be > 0, got {tolerance}")
    f = lambda y: cheat_alice_coherent(y) - y
    lo, hi = 0.5 + 1e-12, 1.0 - 1e-12
    if not (f(lo) > 0.0 > f(hi)):
        raise ParameterError("fairness bracket lost; the closed forms changed")
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        elif f(mid) < 0.0:
            hi = mid
        else:
            lo = hi = mid
    y = 0.5 * (lo + hi)
    return FairPoint(y=y, bias=y - 0.5)


def chi_square_uniform(counts) -> tuple[float, float]:
    """Chi-square statistic and p-value against the uniform distribution."""
    from scipy import stats  # imported here: loading scipy.stats dominates package import time

    res = stats.chisquare(np.asarray(counts))
    return float(res.statistic), float(res.pvalue)


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------

CHUNK_SIZE = 1 << 16


@dataclass(frozen=True)
class Estimate:
    """A Bernoulli mean with its normal-approximation standard error.

    ``trials`` is the effective denominator: equal to the requested trial
    count for unconditional scenarios, or the number of trials matching the
    conditioning event for conditional ones.
    """

    mean: float
    stderr: float
    trials: int
    seed: int


# A kernel draws ``n`` independent trials and returns (successes, denominator).
Kernel = Callable[[np.random.Generator, int, dict], tuple[int, int]]


def _sampled_rounds(rng: np.random.Generator, n: int, p: dict) -> tuple[np.ndarray, ...]:
    """One physical round per trial on uniform label pairs: (pair, outcome, cause)."""
    p_plus, p_minus, _ = _label_tables(p["y"])
    pair = rng.integers(16, size=n)
    outcome, cause = sample_bsm_noisy_batch(
        p_plus[pair], p_minus[pair], p["channel"], p["detector"], rng, extended=p["extended"]
    )
    return pair, outcome, cause


def _kernel_honest_round_abort(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """One physical round per trial: labels, device events, verification."""
    pair, outcome, _cause = _sampled_rounds(rng, n, p)
    _, _, zero = _label_tables(p["y"])
    return int(zero[outcome, pair].sum()), n


def _kernel_honest_round_cause(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Frequency of one event cause among successful rounds."""
    _pair, outcome, cause = _sampled_rounds(rng, n, p)
    success = outcome != 0
    return int((cause[success] == p["cause_code"]).sum()), int(success.sum())


def _honest_runs(rng: np.random.Generator, n: int, p: dict) -> tuple[np.ndarray, ...]:
    """(label pair, abort, accept) of full honest runs; an exhausted run does neither."""
    rounds, pair, band = sample_deciding_rounds(p["y"], p["channel"], p["detector"], p["extended"], rng, n)
    _, _, zero = _label_tables(p["y"])
    abort_by_cell = zero[BAND_OUTCOME[:6]].T.ravel()  # flat index 6·pair + band
    found = rounds <= p["max_rounds"]
    abort = abort_by_cell[6 * pair + band] & found
    return pair, abort, found & ~abort


def _kernel_honest_run_abort(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Full honest runs (restart until success); counts aborting runs."""
    _, abort, _ = _honest_runs(rng, n, p)
    return int(abort.sum()), n


def _kernel_honest_coin(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Coin value over accepting honest runs; counts coin == 0."""
    pair, _, accept = _honest_runs(rng, n, p)
    a_bit = (pair >> 2) & 1
    b_prime = rng.integers(2, size=n)
    coin = a_bit ^ b_prime
    return int(((coin == 0) & accept).sum()), int(accept.sum())


def _kernel_bob_med(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """B's discrimination attack: {H, V} measurement on A's state."""
    y = p["y"]
    ia = rng.integers(4, size=n)
    a_bit = ia & 1
    p_h = np.where(a_bit == 0, y, 1.0 - y)  # |⟨H|state⟩|² for each committed bit
    guessed = (rng.random(n) >= p_h).astype(np.int64)
    # b' = guess ⊕ target lands the coin on target iff the guess is right.
    return int((guessed == a_bit).sum()), n


def _kernel_alice_individual(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """A's rigged-box attack, sampled through the real verification check."""
    y = p["y"]
    target = p["target_coin"]
    ib = rng.integers(4, size=n)
    beta, b_bit = ib >> 1, ib & 1

    if p["med_model"] == "projective":
        m_basis = rng.integers(2, size=n)
        correct = m_basis == beta
        keep_bit = rng.random(n) < (2.0 * y - 1.0) ** 2
        g_bit = np.where(correct, b_bit, np.where(keep_bit, b_bit, b_bit ^ 1))
        g_basis = m_basis
    else:  # basis-flip benchmark model
        correct = rng.random(n) < 0.5
        g_basis = np.where(correct, beta, beta ^ 1)
        g_bit = b_bit.copy()

    out_minus = rng.random(n) < 0.5  # announced outcome, uniform
    b_prime = rng.integers(2, size=n)
    a_bit = b_prime ^ target
    pinned = g_bit == a_bit
    alpha_pinned = np.where(out_minus, g_basis ^ 1, g_basis)
    alpha_free = rng.integers(2, size=n)
    alpha = np.where(pinned, alpha_pinned, alpha_free)

    caught = (b_bit == a_bit) & ((beta == alpha) == out_minus)
    success = ~caught

    condition = p.get("condition")
    if condition == "correct":
        mask = correct
    elif condition == "wrong":
        mask = ~correct
    else:
        mask = np.ones(n, dtype=bool)
    return int((success & mask).sum()), int(mask.sum())


def _kernel_alice_coherent(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """A's uncommitted-state attack with an honestly projecting box.

    The raw success probability is 1/2 for every B label, so conditioning on
    the first successful round leaves the label distribution uniform and the
    outcome follows the normalized cheating-table row.
    """
    y = p["y"]
    target = p["target_coin"]
    sent = p["sent"]
    table = cheating_table(y)
    cond_plus = np.array(table.row(sent, BsmOutcome.PSI_PLUS))
    ib = rng.integers(4, size=n)
    beta, b_bit = ib >> 1, ib & 1
    out_minus = rng.random(n) >= cond_plus[ib]
    b_prime = rng.integers(2, size=n)
    a_bit = b_prime ^ target
    alpha = a_bit if sent == "plus" else a_bit ^ 1
    caught = (b_bit == a_bit) & ((beta == alpha) == out_minus)
    return int((~caught).sum()), n


def _kernel_alice_blinding(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Detector-control attack on the baseline flow; counts per ``count`` key."""
    target = p["target_coin"]
    bob_basis = rng.integers(2, size=n)
    recorded = rng.integers(2, size=n)
    b_prime = rng.integers(2, size=n)
    a_bit = b_prime ^ target
    alpha = np.where(recorded == a_bit, bob_basis, bob_basis ^ 1)
    caught = (bob_basis == alpha) & (recorded != a_bit)
    if p.get("count") == "abort":
        return int(caught.sum()), n
    return int((~caught).sum()), n


def _kernel_table_cell(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Ideal-measurement frequencies for one label pair, conditioned on success."""
    p_plus, p_minus, _ = _label_tables(p["y"])
    pair = 4 * p["index_a"] + p["index_b"]
    pp, pm = float(p_plus[pair]), float(p_minus[pair])
    u = rng.random(n)
    got_plus = u < pp
    got_minus = (u >= pp) & (u < pp + pm)
    num = got_plus if p["outcome"] == "psi-plus" else got_minus
    return int(num.sum()), int((got_plus | got_minus).sum())


def _kernel_cheating_cell(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Conditional outcome frequency for a cheating state against one B label."""
    table = cheating_table(p["y"])
    cond_plus = table.probability(
        p["sent"], BsmOutcome.PSI_PLUS, ALL_LABELS[p["index_b"]]
    )
    got_plus = rng.random(n) < cond_plus
    num = got_plus if p["outcome"] == "psi-plus" else ~got_plus
    return int(num.sum()), n


SCENARIOS: dict[str, Kernel] = {
    "honest-round-abort": _kernel_honest_round_abort,
    "honest-round-cause": _kernel_honest_round_cause,
    "honest-run-abort": _kernel_honest_run_abort,
    "honest-coin": _kernel_honest_coin,
    "bob-med": _kernel_bob_med,
    "alice-individual": _kernel_alice_individual,
    "alice-coherent": _kernel_alice_coherent,
    "alice-blinding": _kernel_alice_blinding,
    "table-cell": _kernel_table_cell,
    "cheating-cell": _kernel_cheating_cell,
}

_DEFAULT_PARAMS = {
    "y": 0.9,
    "channel": ChannelParams(),
    "detector": DetectorParams(),
    "extended": False,
    "max_rounds": DEFAULT_MAX_ROUNDS,
    "target_coin": 0,
    "med_model": "basis-flip",
    "sent": "plus",
    "condition": None,
}
# Parameters read from a closed set of values.
_CHOICES = {
    "med_model": MED_MODELS,
    "outcome": ("psi-plus", "psi-minus"),
    "count": ("success", "abort"),
    "condition": (None, "correct", "wrong"),
    "target_coin": (0, 1),
    "index_a": (0, 1, 2, 3),
    "index_b": (0, 1, 2, 3),
    "cause_code": (CAUSE_BOTH, CAUSE_PHOTON_DARK, CAUSE_DARK_DARK),
}
# Parameters a scenario reads that have no default.
_REQUIRED = {
    "honest-round-cause": ("cause_code",),
    "table-cell": ("index_a", "index_b", "outcome"),
    "cheating-cell": ("index_b", "outcome"),
}
_PARAM_NAMES = frozenset(_DEFAULT_PARAMS) | set(_CHOICES)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))


def estimate(scenario: str, *, trials: int, seed: int, workers: int = 1, **params) -> Estimate:
    """Run a named scenario and return its Bernoulli estimate.

    Identical (scenario, trials, seed, params) always yield a bit-identical
    result, for any ``workers`` value: chunk boundaries and chunk seeds
    depend only on the trial index.
    """
    kernel = SCENARIOS.get(scenario)
    if kernel is None:
        raise UnknownScenarioError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
        )
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    unknown = set(params) - _PARAM_NAMES
    if unknown:
        raise ParameterError(f"no scenario reads {sorted(unknown)}; known: {sorted(_PARAM_NAMES)}")
    missing = [key for key in _REQUIRED.get(scenario, ()) if key not in params]
    if missing:
        raise ParameterError(f"scenario {scenario!r} needs {missing}")
    merged = dict(_DEFAULT_PARAMS)
    merged.update(params)
    validate_y(merged["y"])
    for key, allowed in _CHOICES.items():
        if merged.get(key, allowed[0]) not in allowed:
            raise ParameterError(f"{key} must be one of {allowed}, got {merged[key]!r}")
    if not merged["max_rounds"] >= 1:
        raise ParameterError(f"max_rounds must be >= 1, got {merged['max_rounds']}")

    sizes = [CHUNK_SIZE] * (trials // CHUNK_SIZE)
    if trials % CHUNK_SIZE:
        sizes.append(trials % CHUNK_SIZE)

    def run_chunk(index_size: tuple[int, int]) -> tuple[int, int]:
        index, size = index_size
        return kernel(_chunk_rng(seed, index), size, merged)

    tasks = list(enumerate(sizes))
    if workers == 1 or len(tasks) == 1:
        results = [run_chunk(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, tasks))

    num = sum(r[0] for r in results)
    den = sum(r[1] for r in results)
    if den == 0:
        return Estimate(mean=float("nan"), stderr=float("nan"), trials=0, seed=seed)
    mean = num / den
    stderr = math.sqrt(mean * (1.0 - mean) / den)
    return Estimate(mean=mean, stderr=stderr, trials=den, seed=seed)


def closed_form_for_attack(name: str, y: float, med_model: str = "basis-flip") -> float:
    """The analytic benchmark matching each attack scenario and rigged-box error model."""
    if med_model not in MED_MODELS:
        raise ParameterError(f"med_model must be one of {MED_MODELS}, got {med_model!r}")
    if name == "bob-med":
        return cheat_bob(y)
    if name == "alice-coherent":
        return cheat_alice_coherent(y)
    if name == "alice-individual":
        if med_model == "projective":
            validate_y(y)
            return 0.75 + y * (1.0 - y) / 2.0
        return cheat_alice_individual()
    if name == "alice-blinding":
        return 1.0
    if name == "none":
        return 0.5
    raise ParameterError(f"no closed form for attack {name!r}")
