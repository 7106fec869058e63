"""Closed forms, the fairness solver, and reproducible Monte Carlo estimation.

Every quantitative claim of the protocol analysis is available twice: as a
closed-form evaluator and as a seeded Monte Carlo scenario that samples the
actual event structure (labels, device event causes from the round table of
:func:`mdiqct.devices.round_rates`, reveals, verification).  The test suite
gates the two paths against each other at three standard errors.
``SCENARIOS`` declares each scenario once (kernel, keywords taken, closed
form of the mean if any), ``KEYWORDS`` each keyword once (default, domain);
:func:`estimate` refuses whatever lies outside these declarations.

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
    CAUSE_BOTH,
    CAUSE_DARK_DARK,
    CAUSE_PHOTON_DARK,
    ChannelParams,
    DetectorParams,
    round_rates,
)
from .errors import ParameterError, UnknownScenarioError
from .protocol import (
    BLOCK_WORDS,
    DEFAULT_MAX_ROUNDS,
    RUN_A_BIT,
    RUN_ABORT,
    RUN_CAUSE_SHIFT,
    RUN_NOT_FOUND,
    _blocks,
    _label_tables,
    found_probability,
    sample_run_codes,
)
from .qmath import ALL_LABELS, SENT_STATES, BsmOutcome, cheating_table, validate_int, validate_y
# sample_bsm_noisy_batch and verification_table are unused here but stay
# importable from this module: perfbench/tracer.py wraps both by name.
from .devices import sample_bsm_noisy_batch  # noqa: F401
from .qmath import verification_table  # noqa: F401

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


def _honest_round_cause_closed_form(p: dict) -> float:
    """The cause's share of the per-round success probability; each cause has a Ψ⁺ and a Ψ⁻ band."""
    channel, detector, extended = p["channel"], p["detector"], p["extended"]
    rates = round_rates(channel.t_a, channel.t_b, detector, extended)
    mass = {
        CAUSE_BOTH: 0.5 * rates.genuine,
        CAUSE_PHOTON_DARK: 2.0 * rates.photon_dark,
        CAUSE_DARK_DARK: 2.0 * rates.dark_dark,
    }[p["cause_code"]]
    success = bsm_success_probability(channel, detector, extended=extended)
    return mass / success if success > 0.0 else math.nan


def _honest_run_abort_closed_form(p: dict) -> float:
    """Abort given success times P(found) = 1 − (1 − p_round)^max_rounds."""
    channel, detector, extended = p["channel"], p["detector"], p["extended"]
    found = found_probability(bsm_success_probability(channel, detector, extended=extended), p["max_rounds"])
    return honest_abort_given_success(channel, detector, extended=extended) * found


def _cheating_cell_closed_form(p: dict) -> float:
    """The cheating-table entry for the sent state, B's label and the outcome."""
    plus = cheating_table(p["y"]).probability(p["sent"], BsmOutcome.PSI_PLUS, ALL_LABELS[p["index_b"]])
    return plus if p["outcome"] == "psi-plus" else 1.0 - plus


def _alice_individual_closed_form(p: dict) -> float:
    """3/4, or 3/4 + y(1−y)/2 for a projective box; a right guess (half of them) always passes."""
    y = p["y"]
    mean = 0.75 + y * (1.0 - y) / 2.0 if p["med_model"] == "projective" else cheat_alice_individual()
    return {None: mean, "correct": 1.0, "wrong": 2.0 * mean - 1.0}[p["condition"]]


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


def _raw_bits(rng: np.random.Generator, n: int, bits: int = 1) -> np.ndarray:
    """``rng.integers(1 << bits, size=n)`` as uint32, bit for bit, for a PCG64
    generator with no pending half word: numpy's bounded draw of a range of
    2**bits takes the top ``bits`` bits of each 32-bit half of a raw word, low
    half first, and never rejects one."""
    return rng.bit_generator.random_raw((n + 1) // 2).view(np.uint32)[:n] >> (32 - bits)


def _run_codes(rng: np.random.Generator, n: int, p: dict, max_rounds: int) -> np.ndarray:
    """The run codes of ``n`` honest runs of at most ``max_rounds`` rounds
    (see :func:`protocol.sample_run_codes`)."""
    return sample_run_codes(p["y"], p["channel"], p["detector"], p["extended"], max_rounds, rng, n)


def _kernel_honest_round_abort(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """One physical round per trial, a run capped at one round: counts aborting rounds."""
    return np.count_nonzero(_run_codes(rng, n, p, 1) & RUN_ABORT), n


def _kernel_honest_round_cause(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Frequency of one event cause among successful rounds, one round per trial."""
    code = _run_codes(rng, n, p, 1)
    hits = np.count_nonzero(code >> RUN_CAUSE_SHIFT == p["cause_code"])
    return hits, np.count_nonzero(code != RUN_NOT_FOUND)


def _kernel_honest_run_abort(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Full honest runs (restart until success); counts aborting runs."""
    return np.count_nonzero(_run_codes(rng, n, p, p["max_rounds"]) & RUN_ABORT), n


def _kernel_honest_coin(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Coin value over accepting honest runs; counts coin == 0."""
    code = _run_codes(rng, n, p, p["max_rounds"])
    # Without its cause bits an accepted run's code is its bare A bit, so
    # code == b′ iff the run is accepted with a ⊕ b′ = 0.  b′ in blocks of
    # whole words, so they continue one stream; the run draws take whole
    # words, so no half word is pending at the first.
    code &= RUN_A_BIT | RUN_ABORT | RUN_NOT_FOUND
    coin_zero = 0
    for block in _blocks(n, 2 * BLOCK_WORDS):
        coin_zero += np.count_nonzero(code[block] == _raw_bits(rng, block.stop - block.start))
    return coin_zero, np.count_nonzero(code <= RUN_A_BIT)


def _fair_bits(rng: np.random.Generator, n: int, count: int) -> tuple[np.ndarray, ...]:
    """``count`` (at most 8) independent fair bits per trial, each a distinct
    bit of one random byte: a tuple of uint8 arrays of 0s and 1s."""
    byte = rng.integers(0, 256, size=n, dtype=np.uint8)
    return tuple((byte >> k) & 1 for k in range(count))


def _born(rng: np.random.Generator, n: int, index: np.ndarray, probs) -> np.ndarray:
    """One Born outcome per trial, ``rng.random(n) < probs[index]``.

    The comparison runs once per entry of the short ``probs`` instead of
    gathering a float threshold per trial, which costs several times more.
    """
    u = rng.random(n)
    hit = np.zeros(n, dtype=bool)
    for i, prob in enumerate(probs):
        hit |= (index == i) & (u < prob)
    return hit


def _kernel_bob_med(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """B's discrimination attack: {H, V} measurement on A's state."""
    y = p["y"]
    (a_bit,) = _fair_bits(rng, n, 1)  # A's committed bit; her basis plays no part
    h = _born(rng, n, a_bit, (y, 1.0 - y))  # |⟨H|state⟩|² for each committed bit
    # B guesses 0 on H; b' = guess ⊕ target lands the coin on target iff the guess is right.
    return np.count_nonzero(h != a_bit), n


def _kernel_alice_individual(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """A's rigged-box attack, sampled through the real verification check."""
    # B's label (β, b), the box's choice, the announced outcome, b′ and A's free α.
    beta, b_bit, box_choice, out_minus, b_prime, alpha_free = _fair_bits(rng, n, 6)
    if p["med_model"] == "projective":
        # The box measures in a uniform basis; in the wrong one it keeps B's bit
        # with probability (2y − 1)², else flips it.
        g_basis = box_choice
        wrong = g_basis ^ beta
        keep = rng.random(n) < (2.0 * p["y"] - 1.0) ** 2
        g_bit = b_bit ^ (wrong & ~keep)
    else:  # basis-flip benchmark model: a fair coin flips the basis, never the bit
        wrong = box_choice
        g_basis, g_bit = beta ^ wrong, b_bit

    a_bit = b_prime ^ p["target_coin"]
    # A pins α to the guessed basis (flipped on Ψ⁻) when her bit equals the
    # guessed bit, else keeps her free α; a bitwise select, as np.where is slow.
    pinned = g_bit == a_bit
    alpha = alpha_free ^ (pinned & (alpha_free ^ g_basis ^ out_minus))
    # B catches her on a zero cell: equal bits, and bases equal iff the outcome is Ψ⁻.
    caught = (b_bit == a_bit) & ((beta ^ alpha) != out_minus)

    condition = p["condition"]
    if condition is None:
        return n - np.count_nonzero(caught), n
    mask = wrong == (condition == "wrong")
    return np.count_nonzero(mask & ~caught), np.count_nonzero(mask)


def _kernel_alice_coherent(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """A's uncommitted-state attack with an honestly projecting box.

    The raw success probability is 1/2 for every B label, so conditioning on
    the first successful round leaves the label distribution uniform and the
    outcome follows the normalized cheating-table row.
    """
    sent = p["sent"]
    cond_plus = cheating_table(p["y"]).row(sent, BsmOutcome.PSI_PLUS)
    beta, b_bit, b_prime = _fair_bits(rng, n, 3)
    out_minus = ~_born(rng, n, 2 * beta + b_bit, cond_plus)
    a_bit = b_prime ^ p["target_coin"]
    alpha = a_bit if sent == "plus" else a_bit ^ 1
    caught = (b_bit == a_bit) & ((beta ^ alpha) != out_minus)
    return n - np.count_nonzero(caught), n


def _kernel_alice_blinding(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Detector-control attack on the baseline flow; counts per ``count`` key."""
    bob_basis, recorded, b_prime = _fair_bits(rng, n, 3)
    a_bit = b_prime ^ p["target_coin"]
    alpha = bob_basis ^ recorded ^ a_bit  # B's basis when the recorded bit is hers
    caught = (bob_basis == alpha) & (recorded != a_bit)
    aborted = np.count_nonzero(caught)
    return (aborted if p["count"] == "abort" else n - aborted), n


def _kernel_table_cell(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Ideal-measurement frequencies for one label pair, conditioned on success."""
    p_plus, p_minus = _label_tables(p["y"])
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


REQUIRED = object()  # the default of a keyword the caller must give


@dataclass(frozen=True)
class Keyword:
    """One ``estimate`` keyword: its default (``REQUIRED`` if none) and its domain, which
    is a closed set (a tuple), integers (a range), a type, or a function refusing the rest."""

    default: object
    domain: object

    def check(self, name: str, value) -> None:
        domain = self.domain
        if isinstance(domain, range):
            validate_int(name, value, domain.start, domain.stop - 1)
        elif isinstance(domain, tuple):
            if value not in domain:
                raise ParameterError(f"{name} must be one of {domain}, got {value!r}")
        elif isinstance(domain, type):
            if not isinstance(value, domain):
                raise ParameterError(f"{name} must be a {domain.__name__}, got {value!r}")
        else:
            domain(value)


KEYWORDS: dict[str, Keyword] = {
    "y": Keyword(0.9, validate_y),
    "channel": Keyword(ChannelParams(), ChannelParams),
    "detector": Keyword(DetectorParams(), DetectorParams),
    "extended": Keyword(False, bool),
    # Below the largest int64: the round count drawn for a run that can never succeed.
    "max_rounds": Keyword(DEFAULT_MAX_ROUNDS, range(1, np.iinfo(np.int64).max)),
    "cause_code": Keyword(REQUIRED, range(CAUSE_BOTH, CAUSE_DARK_DARK + 1)),
    "target_coin": Keyword(0, range(2)),
    "index_a": Keyword(REQUIRED, range(4)),
    "index_b": Keyword(REQUIRED, range(4)),
    "outcome": Keyword(REQUIRED, ("psi-plus", "psi-minus")),
    "med_model": Keyword("basis-flip", MED_MODELS),
    "sent": Keyword("plus", SENT_STATES),
    "condition": Keyword(None, (None, "correct", "wrong")),
    "count": Keyword("success", ("success", "abort")),
}


@dataclass(frozen=True)
class Scenario:
    """One ``estimate`` scenario: its kernel, its keywords, and its mean's closed form, if any."""

    kernel: Kernel
    keywords: tuple[str, ...]
    closed_form: Callable[[dict], float] | None = None


_HONEST = ("y", "channel", "detector", "extended", "max_rounds")
_ATTACK = ("y", "target_coin")

SCENARIOS: dict[str, Scenario] = {
    "honest-round-abort": Scenario(
        _kernel_honest_round_abort, _HONEST,
        lambda p: honest_abort_closed_form(p["channel"], p["detector"], extended=p["extended"]),
    ),
    "honest-round-cause": Scenario(
        _kernel_honest_round_cause, (*_HONEST, "cause_code"), _honest_round_cause_closed_form
    ),
    "honest-run-abort": Scenario(_kernel_honest_run_abort, _HONEST, _honest_run_abort_closed_form),
    # b′ is uniform and independent of the run, so an accepted coin is fair.
    "honest-coin": Scenario(_kernel_honest_coin, _HONEST, lambda p: 0.5),
    "bob-med": Scenario(_kernel_bob_med, _ATTACK, lambda p: cheat_bob(p["y"])),
    "alice-individual": Scenario(
        _kernel_alice_individual, (*_ATTACK, "med_model", "condition"), _alice_individual_closed_form
    ),
    "alice-coherent": Scenario(
        _kernel_alice_coherent, (*_ATTACK, "sent"), lambda p: cheat_alice_coherent(p["y"])
    ),
    # Detector control always succeeds and is never caught.
    "alice-blinding": Scenario(
        _kernel_alice_blinding, (*_ATTACK, "count"), lambda p: float(p["count"] == "success")
    ),
    # No closed form declared: at equal labels the denominator p⁺ + p⁻ = 2y(1−y) nears 0 as y → 1,
    # where the gate's trials see no success (20,000 trials at y = 0.99999 saw none).
    "table-cell": Scenario(_kernel_table_cell, ("y", "index_a", "index_b", "outcome")),
    "cheating-cell": Scenario(
        _kernel_cheating_cell, ("y", "index_b", "sent", "outcome"), _cheating_cell_closed_form
    ),
}


def attack_scenario(adversary: str) -> str:
    """The scenario that estimates an adversary; honest play, ``"none"``, is ``honest-coin``."""
    return "honest-coin" if adversary == "none" else adversary


def _scenario_params(scenario: str, params: dict) -> dict:
    """Every keyword the scenario takes: the given values, checked, and defaults for the rest."""
    taken = SCENARIOS[scenario].keywords
    unknown = set(params) - set(taken)
    if unknown:
        raise ParameterError(f"scenario {scenario!r} takes no {sorted(unknown)}; it takes {list(taken)}")
    missing = [key for key in taken if key not in params and KEYWORDS[key].default is REQUIRED]
    if missing:
        raise ParameterError(f"scenario {scenario!r} needs {missing}")
    for key, value in params.items():
        KEYWORDS[key].check(key, value)
    return {key: params.get(key, KEYWORDS[key].default) for key in taken}


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))


def estimate(scenario: str, *, trials: int, seed: int, workers: int = 1, **params) -> Estimate:
    """Run a named scenario and return its Bernoulli estimate.

    Identical (scenario, trials, seed, params) always yield a bit-identical
    result, for any ``workers`` value: chunk boundaries and chunk seeds
    depend only on the trial index.
    """
    spec = SCENARIOS.get(scenario)
    if spec is None:
        raise UnknownScenarioError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
        )
    validate_int("trials", trials, 1)
    validate_int("workers", workers, 1)
    validate_int("seed", seed, 0)
    checked = _scenario_params(scenario, params)

    sizes = [CHUNK_SIZE] * (trials // CHUNK_SIZE)
    if trials % CHUNK_SIZE:
        sizes.append(trials % CHUNK_SIZE)

    def run_chunk(index_size: tuple[int, int]) -> tuple[int, int]:
        index, size = index_size
        return spec.kernel(_chunk_rng(seed, index), size, checked)

    tasks = list(enumerate(sizes))
    if workers == 1 or len(tasks) == 1:
        results = [run_chunk(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, tasks))

    num = sum(int(r[0]) for r in results)  # kernels may count with numpy integers
    den = sum(int(r[1]) for r in results)
    if den == 0:
        return Estimate(mean=float("nan"), stderr=float("nan"), trials=0, seed=seed)
    mean = num / den
    stderr = math.sqrt(mean * (1.0 - mean) / den)
    return Estimate(mean=mean, stderr=stderr, trials=den, seed=seed)


def closed_form_for_attack(name: str, y: float, med_model: str = "basis-flip") -> float:
    """The analytic benchmark matching each attack scenario and rigged-box error model."""
    KEYWORDS["med_model"].check("med_model", med_model)
    scenario = attack_scenario(name)
    spec = SCENARIOS.get(scenario)
    if spec is None or spec.closed_form is None:
        raise ParameterError(f"no closed form for attack {name!r}")
    given = {key: value for key, value in (("y", y), ("med_model", med_model)) if key in spec.keywords}
    return spec.closed_form(_scenario_params(scenario, given))
