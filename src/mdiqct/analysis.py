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
into chunks of ``CHUNK_SIZE`` = 2¹⁸, each chunk's generator is derived from
``SeedSequence(seed, spawn_key=(chunk_index,))``, and per-chunk integer
counts are summed, so the result is bit-identical no matter how chunks are
scheduled.  Each worker thread runs one contiguous range of chunks.

A chunk draws full-range 64-bit words only, and as few bits as each law
needs.  The fair choices of a trial are the bits of one byte of those words.
A Born outcome u < p reads one more byte as the top of the trial's 53-bit
uniform u, and the low 45 bits only where that byte ties with the top byte
of ⌈p·2⁵³⌉ (:func:`_born`), so it holds with probability exactly
⌈p·2⁵³⌉·2⁻⁵³, as ``rng.random() < p`` does.  An honest run reads a 16-bit
prefix of its uniform (:func:`protocol.sample_run_codes`), and b′ one bit.
The kernels work on whole chunks, the honest ones in blocks of
``RUN_BLOCK`` runs, and write into per-thread scratch buffers that later
calls reuse, so a chunk allocates little beyond its draws.
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
    DEFAULT_MAX_ROUNDS,
    RUN_A_BIT,
    RUN_ABORT,
    RUN_BLOCK,
    RUN_CAUSE_SHIFT,
    RUN_NOT_FOUND,
    _label_tables,
    _scratch,
    _words,
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
    lo, hi = 0.5 + 1e-12, 1.0 - 1e-12
    # A NaN tolerance fails every comparison, and one no smaller than the
    # bracket stops the bisection at once: both would report the midpoint.
    if not (math.isfinite(tolerance) and 0.0 < tolerance < hi - lo):
        raise ParameterError(f"tolerance must be finite, > 0 and below {hi - lo!r}, got {tolerance}")
    f = lambda y: cheat_alice_coherent(y) - y
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

CHUNK_SIZE = 1 << 18


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


def _run_codes(rng: np.random.Generator, n: int, p: dict, max_rounds: int):
    """The run codes of ``n`` honest runs (see :func:`protocol.sample_run_codes`),
    block by block of at most ``RUN_BLOCK``, each written over the last in this
    thread's scratch, which the caller may overwrite."""
    table = (p["y"], p["channel"], p["detector"], p["extended"], max_rounds)
    codes = _scratch("run-codes", np.uint8, min(n, RUN_BLOCK))
    for start in range(0, n, RUN_BLOCK):
        yield sample_run_codes(*table, rng, codes[:min(RUN_BLOCK, n - start)])


def _aborts(rng: np.random.Generator, n: int, p: dict, max_rounds: int) -> int:
    """The number of aborting runs among ``n`` honest runs of at most ``max_rounds`` rounds."""
    runs = _run_codes(rng, n, p, max_rounds)
    return sum(np.count_nonzero(np.bitwise_and(code, RUN_ABORT, out=code)) for code in runs)


def _kernel_honest_round_abort(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """One physical round per trial, a run capped at one round: counts aborting rounds."""
    return _aborts(rng, n, p, 1), n


def _kernel_honest_round_cause(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Frequency of one event cause among successful rounds, one round per trial."""
    hits = found = 0
    for code in _run_codes(rng, n, p, 1):
        is_cause = _scratch("is-cause", np.bool_, code.size)
        found += code.size - np.count_nonzero(np.equal(code, RUN_NOT_FOUND, out=is_cause))
        cause = np.right_shift(code, RUN_CAUSE_SHIFT, out=code)
        hits += np.count_nonzero(np.equal(cause, p["cause_code"], out=is_cause))
    return hits, found


def _kernel_honest_run_abort(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Full honest runs (restart until success); counts aborting runs."""
    return _aborts(rng, n, p, p["max_rounds"]), n


def _kernel_honest_coin(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Coin value over accepting honest runs; counts coin == 0."""
    coin_zero = accepted = 0
    for code in _run_codes(rng, n, p, p["max_rounds"]):
        m = code.size
        # b′ of each run after the block's runs: one bit each, the bits of each byte low first.
        b_prime = np.unpackbits(_words(rng, -(-m // 64)).view(np.uint8), count=m, bitorder="little")
        # Without its cause bits an accepted run's code is its bare A bit, so
        # code ⊕ b′ is 0 iff the run is accepted with a ⊕ b′ = 0, and at most
        # 1 iff it is accepted.
        code &= RUN_A_BIT | RUN_ABORT | RUN_NOT_FOUND
        code ^= b_prime
        coin_zero += m - np.count_nonzero(code)
        accepted += m - np.count_nonzero(np.right_shift(code, 1, out=code))
    return coin_zero, accepted


def _bytes(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` random bytes, one per trial: the bytes of ⌈n/8⌉ full-range words,
    which on PCG64 are those of ``rng.integers(0, 256, size=n, dtype=np.uint8)``."""
    return _words(rng, -(-n // 8)).view(np.uint8)[:n]


def _slot(slot: int, n: int) -> np.ndarray:
    """This thread's uint8 scratch plane ``slot``; the attack kernels share the
    slots, as a thread runs one kernel at a time."""
    return _scratch(f"plane-{slot}", np.uint8, n)


def _plane(byte: np.ndarray, k: int, slot: int) -> np.ndarray:
    """Bit k of each byte, in bit 0 of plane ``slot``.  The bits above it are
    don't-cares: a plane meets other planes only through ^, &, | and ~, and
    :func:`_ones` counts bit 0 alone."""
    return np.right_shift(byte, k, out=_slot(slot, byte.size))


def _ones(plane: np.ndarray) -> int:
    """The number of trials whose plane holds 1 in bit 0 (the plane is cleared above it)."""
    return np.count_nonzero(np.bitwise_and(plane, 1, out=plane))


# A 53-bit uniform is one top byte over 45 low bits.
_BORN_LOW_BITS = 45


def _born_split(p: float) -> tuple[int, int]:
    """(top, low) with top·2⁴⁵ + low = ⌈p·2⁵³⌉, top <= 255 and low <= 2⁴⁵.

    ``rng.random() < p`` holds for exactly the ⌈p·2⁵³⌉ uniforms k·2⁻⁵³ whose
    (top byte, low 45 bits) lies below (top, low).  p·256, its distance to
    its integer part, and that times 2⁴⁵ are exact in floating point.
    """
    scaled = p * 256.0
    top = min(int(scaled), 255)
    return top, math.ceil((scaled - top) * 2.0**_BORN_LOW_BITS)


def _select(index: np.ndarray, values: list[int], out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``values[index]`` per trial, into ``out``: the first value, plus
    (index == i)·(values[i] − values[0]) in uint8 arithmetic for each value
    that differs.  A gather or a masked write costs many times more."""
    np.copyto(out, values[0])
    step = mask.view(np.uint8)
    for i, value in enumerate(values[1:], 1):
        if value != values[0]:
            np.equal(index, i, out=mask)
            out += np.multiply(step, (value - values[0]) % 256, out=step)
    return out


def _born(rng: np.random.Generator, n: int, rows, index: np.ndarray | None = None) -> np.ndarray:
    """Born outcomes of ``n`` trials, from one 53-bit uniform u per trial.

    ``rows`` holds one row of ascending probabilities per value of ``index``
    (a single row without an index).  The result, a uint8 array in this
    thread's scratch, counts for each trial the probabilities of its row
    that u falls below: with a one-probability row that is the outcome
    u < p, and with cuts p₁ <= p₂ it is 2, 1 or 0 for u below p₁, in
    [p₁, p₂) or above.  u's top byte comes from :func:`_bytes`, and decides
    every comparison but a tie with the top byte of the trial's cut
    (:func:`_born_split`).  Only the tied trials draw u's low 45 bits, one
    word each in trial order, and none do for a cut whose low part is 0 in
    every row.  So each comparison holds with probability exactly
    ⌈p·2⁵³⌉·2⁻⁵³, the law of ``rng.random() < p``.
    """
    top = _bytes(rng, n)
    splits = [[_born_split(p) for p in row] for row in rows]
    below = _scratch("born-below", np.uint8, n)
    tie = _scratch("born-tie", np.bool_, n)

    def mask() -> np.ndarray:
        return _scratch("born-mask", np.bool_, n)

    tied = False
    for cut in range(len(splits[0])):
        column = [row[cut] for row in splits]
        if index is None:
            cut_top = column[0][0]
        else:
            cut_top = _select(index, [t for t, _ in column], _scratch("born-tops", np.uint8, n), mask())
        if cut == 0:
            np.less(top, cut_top, out=below.view(np.bool_))
        else:
            below += np.less(top, cut_top, out=mask()).view(np.uint8)
        if any(low for _, low in column):
            if tied:
                tie |= np.equal(top, cut_top, out=mask())
            else:
                np.equal(top, cut_top, out=tie)
                tied = True
    if tied:
        trials = np.flatnonzero(tie)
        u = top[trials].astype(np.uint64) << _BORN_LOW_BITS
        u |= _words(rng, trials.size) >> (64 - _BORN_LOW_BITS)
        cuts = np.array([[(t << _BORN_LOW_BITS) + low for t, low in row] for row in splits], dtype=np.uint64)
        own = cuts[0] if index is None else cuts[index[trials]]
        below[trials] = (u[:, None] < own).sum(axis=1)
    return below


def _kernel_bob_med(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """B's discrimination attack: {H, V} measurement on A's state."""
    y = p["y"]
    a_bit = np.bitwise_and(_bytes(rng, n), 1, out=_slot(0, n))  # A's committed bit; her basis plays no part
    h = _born(rng, n, ((y,), (1.0 - y,)), a_bit)  # |⟨H|state⟩|² for each committed bit
    # B guesses 0 on H; b' = guess ⊕ target lands the coin on target iff the guess is right.
    return np.count_nonzero(np.bitwise_xor(h, a_bit, out=h)), n


def _kernel_alice_individual(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """A's rigged-box attack, sampled through the real verification check."""
    # Bits of a trial's byte: B's label (β in bit 0, b in bit 1), the box's
    # choice (2), the announced Ψ⁻ (3), b′ (4) and A's free α (5).
    fair = _bytes(rng, n)
    a_bit = _plane(fair, 4, 0)
    a_bit ^= p["target_coin"]
    box, g_bit = _plane(fair, 2, 1), _plane(fair, 1, 2)
    if p["med_model"] == "projective":
        # The box measures in a uniform basis; in the wrong one it keeps B's bit
        # with probability (2y − 1)², else flips it.
        g_basis, wrong = box, np.bitwise_xor(box, fair, out=_slot(3, n))
        flip = _born(rng, n, (((2.0 * p["y"] - 1.0) ** 2,),))  # keep
        np.invert(flip, out=flip)
        flip &= wrong
        g_bit ^= flip
    else:  # basis-flip benchmark model: a fair coin flips the basis, never the bit
        wrong, g_basis = box, np.bitwise_xor(box, fair, out=_slot(3, n))

    # A pins α to the guessed basis (flipped on Ψ⁻) when her bit equals the
    # guessed bit, else keeps her free α: α = α_free ⊕ (pinned & (α_free ⊕ g_basis ⊕ Ψ⁻)).
    pinned = np.invert(np.bitwise_xor(g_bit, a_bit, out=g_bit), out=g_bit)
    pin = g_basis
    pin ^= _plane(fair, 5, 4)
    pin ^= _plane(fair, 3, 4)
    pin &= pinned
    alpha = _plane(fair, 5, 2)
    alpha ^= pin
    # B catches her on a zero cell: equal bits, and bases equal iff the outcome is Ψ⁻.
    caught = np.bitwise_xor(alpha, fair, out=alpha)
    caught ^= _plane(fair, 3, 4)  # (β ⊕ α) ≠ Ψ⁻
    same = _plane(fair, 1, 4)
    same ^= a_bit
    caught &= np.invert(same, out=same)  # b == a

    condition = p["condition"]
    if condition is None:
        return n - _ones(caught), n
    mask = wrong if condition == "wrong" else np.invert(wrong, out=wrong)
    np.invert(caught, out=caught)
    caught &= mask
    return _ones(caught), _ones(mask)


def _kernel_alice_coherent(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """A's uncommitted-state attack with an honestly projecting box.

    The raw success probability is 1/2 for every B label, so conditioning on
    the first successful round leaves the label distribution uniform and the
    outcome follows the normalized cheating-table row.
    """
    sent = p["sent"]
    cond_plus = cheating_table(p["y"]).row(sent, BsmOutcome.PSI_PLUS)
    fair = _bytes(rng, n)  # bits: β (0), b (1), b′ (2)
    # B's label index is 2β + b; bits 0 and 1 read as β + 2b, so the row is permuted to match.
    low_bits = np.bitwise_and(fair, 3, out=_slot(0, n))
    out_minus = _born(rng, n, [(cond_plus[2 * (i & 1) + (i >> 1)],) for i in range(4)], low_bits)
    np.invert(out_minus, out=out_minus)
    alpha = _plane(fair, 2, 1)
    alpha ^= p["target_coin"] ^ (sent == "minus")  # a = b′ ⊕ target; α = a, flipped for |−⟩
    # Caught: b == a (that is, b == α exactly for |+⟩) and (β ⊕ α) ≠ Ψ⁻.
    b_bit = _plane(fair, 1, 2)
    same = np.bitwise_xor(b_bit, alpha, out=b_bit)
    if sent == "plus":
        np.invert(same, out=same)
    caught = np.bitwise_xor(alpha, fair, out=alpha)
    caught ^= out_minus
    caught &= same
    return n - _ones(caught), n


def _kernel_alice_blinding(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Detector-control attack on the baseline flow; counts per ``count`` key."""
    fair = _bytes(rng, n)  # bits: B's basis (0), the recorded bit (1), b′ (2)
    a_bit = _plane(fair, 2, 0)
    a_bit ^= p["target_coin"]
    recorded = _plane(fair, 1, 1)
    alpha = np.bitwise_xor(recorded, a_bit, out=_slot(2, n))
    alpha ^= fair  # B's basis when the recorded bit is hers
    recorded ^= a_bit  # recorded ≠ a
    caught = np.invert(np.bitwise_xor(alpha, fair, out=alpha), out=alpha)  # B's basis == α
    caught &= recorded
    aborted = _ones(caught)
    return (aborted if p["count"] == "abort" else n - aborted), n


def _kernel_table_cell(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Ideal-measurement frequencies for one label pair, conditioned on success."""
    p_plus, p_minus = _label_tables(p["y"])
    pair = 4 * p["index_a"] + p["index_b"]
    pp, pm = float(p_plus[pair]), float(p_minus[pair])
    below = _born(rng, n, ((pp, pp + pm),))  # 2: Ψ⁺, 1: Ψ⁻, 0: failure
    successes = np.count_nonzero(below)
    plus = np.count_nonzero(np.right_shift(below, 1, out=below))
    return (plus if p["outcome"] == "psi-plus" else successes - plus), successes


def _kernel_cheating_cell(rng: np.random.Generator, n: int, p: dict) -> tuple[int, int]:
    """Conditional outcome frequency for a cheating state against one B label."""
    table = cheating_table(p["y"])
    cond_plus = table.probability(
        p["sent"], BsmOutcome.PSI_PLUS, ALL_LABELS[p["index_b"]]
    )
    plus = np.count_nonzero(_born(rng, n, ((cond_plus,),)))
    return (plus if p["outcome"] == "psi-plus" else n - plus), n


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

    def run_chunks(first: int, stop: int) -> tuple[int, int]:
        num = den = 0
        for index in range(first, stop):
            size = min(CHUNK_SIZE, trials - index * CHUNK_SIZE)
            hits, count = spec.kernel(_chunk_rng(seed, index), size, checked)
            num, den = num + int(hits), den + int(count)  # kernels may count with numpy integers
        return num, den

    # Each worker runs one contiguous range of chunks; the calling thread runs the first.
    chunks = -(-trials // CHUNK_SIZE)
    parts = min(workers, chunks)
    bounds = [chunks * part // parts for part in range(parts + 1)]
    if parts == 1:
        results = [run_chunks(0, chunks)]
    else:
        with ThreadPoolExecutor(max_workers=parts - 1) as pool:
            rest = [pool.submit(run_chunks, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
            results = [run_chunks(bounds[0], bounds[1]), *(task.result() for task in rest)]

    num = sum(r[0] for r in results)
    den = sum(r[1] for r in results)
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
