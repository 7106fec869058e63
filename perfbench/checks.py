"""Output checks: every operation's result is judged against the closed forms.

Each check returns ``None`` when the output is correct and a one-line reason
when it is not.  Monte Carlo means are judged by an exact two-sided binomial
test at the effective trial count.  The false-alarm level ``ALPHA`` is set so
that correct code fails less than once per million benchmark runs even on the
workload with the most tests (up to about 5·10⁴ tests per run).
"""
from __future__ import annotations

import json
import math
import os

from scipy import stats

from mdiqct import analysis, protocol
from mdiqct.devices import (
    DEFAULT_LOSS_COEFF_DB_PER_KM,
    ChannelParams,
    DetectorParams,
    poisson_tail_at_least_two,
)
from mdiqct.qmath import ALL_LABELS, BsmOutcome, StateLabel, cheating_table, verification_table

ALPHA = 1e-12
SCREEN_Z = 4.0
MAX_ROUNDS = protocol.DEFAULT_MAX_ROUNDS
CAUSE_NAMES = {2: "photon+dark", 3: "dark+dark"}
LABEL_ORDER = ["00", "01", "10", "11"]


def binomial_reason(k: int, n: int, p: float, what: str) -> str | None:
    """None if k successes in n trials are consistent with probability p."""
    if n == 0:
        return None
    if p <= 0.0 or p >= 1.0:
        if k == (0 if p <= 0.0 else n):
            return None
        return f"{what}: {k}/{n} against p={p!r}"
    # Within SCREEN_Z standard deviations the exact two-sided p-value of any
    # binomial is above 1e-7 (the extreme is Poisson-like, k = 0 at mean 16),
    # far above ALPHA, so the exact test runs only outside that band.
    if abs(k - n * p) <= SCREEN_Z * math.sqrt(n * p * (1.0 - p)):
        return None
    pvalue = stats.binomtest(k, n, p).pvalue
    if pvalue < ALPHA:
        return f"{what}: {k}/{n} against p={p!r} (two-sided p={pvalue:.3g})"
    return None


def exhaustion_free(channel: ChannelParams, detector: DetectorParams, max_rounds: int) -> float:
    """Probability that a run finds a successful round within max_rounds."""
    p_round = analysis.bsm_success_probability(channel, detector)
    return -math.expm1(max_rounds * math.log1p(-p_round))


def channel_detector(params: dict) -> tuple[ChannelParams, DetectorParams]:
    return (
        ChannelParams(params["l_km"], params["l_km"]),
        DetectorParams(eta=params["eta"], dark=params["dark"]),
    )


# ---------------------------------------------------------------------------
# Library estimates
# ---------------------------------------------------------------------------

def estimate_expectations(scenario: str, params: dict) -> tuple[float, float | None]:
    """(closed-form mean, probability that a trial enters the denominator).

    The second value is None for unconditional scenarios, whose denominator
    must equal the requested trial count.
    """
    y = params.get("y", 0.9)
    if scenario.startswith("honest-"):
        channel, detector = channel_detector(params)
        abort = analysis.honest_abort_given_success(channel, detector)
        found = exhaustion_free(channel, detector, params["max_rounds"])
        if scenario == "honest-round-abort":
            return analysis.honest_abort_closed_form(channel, detector), None
        if scenario == "honest-round-cause":
            success = analysis.bsm_success_probability(channel, detector)
            share = analysis.honest_abort_breakdown(channel, detector)[CAUSE_NAMES[params["cause_code"]]]
            return 4.0 * share / success, success
        if scenario == "honest-run-abort":
            return abort * found, None
        if scenario == "honest-coin":
            return 0.5, found * (1.0 - abort)
    if scenario == "bob-med":
        return analysis.cheat_bob(y), None
    if scenario == "alice-individual":
        if params["med_model"] == "projective":
            return 0.75 + y * (1.0 - y) / 2.0, None
        return analysis.cheat_alice_individual(), None
    if scenario == "alice-coherent":
        return analysis.cheat_alice_coherent(y), None
    if scenario == "alice-blinding":
        return (0.0 if params.get("count") == "abort" else 1.0), None
    if scenario == "table-cell":
        table = verification_table(y)
        la, lb = ALL_LABELS[params["index_a"]], ALL_LABELS[params["index_b"]]
        p_plus = table.probability(BsmOutcome.PSI_PLUS, la, lb)
        p_minus = table.probability(BsmOutcome.PSI_MINUS, la, lb)
        hit = p_plus if params["outcome"] == "psi-plus" else p_minus
        return hit / (p_plus + p_minus), p_plus + p_minus
    if scenario == "cheating-cell":
        cond_plus = cheating_table(y).probability(
            params["sent"], BsmOutcome.PSI_PLUS, ALL_LABELS[params["index_b"]]
        )
        return (cond_plus if params["outcome"] == "psi-plus" else 1.0 - cond_plus), None
    raise ValueError(f"no closed form for scenario {scenario!r}")


def check_estimate(scenario: str, params: dict, trials: int, seed: int, est) -> str | None:
    """Judge one ``analysis.estimate`` result."""
    mean, expected_den = estimate_expectations(scenario, params)
    if est.seed != seed:
        return f"seed {est.seed} != requested {seed}"
    if expected_den is None and est.trials != trials:
        return f"effective trials {est.trials} != requested {trials}"
    if not 0 <= est.trials <= trials:
        return f"effective trials {est.trials} outside [0, {trials}]"
    if est.trials == 0:
        return None if math.isnan(est.mean) else f"mean {est.mean!r} with no trials"
    k = round(est.mean * est.trials)
    if abs(k - est.mean * est.trials) > 1e-6:
        return f"mean {est.mean!r} is not a count over {est.trials} trials"
    if not math.isclose(est.stderr, math.sqrt(est.mean * (1.0 - est.mean) / est.trials), rel_tol=1e-9, abs_tol=1e-15):
        return f"stderr {est.stderr!r} inconsistent with mean and trials"
    if scenario == "alice-blinding" and params.get("count") != "abort" and est.mean != 1.0:
        return f"blinding success {est.mean!r} is not exactly 1.0"
    reason = binomial_reason(k, est.trials, mean, f"{scenario} mean")
    if reason is None and expected_den is not None:
        reason = binomial_reason(est.trials, trials, expected_den, f"{scenario} denominator")
    return reason


# ---------------------------------------------------------------------------
# CLI documents
# ---------------------------------------------------------------------------

def _inline(node, defs: dict):
    """The schema node with every local ``$ref`` replaced by its definition."""
    if isinstance(node, dict):
        if set(node) == {"$ref"} and node["$ref"].startswith("#/$defs/"):
            return _inline(defs[node["$ref"][len("#/$defs/"):]], defs)
        return {key: _inline(value, defs) for key, value in node.items()}
    if isinstance(node, list):
        return [_inline(item, defs) for item in node]
    return node


def _validates_like_one(value):
    # The transcript definition constrains these fields only by
    # "integer >= 1", so every such value validates exactly like 1.
    return 1 if type(value) is int and value >= 1 else value


class Schema:
    """Validators for the definitions in the CLI output schema.

    A document is validated against the definition its ``command`` names.
    The definitions' ``command`` constants are distinct, so this is
    equivalent to the top-level ``oneOf`` and cheaper.
    """

    def __init__(self, path: str) -> None:
        import jsonschema

        with open(path, "r", encoding="utf-8") as fh:
            schema = json.load(fh)
        defs = schema["$defs"]
        cls = jsonschema.validators.validator_for(schema)
        self.validators = {
            name: cls(_inline(defs[name], defs))
            for name in ("tables", "fair", "sweep", "attack", "transcript")
        }
        self._transcript_verdicts: dict[str, str | None] = {}

    def document_reason(self, doc) -> str | None:
        validator = self.validators.get(doc.get("command") if isinstance(doc, dict) else None)
        if validator is None:
            return "schema: not a document of a known command"
        return self._reason(validator, doc)

    def transcript_reason(self, rec) -> str | None:
        """Validate one ``run`` line; lines that validate alike share a verdict."""
        if not isinstance(rec, dict):
            return self._reason(self.validators["transcript"], rec)
        shape = dict(rec)
        for key in ("rounds", "pulse_index"):
            if key in shape:
                shape[key] = _validates_like_one(shape[key])
        if isinstance(shape.get("multiphoton_slots"), list):
            shape["multiphoton_slots"] = [_validates_like_one(v) for v in shape["multiphoton_slots"]]
        key = json.dumps(shape, sort_keys=True)
        if key not in self._transcript_verdicts:
            self._transcript_verdicts[key] = self._reason(self.validators["transcript"], rec)
        return self._transcript_verdicts[key]

    @staticmethod
    def _reason(validator, doc) -> str | None:
        error = next(iter(validator.iter_errors(doc)), None)
        return None if error is None else f"schema: {error.message[:160]}"


def attack_closed_form(adversary: str, y: float, med_model: str, sent: str) -> float:
    if adversary == "none":
        return 0.5
    if adversary == "alice-individual":
        return estimate_expectations("alice-individual", {"y": y, "med_model": med_model})[0]
    return estimate_expectations(adversary, {"y": y, "sent": sent})[0]


def check_attack(doc: dict, spec: dict) -> str | None:
    """Judge one ``attack`` document; ``spec`` holds the flags it was run with."""
    want = {
        "adversary": spec["adversary"],
        "trials": spec["trials"],
        "seed": spec["seed"],
        "workers": spec["workers"],
        "target_coin": spec["target_coin"],
    }
    for key, value in want.items():
        if doc[key] != value:
            return f"{key} {doc[key]!r} != requested {value!r}"
    closed = attack_closed_form(spec["adversary"], doc["y"], spec.get("med_model"), spec.get("sent"))
    if not math.isclose(doc["closed_form"], closed, rel_tol=1e-12, abs_tol=1e-15):
        return f"closed_form {doc['closed_form']!r} != {closed!r}"
    n = doc["effective_trials"]
    if spec["adversary"] != "none" and n != spec["trials"]:
        return f"effective_trials {n} != trials {spec['trials']}"
    if n == 0 or n > spec["trials"]:
        return f"effective_trials {n} outside [1, {spec['trials']}]"
    k = round(doc["mean"] * n)
    if abs(k - doc["mean"] * n) > 1e-6:
        return f"mean {doc['mean']!r} is not a count over {n} trials"
    if spec["adversary"] == "alice-blinding" and doc["mean"] != 1.0:
        return f"blinding success {doc['mean']!r} is not exactly 1.0"
    return binomial_reason(k, n, closed, f"attack {spec['adversary']} mean")


def check_fair(doc: dict, spec: dict) -> str | None:
    tol = spec["tolerance"]
    if doc["tolerance"] != tol:
        return f"tolerance {doc['tolerance']!r} != requested {tol!r}"
    if abs(doc["y"] - 0.9) > max(tol, 1e-12):
        return f"fair y {doc['y']!r} is not 0.9 within {tol!r}"
    if not math.isclose(doc["bias"], doc["y"] - 0.5, abs_tol=1e-15):
        return f"bias {doc['bias']!r} != y - 1/2"
    if abs(doc["cheat_bob"] - doc["cheat_alice_coherent"]) > 1e-6 + 4 * tol:
        return "the two cheating curves do not cross at the fair point"
    return None


def check_sweep(doc: dict, spec: dict) -> str | None:
    detector = DetectorParams(eta=spec["eta"], dark=spec["dark"])
    points = doc["points"]
    if len(points) != spec["points"]:
        return f"{len(points)} sweep points, expected {spec['points']}"
    for i, point in enumerate(points):
        l_km = spec["lmin"] + i * spec["step"]
        channel = ChannelParams(l_km, l_km)
        if not math.isclose(point["l_km"], l_km, rel_tol=1e-12, abs_tol=1e-12):
            return f"point {i} at {point['l_km']!r} km, expected {l_km!r}"
        for key, value in (
            ("pr_abort", analysis.honest_abort_closed_form(channel, detector)),
            ("pr_abort_given_success", analysis.honest_abort_given_success(channel, detector)),
        ):
            if not math.isclose(point[key], value, rel_tol=1e-12, abs_tol=1e-300):
                return f"point {i} {key} {point[key]!r} != closed form {value!r}"
    return None


def check_tables(doc: dict, spec: dict) -> str | None:
    y = spec["y"]
    if doc["y"] != y:
        return f"y {doc['y']!r} != requested {y!r}"
    if doc["label_order"] != LABEL_ORDER:
        return f"label_order {doc['label_order']!r} != {LABEL_ORDER!r}"
    table = verification_table(y)
    for out in (BsmOutcome.PSI_PLUS, BsmOutcome.PSI_MINUS):
        panel = doc["verification"][out.value]
        zero = []
        for i, la in enumerate(ALL_LABELS):
            for j, lb in enumerate(ALL_LABELS):
                if not math.isclose(panel[i][j], table.probability(out, la, lb), abs_tol=1e-15):
                    return f"{out.value} cell ({i},{j}) differs from the closed form"
                if protocol.is_zero_cell(out, la, lb):
                    if panel[i][j] != 0.0:
                        return f"{out.value} zero cell ({i},{j}) reads {panel[i][j]!r}"
                    zero.append([LABEL_ORDER[i], LABEL_ORDER[j]])
        if sorted(zero) != sorted(doc["zero_cells"][out.value]):
            return f"{out.value} zero-cell list does not match the verification rule"
    for sent in ("plus", "minus"):
        rows = doc["cheating"][sent]
        for j in range(4):
            if not math.isclose(rows["psi-plus"][j] + rows["psi-minus"][j], 1.0, abs_tol=1e-12):
                return f"cheating row {sent} column {j} is not normalized"
    return None


# ---------------------------------------------------------------------------
# Transcript streams
# ---------------------------------------------------------------------------

def stream_expectations(spec: dict) -> dict:
    """Closed-form per-transcript rates for one ``run`` stream."""
    y = spec["y"]
    adversary = spec["adversary"]
    if adversary == "none" and spec["mode"] == "mdi":
        channel, detector = channel_detector(spec)
        return {
            "abort": analysis.honest_abort_given_success(channel, detector),
            "p_round": analysis.bsm_success_probability(channel, detector),
        }
    if spec["mode"] == "mdi-weak-coherent":
        # A slot carries a photon with probability 1 - e^(-mu); that factor
        # multiplies the fiber transmittance, i.e. it lengthens the fiber.
        present = -math.expm1(-spec["mu"])
        l_eq = spec["l_km"] - 10.0 / DEFAULT_LOSS_COEFF_DB_PER_KM * math.log10(present)
        channel = ChannelParams(l_eq, l_eq)
        detector = DetectorParams(eta=spec["eta"], dark=spec["dark"])
        p_slot = analysis.bsm_success_probability(channel, detector)
        none = (1.0 - p_slot) ** spec["k_pulses"]
        no_multi = 1.0 - poisson_tail_at_least_two(spec["mu"])
        return {
            "abort": none + (1.0 - none) * analysis.honest_abort_given_success(channel, detector),
            "multiphoton_slot": 1.0 - no_multi * no_multi,
        }
    if adversary == "none":  # honest baseline: same-basis states are orthogonal
        channel, detector = channel_detector(spec)
        return {"abort": 0.0, "p_round": channel.t_a * detector.eta}
    success = {
        "alice-blinding": 1.0,
        "bob-med": analysis.cheat_bob(y),
        "alice-individual": analysis.cheat_alice_individual(),
        "alice-coherent": analysis.cheat_alice_coherent(y),
    }[adversary]
    return {"abort": 0.0 if adversary in ("alice-blinding", "bob-med") else 1.0 - success, "success": success}


def _label(basis, bit):
    return None if basis is None else StateLabel(basis, bit)


def check_transcript_line(rec: dict, spec: dict) -> str | None:
    """Per-line invariants: coin, verdict and adversary bookkeeping."""
    accept = rec["verdict"] == "accept"
    if accept != (rec["coin"] is not None):
        return "coin present on a non-accepting transcript, or missing on an accepting one"
    if accept and rec["coin"] != rec["revealed_bit"] ^ rec["b_prime"]:
        return "coin != revealed_bit ^ b_prime"
    revealed = _label(rec["revealed_basis"], rec["revealed_bit"])
    bob = _label(rec["bob_basis"], rec["bob_bit"])
    if rec["outcome"] is not None and bob is not None:
        verdict = protocol.verify(BsmOutcome(rec["outcome"]), revealed, bob, spec["y"])
        if verdict.value != rec["verdict"]:
            return f"verdict {rec['verdict']} != protocol.verify {verdict.value}"
    elif spec["mode"] == "baseline" and bob is not None:
        caught = bob.basis == revealed.basis and bob.bit != revealed.bit
        if caught == accept:
            return "baseline verdict contradicts the direct-measurement check"
    elif spec["mode"] == "mdi-weak-coherent":
        if accept or rec["cause"] != "no-bsm-success" or rec["rounds"] != spec["k_pulses"]:
            return "weak-coherent run without a projection is not an abort over all K slots"
    elif spec["adversary"] != "bob-med":
        return "transcript lacks the outcome or labels its mode requires"
    if spec["adversary"] == "none":
        if rec["adversary_success"] is not None:
            return "honest transcript reports adversary_success"
    elif rec["adversary_success"] != (accept and rec["coin"] == spec["target_coin"]):
        return "adversary_success does not match verdict and coin"
    if spec["mode"] == "mdi-weak-coherent" and rec["outcome"] is not None:
        if rec["pulse_index"] != rec["rounds"] or rec["rounds"] > spec["k_pulses"]:
            return "pulse_index/rounds inconsistent with K"
    return None


def check_stream(lines: list[str], spec: dict, schema: Schema) -> str | None:
    """Judge one ``run`` stream: every line, then its aggregate rates."""
    if len(lines) != spec["trials"]:
        return f"{len(lines)} transcript lines, expected {spec['trials']}"
    records = []
    for i, line in enumerate(lines):
        rec = json.loads(line)
        reason = schema.transcript_reason(rec) or check_transcript_line(rec, spec)
        if reason:
            return f"line {i}: {reason}"
        records.append(rec)
    n = len(records)
    expect = stream_expectations(spec)
    aborts = sum(rec["verdict"] == "abort" for rec in records)
    reason = binomial_reason(aborts, n, expect["abort"], "abort rate")
    if reason is None and "success" in expect:
        wins = sum(bool(rec["adversary_success"]) for rec in records)
        reason = binomial_reason(wins, n, expect["success"], "adversary success rate")
        if reason is None and spec["adversary"] == "alice-blinding" and wins != n:
            reason = "blinding success is not exactly 1.0"
    if reason is None and spec["adversary"] == "none":
        accepted = [rec for rec in records if rec["verdict"] == "accept"]
        zeros = sum(rec["coin"] == 0 for rec in accepted)
        reason = binomial_reason(zeros, len(accepted), 0.5, "honest coin")
    if reason is None and "multiphoton_slot" in expect:
        multi = sum(len(rec["multiphoton_slots"]) for rec in records)
        reason = binomial_reason(multi, n * spec["k_pulses"], expect["multiphoton_slot"], "multi-photon slots")
    if reason is None and "p_round" in expect:
        # Total rounds of n runs: n successes plus NegBin(n, p) failed rounds.
        failed_rounds = sum(rec["rounds"] for rec in records) - n
        dist = stats.nbinom(n, expect["p_round"])
        pvalue = min(1.0, 2.0 * min(dist.cdf(failed_rounds), dist.sf(failed_rounds - 1)))
        if pvalue < ALPHA:
            reason = f"restart count {failed_rounds} over {n} runs (two-sided p={pvalue:.3g})"
    return reason


def exit_code_reason(code) -> str | None:
    return None if code == 0 else f"exit code {code!r}"


def schema_path(root: str) -> str:
    return os.path.join(root, "schemas", "cli-output.schema.json")
