"""The four workloads: seeded operation lists, and how one operation runs.

An operation is one in-process call to a public entry point of the package:
``mdiqct.cli.main([...])`` or ``mdiqct.analysis.estimate(...)``.  A workload
is a list of operations per *pass*; pass ``p`` of a run with seed ``s`` is
generated from ``(workload, s, p)`` alone, so a seed fixes every input.  The
client is a closed loop: it issues the next operation only after the
previous one has returned.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import json
import random
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

from mdiqct.devices import ChannelParams, DetectorParams

import checks

# The reference operating point of the package: fair y, eta 0.1, dark 1e-4.
REF_Y, REF_ETA, REF_DARK = 0.9, 0.1, 1e-4

# attack-ladder: trials per call give every estimate this standard error.
TARGET_STDERR = 1e-4

# One chunk of the estimator; param-scan calls never exceed it.
ONE_CHUNK = 1 << 16


@dataclass
class Op:
    """One operation of a pass and everything needed to run and judge it."""

    kind: str  # "cli" or "estimate"
    label: str  # groups operations of one kind, e.g. "attack:bob-med"
    trials: int  # requested Monte Carlo trials (0 for closed-form commands)
    spec: dict  # flags / parameters, as plain values, used by the checks
    argv: list = field(default_factory=list)  # for "cli"
    kwargs: dict = field(default_factory=dict)  # for "estimate"


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def program_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def cli_op(label: str, argv: list, spec: dict, trials: int = 0) -> Op:
    return Op("cli", label, trials, dict(spec, command=argv[0]), argv=[str(a) for a in argv])


def estimate_op(scenario: str, trials: int, seed: int, workers: int, params: dict) -> Op:
    kwargs = dict(params)
    if "l_km" in kwargs:
        kwargs["channel"] = ChannelParams(kwargs.pop("l_km"), params["l_km"])
        kwargs["detector"] = DetectorParams(eta=kwargs.pop("eta"), dark=kwargs.pop("dark"))
    spec = {"scenario": scenario, "seed": seed, "workers": workers, "params": params}
    return Op("estimate", f"estimate:{scenario}", trials, spec, kwargs=kwargs)


# ---------------------------------------------------------------------------
# Workload generators: (rng, workers) -> list of operations for one pass
# ---------------------------------------------------------------------------

def attack_ladder(rng: random.Random, workers: int) -> list[Op]:
    """One ``attack`` call per adversary variant of the cheating-success table."""
    variants = [
        ("none", [], {}),
        ("bob-med", [], {}),
        ("alice-individual", ["--med-model", "basis-flip"], {"med_model": "basis-flip"}),
        ("alice-individual", ["--med-model", "projective"], {"med_model": "projective"}),
        ("alice-coherent", ["--sent", "plus"], {"sent": "plus"}),
        ("alice-coherent", ["--sent", "minus"], {"sent": "minus"}),
        ("alice-blinding", [], {}),
    ]
    ops = []
    for adversary, flags, extra in variants:
        p = checks.attack_closed_form(adversary, REF_Y, extra.get("med_model"), extra.get("sent"))
        # Blinding reads exactly 1 at any size; it gets the worst-case p = 1/2 size.
        variance = p * (1.0 - p) if 0.0 < p < 1.0 else 0.25
        trials = math.ceil(variance / TARGET_STDERR**2)
        seed, target = program_seed(rng), rng.randrange(2)
        argv = ["attack", "--adversary", adversary, *flags, "--y", REF_Y, "--target-coin", target,
                "--trials", trials, "--seed", seed, "--workers", workers]
        spec = dict(extra, adversary=adversary, trials=trials, seed=seed, workers=workers, target_coin=target)
        label = "attack:" + "/".join([adversary, *extra.values()])
        ops.append(cli_op(label, argv, spec, trials))
    rng.shuffle(ops)
    return ops


HONEST_CHANNEL_TRIALS = 2_000_000
HONEST_CHANNEL_RANGES = {"short": (0.0, 5.0), "medium": (20.0, 30.0), "long": (60.0, 100.0)}


def honest_channel(rng: random.Random, workers: int) -> list[Op]:
    """Honest-abort estimates at short, medium and long symmetric distances."""
    ops = []
    for lo, hi in HONEST_CHANNEL_RANGES.values():
        base = {"y": REF_Y, "l_km": rng.uniform(lo, hi), "eta": REF_ETA, "dark": REF_DARK,
                "extended": False, "max_rounds": checks.MAX_ROUNDS}
        for scenario, extra in (
            ("honest-round-abort", {}),
            ("honest-round-cause", {"cause_code": 2}),
            ("honest-round-cause", {"cause_code": 3}),
            ("honest-run-abort", {}),
            ("honest-coin", {}),
        ):
            ops.append(estimate_op(scenario, HONEST_CHANNEL_TRIALS, program_seed(rng), workers, dict(base, **extra)))
    lmin = rng.uniform(0.0, 10.0)
    ops.append(sweep_op(lmin, 5.0, 20, REF_ETA, REF_DARK))
    rng.shuffle(ops)
    return ops


def sweep_op(lmin: float, step: float, intervals: int, eta: float, dark: float) -> Op:
    # lmax sits half a step past the last point so rounding cannot drop it.
    lmax = lmin + (intervals + 0.5) * step
    argv = ["sweep", "--lmin", repr(lmin), "--lmax", repr(lmax), "--step", repr(step),
            "--eta", repr(eta), "--dark", repr(dark)]
    spec = {"lmin": lmin, "step": step, "points": intervals + 1, "eta": eta, "dark": dark}
    return cli_op("cli:sweep", argv, spec)


PARAM_SCAN_GRID = 48  # distinct y per pass: more than the estimator's 32-entry table cache
PARAM_SCAN_TRIALS = (1024, 4096, 16384, ONE_CHUNK)
SCAN_ETAS = (0.1, 0.3, 1.0)
SCAN_DARKS = (1e-4, 1e-3, 1e-2)


def _scan_params(scenario: str, rng: random.Random) -> dict:
    if scenario.startswith("honest-"):
        params = {"l_km": rng.uniform(0.0, 50.0), "eta": rng.choice(SCAN_ETAS),
                  "dark": rng.choice(SCAN_DARKS), "extended": False, "max_rounds": checks.MAX_ROUNDS}
        if scenario == "honest-round-cause":
            params["cause_code"] = rng.choice((2, 3))
        return params
    if scenario == "alice-individual":
        return {"med_model": rng.choice(("basis-flip", "projective")), "target_coin": rng.randrange(2)}
    if scenario == "alice-coherent":
        return {"sent": rng.choice(("plus", "minus")), "target_coin": rng.randrange(2)}
    if scenario == "alice-blinding":
        return {"count": rng.choice(("success", "abort")), "target_coin": rng.randrange(2)}
    if scenario == "table-cell":
        return {"index_a": rng.randrange(4), "index_b": rng.randrange(4),
                "outcome": rng.choice(("psi-plus", "psi-minus"))}
    if scenario == "cheating-cell":
        return {"index_b": rng.randrange(4), "sent": rng.choice(("plus", "minus")),
                "outcome": rng.choice(("psi-plus", "psi-minus"))}
    return {}


SCAN_SCENARIOS = (
    "honest-round-abort", "honest-round-cause", "honest-run-abort", "honest-coin", "bob-med",
    "alice-individual", "alice-coherent", "alice-blinding", "table-cell", "cheating-cell",
)


def param_scan(rng: random.Random, workers: int) -> list[Op]:
    """Many small calls: one-chunk estimates over a y grid, plus tables/fair/sweep."""
    grid = sorted(rng.uniform(0.52, 0.98) for _ in range(PARAM_SCAN_GRID))
    sizes = list(PARAM_SCAN_TRIALS) * (PARAM_SCAN_GRID // len(PARAM_SCAN_TRIALS))
    scenarios = list(SCAN_SCENARIOS)
    rng.shuffle(scenarios)
    ops = []
    # Scenario-major order: each scenario walks the whole grid, as a scan
    # script would, so the 32-entry table cache cycles and misses.
    for scenario in scenarios:
        rng.shuffle(sizes)
        for y, trials in zip(grid, sizes):
            params = dict(_scan_params(scenario, rng), y=y)
            ops.append(estimate_op(scenario, trials, program_seed(rng), workers, params))
    for y in grid:
        ops.append(cli_op("cli:tables", ["tables", "--y", repr(y)], {"y": y}))
    for _ in range(4):
        tolerance = 10.0 ** rng.uniform(-12.0, -6.0)
        ops.append(cli_op("cli:fair", ["fair", "--tolerance", repr(tolerance)], {"tolerance": tolerance}))
        ops.append(sweep_op(rng.uniform(0.0, 20.0), rng.uniform(1.0, 5.0), 20,
                            rng.choice(SCAN_ETAS), rng.choice(SCAN_DARKS)))
    return ops


# (label, run flags, transcripts per call, copies per pass); the honest
# reference stream makes ~200 rounds per transcript, the lossy one ~500.
TRANSCRIPT_STREAMS = (
    ("honest", {"mode": "mdi"}, 10, 2),
    ("honest-10km", {"mode": "mdi", "l_km": 10.0}, 4, 1),
    ("weak-coherent", {"mode": "mdi-weak-coherent"}, 100, 1),
    ("baseline", {"mode": "baseline"}, 100, 1),
    ("baseline-blinding", {"mode": "baseline", "adversary": "alice-blinding"}, 100, 1),
    ("bob-med", {"mode": "mdi", "adversary": "bob-med", "ideal": True}, 100, 1),
    ("alice-individual", {"mode": "mdi", "adversary": "alice-individual", "ideal": True}, 100, 1),
    ("alice-coherent", {"mode": "mdi", "adversary": "alice-coherent", "ideal": True}, 100, 1),
)
WEAK_MU, WEAK_K = 0.5, 10


def transcripts(rng: random.Random, workers: int) -> list[Op]:
    """``run`` streams written with ``--out``; ``workers`` is unused by ``run``."""
    ops = []
    for name, flags, trials, copies in TRANSCRIPT_STREAMS:
        for _ in range(copies):
            ideal = flags.get("ideal", False)
            spec = {
                "mode": flags["mode"], "adversary": flags.get("adversary", "none"),
                "y": round(rng.uniform(0.6, 0.95), 6), "l_km": flags.get("l_km", 0.0),
                "eta": 1.0 if ideal else REF_ETA, "dark": 0.0 if ideal else REF_DARK,
                "trials": trials, "seed": program_seed(rng), "target_coin": rng.randrange(2),
                "mu": WEAK_MU, "k_pulses": WEAK_K,
            }
            argv = ["run", "--trials", trials, "--seed", spec["seed"], "--y", repr(spec["y"]),
                    "--la", repr(spec["l_km"]), "--lb", repr(spec["l_km"]),
                    "--eta", repr(spec["eta"]), "--dark", repr(spec["dark"]),
                    "--mode", spec["mode"], "--adversary", spec["adversary"],
                    "--target-coin", spec["target_coin"]]
            if spec["mode"] == "mdi-weak-coherent":
                argv += ["--mu", repr(WEAK_MU), "--k-pulses", WEAK_K]
            ops.append(cli_op(f"run:{name}", argv, spec, trials))
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "attack-ladder": attack_ladder,
    "honest-channel": honest_channel,
    "param-scan": param_scan,
    "transcripts": transcripts,
}


def operations(workload: str, seed: int, index: int, workers: int) -> list[Op]:
    return GENERATORS[workload](pass_rng(workload, seed, index), workers)


# ---------------------------------------------------------------------------
# Running one operation
# ---------------------------------------------------------------------------

@dataclass
class Result:
    latency_s: float
    value: object  # Estimate, exception, or (exit code, stdout, --out text, stderr)
    output_bytes: int = 0


class Runner:
    """Issues operations against the package modules, one at a time."""

    def __init__(self, cli_module, analysis_module, tmp_dir: str) -> None:
        self.cli = cli_module
        self.analysis = analysis_module
        self.out_path = os.path.join(tmp_dir, "run.jsonl")

    def run(self, op: Op, workers: int | None = None) -> Result:
        if op.kind == "estimate":
            return self._estimate(op, workers)
        return self._cli(op, workers)

    def _estimate(self, op: Op, workers: int | None) -> Result:
        spec = op.spec
        estimate = self.analysis.estimate  # resolved per call, so trace wrappers apply
        t0 = time.perf_counter()
        try:
            value = estimate(spec["scenario"], trials=op.trials, seed=spec["seed"],
                             workers=workers or spec["workers"], **op.kwargs)
        except Exception as exc:  # a failed operation, counted by the checks
            value = exc
        return Result(time.perf_counter() - t0, value)

    def _cli(self, op: Op, workers: int | None) -> Result:
        argv = list(op.argv)
        if workers is not None:
            argv[argv.index("--workers") + 1] = str(workers)
        writes_file = argv[0] == "run"
        if writes_file:
            argv += ["--out", self.out_path]
        out, err = io.StringIO(), io.StringIO()
        main = self.cli.main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a failed operation, counted by the checks
                code = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
        text = ""
        if writes_file and os.path.exists(self.out_path):
            with open(self.out_path, "r", encoding="utf-8") as fh:
                text = fh.read()
            os.remove(self.out_path)
        stdout = out.getvalue()
        return Result(latency, (code, stdout, text, err.getvalue()),
                      output_bytes=len(stdout.encode()) + len(text.encode()))


def output_digest(op: Op, result: Result) -> bytes:
    """Bytes that identify an operation's output, for the determinism guard."""
    value = result.value
    if op.kind == "estimate":
        if isinstance(value, Exception):
            text = f"{type(value).__name__}: {value}"
        else:
            text = f"{value.mean!r} {value.stderr!r} {value.trials} {value.seed}"
    else:
        code, stdout, text_out, _ = value
        text = f"{code!r}\n{stdout}\n{text_out}"
    return hashlib.sha256(f"{op.label}\n{text}".encode()).digest()


def check(op: Op, result: Result, schema: checks.Schema) -> str | None:
    """None if the operation succeeded and its output is correct."""
    value = result.value
    if op.kind == "estimate":
        if isinstance(value, Exception):
            return f"{type(value).__name__}: {value}"
        spec = op.spec
        return checks.check_estimate(spec["scenario"], spec["params"], op.trials, spec["seed"], value)
    code, stdout, text, stderr = value
    reason = checks.exit_code_reason(code)
    if reason:
        return f"{reason}: {stderr.strip()[:200]}"
    command = op.spec["command"]
    try:
        if command == "run":
            return checks.check_stream(text.splitlines(), op.spec, schema)
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"output is not valid JSON: {exc}"
    if isinstance(doc, dict) and doc.get("command") != command:
        return f"document for {doc.get('command')!r}, expected {command!r}"
    reason = schema.document_reason(doc)
    if reason:
        return reason
    judge = {"attack": checks.check_attack, "fair": checks.check_fair,
             "sweep": checks.check_sweep, "tables": checks.check_tables}[command]
    return judge(doc, op.spec)


def self_test(schema: checks.Schema) -> list[str]:
    """Broken outputs must count as failed operations and intact ones must not.

    Returns the cases where :func:`check` disagreed; empty means the checks bite.
    """
    n, y, seed = 1_000_000, REF_Y, 7

    def estimate(k: int) -> Result:
        mean = k / n
        return Result(0.0, SimpleNamespace(mean=mean, stderr=math.sqrt(mean * (1.0 - mean) / n), trials=n, seed=seed))

    def stream(code, rec: dict | None) -> Result:
        return Result(0.0, (code, "", "" if rec is None else json.dumps(rec) + "\n", ""))

    k = round(y * n)
    ten_sigma = round(10.0 * math.sqrt(y * (1.0 - y) * n))
    est_op = estimate_op("bob-med", n, seed, 1, {"y": y})
    spec = {"mode": "mdi", "adversary": "none", "y": y, "l_km": 0.0, "eta": 1.0, "dark": 0.0,
            "trials": 1, "target_coin": 0}
    run_op = cli_op("run:self-test", ["run"], spec, 1)
    line = {"rounds": 3, "outcome": "psi-plus", "bob_basis": 0, "bob_bit": 1, "b_prime": 1,
            "revealed_basis": 1, "revealed_bit": 0, "verdict": "accept", "coin": 1,
            "cause": "both-photons", "pulse_index": None, "multiphoton_slots": [],
            "adversary_success": None}
    cases = [
        ("intact estimate", est_op, estimate(k), False),
        ("estimate shifted by 10 sigma", est_op, estimate(k + ten_sigma), True),
        ("intact transcript", run_op, stream(0, line), False),
        ("transcript with a flipped coin", run_op, stream(0, dict(line, coin=0)), True),
        ("nonzero exit", run_op, stream(2, None), True),
    ]
    return [f"self-test: {name} {'passed' if broken else 'failed'} the checks"
            for name, op, result, broken in cases
            if (check(op, result, schema) is not None) != broken]
