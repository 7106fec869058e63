"""Print one sha256 per output of a fixed list of calls, one ``name digest`` line each.

The list covers every subcommand, ``run`` mode, adversary and format, at
seeds 0-2 where the command takes a seed, plus every ``estimate`` scenario.
``run`` writes its stream through ``--out``.  The script imports the package
from the ``src`` directory of the checkout it sits in, so a claim that two
checkouts produce the same bytes is a ``diff`` of two runs::

    python3 tools/output_digests.py > after.txt
    (cd ../parent && python3 tools/output_digests.py) > before.txt
    diff before.txt after.txt

Pass one or more name prefixes (``run:``, ``estimate:``, ...) to print only
the matching lines.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mdiqct import analysis, cli  # noqa: E402
from mdiqct.devices import ChannelParams, DetectorParams  # noqa: E402

SEEDS = (0, 1, 2)
IDEAL = ["--eta", "1", "--dark", "0"]
# Enough transcripts that every stream spans more than one batch of ``run``.
RUN_TRIALS = 10_000
ATTACK_TRIALS = 300_000
ESTIMATE_TRIALS = 300_000

# (name, run flags): every mode with honest play, then every adversary in each mode it applies to.
RUN_STREAMS = [
    ("mdi", ["--mode", "mdi"]),
    ("mdi-10km", ["--mode", "mdi", "--la", "10", "--lb", "10", "--eta", "0.3", "--dark", "1e-2"]),
    ("mdi-weak-coherent", ["--mode", "mdi-weak-coherent", "--mu", "0.5", "--k-pulses", "10"]),
    ("baseline", ["--mode", "baseline"]),
    ("baseline/alice-blinding", ["--mode", "baseline", "--adversary", "alice-blinding"]),
    ("baseline/bob-med", ["--mode", "baseline", "--adversary", "bob-med", *IDEAL]),
    ("mdi/bob-med", ["--mode", "mdi", "--adversary", "bob-med", *IDEAL]),
    ("mdi/alice-individual", ["--mode", "mdi", "--adversary", "alice-individual", "--target-coin", "1", *IDEAL]),
    ("mdi/alice-coherent", ["--mode", "mdi", "--adversary", "alice-coherent", *IDEAL]),
]

ATTACKS = [
    ("none", []),
    ("bob-med", []),
    ("alice-individual/basis-flip", ["--med-model", "basis-flip"]),
    ("alice-individual/projective", ["--med-model", "projective"]),
    ("alice-coherent/plus", ["--sent", "plus"]),
    ("alice-coherent/minus", ["--sent", "minus"]),
    ("alice-blinding", []),
]

LOSSY = {"channel": ChannelParams(10.0, 10.0), "detector": DetectorParams(eta=0.1, dark=1e-4)}
ESTIMATES = [
    ("honest-round-abort", LOSSY),
    ("honest-round-cause", dict(LOSSY, cause_code=2)),
    ("honest-run-abort", dict(LOSSY, max_rounds=50)),
    ("honest-coin", LOSSY),
    ("bob-med", {"y": 0.8}),
    ("alice-individual", {"med_model": "projective", "condition": "wrong"}),
    ("alice-coherent", {"sent": "minus", "target_coin": 1}),
    ("alice-blinding", {"count": "abort"}),
    ("table-cell", {"index_a": 1, "index_b": 2, "outcome": "psi-minus"}),
    ("cheating-cell", {"index_b": 3, "sent": "plus", "outcome": "psi-plus"}),
]


def cli_calls() -> list[tuple[str, list[str]]]:
    calls = []
    for fmt in ("json", "csv", "text"):
        calls.append((f"tables:{fmt}", ["tables", "--y", "0.8", "--format", fmt]))
    for fmt in ("json", "csv"):
        calls.append((f"fair:{fmt}", ["fair", "--format", fmt]))
        calls.append((f"sweep:{fmt}", ["sweep", "--lmax", "40", "--step", "4", "--format", fmt]))
        for name, flags in ATTACKS:
            adversary = name.split("/")[0]
            for seed in SEEDS:
                argv = ["attack", "--adversary", adversary, *flags, "--trials", str(ATTACK_TRIALS),
                        "--seed", str(seed), "--format", fmt]
                calls.append((f"attack:{name}:{fmt}:{seed}", argv))
    for name, flags in RUN_STREAMS:
        for seed in SEEDS:
            calls.append((f"run:{name}:{seed}", ["run", *flags, "--trials", str(RUN_TRIALS), "--seed", str(seed)]))
    return calls


def cli_digest(argv: list[str], out_path: str) -> str:
    """The sha256 of the exit code, stdout, stderr and ``--out`` file of one ``main`` call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([*argv, "--out", out_path])
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    written = b""
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            written = fh.read()
        os.remove(out_path)
    return hashlib.sha256(f"{code}\n{stdout.getvalue()}\n{stderr.getvalue()}\n".encode() + written).hexdigest()


def estimate_digest(scenario: str, params: dict, seed: int) -> str:
    est = analysis.estimate(scenario, trials=ESTIMATE_TRIALS, seed=seed, **params)
    return hashlib.sha256(f"{est.mean!r} {est.stderr!r} {est.trials} {est.seed}".encode()).hexdigest()


def main(prefixes: list[str]) -> int:
    def wanted(name: str) -> bool:
        return not prefixes or any(name.startswith(p) for p in prefixes)

    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out")
        for name, argv in cli_calls():
            if wanted(name):
                print(name, cli_digest(argv, out_path), flush=True)
    for scenario, params in ESTIMATES:
        for seed in SEEDS:
            name = f"estimate:{scenario}:{seed}"
            if wanted(name):
                print(name, estimate_digest(scenario, params, seed), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
