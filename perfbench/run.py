"""Benchmark of the mdiqct simulator: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload param-scan --seed 3 --seconds 15 --trace 0

Workloads: attack-ladder, honest-channel, param-scan, transcripts (see
perfbench/README.md).  With ``--trace 0`` the run measures set-up time in
fresh interpreters, then the workload in one more fresh interpreter, and
reports the end-to-end metrics.  With ``--trace 1`` it measures the workload
twice, untraced and then traced over the same passes, and reports the
per-layer metrics and the tracing overhead.  Every output is checked; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The metric names and units come
from BENCHMARK.json at the root of the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("attack-ladder", "honest-channel", "param-scan", "transcripts")
SETUP_PROBES = 3
DEADLINE_S = 170.0  # every run must end within 180 s
STATE_DIR = ".perfbench"  # digests, results and scratch files, inside the checkout
# Printed with the end-to-end metrics but not in BENCHMARK.json.  The median
# operation latency follows one kind of operation on the workloads with few
# operations per pass and moved by more than the largest allowed bound
# between runs; transcripts_per_s equals mc_trials_per_s on transcripts and
# is 0 elsewhere; failed_op_share is 0 on correct code and also follows from
# "attempted"/"failed".
EXTRA_METRICS = {
    "op_p50_ms": ("ms", "lower"),
    "transcripts_per_s": ("lines/s", "higher"),
    "failed_op_share": ("ratio", "lower"),
}
# Imports mdiqct and builds the CLI parser: what a user waits for before the
# first command can run.
SETUP_PROBE = (
    "import sys\n"
    "import mdiqct.cli\n"
    "mdiqct.cli.build_parser()\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def checkout_root() -> str:
    root = os.getcwd()
    for rel in ("BENCHMARK.json", "src/mdiqct/__init__.py", "schemas/cli-output.schema.json"):
        if not os.path.isfile(os.path.join(root, rel)):
            raise BenchError(f"{rel} not found under {root}; run from the root of an mdiqct checkout")
    return root


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("MDIQCT_SEED", None)  # the CLI default seed must not leak into the runs
    return env


def measure_setup(root: str, deadline: float) -> list[float]:
    """Seconds from starting a fresh interpreter until it can issue a command."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE], cwd=root, env=child_env(),
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready\n" or code != 0:
            raise BenchError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return times


def run_worker(root: str, args, deadline: float, *, seconds: float, trace: int, passes: int = 0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--passes", str(passes), "--state-dir", os.path.join(root, STATE_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded the deadline: {exc}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def package_versions() -> dict:
    from importlib import metadata

    versions = {}
    for name in ("numpy", "scipy", "jsonschema"):
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            versions[name] = None
    return versions


def check_determinism(root: str, key: str, digest: str) -> bool:
    """Record the output digest for this code and seed; False if it changed."""
    path = os.path.join(root, STATE_DIR, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            known = json.load(fh)
    if known.setdefault(key, digest) != digest:
        return False
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        root = checkout_root()
        with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            declared = json.load(fh)
        os.makedirs(os.path.join(root, STATE_DIR, "results"), exist_ok=True)
        if args.trace:
            untraced = run_worker(root, args, deadline, seconds=args.seconds / 2, trace=0)
            traced = run_worker(root, args, deadline, seconds=0, trace=1, passes=untraced["passes"])
            reports = [untraced, traced]
            values = dict(traced["layers"])
            values["trace_overhead_share"] = (
                (traced["e2e"]["wall_s"] - untraced["e2e"]["wall_s"]) / untraced["e2e"]["wall_s"]
            )
            wanted = declared["per_layer"]
            setup = []
        else:
            setup = measure_setup(root, deadline)
            reports = [run_worker(root, args, deadline, seconds=args.seconds, trace=0)]
            values = dict(reports[0]["e2e"], setup_s=statistics.median(setup))
            wanted = declared["end_to_end"]
        report = summarize(root, args, reports, values, wanted, setup)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_report(report, values, args.trace)
    print(json.dumps(report["result"]))
    return 0


def summarize(root: str, args, reports: list, values: dict, wanted: list, setup: list) -> dict:
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    digest = reports[0]["digest"]
    source = source_digest(root)
    key = f"{source}|{args.workload}|{args.seed}|workers={reports[0]['workers']}"
    problems = [p for r in reports for p in r["self_test"]]
    problems += [f"failed operation: {reason}" for r in reports for reason in r["failures"]]
    if any(r["digest"] != digest for r in reports):
        problems.append("traced and untraced runs produced different outputs")
    if not all(r["digest_repeats"] for r in reports):
        problems.append("pass 0 gave different outputs when repeated in one process")
    if not check_determinism(root, key, digest):
        problems.append("outputs differ from an earlier run of this code with this seed")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    environment = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **package_versions(),
        "git_commit": git_commit(root),
        "source_sha256": source,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": reports[0]["workers"],
        "passes": [r["passes"] for r in reports],
        "operations_per_pass": reports[0]["ops_per_pass"],
        "trials_per_pass": reports[0]["trials_per_pass"],
        "operations": [r["attempted"] for r in reports],
        "output_digest": digest,
        "setup_probes_s": setup,
    }
    units = {m["name"]: (m["unit"], m["better"]) for m in wanted}
    if not args.trace:
        values["failed_op_share"] = failed / attempted
        units.update(EXTRA_METRICS)
    report = {"environment": environment, "problems": problems, "result": result,
              "metrics": {name: {"value": values[name], "unit": unit, "better": better}
                          for name, (unit, better) in units.items()},
              "process_reports": reports}
    path = os.path.join(root, STATE_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(report: dict, values: dict, trace: int) -> None:
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for problem in report["problems"]:
        print(f"problem: {problem}")
    for name, info in report["metrics"].items():
        print(f"{name} = {info['value']:.6g} {info['unit']}  ({info['better']} is better)")
    if not trace:
        print(f"op_p50_ms and op_p99_ms are taken over {values['op_samples']} operations")


if __name__ == "__main__":
    raise SystemExit(main())
