"""Measure one workload in this fresh interpreter and report it as JSON.

Run by ``run.py`` from the root of a checkout; not meant to be called by hand.
Order of work: import the package from ``./src``, run pass 0 once untimed
(warm-up), then run timed passes.  Each pass's outputs are checked right
after the pass, outside the timed calls, and then dropped, so the memory the
benchmark holds does not grow with the number of passes a faster program
completes.  Traced runs finally repeat pass 0's estimator calls at
``workers=1``.  The last line of standard output is the report.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

# The package under test is the checkout's own source tree.
SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402  (needs SRC on the path)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

FAILURE_SAMPLES = 5  # failure reasons quoted in the report
MIN_PASSES = 3  # a median pass needs a few passes, however long each one is


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=0, help="run exactly this many timed passes")
    parser.add_argument("--state-dir", required=True)
    return parser.parse_args(argv)


def import_package() -> dict:
    import mdiqct

    if not os.path.abspath(mdiqct.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"mdiqct imported from {mdiqct.__file__}, not from {SRC}")
    from mdiqct import adversaries, analysis, cli, devices, errors, protocol, qmath

    return {"adversaries": adversaries, "analysis": analysis, "cli": cli, "devices": devices,
            "errors": errors, "protocol": protocol, "qmath": qmath}


def same_output(op, first, again) -> bool:
    """Equal outputs at two worker counts; ``attack`` documents echo the count."""
    if op.kind == "estimate":
        return workloads.output_digest(op, first) == workloads.output_digest(op, again)
    docs = []
    for result in (first, again):
        code, stdout, _, _ = result.value
        if code != 0:
            return False
        doc = json.loads(stdout)
        doc.pop("workers")
        docs.append(doc)
    return docs[0] == docs[1]


@dataclass
class Timed:
    """What the metrics need from one timed operation once its output is dropped."""

    label: str
    trials: int
    writes_transcripts: bool
    latency_s: float
    output_bytes: int
    rounds: list  # ``rounds`` of every transcript line written (traced runs only)


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_package()
    nproc = len(os.sched_getaffinity(0))
    schema = checks.Schema(checks.schema_path(os.getcwd()))
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=args.state_dir)
    try:
        runner = workloads.Runner(modules["cli"], modules["analysis"], tmp)
        tracer = tracing.Tracer(modules) if args.trace else None

        def run_pass(index: int):
            ops = workloads.operations(args.workload, args.seed, index, nproc)
            return ops, [runner.run(op) for op in ops]

        failures = []

        def check_pass(ops, results) -> list[Timed]:
            timed = []
            for op, result in zip(ops, results):
                reason = workloads.check(op, result, schema)
                if reason:
                    failures.append(f"{op.label}: {reason}")
                is_run = op.spec.get("command") == "run"
                rounds = []
                if tracer and is_run and not reason:
                    rounds = [json.loads(line)["rounds"] for line in result.value[2].splitlines()]
                timed.append(Timed(op.label, op.trials, is_run, result.latency_s, result.output_bytes, rounds))
            return timed

        if tracer:
            tracer.install()
        first_ops, first_results = run_pass(0)  # warm-up
        if tracer:
            tracer.reset()
        passes: list[list[Timed]] = []
        start = time.perf_counter()
        while True:
            if args.passes:
                if len(passes) == args.passes:
                    break
            elif len(passes) >= MIN_PASSES and time.perf_counter() - start >= args.seconds:
                break
            ops, results = run_pass(len(passes))
            if not passes:
                digest_repeats = pass_digest(ops, results) == pass_digest(first_ops, first_results)
                first_ops, first_results = ops, results
            with tracing.suspended(tracer):
                passes.append(check_pass(ops, results))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = sum(len(p) for p in passes)

        layers = {}
        if tracer:
            layers = layer_metrics(tracer, passes)
            tracer.phase = "w1"
            for op, result in zip(first_ops, first_results):
                if op.kind == "estimate" or op.spec["command"] == "attack":
                    again = runner.run(op, workers=1)
                    attempted += 1
                    if not same_output(op, result, again):
                        failures.append(f"{op.label}: output differs between workers={nproc} and workers=1")
            layers.update(scaling_metrics(tracer, nproc))
            tracer.uninstall()

        report = {
            "workload": args.workload,
            "seed": args.seed,
            "workers": nproc,
            "passes": len(passes),
            "ops_per_pass": len(first_ops),
            "trials_per_pass": sum(op.trials for op in first_ops),
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures[:FAILURE_SAMPLES],
            "self_test": workloads.self_test(schema),
            "digest": pass_digest(first_ops, first_results),
            "digest_repeats": digest_repeats,
            "e2e": end_to_end(passes, peak_rss_mb),
            "median_ms_by_label": median_ms_by_label(passes),
            "layers": layers,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(report))
    return 0


def pass_digest(ops, results) -> str:
    h = hashlib.sha256()
    for op, result in zip(ops, results):
        h.update(workloads.output_digest(op, result))
    return h.hexdigest()


def end_to_end(passes: list[list[Timed]], peak_rss_mb: float) -> dict:
    """Every pass does the same number of operations and trials, so rates are
    taken over the median pass: slow spells of a shared machine move a median
    less than a total."""
    latencies = [t.latency_s for p in passes for t in p]
    wall = statistics.median(sum(t.latency_s for t in p) for p in passes)
    first = passes[0]
    quantiles = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "wall_s": wall,
        "mc_trials_per_s": sum(t.trials for t in first) / wall,
        "ops_per_s": len(first) / wall,
        "op_p50_ms": quantiles[49] * 1e3,
        "op_p99_ms": quantiles[98] * 1e3,
        "op_samples": len(latencies),
        "transcripts_per_s": sum(t.trials for t in first if t.writes_transcripts) / wall,
        "peak_rss_mb": peak_rss_mb,
    }


def median_ms_by_label(passes: list[list[Timed]]) -> dict:
    by_label = {}
    for p in passes:
        for t in p:
            by_label.setdefault(t.label, []).append(t.latency_s * 1e3)
    return {label: statistics.median(values) for label, values in sorted(by_label.items())}


def layer_metrics(tracer, passes: list[list[Timed]]) -> dict:
    """Per-layer numbers over the timed passes; counts are per pass."""
    n_passes = len(passes)
    out = {}

    def per_entry_us(layer):
        info = tracer.layer(layer)
        return info, (info["self_s"] / info["entries"] * 1e6 if info["entries"] else 0.0)

    cli_info = tracer.layer("cli.main")
    out["cli.main.calls"] = cli_info["entries"] / n_passes
    out["cli.main.self_s"] = cli_info["self_s"] / n_passes
    out["cli.output_bytes"] = sum(t.output_bytes for p in passes for t in p) / n_passes
    for flow in tracing.FLOWS:
        info, us = per_entry_us(f"protocol.{flow}")
        out[f"protocol.{flow}.runs"] = info["entries"] / n_passes
        out[f"protocol.{flow}.self_us_per_run"] = us
    rounds = [n for p in passes for t in p for n in t.rounds]
    bsm = tracer.layer("devices.bsm_scalar")
    out["protocol.rounds_per_run"] = statistics.fmean(rounds) if rounds else 0.0
    out["protocol.round_success_ratio"] = bsm["successes"] / bsm["entries"] if bsm["entries"] else 0.0
    out["protocol.exhausted"] = tracer.exhausted / n_passes
    info, us = per_entry_us("protocol.serialize")
    out["protocol.serialize.lines"] = info["entries"] / n_passes
    out["protocol.serialize.us_per_line"] = us
    out["devices.bsm_batch.trials"] = tracer.batch_trials / n_passes
    out["devices.bsm_batch.ns_per_trial"] = tracer.batch_s / tracer.batch_trials * 1e9 if tracer.batch_trials else 0.0
    out["devices.photon_number.calls"] = tracer.layer("devices.photon_number")["entries"] / n_passes
    for layer in ("devices.bsm_scalar", "qmath.state_for_label", "qmath.tables", "adversaries.hooks",
                  "analysis.closed_forms"):
        info, us = per_entry_us(layer)
        out[f"{layer}.calls"] = info["entries"] / n_passes
        out[f"{layer}.us_per_call"] = us
    measured = [e for e in tracer.estimates if e["phase"] == "measure"]
    out["analysis.estimate.self_s"] = sum(e["self"] for e in measured) / n_passes
    for scenario in workloads.SCAN_SCENARIOS:
        calls = [e for e in measured if e["scenario"] == scenario]
        requested = sum(e["trials"] for e in calls)
        duration = sum(e["duration"] for e in calls)
        small = [e["duration"] for e in calls if e["trials"] <= workloads.ONE_CHUNK]
        prefix = f"analysis.estimate.{scenario}"
        out[f"{prefix}.calls"] = len(calls) / n_passes
        out[f"{prefix}.trials"] = requested / n_passes
        out[f"{prefix}.mtrials_per_s"] = requested / duration / 1e6 if duration else 0.0
        out[f"{prefix}.effective_share"] = sum(e["effective"] for e in calls) / requested if requested else 0.0
        out[f"{prefix}.us_per_call"] = statistics.fmean(small) * 1e6 if small else 0.0
    return out


def scaling_metrics(tracer, nproc: int) -> dict:
    """workers=1 throughput of pass 0's estimator calls, and T1 / (nproc * T_nproc)."""
    out = {}
    for scenario in workloads.SCAN_SCENARIOS:
        rates = {}
        for phase in ("measure", "w1"):
            calls = [e for e in tracer.estimates if e["phase"] == phase and e["scenario"] == scenario]
            duration = sum(e["duration"] for e in calls)
            rates[phase] = sum(e["trials"] for e in calls) / duration / 1e6 if duration else 0.0
        prefix = f"analysis.estimate.{scenario}"
        out[f"{prefix}.w1_mtrials_per_s"] = rates["w1"]
        out[f"{prefix}.scaling_efficiency"] = rates["measure"] / (nproc * rates["w1"]) if rates["w1"] else 0.0
    return out


if __name__ == "__main__":
    raise SystemExit(main())
