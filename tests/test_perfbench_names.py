"""The package names the benchmark harness reaches still exist.

``perfbench/tracer.py`` wraps package functions and strategy hooks by name,
and ``perfbench/checks.py`` imports closed forms and helpers from the
package.  A change that drops or renames one of them fails here, instead of
breaking ``perfbench/run.py`` (with or without ``--trace 1``).  One pass of
each workload in ``BENCHMARK.json`` also runs here, at one worker, and every
operation must pass the benchmark's own output checks.
"""
import ast
import importlib
import importlib.util
import json
import pathlib

import pytest

from mdiqct import adversaries, analysis, cli, devices, errors, protocol, qmath

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_name():
    tracer_module = load("tracer")
    # The same dict that perfbench/worker.py builds from the package.
    modules = {"adversaries": adversaries, "analysis": analysis, "cli": cli, "devices": devices,
               "errors": errors, "protocol": protocol, "qmath": qmath}
    originals = {name: getattr(analysis, name) for name in ("estimate", "sample_bsm_noisy_batch")}
    tracer = tracer_module.Tracer(modules)
    try:
        tracer.install()
        assert analysis.estimate is not originals["estimate"]
        assert analysis.estimate("bob-med", trials=10, seed=0).trials == 10
    finally:
        tracer.uninstall()
    assert all(getattr(analysis, name) is fn for name, fn in originals.items())


def test_checks_import_and_use_existing_names():
    checks = load("checks")
    modules = {name: getattr(checks, name) for name in ("analysis", "protocol")}
    tree = ast.parse((PERFBENCH / "checks.py").read_text(encoding="utf-8"))
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert used
    missing = [f"{module}.{attr}" for module, attr in sorted(used) if not hasattr(modules[module], attr)]
    assert not missing


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_of_each_workload_passes_the_benchmark_checks(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports checks.py by its bare name
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    schema = checks.Schema(checks.schema_path(str(ROOT)))
    assert workloads.self_test(schema) == []
    runner = workloads.Runner(cli, analysis, str(tmp_path))
    ops = workloads.operations(workload, 0, 0, 1)  # pass 0 at seed 0, one worker
    assert ops
    failures = [(op.label, reason) for op in ops if (reason := workloads.check(op, runner.run(op), schema))]
    assert failures == []
