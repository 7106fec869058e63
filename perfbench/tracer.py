"""Per-layer tracing from outside the package.

Wrappers are installed on public functions at the name each caller resolves
(``mdiqct.protocol.state_for_label``, ``mdiqct.analysis.sample_bsm_noisy_batch``
and so on), so the package itself is unchanged.  Per-round functions are too
many to keep as individual spans: for every (layer, parent layer) pair the
wrapper keeps a count, the total time, and the time covered by direct child
spans.  Estimator calls are kept individually, together with the intervals
of the batched sampler calls that run inside them on the pool's threads,
because those children overlap and only their union may be subtracted.
"""
from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict

# layer -> [(module attribute path, function name)]; the attribute path is the
# name the caller resolves.
FUNCTION_LAYERS = {
    "cli.main": [("cli", "main")],
    "analysis.closed_forms": [
        ("analysis", "honest_abort_closed_form"),
        ("analysis", "honest_abort_given_success"),
        ("analysis", "sweep_distance"),
        ("analysis", "solve_fair_y"),
    ],
    "protocol.honest": [("protocol", "run_honest")],
    "protocol.weak_coherent": [("protocol", "run_weak_coherent")],
    "protocol.baseline": [("protocol", "run_baseline")],
    "protocol.adversary": [("protocol", "run_with_adversary")],
    "protocol.serialize": [("protocol", "transcript_json_line")],
    "devices.bsm_scalar": [("devices", "sample_bsm_noisy"), ("devices", "sample_bsm_ideal")],
    "devices.photon_number": [("protocol", "sample_photon_number")],
    "qmath.state_for_label": [("protocol", "state_for_label"), ("adversaries", "state_for_label")],
    "qmath.tables": [
        ("analysis", "verification_table"),
        ("analysis", "cheating_table"),
        ("cli", "verification_table"),
        ("cli", "cheating_table"),
    ],
}
HOOK_METHODS = {
    "BobOptimalDiscrimination": ("choose_b_prime",),
    "ColludingBoxIndividual": ("box_process", "reveal"),
    "CoherentStateAlice": ("prepare", "reveal"),
    "DetectorControlAlice": ("control_detection", "reveal"),
}
FLOWS = ("honest", "weak_coherent", "baseline", "adversary")


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


class Tracer:
    """Installs wrappers on the package modules and aggregates their spans."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # (layer, parent layer) -> [calls, total_s, child_s, successes]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.estimates: list[dict] = []
        self.batch_trials = 0
        self.batch_s = 0.0
        self.exhausted = 0
        self.phase = "measure"
        self._current = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, targets in FUNCTION_LAYERS.items():
            for module, name in targets:
                self._wrap(self.modules[module], name, layer)
        adversaries = self.modules["adversaries"]
        for cls_name, methods in HOOK_METHODS.items():
            cls = getattr(adversaries, cls_name)
            for method in methods:
                self._wrap(cls, method, "adversaries.hooks")
        self._wrap_estimate()
        self._wrap_batch()

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def _replace(self, owner, name: str, wrapper) -> None:
        original = getattr(owner, name)
        self._originals.append((owner, name, original))
        wrapper.__wrapped__ = original
        setattr(owner, name, wrapper)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, owner, name: str, layer: str) -> None:
        fn = getattr(owner, name)
        exhaustion = self.modules["errors"].ExhaustionError
        failure = self.modules["qmath"].BsmOutcome.FAILURE
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            success = 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if layer == "devices.bsm_scalar":
                    success = getattr(result, "outcome", result) is not failure
                return result
            except exhaustion:
                tracer.exhausted += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                with tracer._lock:
                    rec = tracer.agg[(layer, parent[0] if parent else None)]
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += frame[1]
                    rec[3] += success

        self._replace(owner, name, wrapper)

    def _wrap_estimate(self) -> None:
        analysis = self.modules["analysis"]
        fn = analysis.estimate
        tracer = self

        def estimate(scenario, *, trials, seed, workers=1, **params):
            record = {"scenario": scenario, "trials": trials, "workers": workers,
                      "effective": 0, "children": [], "phase": tracer.phase}
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = ["analysis.estimate", 0.0]
            stack.append(frame)
            tracer._current = record
            t0 = time.perf_counter()
            try:
                result = fn(scenario, trials=trials, seed=seed, workers=workers, **params)
                record["effective"] = result.trials
                return result
            finally:
                t1 = time.perf_counter()
                tracer._current = None
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                record["duration"] = t1 - t0
                record["self"] = (t1 - t0) - _union_length(record["children"], t0, t1)
                tracer.estimates.append(record)

        self._replace(analysis, "estimate", estimate)

    def _wrap_batch(self) -> None:
        analysis = self.modules["analysis"]
        fn = analysis.sample_bsm_noisy_batch
        tracer = self

        def sample_bsm_noisy_batch(p_plus, p_minus, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(p_plus, p_minus, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                record = tracer._current
                if record is not None:
                    record["children"].append((t0, t1))
                with tracer._lock:
                    tracer.batch_trials += len(p_plus)
                    tracer.batch_s += t1 - t0

        self._replace(analysis, "sample_bsm_noisy_batch", sample_bsm_noisy_batch)

    # -- summaries ----------------------------------------------------------

    def layer(self, layer: str) -> dict:
        """Entries (calls not nested in the same layer), self time, successes."""
        entries = calls = successes = 0
        self_s = 0.0
        for (name, parent), (n, total, child, ok) in self.agg.items():
            if name != layer:
                continue
            calls += n
            self_s += total - child
            if parent != layer:
                entries += n
                successes += ok
        return {"entries": entries, "calls": calls, "self_s": self_s, "successes": successes}


@contextlib.contextmanager
def suspended(tracer: Tracer | None):
    """Run the block with the original functions in place, e.g. for checks."""
    if tracer is None:
        yield
        return
    tracer.uninstall()
    try:
        yield
    finally:
        tracer.install()
