"""Per-layer metrics derived from one traced run, and the ML iteration probe.

Per-call timings are percentiles over the spans of one function.  A function
the workload never calls reports 0 calls and 0 time, which is itself the
expected reading for the workloads chosen to bypass that layer.
"""

from __future__ import annotations

import inspect

import numpy as np

from tracer import LAYERS, SpanTable

OBJECTIVE_PARENTS = ("optimize.powell_minimize", "optimize.simulated_annealing")


def _percentile(values: np.ndarray, q: float, scale: float) -> float:
    return float(np.percentile(values, q) * scale) if len(values) else 0.0


def layer_metrics(spans: SpanTable, facts: dict, traced_s: float, untraced_s: float,
                  ml: dict) -> dict[str, float]:
    """Every per-layer metric of the benchmark, keyed by its BENCHMARK.json name."""
    def durations(name):
        return spans.duration[spans.mask(name)]

    def calls(name):
        return float(spans.mask(name).sum())

    def p50(name, scale):
        return _percentile(durations(name), 50, scale)

    def total(name):
        return float(durations(name).sum())

    us, ms = 1e6, 1e3
    objective = spans.children_of("quality.quality_report", OBJECTIVE_PARENTS)
    objective_calls = float(objective.sum())
    powell_iters = float(facts.get("powell_iters", 0))
    report = spans.mask("quality.quality_report")
    out = {}
    for channel in ("depolarizing", "ou"):
        d = durations(f"noise.effective_povm.{channel}")
        out[f"noise.effective_povm.{channel}.us.p50"] = _percentile(d, 50, us)
        out[f"noise.effective_povm.{channel}.us.p99"] = _percentile(d, 99, us)
        out[f"noise.effective_povm.{channel}.calls"] = float(len(d))
    out.update({
        "quality.quality_report.us": p50("quality.quality_report", us),
        "quality.geometric_quality.us": p50("quality.geometric_quality", us),
        "quality.self.us": _percentile(spans.self_time[report], 50, us),
        "gates.measurement_unitary.us": p50("gates.measurement_unitary", us),
        "gates.measurement_unitary.calls": calls("gates.measurement_unitary"),
        "gates.single_qubit_gate.calls": calls("gates.single_qubit_gate"),
        "gates.entangler_matrix.us": p50("gates.entangler_matrix", us),
        "core.gram_volume.us": p50("core.gram_volume", us),
        "core.random_density.us": p50("core.random_density", us),
        "core.state_fidelity.us": p50("core.state_fidelity", us),
        "optimize.objective_calls": objective_calls,
        "optimize.powell_iters": powell_iters,
        "optimize.evals_per_iter": objective_calls / powell_iters if powell_iters else 0.0,
        "optimize.objective_share": float(spans.duration[objective].sum()) / traced_s,
        "optimize.diverse_starts.s": total("optimize.diverse_starts"),
        "optimize.diverse_starts.share": total("optimize.diverse_starts") / traced_s,
        "optimize.quorum_distance.calls": calls("optimize.quorum_distance"),
        "optimize.quorum_distance.us": p50("optimize.quorum_distance", us),
        "optimize.start.s.max": float(durations("optimize.powell_minimize").max(initial=0.0)),
        "optimize.best_qn": float(facts.get("best_qn", 0.0)),
        "tomography.ml_reconstruct.ms.p50": p50("tomography.ml_reconstruct", ms),
        "tomography.ml_reconstruct.ms.p99": _percentile(durations("tomography.ml_reconstruct"), 99, ms),
        "tomography.ml_reconstruct.share": total("tomography.ml_reconstruct") / traced_s,
        "tomography.ml_iters.p50": ml["p50"],
        "tomography.ml_iters.p99": ml["p99"],
        "tomography.ml_iters.max": ml["max"],
        "tomography.ml_at_max_iter": ml["at_max_iter"],
        "tomography.sample_measurement.us": p50("tomography.sample_measurement", us),
        "tomography.run_experiment.s": total("tomography.run_experiment"),
    })
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = spans.layer_self_time(layer)
    out.update({
        "trace.overhead_s": traced_s - untraced_s,
        "trace.traced_wall_s": traced_s,
        "trace.untraced_wall_s": untraced_s,
        "trace.spans": float(len(spans.duration)),
    })
    return out


def ml_iterations(ml_reconstruct, captured: list) -> dict:
    """Iterations each captured reconstruction needed, measured by replaying it.

    The count for one state is the smallest ``max_iter`` whose result equals
    the traced (default ``max_iter``) result bit for bit; an exponential then
    binary search finds it.  A state is at the cap when one more allowed
    iteration changes the result, i.e. the estimator stopped without
    converging.
    """
    cap = inspect.signature(ml_reconstruct).parameters["max_iter"].default
    iters, at_cap = [], 0
    for args, kwargs, reference in captured:
        ref = np.asarray(reference).tobytes()

        def same(m):
            return np.asarray(ml_reconstruct(*args, **{**kwargs, "max_iter": m})).tobytes() == ref

        lo, hi = 0, 1  # invariant: same(hi) or hi == cap; not same(lo) unless lo == 0
        while hi < cap and not same(hi):
            lo, hi = hi, min(2 * hi, cap)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if same(mid):
                hi = mid
            else:
                lo = mid
        iters.append(hi)
        if hi == cap and not same(cap + 1):
            at_cap += 1
    values = np.array(iters, dtype=float)
    return {
        "states": len(iters),
        "cap": cap,
        "p50": _percentile(values, 50, 1.0),
        "p99": _percentile(values, 99, 1.0),
        "max": float(values.max(initial=0.0)),
        "at_max_iter": float(at_cap),
        "iterations": iters,
    }
