"""Benchmark of the noisyqst command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` launches the workload as fresh ``python -m noisyqst`` processes
for at most about S seconds (at least once) and reports the ``end_to_end``
metrics of BENCHMARK.json as medians over those repetitions.  Repetition i
uses the CLI seed 100 N + i.  ``--trace 1`` runs the workload three times in
this process through ``noisyqst.cli.main`` at ``--threads 1`` (plain,
traced, plain) and reports the ``per_layer`` metrics from the traced run.
Every run's output is checked.  ``--workload all`` runs each workload in
turn.

The last line of stdout is the JSON result; the lines above it are a table
of the same metrics.  Program outputs, the span arrays and a record of the
machine and software go to perfbench/out/.  The program is taken from
src/ of the checkout this file sits in; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_LAUNCHES = 3
SETUP_CODE = "import noisyqst.cli as cli; cli.build_parser()"
CHILD_TIMEOUT_S = 150
# Every 25th reconstruction of the traced sweep (8 of the 200 states per
# scheme and grid point) is replayed to count its R-rho-R iterations.
ML_CAPTURE_EVERY = 25
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark cannot run: no program, or a declared metric is missing."""


def check_program() -> None:
    if not (SRC / "noisyqst" / "cli.py").is_file():
        raise BenchmarkError("src/noisyqst/cli.py not found next to the benchmark")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def command_args(wl, threads: int, seed: int, out: Path) -> list[str]:
    # --threads is always explicit: its default is os.cpu_count(), which the
    # CLI echoes into its output.
    return [*wl.argv, "--threads", str(threads), "--seed", str(seed), "--out", str(out)]


def clear_outputs(out: Path) -> None:
    for path in (out, Path(f"{out}.json")):
        path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "noisyqst").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# end to end: fresh processes
# ---------------------------------------------------------------------------

def launch(argv: list[str], log_path: Path) -> dict:
    """Run one child to completion: wall time from launch to exit, CPU time
    and peak RSS of the child and the workers it waited for."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=log, start_new_session=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
    }


def _failure(rec: dict, log_path: Path) -> str:
    tail = log_path.read_text(errors="replace").strip().splitlines()[-1:]
    return f"exit {rec['exit']}: {' '.join(tail)}"


def run_e2e(wl, seed: int, seconds: float) -> tuple[dict, dict]:
    from workloads import CheckFailed

    log = OUT / f"{wl.name}.log"
    setup = []
    for _ in range(SETUP_LAUNCHES):
        rec = launch([sys.executable, "-c", SETUP_CODE], log)
        if rec["exit"] != 0:
            raise BenchmarkError(f"set-up failed, {_failure(rec, log)}")
        setup.append(rec["wall_s"])
    reps = []
    t0 = time.perf_counter()
    # Start another repetition only if even the slowest one so far would end
    # within the time; the first always runs.
    while not reps or time.perf_counter() - t0 + max(r["wall_s"] for r in reps) <= seconds:
        rep_seed = 100 * seed + len(reps)
        out = OUT / f"{wl.name}.out"
        clear_outputs(out)
        rec = launch([sys.executable, "-m", "noisyqst", *command_args(wl, wl.threads, rep_seed, out)], log)
        rec["seed"] = rep_seed
        if rec["exit"] != 0:
            rec["error"] = _failure(rec, log)
        else:
            try:
                rec["facts"] = wl.check(out)
            except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                rec["error"] = f"output check: {exc}"
        reps.append(rec)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    errors = [f"seed {r['seed']}: {r['error']}" for r in reps if "error" in r]
    best = [r["facts"]["best_qn"] for r in reps if "best_qn" in r.get("facts", {})]
    # Reported beside the metrics: fail_ratio is 0 on a good run and best_qn
    # exists only for the optimize workloads, so neither can be a metric.
    extra = {"fail_ratio": (len(errors) / len(reps), "ratio"), "reps": (len(reps), "count")}
    if best:
        extra["best_qn"] = (statistics.median(best), "1")
    detail = {"setup_s": setup, "reps": reps}
    return values, {"attempted": len(reps), "failed": len(errors), "errors": errors, "extra": extra,
                    "detail": detail}


# ---------------------------------------------------------------------------
# per layer: in-process plain and traced runs
# ---------------------------------------------------------------------------

def _timed_main(argv: list[str]) -> tuple[int, float]:
    import noisyqst.cli as cli

    t0 = time.perf_counter()
    code = cli.main(argv)  # looked up at call time, so a traced main is used
    return code, time.perf_counter() - t0


def _output_bytes(out: Path) -> bytes:
    extra = Path(f"{out}.json")
    return out.read_bytes() + (extra.read_bytes() if extra.exists() else b"")


def run_traced(wl, seed: int) -> tuple[dict, dict]:
    from layers import ml_iterations, layer_metrics
    from tracer import Tracer
    from workloads import CheckFailed

    import noisyqst
    import noisyqst.tomography as tomography

    if not Path(noisyqst.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"imported noisyqst from {noisyqst.__file__}, not from src/")
    # Plain runs on both sides of the traced one, so that warm-up and drift
    # of the machine do not read as tracing overhead.
    outs = {label: OUT / f"{wl.name}.{label}.out" for label in ("plain", "traced", "plain-again")}
    tracer = Tracer(capture_every={"tomography.ml_reconstruct": ML_CAPTURE_EVERY})
    runs = {}
    for label, out in outs.items():
        clear_outputs(out)
        if label == "traced":
            tracer.install()
        try:
            runs[label] = _timed_main(command_args(wl, 1, seed, out))
        finally:
            tracer.uninstall()
    errors, facts = [], {}
    for label, out in outs.items():
        try:
            if runs[label][0] != 0:
                raise CheckFailed(f"exit {runs[label][0]}")
            facts = wl.check(out)
            if _output_bytes(out) != _output_bytes(outs["plain"]):
                raise CheckFailed("output differs from the first plain run")
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            errors.append(f"{label} run: {exc}")
    traced_s = runs["traced"][1]
    untraced_s = (runs["plain"][1] + runs["plain-again"][1]) / 2.0
    ml = ml_iterations(tomography.ml_reconstruct, tracer.captures["tomography.ml_reconstruct"])
    spans = tracer.table()
    spans.save(OUT / f"{wl.name}-spans.npz")
    values = layer_metrics(spans, facts, traced_s, untraced_s, ml)
    detail = {"ml_probe": ml, "spans_file": f"{wl.name}-spans.npz", "span_names": spans.names}
    return values, {"attempted": len(outs), "failed": len(errors), "errors": errors, "extra": {},
                    "detail": detail}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def run_workload(wl, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    env = environment(wl.name, seed, trace)
    values, run = run_traced(wl, seed) if trace else run_e2e(wl, seed, seconds)
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = {m["name"] for m in declared} - values.keys()
    if missing:
        raise BenchmarkError(f"metrics not measured: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {"environment": env, "metrics": metrics, **run}
    (OUT / f"{wl.name}-trace{trace}-seed{seed}.json").write_text(json.dumps(record, indent=1))
    print(f"# {wl.name}  seed {seed}  trace {trace}  "
          f"{run['attempted']} attempted, {run['failed']} failed")
    rows = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
    rows += [(k, value, unit) for k, (value, unit) in run["extra"].items()]
    for name, value, unit in rows:
        print(f"  {name:<44} {value:>16.6g} {unit}")
    for err in run["errors"]:
        print(f"  FAILED: {err}")
    return {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        check_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        OUT.mkdir(exist_ok=True)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, args.trace, spec)
                   for n in names}
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
