"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that span self times are derived correctly, that the tracer patches
and restores every binding of a function, that each output check rejects a
broken output, that reduced multistart-ou and sweep runs give byte-identical
results at --threads 1 and --threads 2, and that the benchmark refuses to
run without the program's sources.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from run import OUT, ROOT, SRC, launch
from tracer import SpanTable, Tracer
from workloads import (
    REFINE_ZETA,
    CheckFailed,
    check_multistart_ou,
    check_refine_depol,
    check_sweep,
)

SELFTEST = OUT / "selftest"


def expect(condition: bool, message: str = "") -> None:
    """Like assert, but not removed under python -O."""
    if not condition:
        raise AssertionError(message)

# Reduced versions of the two workloads that use a process pool.
INVARIANCE_RUNS = {
    "multistart-ou": ["optimize", "--strategy", "multistart", "--starts", "2",
                      "--interaction", "ising", "--channel", "ou", "-r", "0.05",
                      "--max-iters", "1", "--threshold-pairs", "100", "--seed", "3"],
    "sweep": ["sweep", "--grid", "0,0.15", "--schemes", "mub,pauli9", "--shots", "2304",
              "--states", "24", "--seed", "3"],
}


def test_span_arithmetic() -> None:
    # a(0-10) holds b(1-4) and d(5-9); b holds c(2-3).
    spans = SpanTable.build(["x.a", "x.b", "y.c", "y.d"], np.arange(4, dtype=np.int32),
                            np.array([0.0, 1.0, 2.0, 5.0]), np.array([10.0, 4.0, 3.0, 9.0]),
                            np.array([-1, 0, 1, 0], dtype=np.int32))
    expect(spans.self_time.tolist() == [3.0, 2.0, 1.0, 4.0], spans.self_time)
    expect(spans.layer_self_time("x") == 5.0 and spans.layer_self_time("y") == 5.0)
    expect(spans.children_of("y.c", ("x.b",)).tolist() == [False, False, True, False])


def test_tracer_patches_every_binding() -> None:
    import noisyqst.core as core
    import noisyqst.gates as gates
    import noisyqst.quality as quality

    original = core.gram_volume
    tracer = Tracer()
    tracer.install()
    try:
        expect(quality.gram_volume is core.gram_volume is not original)
        mub = gates.standard_mub_params("heisenberg")
        quality.geometric_quality([gates.measurement_unitary(m) for m in mub.measurements])
    finally:
        tracer.uninstall()
    expect(quality.gram_volume is core.gram_volume is original)
    spans = tracer.table()
    expect(spans.children_of("core.gram_volume", ("quality.geometric_quality",)).sum() == 1)
    expect(spans.mask("gates.single_qubit_gate").sum() == 20)
    expect(np.all(spans.self_time >= 0.0))


def _expect_reject(check, path: Path, text: str, label: str) -> None:
    path.write_text(text)
    try:
        check(path)
    except CheckFailed:
        return
    expect(False, f"{check.__name__} accepted {label}")


def test_checks_reject_broken_outputs() -> None:
    from noisyqst.quality import analytic_alpha_max, analytic_heisenberg_qn

    out = SELFTEST / "check.out"
    # sweep
    head = "# config: {}\nscheme,zeta_or_r,n_states,total_shots,mean_infidelity,sem,seed\n"
    good = [("mub", 0, 0.0013), ("pauli9", 0, 0.0017), ("mub", 0.05, 0.0015),
            ("pauli9", 0.05, 0.0017), ("mub", 0.15, 0.0023), ("pauli9", 0.15, 0.0017)]

    def sweep_csv(rows):
        return head + "".join(f"{s},{z},200,23040,{f},0.0001,1\n" for s, z, f in rows)

    out.write_text(sweep_csv(good))
    check_sweep(out)
    bad_pauli = good[:5] + [("pauli9", 0.15, 0.0018)]
    _expect_reject(check_sweep, out, sweep_csv(bad_pauli), "pauli9 rows that differ")
    flat_mub = good[:4] + [("mub", 0.15, 0.0013), good[5]]
    _expect_reject(check_sweep, out, sweep_csv(flat_mub), "mub not worse under noise")
    # multistart-ou
    head = "strategy,seed,start_label,q_geometric,q_noisy,entangling_time_total,t_1,t_2,t_3,t_4,t_5\n"

    def optimize_out(rows, q_best, alpha):
        entangled = {"entangler": [alpha, 0.0, alpha]}
        plain = {"entangler": [0.0, 0.0, 0.0]}
        params = {"measurements": [plain, plain, plain, entangled, entangled]}
        doc = {"results": [{"q_noisy": q_best, "trajectory": [[0, 1.0]], "params": params}]}
        Path(f"{out}.json").write_text(json.dumps(doc))
        return head + "".join(f"multistart,1,s,{qg},{qn},1,0,0,0,0,0\n" for qg, qn in rows)

    out.write_text(optimize_out([(0.02, 0.01), (0.02, 0.005)], 0.01, 0.0))
    check_multistart_ou(out)
    _expect_reject(check_multistart_ou, out,
                   optimize_out([(0.02, 0.005), (0.02, 0.01)], 0.01, 0.0), "unsorted rows")
    _expect_reject(check_multistart_ou, out,
                   optimize_out([(0.02, 0.03), (0.02, 0.01)], 0.03, 0.0), "Q_N above Q")
    # refine-depol
    alpha = analytic_alpha_max(REFINE_ZETA)
    q_best = analytic_heisenberg_qn(alpha, alpha, alpha, alpha, REFINE_ZETA)
    out.write_text(optimize_out([], q_best, alpha))
    check_refine_depol(out)
    _expect_reject(check_refine_depol, out, optimize_out([], q_best, alpha + 2e-3),
                   "a pulse 2e-3 off the optimum")
    _expect_reject(check_refine_depol, out, optimize_out([], q_best + 1e-5, alpha),
                   "Q_N 1e-5 off the closed form")


def _result_bytes(name: str, out: Path) -> bytes:
    if name == "sweep":
        # the first line echoes the configuration, --threads included
        return out.read_bytes().split(b"\n", 1)[1]
    doc = json.loads(Path(f"{out}.json").read_text())
    doc.pop("config")
    return out.read_bytes() + json.dumps(doc, sort_keys=True).encode()


def test_threads_invariance() -> None:
    for name, argv in INVARIANCE_RUNS.items():
        results = []
        for threads in (1, 2):
            out = SELFTEST / f"{name}-threads{threads}.out"
            rec = launch([sys.executable, "-m", "noisyqst", *argv, "--threads", str(threads),
                          "--out", str(out)], SELFTEST / f"{name}.log")
            expect(rec["exit"] == 0, f"{name} at --threads {threads} exited {rec['exit']}")
            results.append(_result_bytes(name, out))
        expect(results[0] == results[1], f"{name} output depends on --threads")


def test_refuses_without_program() -> None:
    bare = SELFTEST / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(Path(__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0, "benchmark ran without src/")
    expect('"correct"' not in proc.stdout, "benchmark printed a result without src/")
    shutil.rmtree(bare)


def main() -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    SELFTEST.mkdir(parents=True, exist_ok=True)
    tests = [test_span_arithmetic, test_tracer_patches_every_binding,
             test_checks_reject_broken_outputs, test_threads_invariance,
             test_refuses_without_program]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"PASS {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
