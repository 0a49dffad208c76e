"""The benchmark's workloads: CLI arguments, thread counts and output checks.

Every check holds for any seed.  A check returns the facts it read from the
output (best Q_N, Powell iterations) so the caller can report them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFINE_ZETA = 0.02
MULTISTART_STARTS = 2
SWEEP_GRID = (0.0, 0.05, 0.15)
SWEEP_STATES = 200


class CheckFailed(Exception):
    """The program's output violates a property that holds for every seed."""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    threads: int
    check: Callable[[Path], dict]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _optimize_facts(path: Path) -> tuple[dict, dict]:
    doc = json.loads(Path(f"{path}.json").read_text())
    results = doc["results"]
    _require(len(results) >= 1, "no optimization result")
    facts = {
        "best_qn": float(results[0]["q_noisy"]),
        "powell_iters": sum(len(r["trajectory"]) for r in results),
    }
    return doc, facts


def check_refine_depol(path: Path) -> dict:
    """Criterion-3 bounds: entangled pulses at the analytic optimum, Q_N at its closed form."""
    from noisyqst.quality import analytic_alpha_max, analytic_heisenberg_qn

    doc, facts = _optimize_facts(path)
    best = doc["results"][0]
    target = analytic_alpha_max(REFINE_ZETA)
    for j in (3, 4):
        alphas = best["params"]["measurements"][j]["entangler"]
        for i in (0, 2):
            _require(abs(alphas[i] - target) < 1e-3,
                     f"measurement {j + 1} pulse {i + 1} = {alphas[i]!r}, optimum {target!r}")
    closed = analytic_heisenberg_qn(target, target, target, target, REFINE_ZETA)
    _require(abs(facts["best_qn"] - closed) < 1e-6,
             f"q_noisy {facts['best_qn']!r} differs from closed form {closed!r}")
    return facts


def check_multistart_ou(path: Path) -> dict:
    """One row per start, sorted by q_noisy, and Q_N <= Q on every row."""
    header, rows = _csv_rows(path)
    col_qg, col_qn = header.index("q_geometric"), header.index("q_noisy")
    _require(len(rows) == MULTISTART_STARTS, f"{len(rows)} rows for {MULTISTART_STARTS} starts")
    qn = [float(r[col_qn]) for r in rows]
    _require(qn == sorted(qn, reverse=True), f"rows not sorted by q_noisy: {qn}")
    for r in rows:
        _require(0.0 < float(r[col_qn]) <= float(r[col_qg]),
                 f"q_noisy {r[col_qn]} not in (0, q_geometric {r[col_qg]}]")
    return _optimize_facts(path)[1]


def check_sweep(path: Path) -> dict:
    """Infidelities in [0, 1], noise-free pauli9 rows equal, MUB worse at 0.15 than at 0."""
    header, rows = _csv_rows(path)
    col = {name: header.index(name) for name in ("scheme", "zeta_or_r", "mean_infidelity", "sem")}
    _require(len(rows) == 2 * len(SWEEP_GRID), f"{len(rows)} rows, expected {2 * len(SWEEP_GRID)}")
    for r in rows:
        _require(0.0 <= float(r[col["mean_infidelity"]]) <= 1.0, f"infidelity out of range: {r}")
    pauli = {(r[col["mean_infidelity"]], r[col["sem"]]) for r in rows if r[col["scheme"]] == "pauli9"}
    _require(len(pauli) == 1, f"pauli9 rows differ across the grid: {sorted(pauli)}")
    mub = {float(r[col["zeta_or_r"]]): float(r[col["mean_infidelity"]])
           for r in rows if r[col["scheme"]] == "mub"}
    _require(mub[SWEEP_GRID[-1]] > mub[0.0],
             f"mub infidelity at {SWEEP_GRID[-1]} ({mub[SWEEP_GRID[-1]]}) not above zero noise ({mub[0.0]})")
    return {}


# Why each workload exists, and what it loads and bypasses, is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # Powell refinement of the MUB quorum: the depolarizing objective.
        Workload("refine-depol",
                 ("optimize", "--strategy", "mub-seeded", "--interaction", "heisenberg",
                  "--channel", "depolarizing", "--zeta", str(REFINE_ZETA)),
                 threads=1, check=check_refine_depol),
        # The OU objective, the diversity filter and the optimize pool.
        Workload("multistart-ou",
                 ("optimize", "--strategy", "multistart", "--starts", str(MULTISTART_STARTS),
                  "--interaction", "ising", "--channel", "ou", "-r", "0.05",
                  "--max-iters", "1", "--threshold-pairs", "1000"),
                 threads=2, check=check_multistart_ou),
        # ML reconstruction and the run_experiment pool; few POVMs.
        Workload("sweep",
                 ("sweep", "--grid", ",".join(str(g) for g in SWEEP_GRID),
                  "--schemes", "mub,pauli9", "--shots", "23040", "--states", str(SWEEP_STATES)),
                 threads=2, check=check_sweep),
    )
}
