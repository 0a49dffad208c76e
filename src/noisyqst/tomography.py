"""Monte-Carlo tomography experiments: sample counts, reconstruct, compare.

Outcome counts are multinomial draws from the noisy effect probabilities
Tr(F_jk rho).  Reconstruction maximizes the multinomial log-likelihood with
the iterative R rho R fixed point, which keeps the iterate a valid density
matrix throughout.  By default the reconstruction uses the true noisy
effects (noise-aware likelihood); passing ``noise_aware=False`` uses the
nominal projectors instead, for sensitivity studies.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import assert_density, random_density, state_fidelity
from .gates import QuorumParams, nine_pauli_bases, standard_mub_params
from .noise import NoiseModel, Povm, ideal_povm, quorum_povms

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Scheme:
    """A named measurement set with its per-measurement shot budget."""

    label: str
    measurements: list[Povm]
    shots_per_measurement: int

    def __post_init__(self):
        if self.shots_per_measurement < 1:
            raise ValueError("shots_per_measurement must be >= 1")


@dataclass(frozen=True)
class ExperimentReport:
    scheme_label: str
    n_states: int
    mean_infidelity: float
    sem: float
    total_shots: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "scheme_label": self.scheme_label,
            "n_states": self.n_states,
            "mean_infidelity": self.mean_infidelity,
            "sem": self.sem,
            "total_shots": self.total_shots,
            "seed": self.seed,
        }


def mub_scheme(noise: NoiseModel, shots_per_measurement: int, label: str = "mub") -> Scheme:
    """Standard MUB quorum under the given noise model."""
    quorum = standard_mub_params(noise.interaction)
    return Scheme(label, quorum_povms(quorum, noise), shots_per_measurement)


def pauli9_scheme(shots_per_measurement: int, label: str = "pauli9") -> Scheme:
    """Nine entanglement-free Pauli product bases; unaffected by entangler noise."""
    return Scheme(label, [ideal_povm(u) for u in nine_pauli_bases()], shots_per_measurement)


def quorum_scheme(
    quorum: QuorumParams, noise: NoiseModel, shots_per_measurement: int, label: str
) -> Scheme:
    return Scheme(label, quorum_povms(quorum, noise), shots_per_measurement)


# ---------------------------------------------------------------------------
# sampling and reconstruction
# ---------------------------------------------------------------------------

def outcome_probabilities(rho: np.ndarray, povm: Povm) -> np.ndarray:
    """Clamped, renormalized outcome probabilities Tr(F_k rho)."""
    p = np.einsum("kij,ji->k", povm.effects, rho).real
    if p.min() < -1e-10 or abs(p.sum() - 1.0) > 1e-10:
        raise ValueError(f"invalid probability vector {p.tolist()}")
    p = np.clip(p, 0.0, 1.0)
    return p / p.sum()


def sample_measurement(
    rho: np.ndarray, povm: Povm, n_shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Multinomial outcome counts for n_shots repetitions."""
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    return rng.multinomial(n_shots, outcome_probabilities(rho, povm))


def _effect_stack(povms: list[Povm], noise_aware: bool) -> np.ndarray:
    mats = [p.effects if noise_aware else p.nominal_projectors for p in povms]
    return np.concatenate(mats, axis=0)


def _assert_informationally_complete(effects: np.ndarray) -> None:
    # Span test in the real 16-dimensional space of Hermitian operators.
    flat = np.concatenate([effects.reshape(len(effects), -1).real,
                           effects.reshape(len(effects), -1).imag], axis=1)
    rank = np.linalg.matrix_rank(flat, tol=1e-10)
    if rank < 16:
        raise ValueError(f"effect set is not informationally complete (rank {rank} < 16)")


def ml_reconstruct(
    counts: list[np.ndarray] | np.ndarray,
    povms: list[Povm],
    noise_aware: bool = True,
    ll_tol: float = 1e-12,
    max_iter: int = 5000,
) -> np.ndarray:
    """Maximum-likelihood density matrix from per-measurement outcome counts.

    Iterates rho <- R rho R / Tr(R rho R) with R = sum (n_k / p_k) F_k / N
    until the log-likelihood improvement drops below ``ll_tol`` relative to
    its magnitude, starting from the maximally mixed state.  Stopping at
    ``max_iter`` before that is logged as a warning.
    """
    effects = _effect_stack(povms, noise_aware)
    _assert_informationally_complete(effects)
    n = np.concatenate([np.asarray(c, dtype=float) for c in counts])
    if n.shape[0] != effects.shape[0]:
        raise ValueError("counts do not match the number of effects")
    total = n.sum()
    rho = np.eye(4, dtype=complex) / 4.0
    ll_old = -np.inf
    for _ in range(max_iter):
        p = np.clip(np.einsum("kij,ji->k", effects, rho).real, 1e-12, None)
        ll = float(np.dot(n, np.log(p)))
        if ll - ll_old < ll_tol * max(1.0, abs(ll)):
            break
        ll_old = ll
        r = np.einsum("k,kij->ij", n / (total * p), effects)
        rho = r @ rho @ r
        rho = (rho + rho.conj().T) / 2.0
        rho /= np.trace(rho).real
    else:
        logger.warning(
            "ml_reconstruct stopped at max_iter=%d before the log-likelihood converged", max_iter
        )
    return rho


def log_likelihood(counts, povms: list[Povm], rho: np.ndarray, noise_aware: bool = True) -> float:
    effects = _effect_stack(povms, noise_aware)
    n = np.concatenate([np.asarray(c, dtype=float) for c in counts])
    p = np.clip(np.einsum("kij,ji->k", effects, rho).real, 1e-12, None)
    return float(np.dot(n, np.log(p)))


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

def _simulate_state(args) -> float:
    scheme, state_seed, sampling_seed, noise_aware = args
    rho = random_density(4, np.random.default_rng(state_seed))
    rng = np.random.default_rng(sampling_seed)
    counts = [
        sample_measurement(rho, povm, scheme.shots_per_measurement, rng)
        for povm in scheme.measurements
    ]
    rho_hat = ml_reconstruct(counts, scheme.measurements, noise_aware=noise_aware)
    assert_density(rho_hat, tol=1e-8)
    return 1.0 - state_fidelity(rho, rho_hat)


def run_experiment(
    schemes: list[Scheme],
    noise: NoiseModel,
    n_states: int,
    total_shots: int,
    rng_seed: int,
    noise_aware: bool = True,
    threads: int = 1,
) -> list[ExperimentReport]:
    """Average reconstruction infidelity of each scheme over random states.

    ``total_shots`` is split equally across a scheme's measurements (floor
    division; any remainder is dropped).  All schemes see the same random
    states, and per-state sampling streams depend only on the master seed,
    the scheme index, and the state index, so reports are reproducible and
    independent of ``threads``.
    """
    _ = noise  # noise enters through the schemes' POVMs; kept for provenance
    state_seeds = [
        np.random.SeedSequence(entropy=rng_seed, spawn_key=(0, i)) for i in range(n_states)
    ]
    reports = []
    for s_idx, scheme in enumerate(schemes):
        shots = total_shots // len(scheme.measurements)
        if shots < 1:
            raise ValueError(f"budget {total_shots} too small for scheme {scheme.label!r}")
        sized = Scheme(scheme.label, scheme.measurements, shots)
        jobs = [
            (
                sized,
                state_seeds[i],
                np.random.SeedSequence(entropy=rng_seed, spawn_key=(1 + s_idx, i)),
                noise_aware,
            )
            for i in range(n_states)
        ]
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                infids = np.fromiter(pool.map(_simulate_state, jobs, chunksize=8), float, n_states)
        else:
            infids = np.fromiter((_simulate_state(j) for j in jobs), float, n_states)
        reports.append(
            ExperimentReport(
                scheme_label=scheme.label,
                n_states=n_states,
                mean_infidelity=float(infids.mean()),
                sem=float(infids.std(ddof=1) / np.sqrt(n_states)) if n_states > 1 else 0.0,
                total_shots=shots * len(scheme.measurements),
                seed=rng_seed,
            )
        )
    return reports


def reports_to_csv(rows: list[tuple[ExperimentReport, float]]) -> str:
    """CSV with one row per (report, noise strength) pair."""
    lines = ["scheme,zeta_or_r,n_states,total_shots,mean_infidelity,sem,seed"]
    for rep, strength in rows:
        lines.append(
            ",".join(
                [
                    rep.scheme_label,
                    f"{strength:.12g}",
                    str(rep.n_states),
                    str(rep.total_shots),
                    f"{rep.mean_infidelity:.12g}",
                    f"{rep.sem:.12g}",
                    str(rep.seed),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def reports_to_json(rows: list[tuple[ExperimentReport, float]]) -> str:
    return json.dumps(
        [{**rep.to_dict(), "zeta_or_r": strength} for rep, strength in rows],
        sort_keys=True,
    )
