"""Monte-Carlo tomography experiments: sample counts, reconstruct, compare.

Outcome counts are multinomial draws from the noisy effect probabilities
Tr(F_jk rho).  Reconstruction maximizes the multinomial log-likelihood with
the iterative R rho R fixed point, which keeps the iterate a valid density
matrix throughout, on a whole stack of states at once.  A scheme's
effects are one (m, 4, 4, 4) array: m measurements of four outcomes.  The
reconstruction uses whichever effects it is given; the true noisy effects
give the noise-aware likelihood, and the nominal projectors of
:func:`~noisyqst.noise.povm_stack` a noise-ignorant one, for sensitivity
studies.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import assert_density, random_density, state_fidelity
from .gates import QuorumParams, nine_pauli_bases, standard_mub_params
from .noise import NoiseModel, _require_interaction, ideal_effects, povm_stack

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Scheme:
    """A named measurement set; run_experiment splits the shot budget over it.

    ``effects`` has shape (m, 4, 4, 4): the four outcome effects of each of
    the m measurements.
    """

    label: str
    effects: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.effects)
        if len(shape) != 4 or shape[1:] != (4, 4, 4) or shape[0] < 1:
            raise ValueError(f"a scheme needs effects of shape (m >= 1, 4, 4, 4), got {shape}")


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


def mub_scheme(noise: NoiseModel, *, label: str = "mub") -> Scheme:
    """Standard MUB quorum under the given noise model."""
    return quorum_scheme(standard_mub_params(noise.interaction), noise, label)


def pauli9_scheme(*, label: str = "pauli9") -> Scheme:
    """Nine entanglement-free Pauli product bases; unaffected by entangler noise."""
    return Scheme(label, ideal_effects(nine_pauli_bases()))


def quorum_scheme(quorum: QuorumParams, noise: NoiseModel, label: str) -> Scheme:
    """The noisy effects of a parametrized quorum."""
    _require_interaction(quorum.interaction, noise)
    return Scheme(label, povm_stack(quorum.to_array(), noise)[0])


# ---------------------------------------------------------------------------
# sampling and reconstruction
# ---------------------------------------------------------------------------

def outcome_probabilities(rho: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Clamped, renormalized outcome probabilities Tr(F_mk rho), shape (m, 4)."""
    p = np.einsum("mkij,ji->mk", effects, rho).real
    if p.min() < -1e-10 or np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-10:
        raise ValueError(f"invalid probability vectors {p.tolist()}")
    p = np.clip(p, 0.0, 1.0)
    return p / p.sum(axis=1, keepdims=True)


def sample_measurement(
    rho: np.ndarray, effects: np.ndarray, n_shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Multinomial outcome counts (m, 4) for n_shots repetitions of each measurement."""
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    return rng.multinomial(n_shots, outcome_probabilities(rho, effects))


def _assert_informationally_complete(flat: np.ndarray) -> None:
    # Span test of the flattened effects (k, 16) in the real 16-dimensional
    # space of Hermitian operators.
    rank = np.linalg.matrix_rank(np.concatenate([flat.real, flat.imag], axis=1), tol=1e-10)
    if rank < 16:
        raise ValueError(f"effect set is not informationally complete (rank {rank} < 16)")


def ml_reconstruct(
    counts: np.ndarray,
    effects: np.ndarray,
    ll_tol: float = 1e-12,
    max_iter: int = 5000,
) -> np.ndarray:
    """Maximum-likelihood density matrices of a stack of states.

    ``counts`` has shape (n_states, m, 4): per state, the outcome counts of
    the m measurements whose effects (m, 4, 4, 4) are ``effects``.  The
    result has shape (n_states, 4, 4).  One state's counts (m, 4) give one
    4x4 matrix.

    Each state iterates rho <- R rho R / Tr(R rho R) with
    R = sum (n_k / p_k) F_k / N from the maximally mixed state, and leaves
    the stack once its log-likelihood improvement drops below ``ll_tol``
    relative to its magnitude.  One warning reports how many states were
    still iterating at ``max_iter``.  Every contraction is a stacked matrix
    product or a row sum, so a state's estimate does not depend on the
    other states in the stack, bit for bit.
    """
    effects = np.asarray(effects)
    flat = effects.reshape(-1, 16)
    _assert_informationally_complete(flat)
    n = np.asarray(counts, dtype=float)
    stacked = n.ndim == 3
    if n.ndim not in (2, 3) or n.shape[-2:] != effects.shape[:2]:
        raise ValueError("counts do not match the number of effects")
    n = n.reshape(-1, len(flat))
    if not len(n):
        raise ValueError("no states to reconstruct")
    total = n.sum(axis=1, keepdims=True)
    estimates = np.empty((len(n), 4, 4), dtype=complex)
    active = np.arange(len(n))
    rho = np.tile(np.eye(4, dtype=complex) / 4.0, (len(n), 1, 1))
    ll_old = np.full(len(n), -np.inf)
    for _ in range(max_iter):
        # Tr(F_k rho) as the product of vec(rho^T) with the flattened effects
        p = np.clip((rho.mT.reshape(-1, 1, 16) @ flat.T)[:, 0].real, 1e-12, None)
        # a stacked dot product, rounded like the one-state np.dot
        ll = (n[:, None, :] @ np.log(p)[:, :, None])[:, 0, 0]
        done = ll - ll_old < ll_tol * np.maximum(1.0, np.abs(ll))
        if done.any():
            estimates[active[done]] = rho[done]
            keep = ~done
            active, rho, n, total, p, ll = (a[keep] for a in (active, rho, n, total, p, ll))
            if not len(active):
                break
        ll_old = ll
        r = ((n / (total * p))[:, None, :] @ flat).reshape(-1, 4, 4)
        rho = r @ rho @ r
        rho = (rho + rho.conj().mT) / 2.0
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    if len(active):
        estimates[active] = rho
        logger.warning(
            "ml_reconstruct: %d of %d states stopped at max_iter=%d before the "
            "log-likelihood converged", len(active), len(estimates), max_iter,
        )
    return estimates if stacked else estimates[0]


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

def run_experiment(
    schemes: list[Scheme],
    n_states: int,
    total_shots: int,
    rng_seed: int,
) -> list[ExperimentReport]:
    """Average reconstruction infidelity of each scheme over random states.

    ``total_shots`` is split equally across a scheme's measurements (floor
    division; any remainder is dropped).  All schemes see the same random
    states, and per-state sampling streams depend only on the master seed,
    the scheme index, and the state index, so reports are reproducible.
    Each scheme's states are reconstructed as one stack.
    """
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    states = [
        random_density(4, np.random.default_rng(
            np.random.SeedSequence(entropy=rng_seed, spawn_key=(0, i))))
        for i in range(n_states)
    ]
    reports = []
    for s_idx, scheme in enumerate(schemes):
        shots = total_shots // len(scheme.effects)
        if shots < 1:
            raise ValueError(f"budget {total_shots} too small for scheme {scheme.label!r}")
        counts = np.array([
            sample_measurement(rho, scheme.effects, shots, np.random.default_rng(
                np.random.SeedSequence(entropy=rng_seed, spawn_key=(1 + s_idx, i))))
            for i, rho in enumerate(states)
        ])
        estimates = ml_reconstruct(counts, scheme.effects)
        infids = np.empty(n_states)
        for i, (rho, rho_hat) in enumerate(zip(states, estimates)):
            assert_density(rho_hat, tol=1e-8)
            infids[i] = 1.0 - state_fidelity(rho, rho_hat)
        reports.append(
            ExperimentReport(
                scheme_label=scheme.label,
                n_states=n_states,
                mean_infidelity=float(infids.mean()),
                sem=float(infids.std(ddof=1) / np.sqrt(n_states)) if n_states > 1 else 0.0,
                total_shots=shots * len(scheme.effects),
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

