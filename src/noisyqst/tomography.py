"""Monte-Carlo tomography experiments: sample counts, reconstruct, compare.

Outcome counts are multinomial draws from the noisy effect probabilities
Tr(F_jk rho).  Reconstruction maximizes the multinomial log-likelihood by
accelerated projected gradient ascent over density matrices, on a whole
stack of states at once, from each state's linear-inversion estimate
projected onto density matrices, and stops each state once a certificate
bounds its log-likelihood gap to the maximum below a set number of nats.
A scheme's effects are one (m, 4, 4, 4) array: m measurements of four
outcomes.  The reconstruction uses whichever effects it is given; the
noisy effects of :func:`~noisyqst.noise.povm_stack` give the noise-aware
likelihood, and its noise-free effects (strength 0) a noise-ignorant one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import TRACELESS_BASIS, assert_density, random_density, state_fidelity
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


def mub_scheme(noise: NoiseModel, *, label: str = "mub") -> Scheme:
    """Standard MUB quorum under the given noise model."""
    return quorum_scheme(standard_mub_params(noise.interaction), noise, label)


def pauli9_scheme(*, label: str = "pauli9") -> Scheme:
    """Nine entanglement-free Pauli product bases; unaffected by entangler noise."""
    return Scheme(label, ideal_effects(nine_pauli_bases()))


def quorum_scheme(quorum: QuorumParams, noise: NoiseModel, label: str) -> Scheme:
    """The noisy effects of a parametrized quorum."""
    _require_interaction(quorum.interaction, noise)
    return Scheme(label, povm_stack(quorum.to_array(), noise))


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


# Per-state step-size control of the projected-gradient iteration: the step
# grows by _STEP_GROWTH before every iteration and halves while the
# sufficient-increase test fails, at most _MAX_HALVINGS times.
_FIRST_STEP = 1.0
_STEP_GROWTH = 1.1
_MAX_HALVINGS = 40


def _probabilities(a: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Tr(F_k a) of stacked matrices a (s, 4, 4), as the product of vec(a^T) with the effects."""
    return (a.mT.reshape(-1, 1, 16) @ flat.T)[:, 0].real


def _r_operator(n: np.ndarray, total: np.ndarray, p: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """R = sum (n_k / (N p_k)) F_k of each state, (s, 4, 4); outcomes never seen add nothing."""
    w = np.divide(n, total[:, None] * p, out=np.zeros_like(p), where=n > 0)
    return (w[:, None, :] @ flat).reshape(-1, 4, 4)


def _log_likelihood_gain(n: np.ndarray, p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """ln L(p + dp) - ln L(p) per state, from the probability change itself.

    Summing n_k ln(1 + dp_k / p_k) keeps the gain accurate to rounding of
    the gain, not of ln L, which lets the iteration certify gaps far below
    N sqrt(eps).  A change that leaves an observed outcome no probability
    gains -inf.
    """
    seen = n > 0
    ratio = np.divide(dp, p, out=np.zeros_like(p), where=seen)
    lost = (ratio <= -1.0).any(axis=1)
    terms = np.log1p(np.where(lost[:, None], 0.0, ratio))
    # stacked dot products, each rounded like a one-state np.dot
    gain = (n[:, None, :] @ terms[:, :, None])[:, 0, 0]
    return np.where(lost, -np.inf, gain)


def _too_long(new, y, p_y, r_y, step, n, total, flat) -> np.ndarray:
    """Where the step from y to new fails the sufficient-increase test.

    The test asks ln L to rise by at least its quadratic model around y,
    N (<R(y), d> - |d|^2 / (2 step)) with d = new - y.
    """
    d = new - y
    model = total * (_inner(r_y, d) - _inner(d, d) / (2.0 * step))
    return _log_likelihood_gain(n, p_y, _probabilities(d, flat)) < model


def _certificate(r: np.ndarray, total: np.ndarray) -> np.ndarray:
    """N (lambda_max(R) - 1): a bound in nats on how far each log-likelihood is below its maximum."""
    return total * (np.linalg.eigvalsh(r)[:, -1] - 1.0)


def _project_density(h: np.ndarray) -> np.ndarray:
    """Nearest density matrices (Frobenius norm) to stacked Hermitian matrices."""
    w, v = np.linalg.eigh(h)
    # Euclidean projection of the eigenvalues onto the probability simplex
    u = w[:, ::-1]
    excess = np.cumsum(u, axis=1) - 1.0
    kept = u - excess / np.arange(1, 5) > 0.0
    last = 3 - np.argmax(kept[:, ::-1], axis=1)
    shift = excess[np.arange(len(h)), last] / (last + 1.0)
    rho = (v * np.maximum(w - shift[:, None], 0.0)[:, None, :]) @ v.conj().mT
    return (rho + rho.conj().mT) / 2.0


def _linear_inversion_start(n: np.ndarray, total: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Each state's linear-inversion estimate projected onto density matrices, (s, 4, 4).

    The estimate 1/4 + sum_b c_b B_b over the traceless basis takes
    c = A^+ (f - Tr F_k / 4), with A_kb = Tr(F_k B_b) and f_k the frequency
    of outcome k within its measurement (Smolin, Gambetta & Smith, PRL 108,
    070502, 2012).  A state keeps the maximally mixed start if one of its
    measurements has no counts, if the projected estimate leaves an
    observed outcome no probability, or if the maximally mixed state has
    the smaller certificate.  The last case catches an observed outcome left
    with a probability that rounding puts just above 0: R is then huge, and
    so is the number of iterations.
    """
    basis = TRACELESS_BASIS[4]
    a_pinv = np.linalg.pinv(_probabilities(basis, flat).T)
    per_measurement = n.reshape(len(n), -1, 4).sum(axis=2)
    empty = (per_measurement == 0).any(axis=1)
    f = n / np.repeat(np.where(empty[:, None], 1.0, per_measurement), 4, axis=1)
    # Tr F_k / 4: the diagonal of each flattened effect, at the maximally mixed state
    p_mixed = np.broadcast_to(flat[:, ::5].real.sum(axis=1) / 4.0, n.shape)
    # stacked one-row products, so each state is rounded as if it were alone
    c = (f - p_mixed)[:, None, :] @ a_pinv.T
    rho = _project_density(np.eye(4) / 4.0 + (c @ basis.reshape(15, 16)).reshape(-1, 4, 4))
    p = _probabilities(rho, flat)
    fallback = empty | ((n > 0) & (p <= 0.0)).any(axis=1)
    p[fallback] = p_mixed[fallback]
    fallback |= _certificate(_r_operator(n, total, p, flat), total) > _certificate(
        _r_operator(n, total, p_mixed, flat), total)
    rho[fallback] = np.eye(4) / 4.0
    return rho


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(a^dagger b) of stacked 4x4 matrices."""
    a = a.reshape(-1, 16).view(float)
    b = b.reshape(-1, 16).view(float)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def ml_reconstruct(
    counts: np.ndarray,
    effects: np.ndarray,
    gap: float = 1e-2,
    max_iter: int = 5000,
) -> np.ndarray:
    """Maximum-likelihood density matrices of a stack of states.

    ``counts`` has shape (n_states, m, 4): per state, the outcome counts of
    the m measurements whose effects (m, 4, 4, 4) are ``effects``.  The
    result has shape (n_states, 4, 4).  One state's counts (m, 4) give one
    4x4 matrix.

    Each state starts at its linear-inversion estimate projected onto
    density matrices, or at the maximally mixed state where that start is
    undefined or certified farther from the maximum (see
    :func:`_linear_inversion_start`).  For a minimal quorum such as the
    MUBs, linear inversion reproduces the observed frequencies, so a start
    that needed no projection is already the maximum.  From there it runs
    accelerated projected gradient ascent on the log-likelihood (Shang,
    Zhang & Ng, PRA 95, 062336, 2017): a step along
    R = sum (n_k / (N p_k)) F_k, the gradient over N, from the extrapolated
    point, then the projection onto density matrices (one
    eigendecomposition and a simplex projection of the eigenvalues).  The
    step size is backtracked per state and grows by 1.1x per iteration; the
    momentum restarts whenever the log-likelihood would fall.  A state
    leaves the stack once the Glancy-Knill-Girard bound
    N (lambda_max(R) - 1) on its log-likelihood gap to the maximum (NJP 14,
    095017, 2012) drops below ``gap`` nats.  One warning reports
    how many states were still above it after ``max_iter`` iterations, and
    the largest bound left.  Every contraction is a stacked matrix product,
    a stacked eigendecomposition or a row operation, so a state's estimate
    does not depend on the other states in the stack, bit for bit.
    """
    if not gap > 0.0:
        raise ValueError(f"gap must be > 0 nats, got {gap}")
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
    total = n.sum(axis=1)
    estimates = np.empty((len(n), 4, 4), dtype=complex)
    active = np.arange(len(n))
    rho = _linear_inversion_start(n, total, flat)
    p = _probabilities(rho, flat)
    r = _r_operator(n, total, p, flat)
    # the extrapolated point y, where each step starts
    y, p_y, r_y = rho, p, r
    theta = np.ones(len(n))
    step = np.full(len(n), _FIRST_STEP)
    for it in range(max_iter + 1):
        bound = _certificate(r, total)
        done = bound < gap
        if done.any():
            estimates[active[done]] = rho[done]
            keep = ~done
            active, rho, p, r, y, p_y, r_y, theta, step, n, total, bound = (
                a[keep] for a in (active, rho, p, r, y, p_y, r_y, theta, step, n, total, bound)
            )
            if not len(active):
                break
        if it == max_iter:
            break
        step = step * _STEP_GROWTH
        new = _project_density(y + step[:, None, None] * r_y)
        long = _too_long(new, y, p_y, r_y, step, n, total, flat)
        for _ in range(_MAX_HALVINGS):
            if not long.any():
                break
            i = np.flatnonzero(long)
            step[i] /= 2.0
            new[i] = _project_density(y[i] + step[i, None, None] * r_y[i])
            long[i] = _too_long(new[i], y[i], p_y[i], r_y[i], step[i], n[i], total[i], flat)
        # restart the momentum where the step would lower the likelihood
        up = _log_likelihood_gain(n, p, _probabilities(new - rho, flat)) >= 0.0
        theta_next = np.where(up, (1.0 + np.sqrt(1.0 + 4.0 * theta**2)) / 2.0, 1.0)
        momentum = np.where(up, (theta - 1.0) / theta_next, 0.0)
        new[~up] = rho[~up]
        y = new + momentum[:, None, None] * (new - rho)
        rho, theta = new, theta_next
        p = _probabilities(rho, flat)
        r = _r_operator(n, total, p, flat)
        p_y = _probabilities(y, flat)
        # an extrapolation that leaves an observed outcome no probability restarts too
        outside = ((n > 0) & (p_y <= 0.0)).any(axis=1)
        y[outside], theta[outside] = rho[outside], 1.0
        p_y[outside] = p[outside]
        r_y = _r_operator(n, total, p_y, flat)
    if len(active):
        estimates[active] = rho
        logger.warning(
            "ml_reconstruct: %d of %d states stopped at max_iter=%d with a "
            "log-likelihood gap bound up to %.3g nats (gap=%g)",
            len(active), len(estimates), max_iter, bound.max(), gap,
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
    streams: list[int] | None = None,
) -> list[ExperimentReport]:
    """Average reconstruction infidelity of each scheme over random states.

    ``total_shots`` is split equally across a scheme's measurements (floor
    division; any remainder is dropped).  All schemes see the same random
    states, and per-state sampling streams depend only on the master seed,
    the scheme's stream index, and the state index, so reports are
    reproducible.  A scheme's stream index is its position in ``schemes``
    unless ``streams`` gives one per scheme.  Each scheme's states are
    reconstructed and scored as one stack.
    """
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    streams = range(len(schemes)) if streams is None else streams
    if len(streams) != len(schemes):
        raise ValueError("streams must give one index per scheme")
    states = np.array([
        random_density(4, np.random.default_rng(
            np.random.SeedSequence(entropy=rng_seed, spawn_key=(0, i))))
        for i in range(n_states)
    ])
    reports = []
    for s_idx, scheme in zip(streams, schemes):
        shots = total_shots // len(scheme.effects)
        if shots < 1:
            raise ValueError(f"budget {total_shots} too small for scheme {scheme.label!r}")
        counts = np.array([
            sample_measurement(rho, scheme.effects, shots, np.random.default_rng(
                np.random.SeedSequence(entropy=rng_seed, spawn_key=(1 + s_idx, i))))
            for i, rho in enumerate(states)
        ])
        estimates = ml_reconstruct(counts, scheme.effects)
        assert_density(estimates, tol=1e-8)
        infids = 1.0 - state_fidelity(states, estimates)
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

