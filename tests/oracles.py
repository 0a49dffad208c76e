"""Per-matrix reference implementations that the batched package code is tested against.

Each function builds one gate, one effect or one projector at a time, along
a route independent of the package's batched kernel: entanglers from their
pulse or ZZ sequences, channels from their explicit Kraus sets, q and the
nominal projectors from each effect separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from noisyqst.core import (
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    TRACELESS_BASIS,
    bloch_gram_volume,
    gram_volume,
)
from noisyqst.gates import BELL_SORTED, HEISENBERG, QuorumParams
from noisyqst.noise import (
    DEPOLARIZING,
    DegeneratePovmError,
    NoiseModel,
    kraus_depolarizing,
    kraus_ou_heisenberg,
    kraus_ou_ising,
)
from noisyqst.quality import NOISE_EXPONENT_2D, PER_EFFECT_EXPONENT

_EYE4 = np.eye(4, dtype=complex)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def single_qubit_gate(angles) -> np.ndarray:
    phi, psi, chi = angles
    c, s = np.cos(phi), np.sin(phi)
    return np.array(
        [
            [c * np.exp(1j * psi), s * np.exp(1j * chi)],
            [-s * np.exp(-1j * chi), c * np.exp(-1j * psi)],
        ]
    )


def swap_alpha(alpha: float) -> np.ndarray:
    """Fractional SWAP: identity on the triplet space, phase e^(i alpha pi) on the singlet."""
    psi_m = BELL_SORTED[:, 3]
    singlet = np.outer(psi_m, psi_m.conj())
    return np.eye(4, dtype=complex) + (np.exp(1j * alpha * np.pi) - 1.0) * singlet


def heisenberg_two_qubit_sequence(alphas) -> np.ndarray:
    """Heisenberg entangler via the explicit pulse sequence zx . S^a1 . z1 . S^a2 . x2 . S^a3."""
    a1, a2, a3 = alphas
    zx = np.kron(PAULI_Z, PAULI_X)
    z1 = np.kron(PAULI_Z, PAULI_I)
    x2 = np.kron(PAULI_I, PAULI_X)
    return zx @ swap_alpha(a1) @ z1 @ swap_alpha(a2) @ x2 @ swap_alpha(a3)


# Single-qubit frames that rotate each ZZ evolution onto XX, YY, ZZ; the
# three conjugated factors commute, so their product is the canonical gate.
_FRAME_X = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2.0)  # exp(-i pi sigma_y / 4)
_FRAME_Y = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2.0)  # exp(+i pi sigma_x / 4)
_ZZ_DIAG = np.array([1.0, -1.0, -1.0, 1.0])


def ising_two_qubit(betas) -> np.ndarray:
    """Canonical gate realized as three conjugated ZZ evolutions."""
    out = np.eye(4, dtype=complex)
    for beta, frame in zip(betas, (_FRAME_X, _FRAME_Y, PAULI_I)):
        local = np.kron(frame, frame)
        zz = np.diag(np.exp(-1j * beta * _ZZ_DIAG))
        out = out @ (local.conj().T @ zz @ local)
    return out


def _factors(m):
    """(pre1 x pre2, entangler, post1 x post2) of one ``(row, interaction)`` measurement."""
    row, interaction = m
    pre1, pre2, ent, post1, post2 = (row[i : i + 3] for i in range(0, 15, 3))
    pre = np.kron(single_qubit_gate(pre1), single_qubit_gate(pre2))
    post = np.kron(single_qubit_gate(post1), single_qubit_gate(post2))
    if interaction == HEISENBERG:
        return pre, heisenberg_two_qubit_sequence(ent), post
    return pre, ising_two_qubit(ent), post


def measurement_unitary(m) -> np.ndarray:
    pre, ent, post = _factors(m)
    return pre @ ent @ post


# ---------------------------------------------------------------------------
# channels and effective POVMs
# ---------------------------------------------------------------------------

def apply_kraus(rho: np.ndarray, ops) -> np.ndarray:
    """rho -> sum_k M_k rho M_k'."""
    out = np.zeros_like(rho, dtype=complex)
    for m in ops:
        out += m @ rho @ m.conj().T
    return out


def _kraus_set(m, noise: NoiseModel):
    row, interaction = m
    vals = np.array(row[6:9])
    r = noise.strength
    if interaction == HEISENBERG:
        time, gammas = vals.sum(), np.exp(-r * np.pi * vals)
        kraus_ou = kraus_ou_heisenberg
    else:
        time, gammas = np.abs(vals).sum() / np.pi, np.exp(-2.0 * r * np.abs(vals))
        kraus_ou = kraus_ou_ising
    if noise.channel == DEPOLARIZING:
        return kraus_depolarizing(np.exp(-r * np.pi * time))
    return kraus_ou(gammas)


def extract_q_and_nominal(effects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert F_k = q_k (P_k - 1/4) + 1/4 one effect at a time."""
    qs = np.empty(4)
    nominal = np.empty_like(effects)
    for k in range(4):
        t = effects[k] - _EYE4 / 4.0
        q = np.sqrt(max((4.0 / 3.0) * np.trace(t @ t).real, 0.0))
        if q <= 1e-12:
            raise DegeneratePovmError(f"effect {k} is fully depolarized (q={q:.3e})")
        qs[k] = q
        nominal[k] = t / q + _EYE4 / 4.0
    return qs, nominal


def effective_povm(m, noise: NoiseModel):
    """(effects, qs, nominal projectors) of one ``(row, interaction)`` measurement,
    one effect at a time."""
    pre, ent, post = _factors(m)
    tail = ent @ post
    ops = _kraus_set(m, noise)
    effects = np.empty((4, 4, 4), dtype=complex)
    for k in range(4):
        pulled = np.outer(pre[k, :].conj(), pre[k, :])
        effects[k] = tail.conj().T @ apply_kraus(pulled, ops) @ tail
    qs, nominal = extract_q_and_nominal(effects)
    return effects, qs, nominal


# ---------------------------------------------------------------------------
# quality and diversity
# ---------------------------------------------------------------------------

def traceless_coords(op: np.ndarray) -> np.ndarray:
    return np.einsum("kij,ji->k", TRACELESS_BASIS[4], op).real


def quality(quorum: QuorumParams, noise: NoiseModel) -> tuple[float, np.ndarray, float]:
    """(Q, q per effect (5, 4), Q_N), one measurement and one projector at a time."""
    povms = [effective_povm(m, noise) for m in quorum.measurements]
    q_geometric = gram_volume([traceless_coords(n[k]) for _, _, n in povms for k in range(3)])
    penalty = 1.0
    for _, qs, _ in povms:
        penalty *= float(np.prod(qs ** PER_EFFECT_EXPONENT))
    return q_geometric, np.stack([qs for _, qs, _ in povms]), q_geometric * penalty


def projector_dots(q: QuorumParams) -> np.ndarray:
    """Dot products of the traceless parts of all 20 ideal projectors, (20, 20)."""
    vecs = []
    for m in q.measurements:
        u = measurement_unitary(m)
        for k in range(4):
            vecs.append(traceless_coords(np.outer(u[k, :].conj(), u[k, :])))
    v = np.array(vecs)
    return v @ v.T


def projector_histograms(q: QuorumParams, bin_width: float = 0.05, n_bins: int = 20) -> np.ndarray:
    """Per-projector histogram of its dot products with the other 19 projectors."""
    idx = np.clip(((projector_dots(q) + 0.25) / bin_width).astype(int), 0, n_bins - 1)
    hists = np.empty((20, n_bins), dtype=np.int64)
    for i in range(20):
        hists[i] = np.bincount(np.delete(idx[i], i), minlength=n_bins)
    return hists


def jaccard_distance(ha: np.ndarray, hb: np.ndarray) -> float:
    """Symmetrized mean of per-projector minimal Jaccard distances of one pair of histograms.

    The one-pair formula the batched distance replaced: every distance of the
    20 x 20 row pairs, with the union summed from the elementwise maxima.
    """
    inter = np.minimum(ha[:, None, :], hb[None, :, :]).sum(axis=2)
    union = np.maximum(ha[:, None, :], hb[None, :, :]).sum(axis=2)
    d = 1.0 - inter / union
    return float((d.min(axis=1).mean() + d.min(axis=0).mean()) / 2.0)


# ---------------------------------------------------------------------------
# maximum-likelihood tomography
# ---------------------------------------------------------------------------

def ml_reconstruct(counts, effects: np.ndarray, ll_tol: float = 1e-12,
                   max_iter: int = 5000) -> tuple[np.ndarray, bool]:
    """R rho R fixed point for one state's counts (m, 4); returns (rho, converged).

    The reference maximum-likelihood estimator: the per-state R rho R
    iteration the package used before its projected-gradient one, stopping
    on the relative log-likelihood gain, with einsum contractions over the
    effects (m, 4, 4, 4) taken one outcome at a time.
    """
    effects = np.asarray(effects).reshape(-1, 4, 4)
    n = np.asarray(counts, dtype=float).ravel()
    total = n.sum()
    rho = np.eye(4, dtype=complex) / 4.0
    ll_old = -np.inf
    for _ in range(max_iter):
        p = np.clip(np.einsum("kij,ji->k", effects, rho).real, 1e-12, None)
        ll = float(np.dot(n, np.log(p)))
        if ll - ll_old < ll_tol * max(1.0, abs(ll)):
            return rho, True
        ll_old = ll
        r = np.einsum("k,kij->ij", n / (total * p), effects)
        rho = r @ rho @ r
        rho = (rho + rho.conj().T) / 2.0
        rho /= np.trace(rho).real
    return rho, False


def ml_certificate(counts, effects: np.ndarray, rho: np.ndarray) -> float:
    """Glancy-Knill-Girard bound N (lambda_max(R) - 1) on ln L(rho_ML) - ln L(rho), in nats."""
    effects = np.asarray(effects).reshape(-1, 4, 4)
    n = np.asarray(counts, dtype=float).ravel()
    p = np.einsum("kij,ji->k", effects, rho).real
    r = np.einsum("k,kij->ij", n / (n.sum() * p), effects)
    return float(n.sum() * (np.linalg.eigvalsh(r)[-1] - 1.0))


def log_likelihood(counts, effects: np.ndarray, rho: np.ndarray) -> float:
    """Multinomial log-likelihood sum_mk n_mk ln Tr(F_mk rho), up to a constant."""
    n = np.asarray(counts, dtype=float).ravel()
    p = np.clip(np.einsum("mkij,ji->mk", effects, rho).real.ravel(), 1e-12, None)
    return float(np.dot(n, np.log(p)))


# ---------------------------------------------------------------------------
# single-qubit model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleQubitScheme:
    """Three equal-polar-angle Bloch measurements with phases 0, 2pi/3, 4pi/3."""

    theta: float
    r: float = 0.0
    phases: tuple[float, float, float] = (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)

    def bloch_vectors(self) -> np.ndarray:
        s, c = np.sin(self.theta), np.cos(self.theta)
        return np.array([[s * np.cos(p), s * np.sin(p), c] for p in self.phases])


def single_qubit_quality_decomposed(theta: float, r: float) -> float:
    """Single-qubit quality via the Bloch-convention Gram volume times three q^(3/2) factors."""
    scheme = SingleQubitScheme(theta, r)
    vol = bloch_gram_volume(scheme.bloch_vectors() / np.sqrt(2.0))
    q = np.exp(-r * abs(theta))
    return float(vol * q ** (3.0 * NOISE_EXPONENT_2D))
