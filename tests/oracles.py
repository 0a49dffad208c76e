"""Per-matrix reference implementations that the batched package code is tested against.

Each function builds one gate, one effect or one projector at a time, along
a route independent of the package's batched kernel: entanglers from their
pulse or ZZ sequences, channels and average gate fidelities from their
explicit Kraus sets, q and the nominal projectors from each effect
separately.  The validators, coordinate maps and distances at the end are
used only by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from noisyqst.core import (
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    PAULIS,
    TRACELESS_BASIS,
    _check_dim,
    gram_volume,
)
from noisyqst.gates import BELL_CONVENTIONAL, BELL_SORTED, HEISENBERG, QuorumParams
from noisyqst.noise import DEPOLARIZING, DegeneratePovmError, NoiseModel
from noisyqst.optimize import _jaccard_distance, _projector_histograms
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

def kraus_depolarizing(q: float) -> list[np.ndarray]:
    """16-operator Pauli-product Kraus set of the two-qubit depolarizing channel."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    ops = [np.sqrt(15.0 * q + 1.0) / 4.0 * _EYE4]
    w = np.sqrt(max(1.0 - q, 0.0)) / 4.0
    for a in range(4):
        for b in range(4):
            if (a, b) == (0, 0):
                continue
            ops.append(w * np.kron(PAULIS[a], PAULIS[b]))
    return ops


def kraus_ou_heisenberg(gammas: np.ndarray) -> list[np.ndarray]:
    """Eight Bell-diagonal Kraus operators of the Heisenberg OU channel."""
    g1, g2, g3 = np.asarray(gammas, dtype=float)
    ops = []
    for m in (0, 1):
        for k in (0, 1):
            for l in (0, 1):
                w = (1 + (-1) ** m * g1) * (1 + (-1) ** k * g2) * (1 + (-1) ** l * g3) / 8.0
                signs = np.array([1.0, (-1.0) ** m, (-1.0) ** k, (-1.0) ** l])
                ops.append(np.sqrt(max(w, 0.0)) * (BELL_SORTED * signs) @ BELL_SORTED.conj().T)
    return ops


def kraus_ou_ising(gammas: np.ndarray) -> list[np.ndarray]:
    """Four Bell-diagonal Kraus operators of the Ising OU channel."""
    gx, gy, gz = np.asarray(gammas, dtype=float)
    ops = []
    for k in (0, 1):
        for l in (0, 1):
            w = (
                1
                + (-1) ** k * gy * gz
                + (-1) ** l * gx * gy
                + (-1) ** (k + l) * gx * gz
            ) / 4.0
            signs = np.array([1.0, (-1.0) ** k, (-1.0) ** l, (-1.0) ** (k + l)])
            ops.append(np.sqrt(max(w, 0.0)) * (BELL_CONVENTIONAL * signs) @ BELL_CONVENTIONAL.conj().T)
    return ops


def assert_kraus_complete(ops: list[np.ndarray], tol: float = 1e-10) -> None:
    d = ops[0].shape[0]
    total = sum(m.conj().T @ m for m in ops)
    dev = np.max(np.abs(total - np.eye(d)))
    if not dev < tol:
        raise ValueError(f"Kraus set not complete (deviation {dev:.3e})")


def kraus_average_gate_fidelity(ops: list[np.ndarray]) -> float:
    """Haar-average fidelity (sum_k |Tr M_k|^2 + d) / (d^2 + d) of a residual channel."""
    assert_kraus_complete(ops)
    d = ops[0].shape[0]
    s = sum(abs(np.trace(m)) ** 2 for m in ops)
    return float((s + d) / (d * d + d))


def apply_kraus(rho: np.ndarray, ops) -> np.ndarray:
    """rho -> sum_k M_k rho M_k'."""
    out = np.zeros_like(rho, dtype=complex)
    for m in ops:
        out += m @ rho @ m.conj().T
    return out


def kraus_set(ent, interaction: str, noise: NoiseModel) -> list[np.ndarray]:
    """Kraus operators of the noise on an entangler with parameters ``ent`` (3,)."""
    vals = np.array(ent, dtype=float)
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
    ops = kraus_set(m[0][6:9], m[1], noise)
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
    """(Q, q per effect (5, 4), Q_N), one measurement and one projector at a time.

    Q is |det| of the 15 nominal projectors' coordinates.  The Gram route
    sqrt(det(V V^T)) squares the condition number: near a singular quorum
    its absolute error reaches 1e-11, which is more than the kernel test allows.
    """
    povms = [effective_povm(m, noise) for m in quorum.measurements]
    coords = [traceless_coords(n[k]) for _, _, n in povms for k in range(3)]
    q_geometric = abs(float(np.linalg.det(np.array(coords))))
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


# ---------------------------------------------------------------------------
# validators, coordinates and distances used only by the tests
# ---------------------------------------------------------------------------

def assert_unitary(U: np.ndarray, tol: float = 1e-10) -> None:
    """Raise ValueError unless U'U = 1 entrywise within tol."""
    d = U.shape[0]
    _check_dim(d)
    dev = np.max(np.abs(U.conj().T @ U - np.eye(d)))
    if not dev < tol:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")


def assert_projector(P: np.ndarray, rank: int | None = None, tol: float = 1e-10) -> None:
    """Raise ValueError unless P is a Hermitian idempotent (of the given rank)."""
    herm = np.max(np.abs(P - P.conj().T))
    if not herm < tol:
        raise ValueError(f"projector not Hermitian (deviation {herm:.3e})")
    idem = np.max(np.abs(P @ P - P))
    if not idem < tol:
        raise ValueError(f"projector not idempotent (deviation {idem:.3e})")
    if rank is not None:
        tr = abs(np.trace(P).real - rank)
        if not tr < 1e-9:
            raise ValueError(f"projector trace differs from rank {rank} by {tr:.3e}")


def hermitian_from_traceless(coords: np.ndarray) -> np.ndarray:
    """Inverse of :func:`noisyqst.core.traceless_part` onto the traceless subspace."""
    coords = np.asarray(coords, dtype=float)
    d = 2 if coords.shape[0] == 3 else 4
    if coords.shape[0] != d * d - 1:
        raise ValueError(f"expected 3 or 15 coordinates, got {coords.shape[0]}")
    return np.einsum("k,kij->ij", coords, TRACELESS_BASIS[d])


# Bloch-vector convention for the qubit volume: unit Bloch vectors have
# traceless-coordinate norm 1/sqrt(2), so the two volumes differ by 2^(3/2).
BLOCH_VOLUME_FACTOR_2D = 2.0 ** 1.5


def bloch_gram_volume(vectors: list[np.ndarray] | np.ndarray) -> float:
    """Qubit Gram volume rescaled so unit Bloch vectors have unit length."""
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError("Bloch convention applies to qubit (3-coordinate) vectors only")
    return BLOCH_VOLUME_FACTOR_2D * gram_volume(v)


def quorum_distance(a, b, interaction: str) -> float:
    """Jaccard distance in [0, 1] of two quorums given as (5, 15) parameter arrays,
    through the package's batched histograms and distance."""
    ha, hb = _projector_histograms(np.stack([a, b]), interaction)
    return float(_jaccard_distance(ha, hb))
