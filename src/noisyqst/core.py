"""Dense complex linear algebra for one- and two-qubit measurement design.

Everything here works on plain complex ndarrays of dimension 2 or 4.
Hermitian operators are mapped to real coordinate vectors in an orthonormal
traceless basis (Pauli matrices over sqrt(2) for a qubit, normalized Pauli
products for two qubits) so that the trace inner product Tr(AB) becomes the
Euclidean dot product of the coordinates.  The Gram volume of a set of such
vectors is the geometric backbone of the tomography quality measure.
"""

from __future__ import annotations

import numpy as np

SUPPORTED_DIMS = (2, 4)

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)


def _check_dim(d: int) -> None:
    if d not in SUPPORTED_DIMS:
        raise ValueError(f"unsupported dimension {d}; expected one of {SUPPORTED_DIMS}")


def _build_traceless_basis(d: int) -> np.ndarray:
    if d == 2:
        mats = [s / np.sqrt(2.0) for s in PAULIS[1:]]
    else:
        mats = [
            np.kron(PAULIS[a], PAULIS[b]) / 2.0
            for a in range(4)
            for b in range(4)
            if (a, b) != (0, 0)
        ]
    return np.stack(mats)


# Orthonormal traceless Hermitian bases, Tr(B_i B_j) = delta_ij.
TRACELESS_BASIS = {2: _build_traceless_basis(2), 4: _build_traceless_basis(4)}

# Tr(B_i A) = sum_{mn} B_i[m,n] A[n,m], as a matrix acting on A flattened.
_COORDINATE_MAP = {
    d: b.transpose(0, 2, 1).reshape(len(b), d * d).T for d, b in TRACELESS_BASIS.items()
}


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def assert_density(rho: np.ndarray, tol: float = 1e-10) -> None:
    """Raise ValueError unless rho is Hermitian, unit trace, and PSD within tol.

    ``rho`` may be one matrix (d, d) or a stack (n, d, d); a stack passes
    only if every member does.
    """
    d = rho.shape[-1]
    _check_dim(d)
    herm = np.max(np.abs(rho - rho.conj().mT))
    if not herm < tol:
        raise ValueError(f"density matrix not Hermitian (deviation {herm:.3e})")
    tr = np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0))
    if not tr < tol:
        raise ValueError(f"density matrix trace differs from 1 by {tr:.3e}")
    w = np.linalg.eigvalsh((rho + rho.conj().mT) / 2)[..., 0].min()
    if w < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {w:.3e}")


# ---------------------------------------------------------------------------
# random states
# ---------------------------------------------------------------------------

def _haar_unitaries(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Haar unitaries (n, d, d): Q factors of the Ginibre matrices (re + i im) / sqrt(2),
    rephased by the R diagonal's unit phases so as to be exactly Haar."""
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2.0))
    diag = np.einsum("nii->ni", r)
    return q * (diag / np.abs(diag))[:, None, :]


def random_eigenvalues(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform points on the simplex (n, d), the gaps of d-1 sorted uniforms: random
    spectra, or the squared moduli of Haar unitaries' rows, both Dirichlet(1, ..., 1)."""
    return _gap_spectra(rng.uniform(size=(n, d - 1)))


def _gap_spectra(uniforms: np.ndarray) -> np.ndarray:
    """Consecutive gaps of each row of uniforms sorted and padded by 0 and 1."""
    n = len(uniforms)
    padded = np.concatenate([np.zeros((n, 1)), np.sort(uniforms, axis=1), np.ones((n, 1))], axis=1)
    return np.diff(padded, axis=1)


def random_densities(d: int, rngs) -> np.ndarray:
    """One random density matrix U D U' per generator that ``rngs`` yields, shape (n, d, d).

    U is Haar and D gap-of-uniforms.  Each state's numbers come from its own
    generator in the order d-1 uniforms, then the real and imaginary parts
    of a d x d Ginibre matrix; the sort, QR and products then run on the
    whole stack.  Each state is bit-identical to the stack of one drawn from
    the same generator, ``random_densities(d, [rng])[0]``.  A state's draws
    are made before the next state's, so one generator listed n times,
    ``[rng] * n``, draws n states in turn.
    """
    _check_dim(d)
    draws = [(rng.uniform(size=d - 1), rng.standard_normal((d, d)), rng.standard_normal((d, d)))
             for rng in rngs]
    if not draws:
        raise ValueError("no generators to draw states from")
    uniforms, re, im = (np.array(x) for x in zip(*draws))
    u = _haar_unitaries(re, im)
    rho = (u * _gap_spectra(uniforms)[:, None, :]) @ u.conj().mT
    return (rho + rho.conj().mT) / 2


def _sqrt_clipped(w: np.ndarray) -> np.ndarray:
    # zero out eigenvalue noise so sqrt does not amplify it to ~1e-8
    floor = np.maximum(w.max(axis=-1, keepdims=True), 0.0) * 1e-12
    return np.sqrt(np.where(w > floor, w, 0.0))


def density_sqrt(rho: np.ndarray) -> np.ndarray:
    """Square roots of a density matrix (d, d) or a stack (n, d, d).

    They are taken by Hermitian eigendecomposition with eigenvalues below
    1e-12 of each matrix's largest set to zero, since inputs are only
    guaranteed PSD within tolerance.
    """
    w, v = np.linalg.eigh((rho + rho.conj().mT) / 2)
    return (v * _sqrt_clipped(w)[..., None, :]) @ v.conj().mT


def state_fidelity(
    rho: np.ndarray, sigma: np.ndarray, sqrt_rho: np.ndarray | None = None
) -> float | np.ndarray:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clamped to [0, 1].

    Square roots are those of :func:`density_sqrt`; a caller that scores
    many sigma against one rho passes ``sqrt_rho = density_sqrt(rho)``.
    Two stacks (n, d, d) give the n fidelities of their pairs, each computed
    as one pair alone would be.
    """
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    if sqrt_rho is None:
        sqrt_rho = density_sqrt(rho)
    inner = sqrt_rho @ sigma @ sqrt_rho
    lam = np.linalg.eigvalsh((inner + inner.conj().mT) / 2)
    sums = np.sum(_sqrt_clipped(lam), axis=-1)
    # squared one numpy scalar at a time, as for one pair alone: an array's
    # ** 2 is a multiplication, which can round differently in the last bit
    f = np.clip(np.array([s**2 for s in sums.reshape(-1)]), 0.0, 1.0)
    return float(f[0]) if sums.ndim == 0 else f.reshape(sums.shape)


# ---------------------------------------------------------------------------
# traceless coordinates and Gram volume
# ---------------------------------------------------------------------------

def traceless_part(op: np.ndarray) -> np.ndarray:
    """Real coordinates of the traceless part of a Hermitian operator.

    The coordinates live in the orthonormal basis ``TRACELESS_BASIS[d]``;
    the identity component is discarded, so ``op`` and ``op + c*eye`` map to
    the same vector and Tr(A B) of traceless parts equals the dot product.
    A stack of operators (..., d, d) maps to coordinates (..., d*d - 1), by
    one flat matrix product, which is cheaper than a stacked one.
    """
    d = op.shape[-1]
    _check_dim(d)
    return (op.reshape(-1, d * d) @ _COORDINATE_MAP[d]).real.reshape(*op.shape[:-2], d * d - 1)


def gram_volume(vectors: list[np.ndarray] | np.ndarray) -> float:
    """Volume sqrt(det G) of the parallelepiped spanned by coordinate vectors.

    G is the Gram matrix of pairwise dot products (equal to trace inner
    products for vectors produced by :func:`traceless_part`).  Returns 0.0
    for a singular Gram matrix.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2:
        raise ValueError("expected a list of equal-length coordinate vectors")
    dims = {3: 2, 15: 4}
    if v.shape[1] not in dims:
        raise ValueError(f"mixed or unsupported coordinate length {v.shape[1]}")
    if v.shape[0] > v.shape[1]:
        raise ValueError(f"at most {v.shape[1]} vectors supported, got {v.shape[0]}")
    g = v @ v.T
    det = np.linalg.det(g)
    return float(np.sqrt(max(det, 0.0)))
