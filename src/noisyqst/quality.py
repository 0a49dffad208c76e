"""Geometric quality of a tomography quorum and its noise-penalized variant.

The geometric quality Q is the Gram volume spanned by the traceless parts
of 15 nominal rank-1 projectors (three per measurement); for the standard
MUB quorum it equals 1/32.  Noise multiplies Q by per-effect penalties

    Q_N = Q * prod_{j,k} q_jk^(1.195/2)

whose exponent comes from the linear coefficient of the Haar-averaged
log-probability; when q is uniform within a measurement this reduces to
Q * prod_j q_j^s with s = 2.39 in dimension 4 (s = 3/2 for a qubit).
The optimizers minimize -ln Q_N; :func:`neg_log_qn_and_grad` adds its
analytic gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    TRACELESS_BASIS,
    gram_volume,
    random_eigenvalues,
    traceless_part,
)
from .gates import (
    ENTANGLER_SLOTS,
    QuorumParams,
    entangling_times,
    measurement_layer_derivatives,
    measurement_layers,
)
from .noise import (
    DegeneratePovmError,
    NoiseModel,
    _layer_effects,
    _require_interaction,
    channel_coefficients,
    frame_channel,
    ideal_effects,
    povm_stack,
)

# Linear coefficient of the Haar-averaged log outcome probability and the
# per-measurement exponents derived from it.
LOG_COEFF_4D = 1.195
PER_EFFECT_EXPONENT = LOG_COEFF_4D / 2.0
NOISE_EXPONENT_4D = 4.0 * PER_EFFECT_EXPONENT  # s = 2.39

# Q_N below this is treated as this, so -ln Q_N stays finite.
QN_FLOOR = 1e-300

# -ln Q_N = -ln|det C_3| - sum_jk w_k ln q_jk, with w_k = 0.5975 - [k <= 3].
_LOG_Q_WEIGHTS = PER_EFFECT_EXPONENT - np.array([1.0, 1.0, 1.0, 0.0])
# The traceless basis flattened (15, 16): coordinates h map to the operator sum_i h_i B_i.
_BASIS_ROWS = TRACELESS_BASIS[4].reshape(15, 16)


@dataclass(frozen=True)
class QualityReport:
    """Quality of one quorum under one noise model."""

    q_geometric: float
    q_noisy: float
    per_measurement_q: np.ndarray  # (5, 4)
    entangling_times: np.ndarray  # (5,)

    def to_dict(self) -> dict:
        return {
            "q_geometric": self.q_geometric,
            "q_noisy": self.q_noisy,
            "per_measurement_q": [[float(x) for x in row] for row in self.per_measurement_q],
            "entangling_times": [float(x) for x in self.entangling_times],
        }


def _log_qualities(effects: np.ndarray, strict: bool = False):
    """(ln Q, ln Q_N, q, C) of stacked quorums' effects (..., 5, 4, 4, 4), for either channel.

    From the traceless coordinates C (..., 5, 4, 15), ln q_jk = ln(4/3 |c_jk|^2) / 2 and
    ln Q = ln|det C_3| - sum_{k<=3} ln q_jk, C_3 (15, 15) being the first three effects of
    each measurement (the four sum to zero), and -inf where C_3 is singular.  A quorum
    with a fully depolarized effect, q <= 1e-12 or NaN, has NaN ln Q and ln Q_N, or
    with ``strict`` raises :class:`DegeneratePovmError`.
    """
    coords = traceless_part(effects)
    q_squared = (4.0 / 3.0) * np.einsum("...jki,...jki->...jk", coords, coords)
    degenerate = ~(q_squared > 1e-24)
    if strict and degenerate.any():
        first = tuple(np.argwhere(degenerate)[0])
        raise DegeneratePovmError(f"effect {first[-1]} of measurement {first[-2]} is fully "
                                  f"depolarized (q={np.sqrt(q_squared[first]):.3e})")
    # A singular C_3 gives ln|det| = -inf, for some exact zeros through log(0);
    # that is no fault here, nor is the arithmetic of a degenerate quorum.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = 0.5 * np.log(q_squared)
        log_det = np.linalg.slogdet(coords[..., :3, :].reshape(*coords.shape[:-3], 15, 15))[1]
        log_geometric = np.where(degenerate.any(axis=(-1, -2)), np.nan,
                                 log_det - log_q[..., :3].sum(axis=(-1, -2)))
        log_noisy = log_geometric + PER_EFFECT_EXPONENT * log_q.sum(axis=(-1, -2))
    return log_geometric, log_noisy, np.exp(log_q), coords


def geometric_quality(unitaries) -> float:
    """Q of five noise-free measurement unitaries (5, 4, 4), from their ideal projectors."""
    unitaries = np.asarray(unitaries)
    if unitaries.shape != (5, 4, 4):
        raise ValueError(f"expected five 4x4 unitaries, got shape {unitaries.shape}")
    return gram_volume(traceless_part(ideal_effects(unitaries)[:, :3].reshape(15, 4, 4)))


def quality_report(quorum: QuorumParams, noise: NoiseModel) -> QualityReport:
    """Evaluate a parametrized quorum under a noise model."""
    _require_interaction(quorum.interaction, noise)
    params = quorum.to_array()
    log_geometric, log_noisy, qs, _ = _log_qualities(povm_stack(params, noise), strict=True)
    times = entangling_times(params[:, ENTANGLER_SLOTS], quorum.interaction)
    return QualityReport(q_geometric=float(np.exp(log_geometric)), q_noisy=float(np.exp(log_noisy)),
                         per_measurement_q=qs, entangling_times=times)


def neg_log_qn_and_grad(params, weights, noise: NoiseModel, strict: bool = False):
    """-ln Q_N of stacked quorums and its gradients by the parameters and by the noise weights.

    ``params`` (..., 5, 15) sets the gates, and the channel of entangler j reads
    ``weights[..., j, :]`` (3,) >= 0 where it would read the pulses alpha or the
    coupling magnitudes |beta|; at those weights the value is the optimizers'
    objective, -ln Q_N of the effects of :func:`~noisyqst.noise.povm_stack`,
    capped at -ln(1e-300).  Returns (values (...), d/d params (..., 5, 15),
    d/d weights (..., 5, 3)); a quorum's row does not depend on the rest of the stack.

    By Jacobi's formula, with w_k = 0.5975 - [k <= 3],

        d ln Q_N = tr(C_3^-1 dC_3) + sum_jk w_k (c_jk . dc_jk) / |c_jk|^2
                 = sum_jk Tr(A_jk dE_jk),

    A_jk being the Hermitian operator with traceless coordinates
    (C_3^-T)_jk [k <= 3] + w_k c_jk / |c_jk|^2.  Each effect is
    E_jk = tail^dagger N(pre^dagger P_k pre) tail in the Bell-frame layers, tail =
    diag(phases) . post, N being the self-adjoint channel, so each Tr(A dE) moves
    onto the derivative of one layer or of N.  Where the value is capped at
    -ln(1e-300) the gradient is zero; a quorum's row is all NaN where one of
    its inputs is not finite or one of its effects is fully depolarized, or
    with ``strict`` the latter raises :class:`DegeneratePovmError`.  Near the
    float limit of the strength a noise weight's gradient may be +-inf.
    """
    params, weights = np.asarray(params, dtype=float), np.asarray(weights, dtype=float)
    lead = params.shape[:-2]
    params, weights = params.reshape(-1, 5, 15), weights.reshape(-1, 5, 3)
    values = np.full(len(params), np.nan)
    grad_params, grad_weights = np.full(params.shape, np.nan), np.full(weights.shape, np.nan)
    rows = np.flatnonzero(np.isfinite(params).all(axis=(1, 2))
                          & np.isfinite(weights).all(axis=(1, 2)))
    layers = measurement_layers(params[rows], noise.interaction)
    _, log_noisy, _, coords = _log_qualities(_layer_effects(layers, weights[rows], noise), strict)
    cap = -np.log(QN_FLOOR)
    values[rows] = np.minimum(-log_noisy, cap)
    capped, live = rows[-log_noisy >= cap], rows[-log_noisy < cap]
    grad_params[capped], grad_weights[capped] = 0.0, 0.0
    if len(live) < len(rows):
        # the gradient of the quorums below the cap, on arrays laid out as for a
        # full stack: a row's rounding then does not depend on the others
        rows = live
        layers = measurement_layers(params[rows], noise.interaction)
        coords = _log_qualities(_layer_effects(layers, weights[rows], noise))[3]
    params, weights = params[rows], weights[rows][:, :, None, :]  # one channel for 4 effects
    h = coords * (_LOG_Q_WEIGHTS[:, None] / np.einsum("njki,njki->njk", coords, coords)[..., None])
    h[:, :, :3] += np.linalg.inv(coords[:, :, :3].reshape(-1, 15, 15)).mT.reshape(-1, 5, 3, 15)
    a = (h.reshape(-1, 20, 15) @ _BASIS_ROWS).reshape(-1, 5, 4, 4, 4)

    pre, phases, post = layers
    tail = (phases[:, :, :, None] * post)[:, :, None]
    tail_dag = tail.conj().swapaxes(-1, -2)
    readout = ideal_effects(pre)  # pre^dagger P_k pre
    pulled = tail @ a @ tail_dag  # Tr(A tail^dagger X tail) = Tr(pulled X)
    mat, mixed, dmat, dmixed = channel_coefficients(weights, noise)

    def trace_products(dlayers, s):
        # 2 Re Tr(dL_p S) for derivatives dL (n, 5, p, 4, 4) and S (n, 5, 4, 4)
        return 2.0 * np.einsum("njpab,njba->njp", dlayers, s).real

    dpre, dphases, dpost = measurement_layer_derivatives(params, noise.interaction)
    # sum_k Tr(N(pulled_k) d(pre^dagger P_k pre)) = 2 Re Tr(d pre S), column k of S
    # being column k of N(pulled_k) pre^dagger
    s_pre = np.einsum("njkak->njak", frame_channel(pulled, mat, mixed)
                      @ pre.conj().swapaxes(-1, -2)[:, :, None])
    # sum_k Tr(A_k d(tail^dagger M_k tail)) = 2 Re Tr(d tail T), M_k = N(pre^dagger P_k pre),
    # where d tail = diag(d phases) post + diag(phases) d post scales rows
    t = (a @ (tail_dag @ frame_channel(readout, mat, mixed))).sum(axis=2)
    grad_params[rows, :, :6] = -trace_products(dpre, s_pre)
    dtail = dphases[..., None] * post[:, :, None]
    grad_params[rows, :, ENTANGLER_SLOTS] = -trace_products(dtail, t)
    grad_params[rows, :, 9:] = -trace_products(phases[:, :, None, :, None] * dpost, t)
    # The channel's derivative grows with the strength, and near the float limit its terms
    # overflow to inf - inf = NaN.  Divided by the largest power of two not above dM's
    # largest entry (|dc| is no larger), or by 1, they stay finite; scaled back, a sum is
    # the same or +-inf.
    scale = np.ldexp(1.0, np.maximum(np.frexp(np.abs(dmat).max(axis=(-2, -1)))[1] - 1, 0))
    dchannel = frame_channel(readout[:, :, :, None], dmat / scale[..., None, None], dmixed / scale)
    with np.errstate(over="ignore"):
        grad_weights[rows] = -scale[:, :, 0] * np.einsum("njkab,njkmba->njm", pulled,
                                                         dchannel).real
    return (values.reshape(lead)[()], grad_params.reshape(*lead, 5, 15),
            grad_weights.reshape(*lead, 5, 3))


# ---------------------------------------------------------------------------
# averaged log-probability coefficient
# ---------------------------------------------------------------------------

# estimate_log_coefficient's grid on q in [COEFF_Q_MIN, 1], and its samples per draw.
COEFF_Q_MIN, COEFF_N_GRID, COEFF_CHUNK = 0.9, 40, 50_000


def estimate_log_coefficient(d: int, n_samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo slope of <ln(p + (1-q)/(d q))> versus (1 - q).

    p = <w, D> is an outcome probability of a density U D U' with Haar U and
    gap-of-uniforms spectrum D, w being a row of |U|^2.  That is uniform on
    the simplex like D, so :func:`~noisyqst.core.random_eigenvalues` draws D
    and d independent rows w per sample, and no unitary; the rows of one U
    are not independent, but the mean over all d entries p is the same.  The
    samples are reused across the 40-point grid on q in [0.9, 1], and the
    slope is a linear regression.  Around 10^6 samples reproduce the d=4
    coefficient 1.195 to within a few percent.

    For d=2 this is the same quantity: the gap-of-uniforms average regressed
    over q in [0.9, 1], about 1.237 (1.23675 and 1.23646 at 10^6 samples,
    seeds 1 and 2).  It is not the 3/2 of ``NOISE_EXPONENT_2D`` in
    tests/oracles.py, which is the exact small-c coefficient over the
    uniform Bloch ball (see ``log_average_qubit_exact`` there).
    """
    if n_samples < 100_000:
        raise ValueError("n_samples must be at least 10^5 for a stable slope")
    qs = np.linspace(COEFF_Q_MIN, 1.0, COEFF_N_GRID)
    cs = (1.0 - qs) / (d * qs)
    acc = np.zeros(COEFF_N_GRID)
    done = 0
    while done < n_samples:
        m = int(min(COEFF_CHUNK, n_samples - done))
        ev = random_eigenvalues(d, m, rng)
        weights = random_eigenvalues(d, m * d, rng).reshape(m, d, d)
        p = np.einsum("nki,ni->nk", weights, ev).ravel()
        for i, c in enumerate(cs):
            acc[i] += float(np.sum(np.log(p + c)))
        done += m
    means = acc / (done * d)
    slope = np.polyfit(1.0 - qs, means, 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# single-qubit model
# ---------------------------------------------------------------------------

def single_qubit_quality(theta: float, r: float) -> float:
    """(3 sqrt(3) / 2) exp(-9 r |theta| / 2) cos(theta) sin^2(theta)."""
    return float(
        1.5 * np.sqrt(3.0) * np.exp(-4.5 * abs(theta) * r) * np.cos(theta) * np.sin(theta) ** 2
    )


def single_qubit_optimal_angle(r: float) -> float:
    """Polar angle maximizing the single-qubit quality at noise strength r."""
    if r < 0:
        raise ValueError("r must be >= 0")
    # tan(theta) = sqrt(a^2 + 2) - a with a = 9r/4, rewritten without cancellation
    a = 2.25 * r
    return float(np.arctan(2.0 / (np.hypot(a, np.sqrt(2.0)) + a)))


# ---------------------------------------------------------------------------
# closed-form optima, depolarizing channel
# ---------------------------------------------------------------------------

def analytic_alpha_max(zeta: float, s: float = NOISE_EXPONENT_4D) -> float:
    """Optimal SWAP^alpha duration arctan(1/(zeta s))/pi; 1/2 at zero noise."""
    if zeta < 0 or s <= 0:
        raise ValueError("zeta must be >= 0 and s > 0")
    if zeta == 0.0:
        return 0.5
    return float(np.arctan(1.0 / (zeta * s)) / np.pi)


def analytic_heisenberg_qn(a41: float, a43: float, a51: float, a53: float, zeta: float,
                           s: float = NOISE_EXPONENT_4D) -> float:
    """Q_N of the MUB family with free SWAP^alpha durations on the two entangled bases.

    The exponent uses the survival probability q_j = exp(-zeta pi sum alpha),
    the convention consistent with the analytic optimum arctan(1/(zeta s))/pi.
    """
    geometric = (
        np.sin(a41 * np.pi)
        * np.sin(a43 * np.pi)
        / 32.0
        * np.cos((a51 - a53) * np.pi / 2.0) ** 4
        * np.sin((a51 + a53) * np.pi / 2.0) ** 2
    )
    return float(geometric * np.exp(-zeta * s * np.pi * (a41 + a43 + a51 + a53)))
