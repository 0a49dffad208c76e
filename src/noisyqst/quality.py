"""Geometric quality of a tomography quorum and its noise-penalized variant.

The geometric quality Q is the Gram volume spanned by the traceless parts
of 15 nominal rank-1 projectors (three per measurement); for the standard
MUB quorum it equals 1/32.  Noise multiplies Q by per-effect penalties

    Q_N = Q * prod_{j,k} q_jk^(1.195/2)

whose exponent comes from the linear coefficient of the Haar-averaged
log-probability; when q is uniform within a measurement this reduces to
Q * prod_j q_j^s with s = 2.39 in dimension 4 (s = 3/2 for a qubit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    gram_volume,
    haar_random_unitaries,
    random_eigenvalues,
    traceless_part,
)
from .gates import ENTANGLER_SLOTS, QuorumParams, entangling_times, quorum_array
from .noise import DegeneratePovmError, NoiseModel, _require_interaction, ideal_effects, povm_stack

# Linear coefficient of the Haar-averaged log outcome probability and the
# per-measurement exponents derived from it.
LOG_COEFF_4D = 1.195
PER_EFFECT_EXPONENT = LOG_COEFF_4D / 2.0
NOISE_EXPONENT_4D = 4.0 * PER_EFFECT_EXPONENT  # s = 2.39
NOISE_EXPONENT_2D = 1.5

# Q_N below this is treated as this, so -ln Q_N stays finite.
_QN_FLOOR = 1e-300


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


def _log_qualities(effects: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(ln Q, ln Q_N, q (5, 4)) of a quorum's effects (5, 4, 4, 4), for either channel.

    From the traceless coordinates C (5, 4, 15), ln q_jk = ln(4/3 |c_jk|^2) / 2 and
    ln Q = ln|det C_3| - sum_{k<=3} ln q_jk, C_3 (15, 15) being the first three effects of
    each measurement (the four sum to zero), and -inf where C_3 is singular.
    """
    coords = traceless_part(effects)
    q_squared = (4.0 / 3.0) * np.einsum("jki,jki->jk", coords, coords)
    if not q_squared.min() > 1e-24:  # some q <= 1e-12, or NaN
        j, k = np.argwhere(~(q_squared > 1e-24))[0]
        raise DegeneratePovmError(f"effect {k} of measurement {j} is fully depolarized "
                                  f"(q={np.sqrt(q_squared[j, k]):.3e})")
    log_q = 0.5 * np.log(q_squared)
    log_geometric = np.linalg.slogdet(coords[:, :3].reshape(15, 15))[1] - log_q[:, :3].sum()
    return log_geometric, log_geometric + PER_EFFECT_EXPONENT * log_q.sum(), np.exp(log_q)


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
    log_geometric, log_noisy, qs = _log_qualities(povm_stack(params, noise))
    times = entangling_times(params[:, ENTANGLER_SLOTS], quorum.interaction)
    return QualityReport(q_geometric=float(np.exp(log_geometric)), q_noisy=float(np.exp(log_noisy)),
                         per_measurement_q=qs, entangling_times=times)


def neg_log_qn(x: np.ndarray, noise: NoiseModel) -> float:
    """-ln Q_N of the quorum encoded by a flat 75-vector.

    The vector is read by :func:`~noisyqst.gates.quorum_array`.  This is the
    optimizers' objective: it has the argmax of Q_N and avoids underflow for
    small volumes.  It is capped at -ln(1e-300), and NaN where a parameter is not finite.
    """
    params = quorum_array(x, noise.interaction)
    if not np.all(np.isfinite(params)):
        return float("nan")
    return float(min(-_log_qualities(povm_stack(params, noise))[1], -np.log(_QN_FLOOR)))


# ---------------------------------------------------------------------------
# averaged log-probability coefficient
# ---------------------------------------------------------------------------

def estimate_log_coefficient(
    d: int,
    n_samples: int,
    rng: np.random.Generator,
    q_min: float = 0.9,
    n_grid: int = 40,
    chunk: int = 50_000,
) -> float:
    """Monte-Carlo slope of <ln(p + (1-q)/(d q))> versus (1 - q).

    Random densities are drawn as U D U' with Haar U and gap-of-uniforms D;
    p runs over all d diagonal entries.  The same samples are reused across
    the 40-point grid on q in [q_min, 1] and the slope is obtained by linear
    regression.  Around 10^6 samples reproduce the d=4 coefficient 1.195 to
    within a few percent.

    For d=2 this is the same quantity: the gap-of-uniforms average regressed
    over q in [0.9, 1], about 1.237 (1.23724 and 1.23723 at 10^6 samples,
    seeds 1 and 2).  It is not the 3/2 of ``NOISE_EXPONENT_2D``, which is
    the exact small-c coefficient over the uniform Bloch ball (see
    :func:`log_average_qubit_exact`).
    """
    if n_samples < 100_000:
        raise ValueError("n_samples must be at least 10^5 for a stable slope")
    qs = np.linspace(q_min, 1.0, n_grid)
    cs = (1.0 - qs) / (d * qs)
    acc = np.zeros(n_grid)
    done = 0
    while done < n_samples:
        m = int(min(chunk, n_samples - done))
        ev = random_eigenvalues(d, m, rng)
        u = haar_random_unitaries(d, m, rng)
        p = np.einsum("nki,ni->nk", np.abs(u) ** 2, ev).ravel()
        for i, c in enumerate(cs):
            acc[i] += float(np.sum(np.log(p + c)))
        done += m
    means = acc / (done * d)
    slope = np.polyfit(1.0 - qs, means, 1)[0]
    return float(slope)


def log_average_qubit_exact(c: float) -> float:
    """Closed-form qubit average <ln(p + c)> over the uniform Bloch ball.

    Its expansion around c = 0 is -5/6 + 3c + O(c^2 log c); with
    c = (1-q)/(2q) the linear coefficient in (1-q) is exactly 3/2.
    """
    if c < 0:
        raise ValueError("c must be >= 0")
    if c == 0.0:
        return -5.0 / 6.0
    return float(
        -5.0 / 6.0
        + 2.0 * c * (1.0 + c)
        + c * c * (3.0 + 2.0 * c) * np.log(c)
        - (1.0 + c) ** 2 * (2.0 * c - 1.0) * np.log(1.0 + c)
    )


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


def analytic_beta_max(zeta: float, s: float = NOISE_EXPONENT_4D) -> float:
    """Optimal Ising coupling arctan(4/(zeta s))/2; pi/4 at zero noise."""
    if zeta < 0 or s <= 0:
        raise ValueError("zeta must be >= 0 and s > 0")
    if zeta == 0.0:
        return float(np.pi / 4.0)
    return float(np.arctan(4.0 / (zeta * s)) / 2.0)


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


def analytic_ising_qn(b4y: float, b5y: float, zeta: float,
                      s: float = NOISE_EXPONENT_4D) -> float:
    """Q_N of the MUB family with free beta_y couplings on the two entangled bases."""
    geometric = np.sin(2.0 * b4y) ** 2 * np.sin(2.0 * b5y) ** 2 / 32.0
    return float(geometric * np.exp(-zeta * s * (abs(b4y) + abs(b5y))))
