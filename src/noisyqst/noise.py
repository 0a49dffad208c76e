"""Noise channels for the entangling gate and the resulting effective POVMs.

Two channel families are supported.  The depolarizing channel shrinks the
traceless part of the state by q = exp(-zeta pi T), where T is the
normalized time the interaction is switched on.  Over-/under-rotation (OU)
models a Gaussian spread of each pulse angle: it dephases the state in the
Bell eigenframe of the entangler, each coherence by e^(-r gap), gap being
the eigenphase gap that the entangler's parameters open one by one.  So
parameter k contributes gamma_k = exp(-r |rate| gap(S) |x_k|) (see
:class:`~noisyqst.gates.Entangler`): exp(-r pi alpha_k) per Heisenberg
pulse, exp(-2 r |beta_k|) per Ising coupling.

Both commute with the ideal entangler, are unital and self-adjoint, and are
one map on operators Y in the entangler's Bell frame, where
:func:`~noisyqst.gates.measurement_layers` holds the measurements:
N(Y) = q (P o Y) + (1 - q) Tr(Y) 1/4, o being the entrywise product, with
P = 1 for depolarizing noise (it looks the same in every frame) and q = 1
for OU, P being its pattern of gammas.  The effective POVMs, their gradients
and the average gate fidelity all use it; its explicit Kraus sets are kept
in tests/oracles.py, as the independent reference it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import (
    ENTANGLER_SLOTS,
    ENTANGLERS,
    INTERACTIONS,
    entangling_times,
    measurement_layers,
)

DEPOLARIZING = "depolarizing"
OVER_UNDER_ROTATION = "ou"
CHANNELS = (DEPOLARIZING, OVER_UNDER_ROTATION)


class DegeneratePovmError(ValueError):
    """Raised when noise wipes out a measurement effect entirely."""


@dataclass(frozen=True)
class NoiseModel:
    """Channel family + interaction type + strength (zeta or r)."""

    channel: str
    interaction: str
    strength: float

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        if self.interaction not in INTERACTIONS:
            raise ValueError(f"unknown interaction {self.interaction!r}")
        if not 0.0 <= self.strength < np.inf:
            raise ValueError(f"noise strength must be finite and >= 0, got {self.strength}")

    def to_dict(self) -> dict:
        return {
            "channel": self.channel,
            "interaction": self.interaction,
            "strength": self.strength,
        }


# ---------------------------------------------------------------------------
# the channel, in the entangler's Bell frame
# ---------------------------------------------------------------------------

def depolarizing_q(zeta: float, entangling_time):
    """Survival probability exp(-zeta pi T) of the traceless part; T may be an array."""
    entangling_time = np.asarray(entangling_time, dtype=float)
    if zeta < 0 or np.any(entangling_time < 0):
        raise ValueError("zeta and entangling time must be >= 0")
    rate = -float(zeta) * np.pi  # a Python float: -inf, not a numpy warning, where it overflows
    if rate == -np.inf:  # and -inf * 0 would be NaN at a zero entangling time
        raise ValueError(f"depolarizing strength {zeta} is too large: zeta pi overflows")
    with np.errstate(over="ignore"):  # rate T past the float range is -inf, and q is 0
        return np.exp(rate * entangling_time)


def ou_gammas(r: float, ent, interaction: str) -> np.ndarray:
    """Dephasing factors exp(-r |rate| gap(S) |x_k|) of entangler parameters x of shape (..., 3).

    exp(-r pi alpha_k) per Heisenberg pulse, exp(-2 r |beta_k|) per Ising coupling.
    """
    ent = np.asarray(ent, dtype=float)
    dephasing_rate = ENTANGLERS[interaction].dephasing_rate
    rate = -float(r) * dephasing_rate  # a Python float: -inf, not a numpy warning, on overflow
    if rate == -np.inf:  # and -inf * 0 would be NaN at a zero parameter
        raise ValueError(f"OU strength {r} is too large: r times the dephasing rate "
                         f"{dephasing_rate:.6g} overflows")
    with np.errstate(over="ignore"):  # rate |x_k| past the float range is -inf, and gamma_k 0
        return np.exp(rate * np.abs(ent))


def ou_pattern(gammas, interaction: str) -> np.ndarray:
    """The Bell-frame decay pattern P (..., 4, 4) of stacked OU gammas (..., 3): entry [a, b]
    is the product of the gammas of the parameters that dephase Bell vectors a and b."""
    g = np.asarray(gammas, dtype=float)[..., None, None, :]
    return np.prod(np.where(ENTANGLERS[interaction].dephased_by, g, 1.0), axis=-1)


def channel_coefficients(weights, noise: NoiseModel):
    """The channel N(Y) = M o Y + c Tr(Y) 1/4 on Bell-frame operators, and its derivatives.

    The weights (..., 3) >= 0 stand where the channel reads the entangler's
    parameters: pulse durations alpha, or coupling magnitudes |beta|.  N is
    q (P o Y) + (1 - q) Tr(Y) 1/4, so M = q P and c = 1 - q, and dN / dw_m is
    the same form with dM = dq P + q dP and dc = -dq: d ln q / dw_m = -zeta
    |rate| for depolarizing noise (P = 1), d ln gamma_m / dw_m = -r |rate|
    gap(S) for OU (q = 1).  Returns M (..., 4, 4), c (...), dM (..., 3, 4, 4), dc (..., 3).
    """
    weights = np.asarray(weights, dtype=float)
    rec = ENTANGLERS[noise.interaction]
    if noise.channel == DEPOLARIZING:
        q = depolarizing_q(noise.strength, entangling_times(weights, noise.interaction))
        dq = -noise.strength * abs(rec.rate) * q[..., None] * np.ones(3)
        pattern, dpattern = np.ones((4, 4)), np.zeros((3, 4, 4))
    else:
        q, dq = np.ones(weights.shape[:-1]), np.zeros(weights.shape)
        pattern = ou_pattern(ou_gammas(noise.strength, weights, noise.interaction),
                             noise.interaction)
        # d pattern / dw_m = pattern * [m dephases the entry] * d(ln gamma_m)/dw_m
        rate = -noise.strength * rec.dephasing_rate
        dpattern = np.moveaxis(rate * rec.dephased_by * pattern[..., None], -1, -3)
    dmat = dq[..., None, None] * pattern[..., None, :, :] + q[..., None, None, None] * dpattern
    return q[..., None, None] * pattern, 1.0 - q, dmat, -dq


def frame_channel(y: np.ndarray, mat, mixed, tail=None) -> np.ndarray:
    """tail^dagger (M o Y + c Tr(Y) 1/4) tail of stacked Y (..., 4, 4), for M (..., 4, 4) and
    c (...) of :func:`channel_coefficients`; ``tail`` is unitary, the identity by default, so
    the 1/4 term is not conjugated, and its rounding cannot swamp a depolarizing q near 1e-16."""
    mixed = np.asarray(mixed) * np.einsum("...ii->...", y)
    out = mat * y
    if tail is not None:
        out = tail.conj().swapaxes(-1, -2) @ out @ tail
    return out + mixed[..., None, None] * np.eye(4) / 4


# ---------------------------------------------------------------------------
# average gate fidelity
# ---------------------------------------------------------------------------

def average_gate_fidelity(noise: NoiseModel, ent) -> float:
    """Haar-average fidelity of the noise on an entangler with parameters ``ent`` (3,).

    F = (sum_ij <i|E(|i><j|)|j> + d) / (d^2 + d) with d = 4.  The sum is the
    channel's trace, the same in every frame, so the map acts once on the 16
    matrix units |i><j| of the Bell frame, stacked (16, 4, 4).
    """
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)  # |i><j| at index 4 i + j
    out = frame_channel(units, *channel_coefficients(ent, noise)[:2])
    fidelity = float((np.einsum("ijij->", out.reshape(4, 4, 4, 4)).real + 4.0) / 20.0)
    if not np.isfinite(fidelity):
        raise ValueError(f"average gate fidelity is {fidelity} for {noise} and entangler {ent}")
    return fidelity


# ---------------------------------------------------------------------------
# effective POVMs
# ---------------------------------------------------------------------------

def ideal_effects(unitaries) -> np.ndarray:
    """Noise-free effects of standard-basis readouts after stacked unitaries.

    Maps (..., 4, 4) to (..., 4, 4, 4): effect k is the projector onto the
    conjugated row k of its unitary.
    """
    unitaries = np.asarray(unitaries)
    return unitaries.conj()[..., :, :, None] * unitaries[..., :, None, :]


def povm_stack(params, noise: NoiseModel) -> np.ndarray:
    """Effective POVMs of stacked measurements with a noisy entangler.

    ``params`` has shape (n, 15) in the slot order of
    :data:`~noisyqst.gates.SLOT_NAMES`, with Heisenberg durations already
    canonicalized.  Returns the effects (n, 4, 4, 4), from which
    :mod:`~noisyqst.quality` derives the per-effect scales q, Q and Q_N.

    Readout projectors are pulled back through the pre-readout single-qubit
    layer into the entangler's Bell frame, passed through the (self-adjoint)
    noise channel sitting at the entangler, then pulled back through the
    ideal entangler, diagonal there, and the first single-qubit layer.
    Single-qubit gates are taken error-free.
    """
    params = np.asarray(params, dtype=float)
    layers = measurement_layers(params, noise.interaction)
    return _layer_effects(layers, params[..., ENTANGLER_SLOTS], noise)


def _layer_effects(layers, weights, noise: NoiseModel) -> np.ndarray:
    """Effects (..., 4, 4, 4) of Bell-frame measurement layers (pre, phases, post), whose
    channels read the noise weights (..., 3) in place of the entangler parameters."""
    pre, phases, post = layers
    channel = channel_coefficients(np.asarray(weights, dtype=float)[..., None, :], noise)[:2]
    tail = (phases[..., :, None] * post)[..., None, :, :]  # diag(phases) . post, for 4 effects
    return frame_channel(ideal_effects(pre), *channel, tail)


def _require_interaction(interaction: str, noise: NoiseModel) -> None:
    if interaction != noise.interaction:
        raise ValueError(
            f"measurement uses {interaction!r} but noise model is {noise.interaction!r}"
        )
