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

Both channels commute with the ideal entangler and are unital and
self-adjoint.  The maps below are the one implementation of each channel:
they build the effective POVMs and the average gate fidelity alike, and
:func:`channel_derivatives` differentiates them by the noise weights.  The
channels' explicit Kraus sets are kept in tests/oracles.py, as the
independent reference the maps are checked against.
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
# depolarizing channel
# ---------------------------------------------------------------------------

def depolarizing_q(zeta: float, entangling_time):
    """Survival probability exp(-zeta pi T) of the traceless part; T may be an array."""
    entangling_time = np.asarray(entangling_time, dtype=float)
    if zeta < 0 or np.any(entangling_time < 0):
        raise ValueError("zeta and entangling time must be >= 0")
    rate = -float(zeta) * np.pi  # a Python float: -inf, not a numpy warning, where it overflows
    if rate == -np.inf:  # and -inf * 0 would be NaN at a zero entangling time
        raise ValueError(f"depolarizing strength {zeta} is too large: zeta pi overflows")
    return np.exp(rate * entangling_time)


def apply_depolarizing(rho: np.ndarray, q) -> np.ndarray:
    """q rho + (1 - q) Tr(rho) 1/d, for stacked rho (..., d, d) and q broadcast over the stack."""
    q = np.asarray(q, dtype=float)
    if not np.all((0.0 <= q) & (q <= 1.0)):
        raise ValueError(f"q must lie in [0, 1], got {q}")
    d = rho.shape[-1]
    mixed = (1.0 - q) * np.einsum("...ii->...", rho)
    return q[..., None, None] * rho + mixed[..., None, None] * np.eye(d) / d


# ---------------------------------------------------------------------------
# over-/under-rotation channel
# ---------------------------------------------------------------------------

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
    return np.exp(rate * np.abs(ent))


def apply_ou(rho: np.ndarray, gammas, interaction: str) -> np.ndarray:
    """Dephase stacked rho (..., 4, 4) in the entangler's Bell frame.

    ``gammas`` (..., 3) broadcasts against the stack.  The Bell-diagonal
    part is untouched; entry [a, b] decays by the product of the gammas of
    the parameters that move the eigenphase gap of a and b.
    """
    rec = ENTANGLERS[interaction]
    g = np.asarray(gammas, dtype=float)[..., None, None, :]
    pattern = np.prod(np.where(rec.dephased_by, g, 1.0), axis=-1)
    rb = rec.frame.conj().T @ rho @ rec.frame
    return rec.frame @ (pattern * rb) @ rec.frame.conj().T


def _apply_channel(rho: np.ndarray, ent, noise: NoiseModel) -> np.ndarray:
    """The noise of entanglers with parameters ``ent`` (..., 3), broadcast against stacked rho."""
    if noise.channel == DEPOLARIZING:
        q = depolarizing_q(noise.strength, entangling_times(ent, noise.interaction))
        return apply_depolarizing(rho, q)
    return apply_ou(rho, ou_gammas(noise.strength, ent, noise.interaction), noise.interaction)


def channel_derivatives(rho: np.ndarray, weights, noise: NoiseModel) -> np.ndarray:
    """Derivatives of the channel by its three noise weights, applied to stacked rho (..., 4, 4).

    The weights (..., 3) >= 0 stand where the channel reads the entangler's
    parameters: pulse durations alpha, or coupling magnitudes |beta|.  Each
    weight m enters through one log-rate, d ln q / dw_m = -zeta |rate|
    for the depolarizing q, and d ln gamma_m / dw_m = -r |rate| gap(S) for
    OU.  Returns shape (..., 3, 4, 4).
    """
    weights = np.asarray(weights, dtype=float)
    rec = ENTANGLERS[noise.interaction]
    if noise.channel == DEPOLARIZING:
        # d/dw_m [q rho + (1 - q) Tr(rho) 1/4] = q d(ln q)/dw_m (rho - Tr(rho) 1/4)
        q = depolarizing_q(noise.strength, entangling_times(weights, noise.interaction))
        rate = -noise.strength * abs(rec.rate)
        traceless = rho - np.einsum("...ii->...", rho)[..., None, None] * np.eye(4) / 4.0
        return np.repeat((rate * q)[..., None, None, None] * traceless[..., None, :, :], 3, axis=-3)
    rate = -noise.strength * rec.dephasing_rate
    g = ou_gammas(noise.strength, weights, noise.interaction)[..., None, None, :]
    pattern = np.prod(np.where(rec.dephased_by, g, 1.0), axis=-1)
    # d pattern / dw_m = pattern * [m dephases the entry] * d(ln gamma_m)/dw_m
    dpattern = np.moveaxis(rate * rec.dephased_by * pattern[..., None], -1, -3)
    rb = (rec.frame.conj().T @ rho @ rec.frame)[..., None, :, :]
    return rec.frame @ (dpattern * rb) @ rec.frame.conj().T


# ---------------------------------------------------------------------------
# average gate fidelity
# ---------------------------------------------------------------------------

def average_gate_fidelity(noise: NoiseModel, ent) -> float:
    """Haar-average fidelity of the noise on an entangler with parameters ``ent`` (3,).

    The channel map acts once on the 16 matrix units |i><j|, stacked
    (16, 4, 4), and F = (sum_ij <i|E(|i><j|)|j> + d) / (d^2 + d) with d = 4.
    """
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)  # |i><j| at index 4 i + j
    out = _apply_channel(units, ent, noise)
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
    layer, passed through the (self-adjoint) noise channel sitting at the
    entangler, then pulled back through the ideal entangler and the first
    single-qubit layer.  Single-qubit gates are taken error-free.
    """
    params = np.asarray(params, dtype=float)
    layers = measurement_layers(params, noise.interaction)
    return _layer_effects(layers, params[..., ENTANGLER_SLOTS], noise)


def _layer_effects(layers, weights, noise: NoiseModel) -> np.ndarray:
    """Effects (..., 4, 4, 4) of measurement layers (pre, entangler, post) whose
    channels read the noise weights (..., 3) in place of the entangler parameters."""
    pre, entangler, post = layers
    weights = np.asarray(weights, dtype=float)[..., None, :]  # one channel for the 4 effects
    if noise.channel == DEPOLARIZING:
        # The depolarizing channel commutes with every unitary, so it acts on the
        # ideal effects of the whole circuit: cheaper than pulling each one back.
        return _apply_channel(ideal_effects(pre @ entangler @ post), weights, noise)
    tail = (entangler @ post)[..., None, :, :]
    return tail.conj().swapaxes(-1, -2) @ _apply_channel(ideal_effects(pre), weights, noise) @ tail


def _require_interaction(interaction: str, noise: NoiseModel) -> None:
    if interaction != noise.interaction:
        raise ValueError(
            f"measurement uses {interaction!r} but noise model is {noise.interaction!r}"
        )
