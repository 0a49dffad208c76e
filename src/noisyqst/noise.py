"""Noise channels for the entangling gate and the resulting effective POVMs.

Two channel families are supported.  The depolarizing channel shrinks the
traceless part of the state by q = exp(-zeta pi T), where T is the
normalized time the interaction is switched on.  Over-/under-rotation (OU)
models a Gaussian spread of each pulse angle: it dephases the state in the
Bell eigenframe of the entangler, with decay factors

    gamma_k = exp(-r alpha_k pi)     (Heisenberg pulses)
    gamma_k = exp(-2 r |beta_k|)     (Ising couplings)

Both channels commute with the ideal entangler and are unital and
self-adjoint.  The maps below are the one implementation of each channel:
they build the effective POVMs and the average gate fidelity alike.  The
channels' explicit Kraus sets are kept in tests/oracles.py, as the
independent reference the maps are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import (
    BELL_FRAMES,
    EIGENPHASE_COEFFS,
    ENTANGLER_SLOTS,
    HEISENBERG,
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
    return np.exp(-zeta * np.pi * entangling_time)


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
    """Dephasing factors of entangler parameters of shape (..., 3).

    exp(-r alpha_k pi) per Heisenberg pulse, exp(-2 r |beta_k|) per Ising
    coupling.
    """
    ent = np.asarray(ent, dtype=float)
    if interaction == HEISENBERG:
        return np.exp(-r * np.pi * ent)
    return np.exp(-2.0 * r * np.abs(ent))


# Entry [a, b] of the state in the entangler's Bell frame decays by gamma_k
# for every pulse or coupling k whose phase differs between Bell vectors a
# and b; table [a, b, k] marks those k.
_DEPHASED_BY = {
    name: coeffs[:, None, :] != coeffs[None, :, :] for name, coeffs in EIGENPHASE_COEFFS.items()
}


def apply_ou(rho: np.ndarray, gammas, interaction: str) -> np.ndarray:
    """Dephase stacked rho (..., 4, 4) in the entangler's Bell frame.

    ``gammas`` (..., 3) broadcasts against the stack.  The Bell-diagonal
    part is untouched; off-diagonal entries decay by products of gammas.
    """
    g = np.asarray(gammas, dtype=float)[..., None, None, :]
    pattern = np.prod(np.where(_DEPHASED_BY[interaction], g, 1.0), axis=-1)
    frame = BELL_FRAMES[interaction]
    rb = frame.conj().T @ rho @ frame
    return frame @ (pattern * rb) @ frame.conj().T


def _apply_channel(rho: np.ndarray, ent, noise: NoiseModel) -> np.ndarray:
    """The noise of entanglers with parameters ``ent`` (..., 3), broadcast against stacked rho."""
    if noise.channel == DEPOLARIZING:
        q = depolarizing_q(noise.strength, entangling_times(ent, noise.interaction))
        return apply_depolarizing(rho, q)
    return apply_ou(rho, ou_gammas(noise.strength, ent, noise.interaction), noise.interaction)


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
    ent = params[..., None, ENTANGLER_SLOTS]  # one entangler per measurement, for its 4 effects
    pre, entangler, post = measurement_layers(params, noise.interaction)
    if noise.channel == DEPOLARIZING:
        # The depolarizing channel commutes with every unitary, so it acts on the
        # ideal effects of the whole circuit: cheaper than pulling each one back.
        return _apply_channel(ideal_effects(pre @ entangler @ post), ent, noise)
    tail = (entangler @ post)[..., None, :, :]
    return tail.conj().swapaxes(-1, -2) @ _apply_channel(ideal_effects(pre), ent, noise) @ tail


def _require_interaction(interaction: str, noise: NoiseModel) -> None:
    if interaction != noise.interaction:
        raise ValueError(
            f"measurement uses {interaction!r} but noise model is {noise.interaction!r}"
        )
