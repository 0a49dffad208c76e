"""Noise channels for the entangling gate and the resulting effective POVMs.

Two channel families are supported.  The depolarizing channel shrinks the
traceless part of the state by q = exp(-zeta pi T), where T is the
normalized time the interaction is switched on.  Over-/under-rotation (OU)
models a Gaussian spread of each pulse angle: it dephases the state in the
Bell eigenframe of the entangler, with decay factors

    gamma_k = exp(-r alpha_k pi)     (Heisenberg pulses)
    gamma_k = exp(-2 r |beta_k|)     (Ising couplings)

Both channels commute with the ideal entangler, are unital and self-adjoint,
and have explicit diagonal Kraus sets which are used to cross-check the map
form and to evaluate average gate fidelities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PAULIS
from .gates import (
    BELL_CONVENTIONAL,
    BELL_FRAMES,
    BELL_SORTED,
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

KrausSet = list[np.ndarray]

_EYE4 = np.eye(4, dtype=complex)


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
        if not self.strength >= 0.0:
            raise ValueError(f"noise strength must be >= 0, got {self.strength}")

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


def kraus_depolarizing(q: float) -> KrausSet:
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


def kraus_ou_heisenberg(gammas: np.ndarray) -> KrausSet:
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


def kraus_ou_ising(gammas: np.ndarray) -> KrausSet:
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


def assert_kraus_complete(ops: KrausSet, tol: float = 1e-10) -> None:
    d = ops[0].shape[0]
    total = sum(m.conj().T @ m for m in ops)
    dev = np.max(np.abs(total - np.eye(d)))
    if not dev < tol:
        raise ValueError(f"Kraus set not complete (deviation {dev:.3e})")


def average_gate_fidelity(ops: KrausSet) -> float:
    """Haar-average fidelity (sum_k |Tr M_k|^2 + d) / (d^2 + d) of a residual channel."""
    assert_kraus_complete(ops)
    d = ops[0].shape[0]
    s = sum(abs(np.trace(m)) ** 2 for m in ops)
    return float((s + d) / (d * d + d))


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


def _require_nondegenerate(qs: np.ndarray) -> None:
    if np.any(qs <= 1e-12):
        j, k = np.argwhere(qs <= 1e-12)[0]
        raise DegeneratePovmError(
            f"effect {k} of measurement {j} is fully depolarized (q={qs[j, k]:.3e})"
        )


def povm_stack(params, noise: NoiseModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Effective POVMs of stacked measurements with a noisy entangler.

    ``params`` has shape (n, 15) in the slot order of
    :data:`~noisyqst.gates.SLOT_NAMES`, with Heisenberg durations already
    canonicalized.  Returns the effects (n, 4, 4, 4), the
    per-effect scales q (n, 4) and the nominal projectors (n, 4, 4, 4) of
    the decomposition F_k = q_k (P_k - 1/4) + 1/4.

    Readout projectors are pulled back through the pre-readout single-qubit
    layer, passed through the (self-adjoint) noise channel sitting at the
    entangler, then pulled back through the ideal entangler and the first
    single-qubit layer.  Single-qubit gates are taken error-free.  The
    depolarizing channel commutes with every unitary, so its nominal
    projectors are the ideal ones and its q is one scalar per measurement.
    """
    params = np.asarray(params, dtype=float)
    ent = params[..., ENTANGLER_SLOTS]
    pre, entangler, post = measurement_layers(params, noise.interaction)
    if noise.channel == DEPOLARIZING:
        q = depolarizing_q(noise.strength, entangling_times(ent, noise.interaction))
        qs = np.repeat(q[..., None], 4, axis=-1)
        _require_nondegenerate(qs)
        nominal = ideal_effects(pre @ entangler @ post)
        return apply_depolarizing(nominal, qs), qs, nominal
    tail = (entangler @ post)[..., None, :, :]
    gammas = ou_gammas(noise.strength, ent, noise.interaction)[..., None, :]
    dephased = apply_ou(ideal_effects(pre), gammas, noise.interaction)
    effects = tail.conj().swapaxes(-1, -2) @ dephased @ tail
    traceless = effects - _EYE4 / 4.0
    qs = np.sqrt((4.0 / 3.0) * np.sum(np.abs(traceless) ** 2, axis=(-2, -1)))
    _require_nondegenerate(qs)
    return effects, qs, traceless / qs[..., None, None] + _EYE4 / 4.0


def _require_interaction(interaction: str, noise: NoiseModel) -> None:
    if interaction != noise.interaction:
        raise ValueError(
            f"measurement uses {interaction!r} but noise model is {noise.interaction!r}"
        )
