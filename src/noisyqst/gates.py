"""Parametrized measurement circuits for two-qubit tomography.

A measurement is a unitary applied before a standard-basis readout.  Each
unitary factors as two single-qubit layers sandwiching one two-qubit
entangler:

    U = (pre1 x pre2) . U_tq . (post1 x post2)

where ``post`` acts first on the state and ``pre`` acts right before
readout.  The entangler is either the Heisenberg-exchange gate of three
SWAP^alpha pulses or the Ising realization of the canonical 4x4 gate
exp(-i sum_k beta_k sigma_k x sigma_k) by conjugated ZZ evolutions; both are
diagonal in their Bell frame, in which :func:`measurement_layers` holds each
measurement.  Every fact about an interaction is its :class:`Entangler`
record in ``ENTANGLERS``.

A quorum is five measurements, held as one (5, 15) array of real
parameters beside its interaction tag (:class:`QuorumParams`); the builders
below work on stacks of such rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import PAULI_I

HEISENBERG = "heisenberg"
ISING = "ising"
INTERACTIONS = (HEISENBERG, ISING)

# Bell vectors; |Phi+-> = (|00> +- |11>)/sqrt2, |Psi+-> = (|01> +- |10>)/sqrt2.
_PHI_P = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
_PSI_P = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2.0)
_PHI_M = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2.0)
_PSI_M = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)

# Conventional ordering diagonalizes the canonical gate; the resorted one
# diagonalizes the Heisenberg SWAP^alpha sequence.
BELL_CONVENTIONAL = np.column_stack([_PHI_P, _PSI_P, _PHI_M, _PSI_M])
BELL_SORTED = np.column_stack([_PSI_P, _PHI_P, _PHI_M, _PSI_M])


# Positions of the 4 single-qubit gates (pre1, pre2, post1, post2) and of
# the entangler within the 15 parameters of a measurement, and the names of
# the five triples in quorum files.
_SINGLE_SLOTS = np.array([[0, 1, 2], [3, 4, 5], [9, 10, 11], [12, 13, 14]])
ENTANGLER_SLOTS = slice(6, 9)
SLOT_NAMES = ("pre1", "pre2", "entangler", "post1", "post2")


@dataclass(frozen=True, eq=False)
class QuorumParams:
    """Five measurements forming a two-qubit quorum: an interaction and (5, 15) parameters.

    Row j of ``params`` holds measurement j's 15 reals as the triples
    ``SLOT_NAMES``: single-qubit angles (phi, psi, chi) for pre1, pre2, post1
    and post2, and the entangler's SWAP^alpha durations (Heisenberg) or
    canonical couplings beta (Ising).  Non-negative phases mod 2 pi, as the
    :class:`Entangler` record has them, are reduced: Heisenberg durations into
    [0, 2).  ``params`` is stored as a read-only copy.
    """

    interaction: str
    params: np.ndarray

    def __post_init__(self):
        if self.interaction not in INTERACTIONS:
            raise ValueError(f"unknown interaction {self.interaction!r}")
        params = np.array(self.params, dtype=float)
        if params.shape != (5, 15):
            raise ValueError(f"a quorum needs (5, 15) parameters, got shape {params.shape}")
        if not np.all(np.isfinite(params)):
            raise ValueError("quorum parameters must be finite")
        rec = ENTANGLERS[self.interaction]
        if min(rec.signs) > 0:  # non-negative phases, mod 2 pi
            # a tiny negative x rounds to the period under one %; the second folds it onto 0
            period = 2.0 * rec.half_turn
            params[:, ENTANGLER_SLOTS] = params[:, ENTANGLER_SLOTS] % period % period
        params.flags.writeable = False
        object.__setattr__(self, "params", params)

    def __eq__(self, other):
        if not isinstance(other, QuorumParams):
            return NotImplemented
        return self.interaction == other.interaction and np.array_equal(self.params, other.params)

    def to_array(self) -> np.ndarray:
        """The read-only (5, 15) parameter rows."""
        return self.params

    @property
    def measurements(self) -> tuple[tuple[np.ndarray, str], ...]:
        """One ``(row, interaction)`` pair per measurement, for :func:`measurement_unitary`."""
        return tuple((row, self.interaction) for row in self.params)

    def to_dict(self) -> dict:
        return {
            "interaction": self.interaction,
            "measurements": [
                {name: row[3 * i : 3 * i + 3].tolist() for i, name in enumerate(SLOT_NAMES)}
                for row in self.params
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "QuorumParams":
        interaction = data["interaction"]
        if interaction not in INTERACTIONS:
            raise ValueError(f"unknown interaction {interaction!r}")
        entries = data["measurements"]
        if len(entries) != 5:
            raise ValueError(f"expected 5 measurements, got {len(entries)}")
        rows = []
        for e in entries:
            row = []
            for key in SLOT_NAMES:
                vals = [float(x) for x in e[key]]
                if len(vals) != 3:
                    raise ValueError(f"field {key!r} must hold 3 reals")
                row += vals
            rows.append(row)
        return cls(interaction, rows)

    @classmethod
    def from_json(cls, text: str) -> "QuorumParams":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# gate construction
# ---------------------------------------------------------------------------
#
# The builders work on stacked parameter arrays, so one call constructs the
# gates of every measurement of a quorum; the single-gate functions below
# them are the one-element case.

class Entangler:
    """An interaction's entangler, diagonal in a Bell frame, and the range of its parameters.

    With parameters x (3,) the gate is frame . diag(e^(i rate S x)) . frame^dagger,
    S being ``coeffs`` (4, 3) and ``rate`` the phase per unit parameter: pi for
    SWAP^alpha pulses, -1 for canonical couplings beta.  Parameter k moves the
    eigenphase gap of Bell vectors a and b by 0, where ``dephased_by[a, b, k]``
    is false, or by ``dephasing_rate`` |x_k| = |rate| gap(S) |x_k|, gap(S) being
    the largest difference within a column of S.  A unit of entangling time is
    a phase of pi, so a parameter of ``half_turn`` = pi / |rate|.

    The refinement holds a parameter x as phases |rate| x, so that a unit step
    means the same in every coordinate: one part in [0, ``phase_bound``] per
    entry of ``signs``, x being sum(sign part) / |rate| and its noise weight
    sum(part) / |rate|; ``box`` is the range of x they span.  A Heisenberg
    pulse is one phase pi alpha in [0, 2 pi], alpha being taken mod 2 (held as
    alpha, the first step from the MUB seed lands every entangled pulse on 0, a
    singular quorum).  An Ising coupling is signed, beta = b+ - b- with b+- in
    [0, pi/2]: beta = 0 is no kink, and the box holds every optimum, since
    exp(-i pi/2 sigma x sigma) is local and local gates flip the signs of
    couplings only in pairs.  ``cnot`` is a CNOT-class entangler's parameters.
    """

    def __init__(self, frame: np.ndarray, coeffs: np.ndarray, rate: float, signs: tuple,
                 phase_bound: float, cnot: tuple):
        self.frame, self.coeffs, self.rate = frame, coeffs, rate
        self.signs, self.phase_bound, self.cnot = signs, phase_bound, cnot
        self.dephased_by = coeffs[:, None, :] != coeffs[None, :, :]
        # Python floats: a numpy scalar would warn where -r * rate overflows
        self.dephasing_rate = abs(rate) * float((coeffs.max(axis=0) - coeffs.min(axis=0)).max())
        self.half_turn = np.pi / abs(rate)
        self.box = tuple(phase_bound * sum(pick(s, 0) for s in signs) / abs(rate)
                         for pick in (min, max))


ENTANGLERS = {
    HEISENBERG: Entangler(BELL_SORTED, np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.pi,
        (1,), 2.0 * np.pi, (0.5, 0.0, 0.5)),
    ISING: Entangler(BELL_CONVENTIONAL, np.array(
        [[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]), -1.0,
        (1, -1), np.pi / 2, (0.0, np.pi / 4, 0.0)),
}


def single_qubit_gates(angles) -> np.ndarray:
    """Single-qubit gates of angles (..., 3) = (phi, psi, chi), shape (..., 2, 2).

    Each is [[cos(phi) e^(i psi), sin(phi) e^(i chi)],
             [-sin(phi) e^(-i chi), cos(phi) e^(-i psi)]].
    """
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles[..., 0]), np.sin(angles[..., 0])
    phases = np.exp(1j * angles[..., 1:])
    e_psi, e_chi = phases[..., 0], phases[..., 1]
    out = np.empty(angles.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = c * e_psi
    out[..., 0, 1] = s * e_chi
    out[..., 1, 0] = -s * e_chi.conj()
    out[..., 1, 1] = c * e_psi.conj()
    return out


def single_qubit_gate(angles) -> np.ndarray:
    """2x2 gate of one angle triple; see :func:`single_qubit_gates`."""
    return single_qubit_gates(angles)


def single_qubit_gate_derivatives(angles) -> np.ndarray:
    """Derivatives of :func:`single_qubit_gates` by (phi, psi, chi), shape (..., 3, 2, 2)."""
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles[..., 0]), np.sin(angles[..., 0])
    phases = np.exp(1j * angles[..., 1:])
    e_psi, e_chi = phases[..., 0], phases[..., 1]
    out = np.zeros(angles.shape[:-1] + (3, 2, 2), dtype=complex)
    out[..., 0, 0, 0] = -s * e_psi
    out[..., 0, 0, 1] = c * e_chi
    out[..., 0, 1, 0] = -c * e_chi.conj()
    out[..., 0, 1, 1] = -s * e_psi.conj()
    out[..., 1, 0, 0] = 1j * c * e_psi
    out[..., 1, 1, 1] = -1j * c * e_psi.conj()
    out[..., 2, 0, 1] = 1j * s * e_chi
    out[..., 2, 1, 0] = 1j * s * e_chi.conj()
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of stacked 2x2 matrices whose stacks broadcast, shape (..., 4, 4)."""
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(*product.shape[:-4], 4, 4)


def _eigenphases(ent, interaction: str) -> np.ndarray:
    """Bell-frame eigenvalues e^(i rate S x) (..., 4) of entanglers of parameters x (..., 3)."""
    rec = ENTANGLERS[interaction]
    return np.exp(1j * rec.rate * (np.asarray(ent, dtype=float) @ rec.coeffs.T))


def entanglers(ent, interaction: str) -> np.ndarray:
    """Entangling gates built spectrally in their Bell frame; see :class:`Entangler`.

    ``ent`` has shape (..., 3): SWAP^alpha durations (Heisenberg, taken as
    given, i.e. already canonicalized) or canonical couplings beta (Ising,
    exp(-i sum_k beta_k sigma_k x sigma_k)).  The result has shape (..., 4, 4).
    """
    frame = ENTANGLERS[interaction].frame
    return (frame * _eigenphases(ent, interaction)[..., None, :]) @ frame.conj().T


def measurement_layers(params, interaction: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked measurements in their entangler's Bell frame F: (pre, phases, post).

    ``params`` has shape (..., 15) in the slot order of ``SLOT_NAMES``.  The
    unitary (pre1 x pre2) . entangler . (post1 x post2) is pre . diag(phases) . post,
    with pre = (pre1 x pre2) . F and post = F^dagger . (post1 x post2) of shape
    (..., 4, 4), and the entangler's eigenphases e^(i rate S x) of shape (..., 4).
    """
    params = np.asarray(params, dtype=float)
    frame = ENTANGLERS[interaction].frame
    gates = single_qubit_gates(params[..., _SINGLE_SLOTS])
    layers = _kron(gates[..., 0::2, :, :], gates[..., 1::2, :, :])
    phases = _eigenphases(params[..., ENTANGLER_SLOTS], interaction)
    return layers[..., 0, :, :] @ frame, phases, frame.conj().T @ layers[..., 1, :, :]


def measurement_layer_derivatives(params, interaction: str):
    """Derivatives of the three factors of :func:`measurement_layers` by their own parameters.

    Returns (d pre, d phases, d post) of shapes (..., 6, 4, 4), (..., 3, 4) and
    (..., 6, 4, 4), by parameters 0-5, 6-8 and 9-14 of ``SLOT_NAMES`` order.  The
    phases e^(i phi), phi = rate S x, have d/dx_m = i rate S_m e^(i phi).
    """
    params = np.asarray(params, dtype=float)
    rec = ENTANGLERS[interaction]
    angles = params[..., _SINGLE_SLOTS]
    gates = single_qubit_gates(angles)[..., None, :, :]
    dgates = single_qubit_gate_derivatives(angles)
    # d(a x b) = da x b + a x db, for (pre1, pre2) and (post1, post2)
    dlayers = np.concatenate([_kron(dgates[..., 0::2, :, :, :], gates[..., 1::2, :, :, :]),
                              _kron(gates[..., 0::2, :, :, :], dgates[..., 1::2, :, :, :])], axis=-3)
    phases = _eigenphases(params[..., ENTANGLER_SLOTS], interaction)
    dphases = 1j * rec.rate * rec.coeffs.T * phases[..., None, :]
    return (dlayers[..., 0, :, :, :] @ rec.frame, dphases,
            rec.frame.conj().T @ dlayers[..., 1, :, :, :])


def measurement_unitary(m) -> np.ndarray:
    """Unitary (pre1 x pre2) . entangler . (post1 x post2) of one ``(row, interaction)`` pair."""
    row, interaction = m
    pre1, pre2, post1, post2 = (single_qubit_gate(row[slots]) for slots in _SINGLE_SLOTS)
    return _kron(pre1, pre2) @ entanglers(row[ENTANGLER_SLOTS], interaction) @ _kron(post1, post2)


def entangling_times(ent, interaction: str) -> np.ndarray:
    """Normalized time the interaction is on, for entangler parameters of shape (..., 3).

    Each parameter x_k contributes |x_k| / half_turn: a Heisenberg pulse its
    duration alpha, an Ising coupling beta, a phase, |beta| / pi.
    """
    return np.abs(np.asarray(ent, dtype=float)).sum(axis=-1) / ENTANGLERS[interaction].half_turn


# ---------------------------------------------------------------------------
# reference measurement sets
# ---------------------------------------------------------------------------

_Q, _H = np.pi / 4, np.pi / 2

# Rows 3 and 4 take the interaction's CNOT-class entangler.
_MUB_TABLE = np.array([
    # pre1            pre2             entangler      post1          post2
    [0.0, 0.0, 0.0,   0.0, 0.0, 0.0,   0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [_Q, 0.0, 0.0,    _Q, 0.0, 0.0,    0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [_Q, 0.0, _H,     _Q, 0.0, _H,     0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, _Q, 0.0,    -_H, 0.0, _Q,    0.0, 0.0, 0.0, 0.0, 0.0, 0.0, _Q, np.pi, -np.pi],
    [_Q, _Q, _Q,      0.0, _Q, 0.0,    0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
])


def standard_mub_params(interaction: str) -> QuorumParams:
    """The five-measurement MUB quorum with minimal entangling time.

    Three product-basis measurements plus two that use one CNOT-class
    entangler each: SWAP^(1/2) pulses (alpha = (1/2, 0, 1/2)) for the
    Heisenberg interaction, a single beta_y = pi/4 coupling for Ising.
    """
    if interaction not in INTERACTIONS:
        raise ValueError(f"unknown interaction {interaction!r}")
    params = _MUB_TABLE.copy()
    params[3:, ENTANGLER_SLOTS] = ENTANGLERS[interaction].cnot
    return QuorumParams(interaction, params)


# The starts of optimize.optimize_quorum's search: this MUB quorum, or
# random quorums in the entanglers' parameter boxes.  Kept here so that
# the command line can offer them without importing the optimizer.
STRATEGIES = ("mub-seeded", "multistart")


# Basis-change rotations: rows are the bras of the x/y/z eigenstates, so a
# standard-basis readout after the rotation measures that Pauli basis.
_X_ROTATION, _Y_ROTATION = single_qubit_gates([[_Q, 0.0, 0.0], [_Q, 0.0, -_H]])
PAULI_BASIS_ROTATIONS = {"x": _X_ROTATION, "y": _Y_ROTATION, "z": PAULI_I}


def nine_pauli_bases() -> list[np.ndarray]:
    """Entanglement-free reference set: all nine per-qubit x/y/z combinations."""
    order = ("x", "y", "z")
    return [
        np.kron(PAULI_BASIS_ROTATIONS[a], PAULI_BASIS_ROTATIONS[b])
        for a in order
        for b in order
    ]
