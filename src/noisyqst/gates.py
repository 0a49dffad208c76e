"""Parametrized measurement circuits for two-qubit tomography.

A measurement is a unitary applied before a standard-basis readout.  Each
unitary factors as two single-qubit layers sandwiching one two-qubit
entangler:

    U = (pre1 x pre2) . U_tq . (post1 x post2)

where ``post`` acts first on the state and ``pre`` acts right before
readout.  The entangler is either the Heisenberg-exchange gate of three
SWAP^alpha pulses or the Ising realization of the canonical 4x4 gate
exp(-i sum_k beta_k sigma_k x sigma_k) by conjugated ZZ evolutions; both are
built spectrally in their Bell frame.  The corresponding parameter bundles
carry the interaction tag.
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


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleQubitParams:
    """Angles (phi, psi, chi) of a general single-qubit gate."""

    phi: float = 0.0
    psi: float = 0.0
    chi: float = 0.0

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.phi, self.psi, self.chi)


@dataclass(frozen=True)
class CanonicalParams:
    """Canonical two-qubit couplings (beta_x, beta_y, beta_z); Ising-tagged."""

    beta_x: float = 0.0
    beta_y: float = 0.0
    beta_z: float = 0.0

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.beta_x, self.beta_y, self.beta_z)


@dataclass(frozen=True)
class HeisenbergTimes:
    """Normalized SWAP^alpha pulse durations, canonicalized into [0, 2).

    The Bell-diagonal phases e^(i alpha pi) are 2-periodic in each alpha,
    so the constructor reduces each component mod 2.
    """

    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "alpha3"):
            object.__setattr__(self, name, float(getattr(self, name)) % 2.0)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha1, self.alpha2, self.alpha3)


Entangler = CanonicalParams | HeisenbergTimes


@dataclass(frozen=True)
class MeasurementParams:
    """15 real parameters of one measurement unitary."""

    pre1: SingleQubitParams
    pre2: SingleQubitParams
    entangler: Entangler
    post1: SingleQubitParams
    post2: SingleQubitParams

    @property
    def interaction(self) -> str:
        return HEISENBERG if isinstance(self.entangler, HeisenbergTimes) else ISING

    def to_array(self) -> np.ndarray:
        """The 15 reals in slot order pre1, pre2, entangler, post1, post2."""
        fields = (self.pre1, self.pre2, self.entangler, self.post1, self.post2)
        return np.array([v for f in fields for v in f.as_tuple()])

    @classmethod
    def from_array(cls, row, interaction: str) -> "MeasurementParams":
        """Inverse of :meth:`to_array`; Heisenberg durations are reduced mod 2."""
        row = [float(v) for v in row]
        ent_type = HeisenbergTimes if interaction == HEISENBERG else CanonicalParams
        return cls(
            pre1=SingleQubitParams(*row[0:3]),
            pre2=SingleQubitParams(*row[3:6]),
            entangler=ent_type(*row[6:9]),
            post1=SingleQubitParams(*row[9:12]),
            post2=SingleQubitParams(*row[12:15]),
        )


@dataclass(frozen=True)
class QuorumParams:
    """Five measurements forming a non-degenerate two-qubit quorum."""

    measurements: tuple[MeasurementParams, ...]

    def __post_init__(self):
        if len(self.measurements) != 5:
            raise ValueError(f"a quorum needs exactly 5 measurements, got {len(self.measurements)}")
        tags = {m.interaction for m in self.measurements}
        if len(tags) != 1:
            raise ValueError("all measurements in a quorum must share one interaction type")

    @property
    def interaction(self) -> str:
        return self.measurements[0].interaction

    def to_array(self) -> np.ndarray:
        """(5, 15) parameter rows, one :meth:`MeasurementParams.to_array` per measurement."""
        return np.stack([m.to_array() for m in self.measurements])

    @classmethod
    def from_array(cls, params, interaction: str) -> "QuorumParams":
        return cls(measurements=tuple(MeasurementParams.from_array(row, interaction)
                                      for row in params))

    def to_dict(self) -> dict:
        return {
            "interaction": self.interaction,
            "measurements": [
                {
                    "pre1": list(m.pre1.as_tuple()),
                    "pre2": list(m.pre2.as_tuple()),
                    "entangler": list(m.entangler.as_tuple()),
                    "post1": list(m.post1.as_tuple()),
                    "post2": list(m.post2.as_tuple()),
                }
                for m in self.measurements
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
            for key in ("pre1", "pre2", "entangler", "post1", "post2"):
                vals = [float(x) for x in e[key]]
                if len(vals) != 3:
                    raise ValueError(f"field {key!r} must hold 3 reals")
                row += vals
            rows.append(row)
        if not np.all(np.isfinite(rows)):
            raise ValueError("quorum parameters must be finite")
        return cls.from_array(rows, interaction)

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

# Bell frame in which each interaction's entangler is diagonal, and the
# coefficients of its eigenphases: the Heisenberg gate has phases
# e^(i pi S alpha), the canonical (Ising) gate e^(-i S beta).
BELL_FRAMES = {HEISENBERG: BELL_SORTED, ISING: BELL_CONVENTIONAL}
EIGENPHASE_COEFFS = {
    HEISENBERG: np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ISING: np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]),
}

_FRAMES_INVERSE = {name: frame.conj().T for name, frame in BELL_FRAMES.items()}

# Positions of the 4 single-qubit gates (pre1, pre2, post1, post2) and of
# the entangler within the 15 parameters of a measurement.
_SINGLE_SLOTS = np.array([[0, 1, 2], [3, 4, 5], [9, 10, 11], [12, 13, 14]])
ENTANGLER_SLOTS = slice(6, 9)


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


def single_qubit_gate(p: SingleQubitParams) -> np.ndarray:
    """2x2 gate of one parameter triple; see :func:`single_qubit_gates`."""
    return single_qubit_gates(p.as_tuple())


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of stacked 2x2 matrices, shape (..., 4, 4)."""
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*a.shape[:-2], 4, 4)


def entanglers(ent, interaction: str) -> np.ndarray:
    """Entangling gates built spectrally in their Bell frame.

    ``ent`` has shape (..., 3): SWAP^alpha durations (Heisenberg, taken as
    given, i.e. already canonicalized) or canonical couplings beta (Ising,
    exp(-i sum_k beta_k sigma_k x sigma_k)).  The result has shape (..., 4, 4).
    """
    eta = np.asarray(ent, dtype=float) @ EIGENPHASE_COEFFS[interaction].T
    phases = np.exp(1j * np.pi * eta) if interaction == HEISENBERG else np.exp(-1j * eta)
    frame = BELL_FRAMES[interaction]
    return (frame * phases[..., None, :]) @ _FRAMES_INVERSE[interaction]


def canonical_two_qubit(b: CanonicalParams) -> np.ndarray:
    """exp(-i sum_k beta_k sigma_k x sigma_k), built spectrally in the Bell basis."""
    return entanglers(b.as_tuple(), ISING)


def heisenberg_two_qubit(a: HeisenbergTimes) -> np.ndarray:
    """Heisenberg entangler diag(1, e^(i a1 pi), e^(i a2 pi), e^(i a3 pi)) in the resorted Bell basis."""
    return entanglers(a.as_tuple(), HEISENBERG)


def entangler_matrix(ent: Entangler) -> np.ndarray:
    interaction = HEISENBERG if isinstance(ent, HeisenbergTimes) else ISING
    return entanglers(ent.as_tuple(), interaction)


def measurement_layers(params, interaction: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three factors (pre1 x pre2, entangler, post1 x post2) of stacked measurements.

    ``params`` has shape (..., 15) in the slot order of
    :meth:`MeasurementParams.to_array`; each factor has shape (..., 4, 4).
    """
    params = np.asarray(params, dtype=float)
    gates = single_qubit_gates(params[..., _SINGLE_SLOTS])
    layers = _kron(gates[..., 0::2, :, :], gates[..., 1::2, :, :])
    pre, post = layers[..., 0, :, :], layers[..., 1, :, :]
    return pre, entanglers(params[..., ENTANGLER_SLOTS], interaction), post


def measurement_unitary(m: MeasurementParams) -> np.ndarray:
    """Full measurement unitary (pre1 x pre2) . entangler . (post1 x post2)."""
    pre = _kron(single_qubit_gate(m.pre1), single_qubit_gate(m.pre2))
    post = _kron(single_qubit_gate(m.post1), single_qubit_gate(m.post2))
    return pre @ entangler_matrix(m.entangler) @ post


def entangling_times(ent, interaction: str) -> np.ndarray:
    """Normalized time the interaction is on, for entangler parameters of shape (..., 3).

    Heisenberg pulses contribute their alpha directly; each Ising coupling
    beta is a phase, so its normalized duration is |beta| / pi.
    """
    ent = np.asarray(ent, dtype=float)
    if interaction == HEISENBERG:
        return ent.sum(axis=-1)
    return np.abs(ent).sum(axis=-1) / np.pi


def entangling_time(m: MeasurementParams) -> float:
    """Normalized time the two-qubit interaction is on for this measurement."""
    return float(entangling_times(m.entangler.as_tuple(), m.interaction))


def _reflect_unit(x):
    """Triangle wave mapping the real line onto [0, 2] with period 4."""
    return 2.0 - np.abs(2.0 - (x % 4.0))


def quorum_array(x, interaction: str) -> np.ndarray:
    """(5, 15) parameter rows of a flat 75-vector.

    Heisenberg entangler slots are reflected into [0, 2] and then reduced
    mod 2, as :class:`HeisenbergTimes` does, so a bounded optimizer sees a
    continuous parametrization of the pulse durations.
    """
    params = np.array(x, dtype=float)
    if params.shape != (75,):
        raise ValueError(f"expected 75 parameters, got shape {params.shape}")
    params = params.reshape(5, 15)
    if interaction == HEISENBERG:
        params[:, ENTANGLER_SLOTS] = _reflect_unit(params[:, ENTANGLER_SLOTS]) % 2.0
    return params


# ---------------------------------------------------------------------------
# reference measurement sets
# ---------------------------------------------------------------------------

_ID = SingleQubitParams()


def standard_mub_params(interaction: str) -> QuorumParams:
    """The five-measurement MUB quorum with minimal entangling time.

    Three product-basis measurements plus two that use one CNOT-class
    entangler each: SWAP^(1/2) pulses (alpha = (1/2, 0, 1/2)) for the
    Heisenberg interaction, a single beta_y = pi/4 coupling for Ising.
    """
    if interaction not in INTERACTIONS:
        raise ValueError(f"unknown interaction {interaction!r}")
    if interaction == HEISENBERG:
        ent: Entangler = HeisenbergTimes(0.5, 0.0, 0.5)
        zero: Entangler = HeisenbergTimes()
    else:
        ent = CanonicalParams(0.0, np.pi / 4, 0.0)
        zero = CanonicalParams()
    q = np.pi / 4
    ms = (
        MeasurementParams(_ID, _ID, zero, _ID, _ID),
        MeasurementParams(SingleQubitParams(q), SingleQubitParams(q), zero, _ID, _ID),
        MeasurementParams(
            SingleQubitParams(q, 0.0, np.pi / 2),
            SingleQubitParams(q, 0.0, np.pi / 2),
            zero,
            _ID,
            _ID,
        ),
        MeasurementParams(
            SingleQubitParams(0.0, q, 0.0),
            SingleQubitParams(-np.pi / 2, 0.0, q),
            ent,
            _ID,
            SingleQubitParams(q, np.pi, -np.pi),
        ),
        MeasurementParams(
            SingleQubitParams(q, q, q),
            SingleQubitParams(0.0, q, 0.0),
            ent,
            _ID,
            _ID,
        ),
    )
    return QuorumParams(measurements=ms)


# Basis-change rotations: rows are the bras of the x/y/z eigenstates, so a
# standard-basis readout after the rotation measures that Pauli basis.
PAULI_BASIS_ROTATIONS = {
    "x": single_qubit_gate(SingleQubitParams(np.pi / 4, 0.0, 0.0)),
    "y": single_qubit_gate(SingleQubitParams(np.pi / 4, 0.0, -np.pi / 2)),
    "z": PAULI_I,
}


def nine_pauli_bases() -> list[np.ndarray]:
    """Entanglement-free reference set: all nine per-qubit x/y/z combinations."""
    order = ("x", "y", "z")
    return [
        np.kron(PAULI_BASIS_ROTATIONS[a], PAULI_BASIS_ROTATIONS[b])
        for a in order
        for b in order
    ]
