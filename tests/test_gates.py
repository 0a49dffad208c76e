import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.linalg import expm

from noisyqst.core import PAULI_X, PAULI_Y, PAULI_Z, assert_unitary
from noisyqst.gates import (
    BELL_CONVENTIONAL,
    INTERACTIONS,
    CanonicalParams,
    HeisenbergTimes,
    MeasurementParams,
    QuorumParams,
    SingleQubitParams,
    canonical_two_qubit,
    entangling_time,
    heisenberg_two_qubit,
    measurement_unitary,
    nine_pauli_bases,
    single_qubit_gate,
    standard_mub_params,
)
from noisyqst.optimize import vector_to_quorum

from oracles import heisenberg_two_qubit_sequence, ising_two_qubit

MAGIC = np.array(
    [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]], dtype=complex
) / np.sqrt(2.0)


def _makhlin(u):
    v = MAGIC.conj().T @ u @ MAGIC
    m = v.T @ v
    det = np.linalg.det(u)
    return np.trace(m) ** 2 / (16 * det), (np.trace(m) ** 2 - np.trace(m @ m)) / (4 * det)


def _phase_gauged(u):
    # gauge by the first non-negligible entry; argmax would tie-break on
    # float noise when several entries share the largest modulus
    flat = u.ravel()
    anchor = flat[np.abs(flat) > 1e-8][0]
    return u * (np.abs(anchor) / anchor)


def _random_measurement(rng, interaction="heisenberg"):
    def sq():
        return SingleQubitParams(*rng.uniform(0, 2 * np.pi, 3))

    if interaction == "heisenberg":
        ent = HeisenbergTimes(*rng.uniform(0, 2, 3))
    else:
        ent = CanonicalParams(*rng.uniform(-np.pi / 2, np.pi / 2, 3))
    return MeasurementParams(sq(), sq(), ent, sq(), sq())


def test_single_qubit_gate_identity_and_unitarity():
    assert_allclose(single_qubit_gate(SingleQubitParams()), np.eye(2), atol=1e-15)
    u = single_qubit_gate(SingleQubitParams(np.pi / 4, 0, 0))
    assert_allclose(u, np.array([[1, 1], [-1, 1]]) / np.sqrt(2), atol=1e-15)
    assert_unitary(u, tol=1e-12)


def test_single_qubit_gate_u3_factor_entries():
    # The third MUB rotation: phi=pi/4, psi=0, chi=pi/2.
    u = single_qubit_gate(SingleQubitParams(np.pi / 4, 0.0, np.pi / 2))
    assert_allclose(u, np.array([[1, 1j], [1j, 1]]) / np.sqrt(2), atol=1e-14)


def test_canonical_identity_and_bell_phases():
    assert_allclose(canonical_two_qubit(CanonicalParams()), np.eye(4), atol=1e-15)
    u = canonical_two_qubit(CanonicalParams(0.0, 0.0, np.pi / 4))
    phases = np.diag(BELL_CONVENTIONAL.conj().T @ u @ BELL_CONVENTIONAL)
    expected = np.exp(-1j * np.pi / 4 * np.array([1, -1, 1, -1]))
    assert_allclose(phases, expected, atol=1e-14)


def test_canonical_commutes_with_xx_and_matches_expm():
    rng = np.random.default_rng(0)
    xx = np.kron(PAULI_X, PAULI_X)
    for _ in range(20):
        b = CanonicalParams(*rng.normal(size=3))
        u = canonical_two_qubit(b)
        assert np.max(np.abs(u @ xx - xx @ u)) < 1e-12
        h = (
            b.beta_x * np.kron(PAULI_X, PAULI_X)
            + b.beta_y * np.kron(PAULI_Y, PAULI_Y)
            + b.beta_z * np.kron(PAULI_Z, PAULI_Z)
        )
        assert np.max(np.abs(u - expm(-1j * h))) < 1e-12


def test_heisenberg_zero_collapses_to_identity():
    assert_allclose(heisenberg_two_qubit_sequence(HeisenbergTimes()), np.eye(4), atol=1e-14)
    assert_allclose(heisenberg_two_qubit(HeisenbergTimes()), np.eye(4), atol=1e-14)


def test_heisenberg_sequence_matches_diagonal_form():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = HeisenbergTimes(*rng.uniform(0, 2, 3))
        dev = np.max(np.abs(heisenberg_two_qubit_sequence(a) - heisenberg_two_qubit(a)))
        assert dev < 1e-12


def test_heisenberg_cnot_class_entangler():
    g1, g2 = _makhlin(heisenberg_two_qubit(HeisenbergTimes(0.5, 0.0, 0.5)))
    cnot = np.eye(4)[[0, 1, 3, 2]].astype(complex)
    c1, c2 = _makhlin(cnot)
    assert abs(g1 - c1) < 1e-12 and abs(g2 - c2) < 1e-12


def test_heisenberg_times_canonicalize_mod_two():
    a = HeisenbergTimes(2.5, -0.5, 4.0)
    assert a.as_tuple() == pytest.approx((0.5, 1.5, 0.0))
    assert_allclose(
        heisenberg_two_qubit(a), heisenberg_two_qubit(HeisenbergTimes(0.5, 1.5, 0.0)), atol=1e-14
    )


def test_ising_matches_canonical_up_to_phase():
    assert_allclose(ising_two_qubit(CanonicalParams()), np.eye(4), atol=1e-15)
    rng = np.random.default_rng(2)
    for _ in range(100):
        b = CanonicalParams(*rng.normal(size=3))
        dev = np.max(
            np.abs(_phase_gauged(ising_two_qubit(b)) - _phase_gauged(canonical_two_qubit(b)))
        )
        assert dev < 1e-12


def test_ising_mub_entangler_equals_heisenberg_one():
    u_ising = ising_two_qubit(CanonicalParams(0.0, np.pi / 4, 0.0))
    u_heis = heisenberg_two_qubit(HeisenbergTimes(0.5, 0.0, 0.5))
    assert np.max(np.abs(_phase_gauged(u_ising) - _phase_gauged(u_heis))) < 1e-12


def test_measurement_unitary_identity_and_random_unitarity():
    ident = SingleQubitParams()
    m = MeasurementParams(ident, ident, HeisenbergTimes(), ident, ident)
    assert_allclose(measurement_unitary(m), np.eye(4), atol=1e-14)
    rng = np.random.default_rng(3)
    for interaction in ("heisenberg", "ising"):
        for _ in range(20):
            u = measurement_unitary(_random_measurement(rng, interaction))
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_mub_u2_is_unbiased_to_standard_basis():
    quorum = standard_mub_params("heisenberg")
    u2 = measurement_unitary(quorum.measurements[1])
    assert np.max(np.abs(np.abs(u2) - 0.5)) < 1e-12


@pytest.mark.parametrize("interaction", ["heisenberg", "ising"])
def test_standard_mub_pairwise_unbiased(interaction):
    quorum = standard_mub_params(interaction)
    us = [measurement_unitary(m) for m in quorum.measurements]
    for i in range(5):
        for j in range(i + 1, 5):
            overlaps = np.abs(us[i] @ us[j].conj().T) ** 2
            assert np.max(np.abs(overlaps - 0.25)) < 1e-10


def test_standard_mub_entangling_times():
    heis = standard_mub_params("heisenberg")
    assert sum(entangling_time(m) for m in heis.measurements) == pytest.approx(2.0)
    assert entangling_time(heis.measurements[3]) == pytest.approx(1.0)
    ising = standard_mub_params("ising")
    assert sum(entangling_time(m) for m in ising.measurements) == pytest.approx(0.5)
    assert entangling_time(ising.measurements[3]) == pytest.approx(0.25)
    ident = SingleQubitParams()
    zero = MeasurementParams(ident, ident, HeisenbergTimes(), ident, ident)
    assert entangling_time(zero) == 0.0


def test_nine_pauli_bases_shape_and_product_structure():
    bases = nine_pauli_bases()
    assert len(bases) == 9
    assert_allclose(bases[-1], np.eye(4), atol=1e-14)  # zz combination
    for u in bases:
        for k in range(4):
            ket = u[k, :].conj()
            s = np.linalg.svd(ket.reshape(2, 2), compute_uv=False)
            assert s[1] < 1e-12  # Schmidt rank 1: product state


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=arrays(np.float64, 75, elements=st.floats(-2 * np.pi, 2 * np.pi)),
       interaction=st.sampled_from(INTERACTIONS))
def test_quorum_json_round_trip(x, interaction):
    quorum = vector_to_quorum(x, interaction)
    text = quorum.to_json()
    back = QuorumParams.from_json(text)
    assert back == quorum
    assert np.array_equal(back.to_array(), quorum.to_array())
    data = json.loads(text)
    assert data["interaction"] == interaction
    assert len(data["measurements"]) == 5
    assert set(data["measurements"][0]) == {"pre1", "pre2", "entangler", "post1", "post2"}


def test_quorum_validation_errors():
    quorum = standard_mub_params("heisenberg")
    with pytest.raises(ValueError):
        QuorumParams(measurements=quorum.measurements[:4])
    bad = json.loads(quorum.to_json())
    bad["measurements"][0]["pre1"] = [0.0, 0.0]
    with pytest.raises(ValueError):
        QuorumParams.from_dict(bad)
    for value in (float("nan"), float("inf")):
        bad["measurements"][0]["pre1"] = [0.0, value, 0.0]
        with pytest.raises(ValueError, match="finite"):
            QuorumParams.from_dict(bad)
