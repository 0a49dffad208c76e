import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.linalg import expm

from noisyqst.core import PAULI_X, PAULI_Y, PAULI_Z
from noisyqst.gates import (
    BELL_CONVENTIONAL,
    ENTANGLER_SLOTS,
    HEISENBERG,
    INTERACTIONS,
    ISING,
    QuorumParams,
    entanglers,
    entangling_times,
    measurement_layer_derivatives,
    measurement_layers,
    measurement_unitary,
    nine_pauli_bases,
    single_qubit_gate,
    standard_mub_params,
)

from oracles import assert_unitary, heisenberg_two_qubit_sequence, ising_two_qubit

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
    """One ``(row, interaction)`` measurement with uniform angles and entangler."""
    row = rng.uniform(0, 2 * np.pi, 15)
    if interaction == "heisenberg":
        row[ENTANGLER_SLOTS] = rng.uniform(0, 2, 3)
    else:
        row[ENTANGLER_SLOTS] = rng.uniform(-np.pi / 2, np.pi / 2, 3)
    return row, interaction


def test_single_qubit_gate_identity_and_unitarity():
    assert_allclose(single_qubit_gate((0.0, 0.0, 0.0)), np.eye(2), atol=1e-15)
    u = single_qubit_gate((np.pi / 4, 0, 0))
    assert_allclose(u, np.array([[1, 1], [-1, 1]]) / np.sqrt(2), atol=1e-15)
    assert_unitary(u, tol=1e-12)


def test_single_qubit_gate_u3_factor_entries():
    # The third MUB rotation: phi=pi/4, psi=0, chi=pi/2.
    u = single_qubit_gate((np.pi / 4, 0.0, np.pi / 2))
    assert_allclose(u, np.array([[1, 1j], [1j, 1]]) / np.sqrt(2), atol=1e-14)


def test_canonical_identity_and_bell_phases():
    assert_allclose(entanglers((0.0, 0.0, 0.0), ISING), np.eye(4), atol=1e-15)
    u = entanglers((0.0, 0.0, np.pi / 4), ISING)
    phases = np.diag(BELL_CONVENTIONAL.conj().T @ u @ BELL_CONVENTIONAL)
    expected = np.exp(-1j * np.pi / 4 * np.array([1, -1, 1, -1]))
    assert_allclose(phases, expected, atol=1e-14)


def test_canonical_commutes_with_xx_and_matches_expm():
    rng = np.random.default_rng(0)
    xx = np.kron(PAULI_X, PAULI_X)
    for _ in range(20):
        beta_x, beta_y, beta_z = b = rng.normal(size=3)
        u = entanglers(b, ISING)
        assert np.max(np.abs(u @ xx - xx @ u)) < 1e-12
        h = (
            beta_x * np.kron(PAULI_X, PAULI_X)
            + beta_y * np.kron(PAULI_Y, PAULI_Y)
            + beta_z * np.kron(PAULI_Z, PAULI_Z)
        )
        assert np.max(np.abs(u - expm(-1j * h))) < 1e-12


def test_heisenberg_zero_collapses_to_identity():
    assert_allclose(heisenberg_two_qubit_sequence((0.0, 0.0, 0.0)), np.eye(4), atol=1e-14)
    assert_allclose(entanglers((0.0, 0.0, 0.0), HEISENBERG), np.eye(4), atol=1e-14)


def test_heisenberg_sequence_matches_diagonal_form():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = rng.uniform(0, 2, 3)
        dev = np.max(np.abs(heisenberg_two_qubit_sequence(a) - entanglers(a, HEISENBERG)))
        assert dev < 1e-12


def test_heisenberg_cnot_class_entangler():
    g1, g2 = _makhlin(entanglers((0.5, 0.0, 0.5), HEISENBERG))
    cnot = np.eye(4)[[0, 1, 3, 2]].astype(complex)
    c1, c2 = _makhlin(cnot)
    assert abs(g1 - c1) < 1e-12 and abs(g2 - c2) < 1e-12


def test_heisenberg_times_canonicalize_mod_two():
    params = np.zeros((5, 15))
    params[0, ENTANGLER_SLOTS] = (2.5, -0.5, 4.0)
    a = QuorumParams(HEISENBERG, params).to_array()[0, ENTANGLER_SLOTS]
    assert tuple(a) == pytest.approx((0.5, 1.5, 0.0))
    assert_allclose(
        entanglers(a, HEISENBERG), entanglers((0.5, 1.5, 0.0), HEISENBERG), atol=1e-14
    )
    # the same periodicity holds for the raw durations
    assert_allclose(
        entanglers((2.5, -0.5, 4.0), HEISENBERG), entanglers(a, HEISENBERG), atol=1e-14
    )
    # -1e-20 % 2.0 rounds to 2.0, which is not in [0, 2)
    params[0, ENTANGLER_SLOTS] = (-1e-20, 2.0, -2.0)
    a = QuorumParams(HEISENBERG, params).to_array()[0, ENTANGLER_SLOTS]
    assert a.tolist() == [0.0, 0.0, 0.0]


def test_ising_matches_canonical_up_to_phase():
    assert_allclose(ising_two_qubit((0.0, 0.0, 0.0)), np.eye(4), atol=1e-15)
    rng = np.random.default_rng(2)
    for _ in range(100):
        b = rng.normal(size=3)
        dev = np.max(
            np.abs(_phase_gauged(ising_two_qubit(b)) - _phase_gauged(entanglers(b, ISING)))
        )
        assert dev < 1e-12


def test_ising_mub_entangler_equals_heisenberg_one():
    u_ising = ising_two_qubit((0.0, np.pi / 4, 0.0))
    u_heis = entanglers((0.5, 0.0, 0.5), HEISENBERG)
    assert np.max(np.abs(_phase_gauged(u_ising) - _phase_gauged(u_heis))) < 1e-12


def test_measurement_unitary_identity_and_random_unitarity():
    for interaction in INTERACTIONS:
        assert_allclose(measurement_unitary((np.zeros(15), interaction)), np.eye(4), atol=1e-14)
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


def _times(quorum):
    return entangling_times(quorum.to_array()[:, ENTANGLER_SLOTS], quorum.interaction)


def test_standard_mub_entangling_times():
    heis = _times(standard_mub_params("heisenberg"))
    assert heis.sum() == pytest.approx(2.0)
    assert heis[3] == pytest.approx(1.0)
    ising = _times(standard_mub_params("ising"))
    assert ising.sum() == pytest.approx(0.5)
    assert ising[3] == pytest.approx(0.25)
    for interaction in INTERACTIONS:
        assert entangling_times(np.zeros(3), interaction) == 0.0


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
    quorum = QuorumParams(interaction, x.reshape(5, 15))
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
        QuorumParams("heisenberg", quorum.to_array()[:4])
    bad = json.loads(quorum.to_json())
    del bad["measurements"][4]
    with pytest.raises(ValueError, match="5 measurements"):
        QuorumParams.from_dict(bad)
    bad = json.loads(quorum.to_json())
    bad["measurements"][0]["pre1"] = [0.0, 0.0]
    with pytest.raises(ValueError):
        QuorumParams.from_dict(bad)
    for value in (float("nan"), float("inf")):
        bad["measurements"][0]["pre1"] = [0.0, value, 0.0]
        with pytest.raises(ValueError, match="finite"):
            QuorumParams.from_dict(bad)
    for args in (("bogus", quorum.to_array()), ("ising", np.zeros(75))):
        with pytest.raises(ValueError):
            QuorumParams(*args)
    for value in (float("nan"), float("inf")):
        params = quorum.to_array().copy()
        params[2, 7] = value
        with pytest.raises(ValueError, match="finite"):
            QuorumParams("heisenberg", params)


# Entries span large and tiny scales, both signs and -0.0, so Heisenberg
# slots fall outside [0, 2); a tiny negative one gives 2.0 under one % 2.0,
# which the second reduction folds onto 0.0.
_entries = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e-18, 1e-18))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(raw=arrays(np.float64, (5, 15), elements=_entries),
       interaction=st.sampled_from(INTERACTIONS))
def test_quorum_params_store_a_canonical_read_only_array(raw, interaction):
    quorum = QuorumParams(interaction, raw)
    stored = quorum.to_array()
    assert stored.shape == (5, 15) and not stored.flags.writeable
    with pytest.raises(ValueError):
        stored[0, 0] = 1.0
    expected = raw.copy()
    if interaction == HEISENBERG:
        expected[:, ENTANGLER_SLOTS] = [[float(v) % 2.0 % 2.0 for v in row]
                                        for row in raw[:, ENTANGLER_SLOTS]]
    # bit for bit, so a -0.0 where 0.0 belongs would show
    assert stored.tobytes() == expected.tobytes()
    if interaction == HEISENBERG:
        assert np.all((0.0 <= stored[:, ENTANGLER_SLOTS]) & (stored[:, ENTANGLER_SLOTS] < 2.0))
    back = QuorumParams.from_json(quorum.to_json())
    assert back == quorum
    assert back.to_array().tobytes() == stored.tobytes()
    # a copy is stored: the caller's array stays writable and unchanged
    raw[0, 0] += 1.0
    assert stored[0, 0] == expected[0, 0]


# SHA-256 of each MUB quorum's JSON, as the per-gate parameter classes wrote
# it before quorums became one array.
MUB_JSON_SHA256 = {
    "heisenberg": "cf12aed34865c2fb1331e7438f59ed419815a573de570f3ee6492c7aeb423e69",
    "ising": "5a83068fad18e14755074fe7691db8a776e0a861cb578708f0e2823de8dab77d",
}


@pytest.mark.parametrize("interaction", INTERACTIONS)
def test_standard_mub_json_is_pinned(interaction):
    text = standard_mub_params(interaction).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == MUB_JSON_SHA256[interaction]


@pytest.mark.parametrize("interaction", INTERACTIONS)
def test_layer_derivatives_match_central_differences(interaction):
    params = np.random.default_rng(5).uniform(-np.pi, np.pi, size=(5, 15))
    derivatives = measurement_layer_derivatives(params, interaction)
    h = 1e-6
    for slot in range(15):
        step = np.zeros(15)
        step[slot] = h
        plus = measurement_layers(params + step, interaction)
        minus = measurement_layers(params - step, interaction)
        layer, first = (0, 0) if slot < 6 else (1, 6) if slot < 9 else (2, 9)
        central = (plus[layer] - minus[layer]) / (2 * h)
        assert_allclose(derivatives[layer][:, slot - first], central, atol=1e-9)
