import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from noisyqst.core import random_density
from noisyqst.gates import (
    ENTANGLER_SLOTS,
    QuorumParams,
    entangling_times,
    measurement_unitary,
    standard_mub_params,
)
from noisyqst.noise import (
    DegeneratePovmError,
    NoiseModel,
    apply_depolarizing,
    apply_ou,
    average_gate_fidelity,
    depolarizing_q,
    ideal_effects,
    ou_gammas,
    povm_stack,
)
from noisyqst.quality import _log_qualities, quality_report

from oracles import (
    apply_kraus,
    assert_kraus_complete,
    extract_q_and_nominal,
    kraus_average_gate_fidelity,
    kraus_depolarizing,
    kraus_ou_heisenberg,
    kraus_ou_ising,
    kraus_set,
)

def _povm(m, noise: NoiseModel):
    """(effects, qs, nominal projectors) of one ``(row, interaction)`` measurement.

    q comes from the package's quality function, on a quorum of five copies
    of the measurement (its volume is zero); the nominal projectors, which
    the package does not build, come from the per-effect oracle.
    """
    effects = povm_stack(np.repeat(m[0][None], 5, axis=0), noise)
    qs = _log_qualities(effects)[2][0]
    return effects[0], qs, extract_q_and_nominal(effects[0])[1]


def _bell_rho():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return np.outer(psi, psi.conj())


def test_depolarizing_q_values():
    assert depolarizing_q(0.7, 0.0) == 1.0
    assert depolarizing_q(0.08, 1.0) == pytest.approx(np.exp(-0.08 * np.pi), rel=1e-15)
    assert depolarizing_q(0.034, 0.25) == pytest.approx(np.exp(-0.034 * np.pi / 4), rel=1e-15)


def test_apply_depolarizing_limits_and_formula():
    rho = _bell_rho()
    assert_allclose(apply_depolarizing(rho, 1.0), rho, atol=1e-15)
    assert_allclose(apply_depolarizing(rho, 0.0), np.eye(4) / 4, atol=1e-15)
    assert_allclose(apply_depolarizing(rho, 0.5), (rho + np.eye(4) / 4) / 2, atol=1e-15)
    with pytest.raises(ValueError):
        apply_depolarizing(rho, 1.5)


def test_ou_gammas():
    def heis(r, a):
        # durations as a quorum stores them, reduced mod 2
        params = np.zeros((5, 15))
        params[0, ENTANGLER_SLOTS] = a
        stored = QuorumParams("heisenberg", params).to_array()[0, ENTANGLER_SLOTS]
        return ou_gammas(r, stored, "heisenberg")

    def ising(r, b):
        return ou_gammas(r, b, "ising")

    assert_allclose(heis(0.0, (0.3, 0.7, 1.1)), np.ones(3))
    assert_allclose(
        heis(0.1, (0.5, 0.0, 0.5)),
        [np.exp(-0.05 * np.pi), 1.0, np.exp(-0.05 * np.pi)],
    )
    assert_allclose(heis(0.3, (2.0, 0.0, 0.0)), np.ones(3))  # alpha = 2 is canonicalized to 0
    assert_allclose(ising(0.0, (0.3, -0.2, 0.9)), np.ones(3))
    assert_allclose(
        ising(0.2, (0.0, 0.0, np.pi / 4)),
        [1.0, 1.0, np.exp(-0.1 * np.pi)],
    )


def test_ou_channels_match_kraus_and_preserve_bell_diagonal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rho = random_density(4, rng)
        g = rng.uniform(0.3, 1.0, size=3)
        heis = apply_ou(rho, g, "heisenberg")
        assert np.max(np.abs(heis - apply_kraus(rho, kraus_ou_heisenberg(g)))) < 1e-12
        isg = apply_ou(rho, g, "ising")
        assert np.max(np.abs(isg - apply_kraus(rho, kraus_ou_ising(g)))) < 1e-12
        # identity map at gamma = 1
        assert np.max(np.abs(apply_ou(rho, np.ones(3), "heisenberg") - rho)) < 1e-12
        assert np.max(np.abs(apply_ou(rho, np.ones(3), "ising") - rho)) < 1e-12


def test_ou_channels_fix_bell_populations():
    from noisyqst.gates import BELL_CONVENTIONAL, BELL_SORTED

    rng = np.random.default_rng(1)
    for _ in range(10):
        rho = random_density(4, rng)
        g = rng.uniform(0.2, 0.9, size=3)
        before = np.diag(BELL_SORTED.conj().T @ rho @ BELL_SORTED)
        after = np.diag(BELL_SORTED.conj().T @ apply_ou(rho, g, "heisenberg") @ BELL_SORTED)
        assert_allclose(after, before, atol=1e-13)
        before = np.diag(BELL_CONVENTIONAL.conj().T @ rho @ BELL_CONVENTIONAL)
        after = np.diag(
            BELL_CONVENTIONAL.conj().T @ apply_ou(rho, g, "ising") @ BELL_CONVENTIONAL
        )
        assert_allclose(after, before, atol=1e-13)


def test_kraus_depolarizing_limits_and_action():
    ops = kraus_depolarizing(1.0)
    assert_allclose(ops[0], np.eye(4), atol=1e-15)
    assert all(np.max(np.abs(m)) < 1e-15 for m in ops[1:])
    assert_kraus_complete(kraus_depolarizing(0.7), tol=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(50):
        rho = random_density(4, rng)
        q = rng.uniform(0, 1)
        dev = np.max(np.abs(apply_kraus(rho, kraus_depolarizing(q)) - apply_depolarizing(rho, q)))
        assert dev < 1e-12


def test_kraus_ou_limits_and_completeness():
    ops = kraus_ou_heisenberg(np.ones(3))
    assert_allclose(ops[0], np.eye(4), atol=1e-14)
    assert all(np.max(np.abs(m)) < 1e-14 for m in ops[1:])
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.uniform(0.1, 1.0, size=3)
        heis = kraus_ou_heisenberg(g)
        assert len(heis) == 8
        assert_kraus_complete(heis, tol=1e-12)
        isg = kraus_ou_ising(g)
        assert len(isg) == 4
        assert_kraus_complete(isg, tol=1e-12)


def test_channels_preserve_trace_and_positivity():
    rng = np.random.default_rng(4)
    for _ in range(100):
        rho = random_density(4, rng)
        g = rng.uniform(0.1, 1.0, size=3)
        q = rng.uniform(0.0, 1.0)
        for out in (
            apply_depolarizing(rho, q),
            apply_ou(rho, g, "heisenberg"),
            apply_ou(rho, g, "ising"),
        ):
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(out)[0] > -1e-10


def _choi(channel) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) channel(|i><j|) of a linear map on 4x4 matrices."""
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)  # |i><j| at index 4 i + j
    return channel(units).reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)


@settings(max_examples=200, deadline=None)
@given(
    channel=st.sampled_from(["depolarizing", "ou"]),
    interaction=st.sampled_from(["heisenberg", "ising"]),
    strength=st.floats(0.0, 50.0),
    unit=arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
)
def test_every_channel_is_cptp_and_unital_at_every_strength(channel, interaction, strength, unit):
    # Heisenberg pulses in their canonical [0, 2], Ising couplings in [-pi, pi]
    ent = np.abs(unit) * 2.0 if interaction == "heisenberg" else unit * np.pi
    if channel == "depolarizing":
        q = depolarizing_q(strength, entangling_times(ent, interaction))
        assert 0.0 <= q <= 1.0

        def apply(rho):
            return apply_depolarizing(rho, q)
    else:
        gammas = ou_gammas(strength, ent, interaction)
        assert np.all((0.0 <= gammas) & (gammas <= 1.0))

        def apply(rho):
            return apply_ou(rho, gammas, interaction)
    choi = _choi(apply)
    assert_allclose(choi, choi.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(choi)[0] > -1e-12  # completely positive
    # trace preserving: Tr channel(|i><j|) = delta_ij
    assert_allclose(np.einsum("iaja->ij", choi.reshape(4, 4, 4, 4)), np.eye(4), atol=1e-12)
    assert_allclose(apply(np.eye(4, dtype=complex)), np.eye(4), atol=1e-12)  # unital


def test_average_gate_fidelity_identity_and_depolarizing():
    assert kraus_average_gate_fidelity([np.eye(4, dtype=complex)]) == pytest.approx(1.0)
    for q in (0.3, 0.7778, 1.0):
        assert kraus_average_gate_fidelity(kraus_depolarizing(q)) == pytest.approx(
            (1 + 3 * q) / 4, abs=1e-12
        )
    with pytest.raises(ValueError):
        kraus_average_gate_fidelity([np.eye(4, dtype=complex) * 0.5])


def test_average_gate_fidelity_ou_cnot_closed_forms():
    r = 0.2
    heis = kraus_average_gate_fidelity(
        kraus_ou_heisenberg(np.exp(-r * np.pi * np.array([0.5, 0.0, 0.5])))
    )
    closed = 0.5 + 0.4 * np.exp(-r * np.pi / 2) + 0.1 * np.exp(-r * np.pi)
    assert heis == pytest.approx(closed, abs=1e-12)
    assert heis == pytest.approx(0.85, abs=0.005)
    isg = kraus_average_gate_fidelity(
        kraus_ou_ising(np.exp(-2 * r * np.array([0.0, 0.0, np.pi / 4])))
    )
    closed = 0.6 + 0.4 * np.exp(-r * np.pi / 2)
    assert isg == pytest.approx(closed, abs=1e-12)
    assert isg == pytest.approx(0.89, abs=0.005)


@settings(max_examples=300, deadline=None)
@given(
    channel=st.sampled_from(["depolarizing", "ou"]),
    interaction=st.sampled_from(["heisenberg", "ising"]),
    strength=st.floats(0.0, 5.0),
    data=st.data(),
)
def test_average_gate_fidelity_equals_the_kraus_route(channel, interaction, strength, data):
    # Heisenberg pulses in [0, 2), Ising couplings in [-pi/2, pi/2]
    if interaction == "heisenberg":
        elements = st.floats(0.0, 2.0, exclude_max=True)
    else:
        elements = st.floats(-np.pi / 2, np.pi / 2)
    ent = data.draw(arrays(np.float64, 3, elements=elements))
    noise = NoiseModel(channel, interaction, strength)
    fidelity = average_gate_fidelity(noise, ent)
    assert abs(fidelity - kraus_average_gate_fidelity(kraus_set(ent, interaction, noise))) < 1e-14
    if channel == "depolarizing":
        time = ent.sum() if interaction == "heisenberg" else np.abs(ent).sum() / np.pi
        q = np.exp(-strength * np.pi * time)
        assert abs(fidelity - (1 + 3 * q) / 4) < 1e-14


def test_average_gate_fidelity_rejects_a_non_finite_result():
    # exp(-0 * inf) is NaN: the fidelity of an infinite pulse at zero noise is undefined
    for channel in ("depolarizing", "ou"):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            average_gate_fidelity(NoiseModel(channel, "heisenberg", 0.0), (np.inf, 0.0, 0.0))


def test_effective_povm_without_entangler_is_ideal():
    quorum = standard_mub_params("heisenberg")
    m = quorum.measurements[1]  # product-basis measurement
    for noise in (
        NoiseModel("depolarizing", "heisenberg", 0.3),
        NoiseModel("ou", "heisenberg", 0.3),
    ):
        effects, qs, _ = _povm(m, noise)
        ideal = ideal_effects(measurement_unitary(m))
        assert_allclose(qs, np.ones(4), atol=1e-10)
        assert np.max(np.abs(effects - ideal)) < 1e-10


def test_effective_povm_depolarizing_qs_uniform_and_consistent():
    quorum = standard_mub_params("heisenberg")
    m = quorum.measurements[3]  # entangling time 1
    zeta = 0.05
    _, qs, nominal = _povm(m, NoiseModel("depolarizing", "heisenberg", zeta))
    expected = depolarizing_q(zeta, 1.0)
    assert_allclose(qs, np.full(4, expected), atol=1e-10)
    assert np.max(np.abs(nominal @ nominal - nominal)) < 1e-9  # projectors
    ideal = ideal_effects(measurement_unitary(m))
    assert np.max(np.abs(nominal - ideal)) < 1e-9


def test_effective_povm_matches_explicit_kraus_route():
    from noisyqst.gates import entanglers, single_qubit_gate

    quorum = standard_mub_params("heisenberg")
    m = quorum.measurements[3]
    row = m[0]
    noise = NoiseModel("ou", "heisenberg", 0.1)
    effects, _, _ = _povm(m, noise)
    ops = kraus_ou_heisenberg(ou_gammas(noise.strength, row[ENTANGLER_SLOTS], "heisenberg"))
    pre = np.kron(single_qubit_gate(row[0:3]), single_qubit_gate(row[3:6]))
    tail = entanglers(row[ENTANGLER_SLOTS], "heisenberg") @ np.kron(
        single_qubit_gate(row[9:12]), single_qubit_gate(row[12:15])
    )
    for k in range(4):
        pulled = np.outer(pre[k, :].conj(), pre[k, :])
        expected = tail.conj().T @ apply_kraus(pulled, ops) @ tail
        assert np.max(np.abs(expected - effects[k])) < 1e-12


def test_effective_povm_invariants_random_measurements():
    rng = np.random.default_rng(5)
    for interaction in ("heisenberg", "ising"):
        for channel in ("depolarizing", "ou"):
            noise = NoiseModel(channel, interaction, 0.15)
            for _ in range(10):
                row = rng.uniform(0, 2 * np.pi, 15)
                if interaction == "heisenberg":
                    row[ENTANGLER_SLOTS] = rng.uniform(0, 2, 3)
                else:
                    row[ENTANGLER_SLOTS] = rng.uniform(-np.pi / 2, np.pi / 2, 3)
                effects, qs, nominal = _povm((row, interaction), noise)
                assert np.max(np.abs(effects.sum(axis=0) - np.eye(4))) < 1e-10
                for k in range(4):
                    assert np.linalg.eigvalsh(effects[k])[0] > -1e-10
                    recon = qs[k] * (nominal[k] - np.eye(4) / 4) + np.eye(4) / 4
                    assert np.max(np.abs(recon - effects[k])) < 1e-9
                assert np.all(qs > 0) and np.all(qs <= 1 + 1e-12)


def test_ou_noise_affects_basis_states_unevenly():
    # A single SWAP^alpha pulse leaves |01>, |10> untouched but dephases
    # |00>, |11>, so the extracted q depends on the outcome.
    row = np.zeros(15)
    row[ENTANGLER_SLOTS] = (0.5, 0.0, 0.0)
    _, qs, _ = _povm((row, "heisenberg"), NoiseModel("ou", "heisenberg", 0.2))
    assert qs.max() - qs.min() > 0.05


def test_effective_povm_degenerate_error():
    quorum = standard_mub_params("heisenberg")
    with pytest.raises(DegeneratePovmError, match="effect 0 of measurement 3"):
        quality_report(quorum, NoiseModel("depolarizing", "heisenberg", 1e4))
    # -r * pi overflows to -inf, so a zero-duration pulse gives NaN effects
    with np.errstate(invalid="ignore"), pytest.raises(DegeneratePovmError, match="q=nan"):
        quality_report(quorum, NoiseModel("ou", "heisenberg", 1e308))


def test_noise_model_validation_and_json():
    with pytest.raises(ValueError):
        NoiseModel("bogus", "heisenberg", 0.1)
    with pytest.raises(ValueError):
        NoiseModel("ou", "heisenberg", -0.1)
    n = NoiseModel("ou", "ising", 0.2)
    assert n.to_dict() == {"channel": "ou", "interaction": "ising", "strength": 0.2}
