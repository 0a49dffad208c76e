import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from noisyqst.core import (
    TRACELESS_BASIS,
    assert_density,
    density_sqrt,
    gram_volume,
    random_densities,
    random_eigenvalues,
    state_fidelity,
    traceless_part,
)
from noisyqst.gates import measurement_unitary, standard_mub_params

from oracles import (
    assert_projector,
    assert_unitary,
    bloch_gram_volume,
    haar_random_unitaries,
    hermitian_from_traceless,
)


def test_haar_unitary_deterministic_under_seed():
    u1 = haar_random_unitaries(2, 1, np.random.default_rng(7))
    u2 = haar_random_unitaries(2, 1, np.random.default_rng(7))
    assert_allclose(u1, u2, rtol=0, atol=0)


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for d in (2, 4):
        for u in haar_random_unitaries(d, 20, rng):
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12


def test_haar_unitary_rejects_bad_dimension():
    with pytest.raises(ValueError):
        haar_random_unitaries(3, 1, np.random.default_rng(0))


def test_haar_first_entry_moment():
    # Haar moment oracle: E|U_00|^2 = 1/d.
    u = haar_random_unitaries(2, 100_000, np.random.default_rng(1))
    assert abs(np.mean(np.abs(u[:, 0, 0]) ** 2) - 0.5) < 0.01


@pytest.mark.parametrize("d", [2, 4])
def test_haar_row_moduli_and_random_eigenvalues_share_their_first_two_moments(d):
    # Both are uniform on the simplex, Dirichlet(1, ..., 1): each entry x of a
    # Haar row's |U_ki|^2, and of a draw, has E x = 1/d and E x^2 = 2/(d(d+1)).
    n = 100_000
    haar = np.abs(haar_random_unitaries(d, n, np.random.default_rng(2))) ** 2
    simplex = random_eigenvalues(d, n, np.random.default_rng(3))
    for x in (haar.reshape(n, d * d), simplex):
        assert np.max(np.abs(x.mean(axis=0) - 1.0 / d)) < 0.005
        assert np.max(np.abs(np.mean(x**2, axis=0) - 2.0 / (d * (d + 1)))) < 0.005


def test_random_density_valid_and_reproducible():
    rho = random_densities(4, [np.random.default_rng(3)])[0]
    assert_density(rho)
    rho2 = random_densities(4, [np.random.default_rng(3)])[0]
    assert_allclose(rho, rho2, rtol=0, atol=0)


def test_random_density_mean_purity_qubit():
    # Eigenvalues (r, 1-r) with uniform r: E[Tr rho^2] = int r^2+(1-r)^2 dr = 2/3.
    # One generator listed 100,000 times draws the states of 100,000
    # random_densities(2, [rng]) calls in turn.
    rho = random_densities(2, [np.random.default_rng(4)] * 100_000)
    purity = np.einsum("nij,nji->n", rho, rho).real
    assert abs(purity.mean() - 2.0 / 3.0) < 0.01


@pytest.mark.parametrize("d", [2, 4])
def test_random_densities_match_random_density_bit_for_bit(d):
    stacked = random_densities(d, [np.random.default_rng(seed) for seed in range(50)])
    assert stacked.shape == (50, d, d)
    for seed, rho in enumerate(stacked):
        alone = random_densities(d, [np.random.default_rng(seed)])
        assert alone.shape == (1, d, d)
        assert rho.tobytes() == alone[0].tobytes()
    rng = np.random.default_rng(9)
    in_turn = random_densities(d, [rng] * 5)
    rng = np.random.default_rng(9)
    assert all(rho.tobytes() == random_densities(d, [rng])[0].tobytes() for rho in in_turn)
    with pytest.raises(ValueError):
        random_densities(3, [rng])
    with pytest.raises(ValueError):
        random_densities(d, [])


def test_state_fidelity_self_and_orthogonal():
    rho = random_densities(4, [np.random.default_rng(5)])[0]
    assert abs(state_fidelity(rho, rho) - 1.0) < 1e-10
    p00 = np.zeros((4, 4), dtype=complex)
    p00[0, 0] = 1.0
    p01 = np.zeros((4, 4), dtype=complex)
    p01[1, 1] = 1.0
    assert state_fidelity(p00, p01) < 1e-12


def test_state_fidelity_pure_states_match_overlap():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        f = state_fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
        # sqrt of clamped near-zero eigenvalues bounds the attainable precision
        assert abs(f - abs(np.vdot(a, b)) ** 2) < 1e-8


@settings(max_examples=50, deadline=None)
@given(d=st.sampled_from([2, 4]), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_state_fidelity_of_a_stack_equals_single_calls_bit_for_bit(d, n, seed):
    rng = np.random.default_rng(seed)

    def draw():
        # some eigenvalues 0 or near the 1e-12 relative clamp, which each
        # matrix must apply against its own largest eigenvalue
        w = rng.dirichlet(np.ones(d))
        k = rng.integers(0, d)
        w[:k] = np.where(rng.random(k) < 0.5, 0.0, 10.0 ** rng.uniform(-15, -11, k))
        u = haar_random_unitaries(d, 1, rng)[0]
        rho = (u * (w / w.sum())) @ u.conj().T
        return (rho + rho.conj().T) / 2

    rho = np.array([draw() for _ in range(n)])
    sigma = np.array([draw() for _ in range(n)])
    sigma[0] = rho[0]
    stacked = state_fidelity(rho, sigma)
    singles = [state_fidelity(a, b) for a, b in zip(rho, sigma)]
    assert all(type(f) is float for f in singles)
    assert stacked.shape == (n,)
    assert stacked.tobytes() == np.array(singles).tobytes()
    # with the square roots taken beforehand, of the stack or of each state
    roots = density_sqrt(rho)
    assert state_fidelity(rho, sigma, sqrt_rho=roots).tobytes() == stacked.tobytes()
    assert np.array([state_fidelity(a, b, sqrt_rho=density_sqrt(a))
                     for a, b in zip(rho, sigma)]).tobytes() == stacked.tobytes()


def test_state_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        state_fidelity(np.eye(2) / 2, np.eye(4) / 4)


def test_traceless_part_qubit_z_projector():
    p = np.array([[1, 0], [0, 0]], dtype=complex)  # 1/2 + sigma_z/2
    coords = traceless_part(p)
    assert_allclose(coords, [0.0, 0.0, 1.0 / np.sqrt(2.0)], atol=1e-14)


def test_traceless_round_trip_preserves_inner_products():
    rng = np.random.default_rng(8)
    for d in (2, 4):
        for _ in range(10):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a = a + a.conj().T
            a -= np.trace(a) * np.eye(d) / d
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = b + b.conj().T
            b -= np.trace(b) * np.eye(d) / d
            ca, cb = traceless_part(a), traceless_part(b)
            assert abs(np.dot(ca, cb) - np.trace(a @ b).real) < 1e-12
            assert np.max(np.abs(hermitian_from_traceless(ca) - a)) < 1e-12
            assert abs(np.trace(hermitian_from_traceless(ca))) < 1e-12


def _mub_projector_coords(interaction="heisenberg", per_basis=3):
    quorum = standard_mub_params(interaction)
    coords = []
    for m in quorum.measurements:
        u = measurement_unitary(m)
        coords.append(
            [traceless_part(np.outer(u[k, :].conj(), u[k, :])) for k in range(4)]
        )
    return coords  # 5 x 4 vectors


def test_mub_cross_basis_traceless_parts_orthogonal():
    coords = _mub_projector_coords()
    # |<psi|phi>|^2 = 1/4 across bases, so Tr(QQ') = 1/4 - 1/4 = 0.
    assert abs(np.dot(coords[0][0], coords[1][0])) < 1e-12


def test_gram_volume_orthonormal_and_dependent():
    eye = np.eye(15)
    assert gram_volume([eye[i] for i in range(6)]) == pytest.approx(1.0, abs=1e-12)
    v = np.random.default_rng(9).standard_normal(15)
    assert gram_volume([v, 2.0 * v]) < 1e-12


def test_gram_volume_input_validation():
    with pytest.raises(ValueError):
        gram_volume([np.zeros(3), np.zeros(15)])
    with pytest.raises(ValueError):
        gram_volume([np.zeros(4)])


def test_gram_volume_mub_quorum_is_one_over_32():
    coords = _mub_projector_coords()
    vecs = [coords[j][k] for j in range(5) for k in range(3)]
    # Independent oracle: the Gram matrix is block diagonal with five
    # (1 - J/4) blocks, each of determinant 1/4, so the volume is (1/4)^(5/2).
    block = np.eye(3) - np.ones((3, 3)) / 4.0
    expected = np.linalg.det(block) ** 2.5
    assert expected == pytest.approx(1.0 / 32.0, abs=1e-15)
    assert gram_volume(vecs) == pytest.approx(expected, abs=1e-10)


def test_gram_volume_permutation_and_rotation_invariance():
    rng = np.random.default_rng(10)
    vecs = rng.standard_normal((8, 15))
    base = gram_volume(vecs)
    perm = rng.permutation(8)
    assert gram_volume(vecs[perm]) == pytest.approx(base, abs=1e-9)
    o, _ = np.linalg.qr(rng.standard_normal((15, 15)))
    assert gram_volume(vecs @ o.T) == pytest.approx(base, abs=1e-9)


def test_gram_volume_independent_of_dropped_projector():
    coords = _mub_projector_coords()
    vols = []
    for drop in itertools.product(range(4), repeat=5):
        vecs = [
            coords[j][k]
            for j in range(5)
            for k in range(4)
            if k != drop[j]
        ]
        vols.append(gram_volume(vecs))
    vols = np.array(vols)
    assert vols.size == 4 ** 5
    assert vols.max() - vols.min() < 1e-9


def test_bloch_gram_volume_convention():
    # Unit Bloch vectors along x, y, z have traceless coords e_i / sqrt(2).
    vecs = np.eye(3) / np.sqrt(2.0)
    assert bloch_gram_volume(vecs) == pytest.approx(1.0, abs=1e-12)


def test_traceless_basis_is_orthonormal():
    for d in (2, 4):
        basis = TRACELESS_BASIS[d]
        n = basis.shape[0]
        g = np.einsum("aij,bji->ab", basis, basis).real
        assert_allclose(g, np.eye(n), atol=1e-14)
        for b in basis:
            assert abs(np.trace(b)) < 1e-14


def test_assert_density_on_a_stack_rejects_any_one_bad_member():
    rng = np.random.default_rng(8)
    stack = random_densities(4, [rng] * 5)
    assert_density(stack)
    not_hermitian = stack[0].copy()
    not_hermitian[0, 1] += 1e-6
    bad = {
        "not Hermitian": not_hermitian,
        "trace differs": 1.01 * stack[0],
        "negative eigenvalue": np.diag([1.02, -0.02, 0.0, 0.0]).astype(complex),
    }
    for message, member in bad.items():
        with pytest.raises(ValueError, match=message):
            assert_density(member)
        for i in range(len(stack)):
            one_bad = stack.copy()
            one_bad[i] = member
            with pytest.raises(ValueError, match=message):
                assert_density(one_bad)


def test_validators_reject_bad_inputs():
    with pytest.raises(ValueError):
        assert_unitary(np.eye(4) * 2.0)
    with pytest.raises(ValueError):
        assert_density(np.eye(4))  # trace 4
    with pytest.raises(ValueError):
        assert_projector(np.eye(4) * 0.5)
    assert_projector(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), rank=1)
