import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize_scalar

from noisyqst.gates import (
    ENTANGLER_SLOTS,
    INTERACTIONS,
    QuorumParams,
    measurement_unitary,
    standard_mub_params,
)
from noisyqst.noise import CHANNELS, DegeneratePovmError, NoiseModel
from noisyqst.optimize import random_quorum
from noisyqst.quality import (
    NOISE_EXPONENT_4D,
    PER_EFFECT_EXPONENT,
    analytic_alpha_max,
    analytic_heisenberg_qn,
    estimate_log_coefficient,
    geometric_quality,
    neg_log_qn_and_grad,
    quality_report,
    single_qubit_optimal_angle,
    single_qubit_quality,
)
from oracles import (
    NOISE_EXPONENT_2D,
    SingleQubitScheme,
    analytic_beta_max,
    analytic_ising_qn,
    bloch_gram_volume,
    log_average_qubit_exact,
    single_qubit_quality_decomposed,
)


def test_geometric_quality_mub_is_one_over_32():
    quorum = standard_mub_params("heisenberg")
    rep = quality_report(quorum, NoiseModel("depolarizing", "heisenberg", 0.0))
    assert rep.q_geometric == pytest.approx(1.0 / 32.0, abs=1e-10)
    # the unitaries are the noise-free bases
    us = [measurement_unitary(m) for m in quorum.measurements]
    assert geometric_quality(us) == pytest.approx(1.0 / 32.0, abs=1e-10)
    with pytest.raises(ValueError, match="five 4x4 unitaries"):
        geometric_quality(us[:4])


def test_geometric_quality_degenerate_quorum_is_zero():
    quorum = standard_mub_params("heisenberg")
    us = [measurement_unitary(m) for m in quorum.measurements]
    us[1] = us[0]
    assert geometric_quality(us) < 1e-12


def test_noisy_quality_reduces_to_geometric_without_noise():
    quorum = standard_mub_params("heisenberg")
    rep = quality_report(quorum, NoiseModel("depolarizing", "heisenberg", 0.0))
    us = [measurement_unitary(m) for m in quorum.measurements]
    assert rep.q_noisy == pytest.approx(geometric_quality(us), rel=1e-12)


def test_noisy_quality_mub_depolarizing_closed_form():
    zeta = 0.05
    quorum = standard_mub_params("heisenberg")
    rep = quality_report(quorum, NoiseModel("depolarizing", "heisenberg", zeta))
    # q_4 = q_5 = e^(-zeta pi), others 1; Q_N = Q e^(-2 zeta pi s).
    expected = (1.0 / 32.0) * np.exp(-2.0 * zeta * np.pi * NOISE_EXPONENT_4D)
    assert rep.q_noisy == pytest.approx(expected, rel=1e-10)


def test_per_effect_and_global_exponents_agree_for_depolarizing():
    zeta = 0.07
    quorum = standard_mub_params("ising")
    rep = quality_report(quorum, NoiseModel("depolarizing", "ising", zeta))
    per_measurement = np.prod(rep.per_measurement_q ** PER_EFFECT_EXPONENT)
    global_form = np.prod(rep.per_measurement_q[:, 0] ** NOISE_EXPONENT_4D)
    assert per_measurement == pytest.approx(global_form, rel=1e-12)
    assert rep.q_noisy == pytest.approx(rep.q_geometric * global_form, rel=1e-12)


def test_quality_report_invariants_and_json():
    rep = quality_report(
        standard_mub_params("heisenberg"), NoiseModel("ou", "heisenberg", 0.1)
    )
    assert rep.q_noisy <= rep.q_geometric
    assert np.all(rep.per_measurement_q > 0) and np.all(rep.per_measurement_q <= 1 + 1e-12)
    doc = rep.to_dict()
    assert set(doc) == {"q_geometric", "q_noisy", "per_measurement_q", "entangling_times"}
    assert np.asarray(doc["per_measurement_q"]).shape == (5, 4)


# Rounding can lift an undamped q a few ulps above 1 (sampled OU quorums
# reach 1 + 4e-16), hence the relative slack on both bounds.
@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("interaction", INTERACTIONS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=arrays(np.float64, 75, elements=st.floats(-2 * np.pi, 2 * np.pi)),
       strength=st.floats(0.0, 1.0))
def test_noise_only_shrinks_q_and_quality(channel, interaction, x, strength):
    quorum = QuorumParams(interaction, x.reshape(5, 15))
    rep = quality_report(quorum, NoiseModel(channel, interaction, strength))
    assert np.all(rep.per_measurement_q > 0.0)
    assert np.all(rep.per_measurement_q <= 1.0 + 1e-12)
    assert rep.q_noisy <= rep.q_geometric * (1.0 + 1e-12)


# Adding theta to psi and chi of a single-qubit gate multiplies it by
# diag(e^(i theta), e^(-i theta)) from the left.  On the readout side of a
# measurement (slots 1, 2 of pre1 and 4, 5 of pre2) that is a diagonal phase
# gate, which commutes with the readout projectors: Q, Q_N and every q_jk are
# unchanged.  The tolerance is absolute because Q of a near-singular quorum
# carries a large relative rounding error, and underflows to 0.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=arrays(np.float64, 75, elements=st.floats(-2 * np.pi, 2 * np.pi)),
       strength=st.floats(0.0, 1.0),
       thetas=arrays(np.float64, (5, 2), elements=st.floats(-2 * np.pi, 2 * np.pi)))
def test_quality_invariant_under_diagonal_phase_postrotation(x, strength, thetas):
    rotated = x.reshape(5, 15).copy()
    rotated[:, [1, 2]] += thetas[:, :1]
    rotated[:, [4, 5]] += thetas[:, 1:]
    for interaction in INTERACTIONS:
        for channel in CHANNELS:
            noise = NoiseModel(channel, interaction, strength)
            base = quality_report(QuorumParams(interaction, x.reshape(5, 15)), noise)
            rotated_quorum = QuorumParams(interaction, rotated)
            rep = quality_report(rotated_quorum, noise)
            assert abs(rep.q_geometric - base.q_geometric) <= 1e-12
            assert abs(rep.q_noisy - base.q_noisy) <= 1e-12
            assert np.max(np.abs(rep.per_measurement_q - base.per_measurement_q)) <= 1e-12


def _mub_family_quorum(a41, a43, a51, a53):
    params = standard_mub_params("heisenberg").to_array().copy()
    params[3, ENTANGLER_SLOTS] = (a41, 0.0, a43)
    params[4, ENTANGLER_SLOTS] = (a51, 0.0, a53)
    return QuorumParams("heisenberg", params)


def test_pipeline_matches_closed_form_on_mub_family_grid():
    zeta = 0.02
    noise = NoiseModel("depolarizing", "heisenberg", zeta)
    grid = (0.3, 0.45, 0.5, 0.62)
    rng = np.random.default_rng(0)
    points = [(a, a, a, a) for a in grid]
    points += [tuple(rng.uniform(0.2, 0.8, size=4)) for _ in range(40)]
    for a41, a43, a51, a53 in points:
        rep = quality_report(_mub_family_quorum(a41, a43, a51, a53), noise)
        closed = analytic_heisenberg_qn(a41, a43, a51, a53, zeta)
        assert rep.q_noisy == pytest.approx(closed, abs=1e-10)


# Near the edge of the family Q is small: a Gram determinant, which squares
# the condition number, loses about 1e-7 nats there.
@pytest.mark.parametrize("zeta", (0.0, 0.05))
def test_neg_log_qn_matches_closed_forms_near_a_singular_quorum(zeta):
    a = 1e-5
    heisenberg = _mub_family_quorum(a, a, 0.5, 0.5).to_array()
    closed = analytic_heisenberg_qn(a, a, 0.5, 0.5, zeta)
    noise = NoiseModel("depolarizing", "heisenberg", zeta)
    assert abs(_neg_log_qn(heisenberg, noise) + np.log(closed)) < 1e-9
    ising = standard_mub_params("ising").to_array().copy()
    ising[3, ENTANGLER_SLOTS.start + 1] = a  # beta_y of measurement 4
    closed = analytic_ising_qn(a, np.pi / 4.0, zeta)
    noise = NoiseModel("depolarizing", "ising", zeta)
    assert abs(_neg_log_qn(ising, noise) + np.log(closed)) < 1e-9


def test_singular_quorum_is_capped_without_warnings():
    # Five product measurements in the standard basis span a volume of zero;
    # RuntimeWarnings are errors in this suite, so neither the gradient's
    # inverse of the coordinate matrix nor a log(0) may run.
    for interaction in INTERACTIONS:
        for channel in CHANNELS:
            noise = NoiseModel(channel, interaction, 0.1)
            rep = quality_report(QuorumParams(interaction, np.zeros((5, 15))), noise)
            assert rep.q_geometric == 0.0 and rep.q_noisy == 0.0
            value, grad_params, grad_weights = neg_log_qn_and_grad(
                np.zeros((5, 15)), np.zeros((5, 3)), noise)
            assert value == -np.log(1e-300)
            assert not grad_params.any() and not grad_weights.any()
    # a singular quorum on which slogdet takes log(0) of a zero pivot
    x = np.zeros(75)
    x[[2, 10, 30, 36, 58, 60]] = [2.26846167e-307, 1.0, 2.26846167e-307, 3.0, 2.0, -1.0]
    params = QuorumParams("heisenberg", x.reshape(5, 15)).to_array()
    value, grad_params, grad_weights = neg_log_qn_and_grad(
        params, _noise_weights(params), NoiseModel("ou", "heisenberg", 0.0))
    assert value == -np.log(1e-300)
    assert not grad_params.any() and not grad_weights.any()


def _noise_weights(params):
    """The weights the channel reads from canonical parameters: alpha, or |beta|."""
    return np.abs(params[..., ENTANGLER_SLOTS])


def _neg_log_qn(params, noise):
    """-ln Q_N of canonical parameters, the value of neg_log_qn_and_grad at their own weights."""
    return neg_log_qn_and_grad(params, _noise_weights(params), noise)[0]


@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("interaction", INTERACTIONS)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(params=arrays(np.float64, (5, 15), elements=st.floats(-2 * np.pi, 2 * np.pi),
                     fill=st.nothing()),
       weights=arrays(np.float64, (5, 3), elements=st.floats(0.05, 2.0)),
       strength=st.floats(0.0, 0.3))
def test_neg_log_qn_gradient_matches_central_differences(channel, interaction, params, weights,
                                                         strength):
    # The weights stay clear of 0, where the channel reads |beta| and has a kink.
    # Each parameter is drawn on its own (no fill value): quorums whose gates
    # share one repeated value are mostly singular, and the assume below drops them.
    noise = NoiseModel(channel, interaction, strength)
    value, grad_params, grad_weights = neg_log_qn_and_grad(params, weights, noise)
    grad = np.concatenate([grad_params.ravel(), grad_weights.ravel()])
    # The gradient grows as one over the distance to a singular quorum, and
    # central differences are exact only for steps far below that distance;
    # at a singular quorum the value is capped and its gradient zero.
    assume(value < -np.log(1e-300) and np.max(np.abs(grad)) < 1e3)
    def value_at(v):
        return neg_log_qn_and_grad(v[:75].reshape(5, 15), v[75:].reshape(5, 3), noise)[0]

    h = 1e-7
    x = np.concatenate([params.ravel(), weights.ravel()])
    central = np.array([(value_at(x + step) - value_at(x - step)) / (2 * h)
                        for step in h * np.eye(90)])
    assert np.max(np.abs(grad - central)) <= 1e-5 * (1.0 + np.max(np.abs(grad)))


@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("interaction", INTERACTIONS)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(x=arrays(np.float64, 75, elements=st.floats(-2 * np.pi, 2 * np.pi)),
       strength=st.floats(0.0, 0.3))
def test_neg_log_qn_and_grad_value_is_neg_log_qn(channel, interaction, x, strength):
    # at the weights the parameters set, the value is -ln of the report's Q_N, capped
    noise = NoiseModel(channel, interaction, strength)
    quorum = QuorumParams(interaction, x.reshape(5, 15))
    q_noisy = quality_report(quorum, noise).q_noisy
    assert abs(_neg_log_qn(quorum.to_array(), noise) + np.log(max(q_noisy, 1e-300))) <= 1e-12


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("interaction", INTERACTIONS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), strength=st.floats(0.0, 0.3),
       nan_at=st.none() | st.integers(0, 8), capped_at=st.none() | st.integers(0, 8))
def test_stacked_objective_rows_equal_stacks_of_one(channel, interaction, n, seed, strength,
                                                    nan_at, capped_at):
    noise = NoiseModel(channel, interaction, strength)
    rng = np.random.default_rng(seed)
    params = [random_quorum(interaction, rng) for _ in range(n)]
    weights = [rng.uniform(0.0, 2.0, size=(5, 3)) for _ in range(n)]
    # a non-finite quorum, and a singular one, whose value is capped at -ln(1e-300)
    if nan_at is not None:
        params.insert(min(nan_at, len(params)), np.full((5, 15), np.nan))
        weights.insert(min(nan_at, len(weights)), np.ones((5, 3)))
    if capped_at is not None:
        params.insert(min(capped_at, len(params)), np.zeros((5, 15)))
        weights.insert(min(capped_at, len(weights)), np.zeros((5, 3)))
    params, weights = np.stack(params), np.stack(weights)
    stacked = neg_log_qn_and_grad(params, weights, noise)
    values = stacked[0]
    assert values.shape == (len(params),)
    for i in range(len(params)):
        # row i against a stack of one, and against the (5, 15) array itself
        alone = neg_log_qn_and_grad(params[i : i + 1], weights[i : i + 1], noise)
        assert _bits(*(part[i] for part in stacked)) == _bits(*(part[0] for part in alone))
        single = neg_log_qn_and_grad(params[i], weights[i], noise)
        assert _bits(*(part[i] for part in stacked)) == _bits(*single)
    assert np.count_nonzero(np.isnan(values)) == (nan_at is not None)
    assert np.count_nonzero(values == -np.log(1e-300)) == (capped_at is not None)


def test_stacked_objective_fails_a_fully_depolarized_quorum_alone():
    noise = NoiseModel("depolarizing", "heisenberg", 1e4)
    degenerate = standard_mub_params("heisenberg")
    product = random_quorum("heisenberg", np.random.default_rng(0))
    product[:, ENTANGLER_SLOTS] = 0.0  # no entangler, so no noise
    params = np.stack([degenerate.to_array(), product])
    value, grad_params, grad_weights = neg_log_qn_and_grad(params, params[:, :, ENTANGLER_SLOTS],
                                                           noise)
    assert np.isnan(value[0]) and np.isnan(grad_params[0]).all() and np.isnan(grad_weights[0]).all()
    assert np.isfinite(value[1]) and np.isfinite(grad_params[1]).all()
    assert value[1] == _neg_log_qn(product, noise)
    with pytest.raises(DegeneratePovmError, match="effect 0 of measurement 3"):
        quality_report(degenerate, noise)


def test_estimate_log_coefficient_deterministic_and_near_paper_value():
    c1 = estimate_log_coefficient(4, 150_000, np.random.default_rng(42))
    c2 = estimate_log_coefficient(4, 150_000, np.random.default_rng(42))
    assert c1 == c2
    assert c1 == pytest.approx(1.195, abs=0.1)


def test_qubit_log_average_closed_form():
    # Constant term: <ln p> over the uniform Bloch ball is -5/6.
    assert log_average_qubit_exact(0.0) == pytest.approx(-5.0 / 6.0, abs=1e-15)
    # Linearized slope in (1-q) with c = (1-q)/(2q) is exactly 3/2.
    u = 1e-8
    slope = (log_average_qubit_exact(u / (2 * (1 - u))) - log_average_qubit_exact(0.0)) / u
    assert slope == pytest.approx(NOISE_EXPONENT_2D, abs=1e-4)


def test_single_qubit_quality_values():
    theta0 = np.arctan(np.sqrt(2.0))
    assert single_qubit_quality(theta0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert single_qubit_quality(np.pi / 2, 0.7) == pytest.approx(0.0, abs=1e-12)


def test_single_qubit_quality_triple_product_decomposition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        theta = rng.uniform(0.1, np.pi / 2 - 0.1)
        r = rng.uniform(0.0, 0.5)
        assert single_qubit_quality(theta, r) == pytest.approx(
            single_qubit_quality_decomposed(theta, r), rel=1e-10
        )


def test_single_qubit_scheme_bloch_volume():
    scheme = SingleQubitScheme(np.arctan(np.sqrt(2.0)))
    vol = bloch_gram_volume(scheme.bloch_vectors() / np.sqrt(2.0))
    assert vol == pytest.approx(1.0, abs=1e-12)


def test_single_qubit_optimal_angle():
    assert single_qubit_optimal_angle(0.0) == pytest.approx(np.arctan(np.sqrt(2.0)), abs=1e-12)
    angles = [single_qubit_optimal_angle(r) for r in (0.0, 0.2, 0.5, 1.0, 5.0)]
    assert all(a > b for a, b in zip(angles, angles[1:]))
    assert angles[-1] < 0.2
    for r in (0.0, 0.1, 0.3, 1.0):
        res = minimize_scalar(
            lambda th: -single_qubit_quality(th, r),
            bounds=(1e-6, np.pi / 2 - 1e-6),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert abs(res.x - single_qubit_optimal_angle(r)) < 1e-8


def test_single_qubit_optimal_angle_at_large_r():
    # theta -> 4 / (9 r); the form sqrt(a^2 + 2) - a cancels, then overflows
    for r in (1e4, 1e8, 1e200):
        assert abs(single_qubit_optimal_angle(r) * 9.0 * r / 4.0 - 1.0) < 2e-9
    grid = np.concatenate([[0.0], np.logspace(-6, 300, 2000)])
    angles = [single_qubit_optimal_angle(r) for r in grid]
    assert all(a > b for a, b in zip(angles, angles[1:]))
    # 9r/4 overflows above about 8e307, where theta is below 6e-309 and reads 0
    for r in (1e300, 1e308, sys.float_info.max):
        theta = single_qubit_optimal_angle(r)
        assert np.isfinite(theta) and np.isfinite(single_qubit_quality(theta, r))


def test_analytic_alpha_max():
    assert analytic_alpha_max(0.0) == 0.5
    assert analytic_alpha_max(0.03) == pytest.approx(
        np.arctan(1.0 / (0.03 * 2.39)) / np.pi, abs=1e-15
    )
    # stationarity of sin(a pi) e^(-zeta s a pi)
    zeta, s = 0.04, NOISE_EXPONENT_4D
    a = analytic_alpha_max(zeta, s)
    deriv = np.pi * np.cos(a * np.pi) - zeta * s * np.pi * np.sin(a * np.pi)
    assert abs(deriv * np.exp(-zeta * s * a * np.pi)) < 1e-10


def test_analytic_beta_max():
    assert analytic_beta_max(0.0) == pytest.approx(np.pi / 4.0)
    assert analytic_beta_max(0.03) == pytest.approx(
        0.5 * np.arctan(4.0 / (0.03 * 2.39)), abs=1e-15
    )
    # stationarity of sin^2(2 b) e^(-zeta s b)
    zeta, s = 0.04, NOISE_EXPONENT_4D
    b = analytic_beta_max(zeta, s)
    deriv = 4.0 * np.sin(2 * b) * np.cos(2 * b) - zeta * s * np.sin(2 * b) ** 2
    assert abs(deriv * np.exp(-zeta * s * b)) < 1e-10


def test_analytic_qn_functions_at_mub_point():
    assert analytic_heisenberg_qn(0.5, 0.5, 0.5, 0.5, 0.0) == pytest.approx(1 / 32)
    assert analytic_ising_qn(np.pi / 4, np.pi / 4, 0.0) == pytest.approx(1 / 32)
