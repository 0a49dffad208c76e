import hashlib
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from noisyqst.core import assert_density, random_density, state_fidelity
from noisyqst.gates import standard_mub_params
from noisyqst.noise import NoiseModel, ideal_effects, povm_stack
from noisyqst.quality import quality_report
from noisyqst.tomography import (
    ExperimentReport,
    Scheme,
    ml_reconstruct,
    mub_scheme,
    outcome_probabilities,
    pauli9_scheme,
    quorum_scheme,
    reports_to_csv,
    run_experiment,
    sample_measurement,
)

_NOISELESS = NoiseModel("depolarizing", "heisenberg", 0.0)

_STANDARD_BASIS = ideal_effects(np.eye(4, dtype=complex)[None])


def test_sample_measurement_pure_state_standard_basis():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    counts = sample_measurement(rho, _STANDARD_BASIS, 1000, np.random.default_rng(0))
    assert counts.shape == (1, 4)
    assert counts[0, 0] == 1000 and counts[0, 1:].sum() == 0

def test_outcome_probabilities_sum_to_one_for_noisy_povm():
    rng = np.random.default_rng(1)
    scheme = mub_scheme(NoiseModel("ou", "heisenberg", 0.2))
    for _ in range(10):
        rho = random_density(4, rng)
        p = outcome_probabilities(rho, scheme.effects)
        assert p.shape == (5, 4)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(p >= 0)

def test_sample_measurement_frequencies_match_probabilities():
    rng = np.random.default_rng(2)
    rho = random_density(4, rng)
    effects = mub_scheme(_NOISELESS).effects[3:4]
    p = outcome_probabilities(rho, effects)
    n = 100_000
    counts = sample_measurement(rho, effects, n, rng)
    sigma = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(counts / n - p) < 4 * sigma + 1e-12)

def test_sample_measurement_rejects_bad_inputs():
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError):
        sample_measurement(rho, _STANDARD_BASIS, 0, np.random.default_rng(0))
    bad = np.eye(4, dtype=complex)  # trace 4: probabilities sum to 4
    with pytest.raises(ValueError):
        sample_measurement(bad, _STANDARD_BASIS, 10, np.random.default_rng(0))

def test_ml_reconstruct_exact_probabilities_recovers_state():
    scheme = mub_scheme(_NOISELESS)
    rng = np.random.default_rng(3)
    for _ in range(5):
        rho = random_density(4, rng)
        counts = outcome_probabilities(rho, scheme.effects) * 1e7
        rho_hat = ml_reconstruct(counts, scheme.effects)
        assert state_fidelity(rho, rho_hat) > 1.0 - 1e-6

def test_ml_reconstruct_uniform_counts_give_maximally_mixed():
    scheme = mub_scheme(_NOISELESS)
    rho_hat = ml_reconstruct(np.full((5, 4), 250.0), scheme.effects)
    assert np.max(np.abs(rho_hat - np.eye(4) / 4)) < 1e-6

def test_ml_reconstruct_log_likelihood_non_decreasing():
    # max_iter=k returns the k-th iterate of a state still above the gap, and
    # the momentum restart keeps every iterate at least as likely as the last.
    # The nine Pauli bases are overcomplete, so their linear-inversion start
    # is not the maximum and every state needs iterations.
    scheme = pauli9_scheme()
    rng = np.random.default_rng(4)
    counts = np.array([sample_measurement(random_density(4, rng), scheme.effects, 500, rng)
                       for _ in range(5)])
    logger = logging.getLogger("noisyqst.tomography")
    logger.disabled = True
    try:
        iterates = [ml_reconstruct(counts, scheme.effects, max_iter=k) for k in range(60)]
    finally:
        logger.disabled = False
    for i, c in enumerate(counts):
        lls = [oracles.log_likelihood(c, scheme.effects, est[i]) for est in iterates]
        assert np.all(np.diff(lls) > -1e-9)
        assert lls[-1] > lls[0]


def test_ml_reconstruct_requires_informational_completeness():
    scheme = mub_scheme(_NOISELESS)
    with pytest.raises(ValueError):
        ml_reconstruct(np.full((2, 4), 10.0), scheme.effects[:2])

def test_ml_reconstruct_output_is_valid_density():
    scheme = mub_scheme(NoiseModel("ou", "heisenberg", 0.15))
    rng = np.random.default_rng(5)
    for _ in range(5):
        rho = random_density(4, rng)
        counts = sample_measurement(rho, scheme.effects, 400, rng)
        rho_hat = ml_reconstruct(counts, scheme.effects)
        assert_density(rho_hat, tol=1e-8)

def test_noise_ignorant_mode_differs_under_noise():
    # The noise-ignorant reconstruction is the same estimator given the
    # noise-free effects, the depolarizing channel's nominal projectors, in
    # place of the noisy effects.
    noise = NoiseModel("depolarizing", "heisenberg", 0.2)
    scheme = mub_scheme(noise)
    nominal = povm_stack(standard_mub_params("heisenberg").to_array(),
                         NoiseModel("depolarizing", "heisenberg", 0.0))
    rng = np.random.default_rng(6)
    rho = random_density(4, rng)
    counts = sample_measurement(rho, scheme.effects, 2000, rng)
    aware = ml_reconstruct(counts, scheme.effects)
    ignorant = ml_reconstruct(counts, nominal)
    assert np.max(np.abs(aware - ignorant)) > 1e-4
    assert oracles.log_likelihood(counts, scheme.effects, aware) >= oracles.log_likelihood(
        counts, scheme.effects, ignorant
    )

def test_run_experiment_reproducible():
    schemes = [mub_scheme(_NOISELESS), pauli9_scheme()]
    a = run_experiment(schemes, 10, 2304, rng_seed=9)
    b = run_experiment(schemes, 10, 2304, rng_seed=9)
    assert a == b


def test_run_experiment_pinned_reports(monkeypatch):
    # The counts are the RNG stream: recorded before sampling drew all of a
    # state's measurements in one multinomial call, and before the
    # projected-gradient reconstruction and its linear-inversion start,
    # which moved only the reports.
    import noisyqst.tomography as tomography

    counts = []

    def spy(c, effects, *args, **kwargs):
        counts.append(hashlib.sha256(np.asarray(c, dtype=np.int64).tobytes()).hexdigest())
        return ml_reconstruct(c, effects, *args, **kwargs)

    monkeypatch.setattr(tomography, "ml_reconstruct", spy)
    schemes = [mub_scheme(NoiseModel("ou", "heisenberg", 0.1)), pauli9_scheme()]
    mub, pauli = run_experiment(schemes, 6, 2304, rng_seed=3)
    assert counts == [
        "8a05dc3beb5737d4767d49a03519bab07695b4549acd31f9f376ed15d55b8886",
        "5c7cb91a19bf64ff7251a16c1e56070a053963179e3ef9316eb280f18df9b49e",
    ]
    assert (mub.mean_infidelity, mub.sem) == (0.01582071129170487, 0.00392643376539764)
    assert (pauli.mean_infidelity, pauli.sem) == (0.018028705644182907, 0.004230421604935835)
    assert (mub.total_shots, pauli.total_shots) == (2300, 2304)


def test_run_experiment_rejects_an_empty_state_set():
    with pytest.raises(ValueError, match="n_states"):
        run_experiment([pauli9_scheme()], 0, 2304, rng_seed=0)

def test_run_experiment_splits_budget_and_reports():
    schemes = [mub_scheme(_NOISELESS), pauli9_scheme()]
    reports = run_experiment(schemes, 5, 23040, rng_seed=1)
    assert reports[0].total_shots == 23040  # 4608 x 5
    assert reports[1].total_shots == 23040  # 2560 x 9
    for r in reports:
        assert 0.0 <= r.mean_infidelity <= 1.0
        assert r.sem >= 0.0
        assert r.n_states == 5

def test_pauli_scheme_reports_invariant_under_noise_strength():
    reference = None
    for zeta in (0.0, 0.1, 0.2):
        noise = NoiseModel("depolarizing", "heisenberg", zeta)
        schemes = [mub_scheme(noise), pauli9_scheme()]
        reports = run_experiment(schemes, 8, 4608, rng_seed=21)
        if reference is None:
            reference = reports[1]
        else:
            assert reports[1] == reference

def test_zero_noise_mub_beats_pauli():
    schemes = [mub_scheme(_NOISELESS), pauli9_scheme()]
    reports = run_experiment(schemes, 200, 23040, rng_seed=17)
    mub, pauli = reports
    combined = np.hypot(mub.sem, pauli.sem)
    assert mub.mean_infidelity < pauli.mean_infidelity - 2 * combined

@pytest.mark.slow
def test_mean_infidelity_decreases_with_shots():
    means, sems = [], []
    for shots in (2304, 23040, 230400):
        rep = run_experiment(
            [mub_scheme(_NOISELESS)], 200, shots, rng_seed=33
        )[0]
        means.append(rep.mean_infidelity)
        sems.append(rep.sem)
    for i in range(2):
        assert means[i + 1] < means[i] + 2 * np.hypot(sems[i], sems[i + 1])

def test_reports_to_csv_format():
    rep = ExperimentReport("mub", 10, 0.0123456789, 0.0012, 23040, 7)
    text = reports_to_csv([(rep, 0.05)])
    lines = text.strip().split("\n")
    assert lines[0] == "scheme,zeta_or_r,n_states,total_shots,mean_infidelity,sem,seed"
    assert lines[1].startswith("mub,0.05,10,23040,0.0123456789,")

def test_scheme_validation():
    with pytest.raises(ValueError):
        Scheme("bad", [])
    with pytest.raises(ValueError):
        Scheme("empty", np.zeros((0, 4, 4, 4), dtype=complex))
    with pytest.raises(ValueError):
        Scheme("flat", np.zeros((5, 4, 4), dtype=complex))
    with pytest.raises(ValueError):
        run_experiment([pauli9_scheme()], 2, 5, rng_seed=0)  # 5 // 9 == 0


def test_ml_reconstruct_warns_only_when_stopped_at_max_iter(caplog):
    # The nine Pauli bases are overcomplete: the linear-inversion start of
    # sampled counts is not the maximum, so those states need iterations.
    rng = np.random.default_rng(6)
    scheme = pauli9_scheme()
    rho = random_density(4, rng)
    counts = sample_measurement(rho, scheme.effects, 1000, rng)
    stack = np.stack([counts, np.full((9, 4), 250), counts])
    with caplog.at_level(logging.WARNING, logger="noisyqst.tomography"):
        ml_reconstruct(counts, scheme.effects)
        ml_reconstruct(stack, scheme.effects)
        assert caplog.records == []
        ml_reconstruct(counts, scheme.effects, max_iter=1)
        # uniform counts start at their maximum, the maximally mixed state;
        # the others run on
        ml_reconstruct(stack, scheme.effects, max_iter=3)
    assert len(caplog.records) == 2
    assert "1 of 1 states" in caplog.records[0].getMessage()
    assert "max_iter=1" in caplog.records[0].getMessage()
    assert "2 of 3 states" in caplog.records[1].getMessage()
    assert "max_iter=3" in caplog.records[1].getMessage()


# The projected-gradient reconstruction against the R rho R reference
# (``oracles.ml_reconstruct``).  The two iterations approach the maximum
# along different paths, so they are compared through the likelihood: the
# certificate bounds each estimate's log-likelihood gap to the maximum.
GAP = 1e-2
REFERENCE_ITERATIONS = 40_000


def _rank_deficient_density(rank, rng):
    psi = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = psi @ psi.conj().T
    return rho / np.trace(rho).real


def _stack_counts(scheme, n_states, total_shots, seed, ranks=()):
    # the first len(ranks) states have those ranks, the rest are random_density draws
    rng = np.random.default_rng(seed)
    shots = total_shots // len(scheme.effects)
    states = [_rank_deficient_density(rank, rng) for rank in ranks]
    states += [random_density(4, rng) for _ in range(n_states - len(ranks))]
    return np.array([sample_measurement(rho, scheme.effects, shots, rng) for rho in states])


@pytest.mark.parametrize("channel", ["depolarizing", "ou"])
@pytest.mark.parametrize("scheme_name", ["mub", "pauli9"])
def test_ml_certificate_and_likelihood_against_the_oracle(channel, scheme_name, caplog):
    noise = NoiseModel(channel, "heisenberg", 0.1)
    scheme = mub_scheme(noise) if scheme_name == "mub" else pauli9_scheme()
    # Low-rank states put the maximum on the boundary, where the projected
    # linear-inversion start is not yet certified, so part (c) has states to count.
    counts = _stack_counts(scheme, 12, 2304, seed=0, ranks=(1, 2, 3))
    estimates = ml_reconstruct(counts, scheme.effects, gap=GAP)
    for est, c in zip(estimates, counts):
        # (a) the certificate, recomputed outside the package, is below the gap
        assert oracles.ml_certificate(c, scheme.effects, est) < GAP
        # (b) so no long R rho R run finds a likelihood more than the gap higher
        ref, _ = oracles.ml_reconstruct(c, scheme.effects, ll_tol=0.0,
                                        max_iter=REFERENCE_ITERATIONS)
        ll_ref = oracles.log_likelihood(c, scheme.effects, ref)
        assert oracles.log_likelihood(c, scheme.effects, est) >= ll_ref - GAP
    # (c) the warning counts exactly the states still above the gap at the cap
    with caplog.at_level(logging.WARNING, logger="noisyqst.tomography"):
        capped = ml_reconstruct(counts, scheme.effects, gap=GAP, max_iter=4)
    bounds = np.array([oracles.ml_certificate(c, scheme.effects, est)
                       for est, c in zip(capped, counts)])
    above = int((bounds >= GAP).sum())
    assert above > 0
    (record,) = caplog.records
    assert f"{above} of 12 states" in record.getMessage()
    assert f"up to {bounds.max():.3g} nats" in record.getMessage()


@settings(max_examples=30, deadline=None)
@given(
    channel=st.sampled_from(["depolarizing", "ou"]),
    interaction=st.sampled_from(["heisenberg", "ising"]),
    strength=st.floats(0.0, 0.3),
    scheme_name=st.sampled_from(["mub", "pauli9"]),
    total_shots=st.sampled_from([2304, 23040, 230400]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ml_every_state_converges_to_a_density_matrix(
    channel, interaction, strength, scheme_name, total_shots, seed
):
    noise = NoiseModel(channel, interaction, strength)
    scheme = mub_scheme(noise) if scheme_name == "mub" else pauli9_scheme()
    rng = np.random.default_rng(seed)
    # pure and low-rank states put the maximum on the boundary
    states = [_rank_deficient_density(rank, rng) for rank in (1, 2, 3)]
    states += [random_density(4, rng) for _ in range(3)]
    shots = total_shots // len(scheme.effects)
    counts = np.array([sample_measurement(rho, scheme.effects, shots, rng) for rho in states])
    for est, c in zip(ml_reconstruct(counts, scheme.effects), counts):
        assert_density(est, tol=1e-8)
        assert oracles.ml_certificate(c, scheme.effects, est) < GAP


def test_ml_stack_estimates_do_not_depend_on_the_stack():
    scheme = mub_scheme(NoiseModel("ou", "heisenberg", 0.1))
    counts = _stack_counts(scheme, 16, 2304, seed=1)
    full = ml_reconstruct(counts, scheme.effects)
    perm = np.random.default_rng(2).permutation(len(counts))
    assert ml_reconstruct(counts[perm], scheme.effects).tobytes() == full[perm].tobytes()
    assert ml_reconstruct(counts[:7], scheme.effects).tobytes() == full[:7].tobytes()
    for i in (0, 5, 15):
        alone = ml_reconstruct(counts[i : i + 1], scheme.effects)
        assert alone.shape == (1, 4, 4)
        assert alone[0].tobytes() == full[i].tobytes()
        one_state = ml_reconstruct(counts[i], scheme.effects)
        assert one_state.shape == (4, 4)
        assert one_state.tobytes() == full[i].tobytes()


def test_ml_linear_inversion_start_certifies_most_mub_states(caplog):
    # The MUBs are a minimal quorum: linear inversion reproduces the observed
    # frequencies, so wherever it is already a density matrix it is the maximum.
    scheme = mub_scheme(NoiseModel("depolarizing", "heisenberg", 0.05))
    counts = _stack_counts(scheme, 200, 23040, seed=8)
    with caplog.at_level(logging.WARNING, logger="noisyqst.tomography"):
        ml_reconstruct(counts, scheme.effects, max_iter=0)
    (record,) = caplog.records
    uncertified = int(record.getMessage().split("ml_reconstruct: ")[1].split(" of 200")[0])
    assert 0 < uncertified < 100


def _assert_converged(counts, effects, estimates):
    for est, c in zip(estimates, counts):
        assert_density(est, tol=1e-8)
        assert oracles.ml_certificate(c, effects, est) < GAP


def test_ml_start_is_maximally_mixed_where_a_measurement_has_no_counts(caplog):
    scheme = mub_scheme(NoiseModel("depolarizing", "heisenberg", 0.05))
    full = _stack_counts(scheme, 12, 23040, seed=3, ranks=(1, 2, 3))
    for j in range(len(scheme.effects)):
        counts = full.copy()
        counts[:, j] = 0
        with caplog.at_level(logging.WARNING, logger="noisyqst.tomography"):
            starts = ml_reconstruct(counts, scheme.effects, max_iter=0)
            estimates = ml_reconstruct(counts, scheme.effects)
        assert all(np.array_equal(start, np.eye(4) / 4) for start in starts)
        _assert_converged(counts, scheme.effects, estimates)
    assert all("max_iter=0" in record.getMessage() for record in caplog.records)


def test_ml_start_is_maximally_mixed_where_an_observed_outcome_has_no_probability(caplog):
    # Counts of |++> in eight of the nine Pauli bases, but the XX readout sees
    # |+-> in 1,000 - b shots and |--> in b.  The projected linear-inversion
    # estimate of these inconsistent counts gives |--> no probability:
    # rounding puts it within 1e-16 of 0, on either side as b varies, and
    # either side must fall back.  The same holds for |00> with |01> and |11>
    # in the ZZ readout, where the probability left is about 2e-30.
    scheme = pauli9_scheme()
    plus = np.full(2, 2**-0.5)
    rows = []
    for psi, readout in ((np.kron(plus, plus), 0), (np.eye(4)[0], 8)):
        ideal = np.round(outcome_probabilities(np.outer(psi, psi).astype(complex),
                                               scheme.effects) * 1000)
        for b in range(1, 9):
            counts = ideal.copy()
            counts[readout] = (0, 1000 - b, 0, b)
            rows.append(counts)
    counts = np.array(rows)
    with caplog.at_level(logging.WARNING, logger="noisyqst.tomography"):
        starts = ml_reconstruct(counts, scheme.effects, max_iter=0)
        assert len(caplog.records) == 1
        estimates = ml_reconstruct(counts, scheme.effects)
        assert len(caplog.records) == 1
    assert all(np.array_equal(start, np.eye(4) / 4) for start in starts)
    _assert_converged(counts, scheme.effects, estimates)


def test_ml_reconstruct_rejects_counts_of_the_wrong_shape():
    scheme = mub_scheme(_NOISELESS)
    with pytest.raises(ValueError, match="number of effects"):
        ml_reconstruct(np.full((3, 4, 4), 10.0), scheme.effects)
    with pytest.raises(ValueError, match="number of effects"):
        ml_reconstruct(np.full((3, 20), 10.0), scheme.effects)
    with pytest.raises(ValueError, match="no states"):
        ml_reconstruct(np.empty((0, 5, 4)), scheme.effects)


def test_ml_reconstruct_rejects_a_nonpositive_gap():
    scheme = mub_scheme(_NOISELESS)
    for gap in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="gap must be > 0"):
            ml_reconstruct(np.full((5, 4), 250.0), scheme.effects, gap=gap)


def test_quorum_scheme_and_quality_report_reject_an_interaction_mismatch():
    quorum = standard_mub_params("heisenberg")
    noise = NoiseModel("ou", "ising", 0.1)
    with pytest.raises(ValueError, match="noise model is 'ising'"):
        quorum_scheme(quorum, noise, "mismatch")
    with pytest.raises(ValueError, match="noise model is 'ising'"):
        quality_report(quorum, noise)
