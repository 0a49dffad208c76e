"""The batched kernel from quorum parameters to Q_N against the per-matrix oracles.

The oracles in ``oracles.py`` build every gate, effect and projector one at
a time along independent routes (pulse and ZZ sequences, Kraus sets), so
the two sides agree only up to rounding.  The tolerance below was fixed
before the kernel was written: every compared quantity is O(1) and built
from a few dozen double-precision products of unit-modulus numbers, whose
rounding stays near 1e-15, well inside it.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from noisyqst.gates import INTERACTIONS, QuorumParams, quorum_array
from noisyqst.noise import CHANNELS, NoiseModel, povm_stack
from noisyqst.optimize import _jaccard_distance, _projector_histograms, random_quorum
from noisyqst.quality import neg_log_qn, quality_report

TOL = 1e-12

vectors = arrays(np.float64, 75, elements=st.floats(-2 * np.pi, 2 * np.pi))
# Strengths up to 0.3 keep every q above ~3e-3, so dividing an effect's
# traceless part by q (as the oracle does) does not amplify its rounding past TOL.
strengths = st.floats(0.0, 0.3)


@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("interaction", INTERACTIONS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=vectors, strength=strengths)
def test_kernel_matches_per_matrix_oracle(channel, interaction, x, strength):
    noise = NoiseModel(channel, interaction, strength)
    quorum = QuorumParams(interaction, quorum_array(x, interaction))
    effects = povm_stack(quorum.to_array(), noise)
    rep = quality_report(quorum, noise)
    for j, m in enumerate(quorum.measurements):
        ref_effects, ref_qs, _ = oracles.effective_povm(m, noise)
        assert np.max(np.abs(effects[j] - ref_effects)) <= TOL
        assert np.max(np.abs(rep.per_measurement_q[j] - ref_qs)) <= TOL
    q_geometric, _, q_noisy = oracles.quality(quorum, noise)
    assert abs(rep.q_geometric - q_geometric) <= TOL
    assert abs(rep.q_noisy - q_noisy) <= TOL
    assert abs(np.exp(-neg_log_qn(x, noise)) - q_noisy) <= TOL


@pytest.mark.parametrize("interaction", INTERACTIONS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=vectors)
def test_projector_histograms_equal_oracle(interaction, x):
    quorum = QuorumParams(interaction, quorum_array(x, interaction))
    scaled = (oracles.projector_dots(quorum) + 0.25) / 0.05
    # Bins are cut by truncation: a dot product within rounding of an inner
    # bin edge may fall on either side of it, on either route.
    inner = scaled[(scaled > 0.5) & (scaled < 19.5)]
    assume(np.all(np.abs(inner - np.round(inner)) > 1e-9))
    assert np.array_equal(_projector_histograms(quorum.to_array(), interaction),
                          oracles.projector_histograms(quorum))


@pytest.mark.parametrize("interaction", INTERACTIONS)
def test_projector_histograms_equal_oracle_on_random_quorums(interaction):
    rng = np.random.default_rng(11)
    params = np.stack([random_quorum(interaction, rng) for _ in range(150)])
    hists = _projector_histograms(params, interaction)
    assert hists.shape == (150, 20, 20)
    for row, hist in zip(params, hists):
        quorum = QuorumParams(interaction, row)
        assert np.array_equal(hist, oracles.projector_histograms(quorum))
    # The batched distance equals the one-pair formula bit for bit, both for
    # pairs stacked alike and for one quorum against a stack.
    pairs = [oracles.jaccard_distance(a, b) for a, b in zip(hists[:75], hists[75:])]
    assert np.array_equal(_jaccard_distance(hists[:75], hists[75:]), pairs)
    against_first = [oracles.jaccard_distance(hists[0], h) for h in hists]
    assert np.array_equal(_jaccard_distance(hists[0], hists), against_first)
    assert np.array_equal(_jaccard_distance(hists, hists[0]), against_first)
