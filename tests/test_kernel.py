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
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from noisyqst.gates import ENTANGLER_SLOTS, INTERACTIONS, QuorumParams
from noisyqst.noise import CHANNELS, NoiseModel, povm_stack
from noisyqst.quality import neg_log_qn_and_grad, quality_report

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
    quorum = QuorumParams(interaction, x.reshape(5, 15))
    effects = povm_stack(quorum.to_array(), noise)
    rep = quality_report(quorum, noise)
    for j, m in enumerate(quorum.measurements):
        ref_effects, ref_qs, _ = oracles.effective_povm(m, noise)
        assert np.max(np.abs(effects[j] - ref_effects)) <= TOL
        assert np.max(np.abs(rep.per_measurement_q[j] - ref_qs)) <= TOL
    q_geometric, _, q_noisy = oracles.quality(quorum, noise)
    assert abs(rep.q_geometric - q_geometric) <= TOL
    assert abs(rep.q_noisy - q_noisy) <= TOL
    params = quorum.to_array()
    value = neg_log_qn_and_grad(params, np.abs(params[:, ENTANGLER_SLOTS]), noise)[0]
    assert abs(np.exp(-value) - q_noisy) <= TOL
