"""Monte-Carlo tomography experiments: sample counts, reconstruct, compare.

Outcome counts are multinomial draws from the noisy effect probabilities
Tr(F_jk rho), which are computed for a whole stack of states at once; each
state then draws its counts on its own random stream.  The streams are
those of numpy's SeedSequence spawn keys; the generator states of all of
a scheme's streams are derived in one vectorized pass, identical to
SeedSequence's, and set in turn on one generator.  Reconstruction
maximizes the multinomial log-likelihood by accelerated projected gradient
ascent over density matrices, on a whole stack of states at once, from each
state's maximum over unit-trace Hermitian matrices (linear inversion
followed by Fisher-scoring steps) projected onto density matrices, and
stops each state once a certificate bounds its log-likelihood gap to the
maximum below a set number of nats.
A scheme's effects are one (m, 4, 4, 4) array: m measurements of four
outcomes.  The reconstruction uses whichever effects it is given; the
noisy effects of :func:`~noisyqst.noise.povm_stack` give the noise-aware
likelihood, and its noise-free effects (strength 0) a noise-ignorant one.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (
    TRACELESS_BASIS,
    assert_density,
    density_sqrt,
    random_densities,
    state_fidelity,
)
from .gates import QuorumParams, nine_pauli_bases, standard_mub_params
from .noise import NoiseModel, _require_interaction, ideal_effects, povm_stack

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Scheme:
    """A named measurement set; run_experiment splits the shot budget over it.

    ``effects`` has shape (m, 4, 4, 4): the four outcome effects of each of
    the m measurements.
    """

    label: str
    effects: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.effects)
        if len(shape) != 4 or shape[1:] != (4, 4, 4) or shape[0] < 1:
            raise ValueError(f"a scheme needs effects of shape (m >= 1, 4, 4, 4), got {shape}")


@dataclass(frozen=True)
class ExperimentReport:
    scheme_label: str
    n_states: int
    mean_infidelity: float
    sem: float
    total_shots: int
    seed: int


def mub_scheme(noise: NoiseModel) -> Scheme:
    """Standard MUB quorum under the given noise model."""
    return quorum_scheme(standard_mub_params(noise.interaction), noise, "mub")


def pauli9_scheme() -> Scheme:
    """Nine entanglement-free Pauli product bases; unaffected by entangler noise."""
    return Scheme("pauli9", ideal_effects(nine_pauli_bases()))


def quorum_scheme(quorum: QuorumParams, noise: NoiseModel, label: str) -> Scheme:
    """The noisy effects of a parametrized quorum."""
    _require_interaction(quorum.interaction, noise)
    return Scheme(label, povm_stack(quorum.to_array(), noise))


# ---------------------------------------------------------------------------
# sampling and reconstruction
# ---------------------------------------------------------------------------

def outcome_probabilities(rho: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Clamped, renormalized outcome probabilities Tr(F_mk rho) (s, m, 4) of states (s, 4, 4).

    A state's rows do not depend on the rest of the stack, bit for bit.
    Tr(F_mk rho) is the product that the reconstruction uses.  A probability
    below -1e-10, a measurement whose probabilities miss 1 by more than
    1e-10, or a NaN raises ValueError naming the first such state and its
    largest deviation.
    """
    rho = np.asarray(rho)
    effects = np.asarray(effects)
    if rho.ndim != 3 or rho.shape[1:] != (4, 4):
        raise ValueError(f"invalid states: expected a stack (s, 4, 4), got shape {rho.shape}")
    p = _probabilities(rho, effects.reshape(-1, 16)).reshape(len(rho), len(effects), 4)
    deviation = np.maximum(-p.min(axis=2), np.abs(p.sum(axis=2) - 1.0)).max(axis=1)
    bad = np.flatnonzero(~(deviation <= 1e-10))
    if len(bad):
        raise ValueError(f"invalid outcome probabilities for state {bad[0]} of {len(p)}: a "
                         f"probability below 0 or a measurement total off 1 by up to "
                         f"{deviation[bad[0]]:.3g}")
    p = np.clip(p, 0.0, 1.0)
    p /= p.sum(axis=2, keepdims=True)
    return p


def _assert_informationally_complete(flat: np.ndarray) -> None:
    # Span test of the flattened effects (k, 16) in the real 16-dimensional
    # space of Hermitian operators.
    rank = np.linalg.matrix_rank(np.concatenate([flat.real, flat.imag], axis=1), tol=1e-10)
    if rank < 16:
        raise ValueError(f"effect set is not informationally complete (rank {rank} < 16)")


# Per-state step-size control of the projected-gradient iteration: the step
# grows by _STEP_GROWTH before every iteration and halves while the
# sufficient-increase test fails, at most _MAX_HALVINGS times.
_FIRST_STEP = 1.0
_STEP_GROWTH = 1.1
_MAX_HALVINGS = 40
# At most this many Fisher-scoring steps in each state's start.
_FISHER_STEPS = 8


def _probabilities(a: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Tr(F_k a) of stacked matrices a (s, 4, 4), as the product of vec(a^T) with the effects."""
    return (a.mT.reshape(-1, 1, 16) @ flat.T)[:, 0].real


def _r_operator(n: np.ndarray, total: np.ndarray, p: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """R = sum (n_k / (N p_k)) F_k of each state, (s, 4, 4); outcomes never seen add nothing."""
    w = np.divide(n, total[:, None] * p, out=np.zeros_like(p), where=n > 0)
    return (w[:, None, :] @ flat).reshape(-1, 4, 4)


def _log_likelihood_gain(n: np.ndarray, p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """ln L(p + dp) - ln L(p) per state, from the probability change itself.

    Summing n_k ln(1 + dp_k / p_k) keeps the gain accurate to rounding of
    the gain, not of ln L, which lets the iteration certify gaps far below
    N sqrt(eps).  A change that leaves an observed outcome no probability
    gains -inf.
    """
    seen = n > 0
    ratio = np.divide(dp, p, out=np.zeros_like(p), where=seen)
    lost = (ratio <= -1.0).any(axis=1)
    terms = np.log1p(np.where(lost[:, None], 0.0, ratio))
    # stacked dot products, each rounded like a one-state np.dot
    gain = (n[:, None, :] @ terms[:, :, None])[:, 0, 0]
    return np.where(lost, -np.inf, gain)


def _too_long(new, y, p_y, r_y, step, n, total, flat) -> np.ndarray:
    """Where the step from y to new fails the sufficient-increase test.

    The test asks ln L to rise by at least its quadratic model around y,
    N (<R(y), d> - |d|^2 / (2 step)) with d = new - y.
    """
    d = new - y
    model = total * (_inner(r_y, d) - _inner(d, d) / (2.0 * step))
    return _log_likelihood_gain(n, p_y, _probabilities(d, flat)) < model


def _certificate(r: np.ndarray, total: np.ndarray) -> np.ndarray:
    """N (lambda_max(R) - 1): a bound in nats on how far each log-likelihood is below its maximum."""
    return total * (np.linalg.eigvalsh(r)[:, -1] - 1.0)


def _project_density(h: np.ndarray) -> np.ndarray:
    """Nearest density matrices (Frobenius norm) to stacked Hermitian matrices."""
    w, v = np.linalg.eigh(h)
    # Euclidean projection of the eigenvalues onto the probability simplex
    u = w[:, ::-1]
    excess = np.cumsum(u, axis=1) - 1.0
    kept = u - excess / np.arange(1, 5) > 0.0
    last = 3 - np.argmax(kept[:, ::-1], axis=1)
    shift = excess[np.arange(len(h)), last] / (last + 1.0)
    rho = (v * np.maximum(w - shift[:, None], 0.0)[:, None, :]) @ v.conj().mT
    return (rho + rho.conj().mT) / 2.0


def _fisher_scoring_start(
    n: np.ndarray, total: np.ndarray, flat: np.ndarray, gap: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each state's unconstrained likelihood estimate projected onto density matrices, (s, 4, 4).

    The estimate 1/4 + sum_b c_b B_b over the traceless basis starts at
    linear inversion, c = A^+ (f - Tr F_k / 4), with A_kb = Tr(F_k B_b) and
    f_k the frequency of outcome k within its measurement (Smolin, Gambetta
    & Smith, PRL 108, 070502, 2012), and then takes Fisher-scoring steps
    (:func:`_fisher_scoring`) towards the maximum of the likelihood over
    all unit-trace Hermitian matrices.  For a minimal quorum such as the
    MUBs linear inversion is already that maximum, and no step is taken.
    A state keeps the maximally mixed start if one of its measurements has
    no counts, if the projected estimate leaves an observed outcome no
    probability, or if the maximally mixed state has the smaller
    certificate.  The last case catches an observed outcome left with a
    probability that rounding puts just above 0: R is then huge, and so is
    the number of iterations.  Returned with the start are its
    probabilities Tr(F_k rho), its R operator and its certificate, as the
    iteration of :func:`ml_reconstruct` would compute them there.
    """
    basis = TRACELESS_BASIS[4]
    a = _probabilities(basis, flat).T
    # the shots of each outcome's measurement
    shots = np.repeat(n.reshape(len(n), -1, 4).sum(axis=2), 4, axis=1)
    empty = (shots == 0).any(axis=1)
    f = n / np.where(empty[:, None], 1.0, shots)
    # Tr F_k / 4: the diagonal of each flattened effect, at the maximally mixed state
    p_mixed = np.broadcast_to(flat[:, ::5].real.sum(axis=1) / 4.0, n.shape)
    # stacked one-row products, so each state is rounded as if it were alone
    c = (f - p_mixed)[:, None, :] @ np.linalg.pinv(a).T
    c = _fisher_scoring(c, n, shots, a, p_mixed, gap)
    rho = _project_density(np.eye(4) / 4.0 + (c @ basis.reshape(15, 16)).reshape(-1, 4, 4))
    p = _probabilities(rho, flat)
    fallback = empty | ((n > 0) & (p <= 0.0)).any(axis=1)
    p[fallback] = p_mixed[fallback]
    r = _r_operator(n, total, p, flat)
    bound = _certificate(r, total)
    fallback |= bound > _certificate(_r_operator(n, total, p_mixed, flat), total)
    rho[fallback] = np.eye(4) / 4.0
    # Tr F_k / 4 above is rounded unlike Tr(F_k rho) at rho = 1/4, which the iteration uses
    p[fallback] = _probabilities(rho[fallback], flat)
    r[fallback] = _r_operator(n[fallback], total[fallback], p[fallback], flat)
    bound[fallback] = _certificate(r[fallback], total[fallback])
    return rho, p, r, bound


def _fisher_scoring(c, n, shots, a, p_mixed, gap) -> np.ndarray:
    """Fisher-scoring steps on the unconstrained log-likelihood from coordinates c (s, 1, 15).

    ln L = sum n_k ln p_k with p = Tr F_k / 4 + A c has the gradient
    g = A^T (n / p) and the Fisher information A^T diag(N_k / p) A, where
    N_k counts the shots of outcome k's measurement; a step adds the
    information's inverse times g.  At a density matrix, N R = sum
    (n_k / p_k) F_k has traceless coordinates g and Tr(R rho) = 1, so
    N (lambda_max(R) - 1) is at most N times the spread of R's eigenvalues,
    which is at most sqrt(2) |g|.  A state therefore steps, up to
    _FISHER_STEPS times, only while sqrt(2) |g| >= ``gap``.  It takes no
    step if a measurement has no shots or a probability is <= 0, and stops
    at its last iterate once a step would leave a probability <= 0.  Each
    state is rounded as if it were alone.
    """
    outer = (a[:, :, None] * a[:, None, :]).reshape(len(a), -1)
    c = c.copy()
    p = p_mixed + (c @ a.T)[:, 0]
    todo = np.flatnonzero(((shots > 0) & (p > 0.0)).all(axis=1))
    for _ in range(_FISHER_STEPS):
        g = (n[todo] / p[todo])[:, None, :] @ a
        far = np.sqrt(2.0) * np.linalg.norm(g[:, 0], axis=1) >= gap
        todo, g = todo[far], g[far]
        if not len(todo):
            break
        fisher = ((shots[todo] / p[todo])[:, None, :] @ outer).reshape(-1, 15, 15)
        new = c[todo] + np.linalg.solve(fisher, g.mT).mT
        p_new = p_mixed[todo] + (new @ a.T)[:, 0]
        inside = (p_new > 0.0).all(axis=1)
        todo = todo[inside]
        c[todo], p[todo] = new[inside], p_new[inside]
    return c


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(a^dagger b) of stacked 4x4 matrices."""
    a = a.reshape(-1, 16).view(float)
    b = b.reshape(-1, 16).view(float)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def ml_reconstruct(
    counts: np.ndarray,
    effects: np.ndarray,
    gap: float = 1e-2,
    max_iter: int = 5000,
) -> np.ndarray:
    """Maximum-likelihood density matrices of a stack of states.

    ``counts`` has shape (n_states, m, 4): per state, the outcome counts of
    the m measurements whose effects (m, 4, 4, 4) are ``effects``.  The
    result has shape (n_states, 4, 4).

    Each state starts at its linear-inversion estimate, moved by a few
    Fisher-scoring steps to the likelihood's maximum over unit-trace
    Hermitian matrices and projected onto density matrices, or at the
    maximally mixed state where that start is undefined or certified
    farther from the maximum (see :func:`_fisher_scoring_start`).  For a
    minimal quorum such as the MUBs, linear inversion already reproduces
    the observed frequencies and takes no step; for an overcomplete set
    such as the nine Pauli bases, about three steps reach that maximum.
    Either way a start that needed no projection is already the maximum.
    From there it runs
    accelerated projected gradient ascent on the log-likelihood (Shang,
    Zhang & Ng, PRA 95, 062336, 2017): a step along
    R = sum (n_k / (N p_k)) F_k, the gradient over N, from the extrapolated
    point, then the projection onto density matrices (one
    eigendecomposition and a simplex projection of the eigenvalues).  The
    step size is backtracked per state and grows by 1.1x per iteration; the
    momentum restarts whenever the log-likelihood would fall.  A state
    leaves the stack once the Glancy-Knill-Girard bound
    N (lambda_max(R) - 1) on its log-likelihood gap to the maximum (NJP 14,
    095017, 2012) drops below ``gap`` nats.  One warning reports
    how many states were still above it after ``max_iter`` iterations, and
    the largest bound left.  Every contraction is a stacked matrix product,
    a stacked eigendecomposition or a row operation, so a state's estimate
    does not depend on the other states in the stack, bit for bit.
    """
    if not gap > 0.0:
        raise ValueError(f"gap must be > 0 nats, got {gap}")
    effects = np.asarray(effects)
    flat = effects.reshape(-1, 16)
    _assert_informationally_complete(flat)
    n = np.asarray(counts, dtype=float)
    if n.ndim != 3 or n.shape[1:] != effects.shape[:2]:
        raise ValueError("counts do not match the number of effects")
    n = n.reshape(-1, len(flat))
    if not len(n):
        raise ValueError("no states to reconstruct")
    total = n.sum(axis=1)
    estimates = np.empty((len(n), 4, 4), dtype=complex)
    active = np.arange(len(n))
    rho, p, r, bound = _fisher_scoring_start(n, total, flat, gap)
    # the extrapolated point y, where each step starts
    y, p_y, r_y = rho, p, r
    theta = np.ones(len(n))
    step = np.full(len(n), _FIRST_STEP)
    for it in range(max_iter + 1):
        done = bound < gap
        if done.any():
            estimates[active[done]] = rho[done]
            keep = ~done
            active, rho, p, r, y, p_y, r_y, theta, step, n, total, bound = (
                a[keep] for a in (active, rho, p, r, y, p_y, r_y, theta, step, n, total, bound)
            )
            if not len(active):
                break
        if it == max_iter:
            break
        step = step * _STEP_GROWTH
        new = _project_density(y + step[:, None, None] * r_y)
        long = _too_long(new, y, p_y, r_y, step, n, total, flat)
        for _ in range(_MAX_HALVINGS):
            if not long.any():
                break
            i = np.flatnonzero(long)
            step[i] /= 2.0
            new[i] = _project_density(y[i] + step[i, None, None] * r_y[i])
            long[i] = _too_long(new[i], y[i], p_y[i], r_y[i], step[i], n[i], total[i], flat)
        # restart the momentum where the step would lower the likelihood
        up = _log_likelihood_gain(n, p, _probabilities(new - rho, flat)) >= 0.0
        theta_next = np.where(up, (1.0 + np.sqrt(1.0 + 4.0 * theta**2)) / 2.0, 1.0)
        momentum = np.where(up, (theta - 1.0) / theta_next, 0.0)
        new[~up] = rho[~up]
        y = new + momentum[:, None, None] * (new - rho)
        rho, theta = new, theta_next
        p = _probabilities(rho, flat)
        r = _r_operator(n, total, p, flat)
        bound = _certificate(r, total)
        p_y = _probabilities(y, flat)
        # an extrapolation that leaves an observed outcome no probability restarts too
        outside = ((n > 0) & (p_y <= 0.0)).any(axis=1)
        y[outside], theta[outside] = rho[outside], 1.0
        p_y[outside] = p[outside]
        r_y = _r_operator(n, total, p_y, flat)
    if len(active):
        estimates[active] = rho
        logger.warning(
            "ml_reconstruct: %d of %d states stopped at max_iter=%d with a "
            "log-likelihood gap bound up to %.3g nats (gap=%g)",
            len(active), len(estimates), max_iter, bound.max(), gap,
        )
    return estimates


# ---------------------------------------------------------------------------
# sampling streams
# ---------------------------------------------------------------------------

# The hash constants of numpy's SeedSequence (numpy/random/bit_generator.pyx)
# and the multiplier of PCG64's 128-bit LCG (pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(x: int) -> int:
    """How many uint32 words SeedSequence splits a non-negative integer into."""
    return max(1, -(-x.bit_length() // 32))


def _hash_constants(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """init mult^c mod 2^32 for c = first, ..., first + count, as a uint32 column."""
    return np.array([init * pow(mult, c, 2**32) % 2**32 for c in range(first, first + count + 1)],
                    dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of row j of uint32 ``values``, by hash constants j and j + 1."""
    v = (values ^ constants[:-1]) * constants[1:]
    return v ^ v >> 16


def _stream_states(seed: int, stream: int, n: int) -> Iterator[dict]:
    """The states of PCG64(SeedSequence(seed, spawn_key=(stream, i))) for i < n, in turn.

    SeedSequence hashes the words of its entropy, here the seed padded to
    four words, the stream's words and i's single word, into a pool of four
    words, one word after another.  So the n pools differ from that of
    SeedSequence(seed, spawn_key=(stream,)), taken from numpy, only by
    mixing in i, with the hash constants that follow the parent's
    4 + 12 + 4 (words - 4) hashes.  As in ``generate_state(4, np.uint64)``,
    each pool then gives the seed and increment from which PCG64 sets its
    128-bit state.  The words of all n states are derived in one pass, and
    each state's dictionary is made only when it is taken.  A negative seed
    or stream raises ValueError, as SeedSequence does, when the first state
    is taken.
    """
    parent = np.random.SeedSequence(seed, spawn_key=(stream,))
    if n > 2**32:
        raise ValueError(f"at most 2**32 streams, got {n}")
    entropy_words = max(_uint32_words(int(seed)), 4) + _uint32_words(int(stream))
    hashed = _hashmix(np.arange(n, dtype=np.uint32), _hash_constants(
        _INIT_A, _MULT_A, 4 + 12 + 4 * (entropy_words - 4), 4))
    pool = _MIX_MULT_L * parent.pool[:, None] - _MIX_MULT_R * hashed
    pool ^= pool >> 16
    out = _hashmix(np.tile(pool, (2, 1)), _hash_constants(_INIT_B, _MULT_B, 0, 8))
    out = out.astype(np.uint64)
    # uint64 j is out[2j] + 2^32 out[2j + 1]; PCG64 reads them as the high and
    # low words of its seed s, then of its sequence c, and sets the increment
    # 2c + 1 and the state (inc + s) mult + inc
    for s_hi, s_lo, c_hi, c_lo in (out[0::2] | out[1::2] << 32).T.tolist():
        inc = (c_hi << 65 | c_lo << 1 | 1) % 2**128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) % 2**128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _stream_generators(seed: int, stream: int, n: int) -> Iterator[np.random.Generator]:
    """default_rng(SeedSequence(seed, spawn_key=(stream, i))) for i < n, in turn.

    One Generator is set to each stream's state in turn, so each must be
    used up before the next is taken.
    """
    rng = np.random.Generator(np.random.PCG64())
    for state in _stream_states(seed, stream, n):
        rng.bit_generator.state = state
        yield rng


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

def run_experiment(
    schemes: list[Scheme],
    n_states: int,
    total_shots: int,
    rng_seed: int,
    streams: list[int] | None = None,
) -> list[ExperimentReport]:
    """Average reconstruction infidelity of each scheme over random states.

    ``total_shots`` is split equally across a scheme's measurements (floor
    division; any remainder is dropped).  All schemes see the same random
    states, and per-state sampling streams depend only on the master seed,
    the scheme's stream index, and the state index, so reports are
    reproducible.  A scheme's stream index is its position in ``schemes``
    unless ``streams`` gives one per scheme.  State i is drawn from
    ``default_rng(SeedSequence(rng_seed, spawn_key=(0, i)))``, and its counts
    under the scheme of stream index k from ``spawn_key=(1 + k, i)``; the
    states of one stream index's generators are derived for every i in one
    pass (:func:`_stream_states`), equal to SeedSequence's.  A negative seed
    or stream index raises ValueError.  The states are drawn, and each
    scheme's outcome probabilities computed, as one stack; only the
    multinomial draw runs per state, on that state's stream.  Each scheme's
    states are reconstructed and scored as one stack, against the states'
    square roots, which are taken once.
    """
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    streams = range(len(schemes)) if streams is None else streams
    if len(streams) != len(schemes):
        raise ValueError("streams must give one index per scheme")
    if min(streams, default=0) < 0:  # -1 would share the states' stream
        raise ValueError(f"stream indices must be non-negative, got {list(streams)}")
    states = random_densities(4, _stream_generators(rng_seed, 0, n_states))
    roots = density_sqrt(states)
    reports = []
    for s_idx, scheme in zip(streams, schemes):
        shots = total_shots // len(scheme.effects)
        if shots < 1:
            raise ValueError(f"budget {total_shots} too small for scheme {scheme.label!r}")
        counts = np.array([
            rng.multinomial(shots, p) for rng, p in zip(
                _stream_generators(rng_seed, 1 + s_idx, n_states),
                outcome_probabilities(states, scheme.effects))
        ])
        estimates = ml_reconstruct(counts, scheme.effects)
        assert_density(estimates, tol=1e-8)
        infids = 1.0 - state_fidelity(states, estimates, sqrt_rho=roots)
        reports.append(
            ExperimentReport(
                scheme_label=scheme.label,
                n_states=n_states,
                mean_infidelity=float(infids.mean()),
                sem=float(infids.std(ddof=1) / np.sqrt(n_states)) if n_states > 1 else 0.0,
                total_shots=shots * len(scheme.effects),
                seed=rng_seed,
            )
        )
    return reports


def reports_to_csv(rows: list[tuple[ExperimentReport, float]]) -> str:
    """CSV with one row per (report, noise strength) pair."""
    lines = ["scheme,zeta_or_r,n_states,total_shots,mean_infidelity,sem,seed"]
    for rep, strength in rows:
        lines.append(
            ",".join(
                [
                    rep.scheme_label,
                    f"{strength:.12g}",
                    str(rep.n_states),
                    str(rep.total_shots),
                    f"{rep.mean_infidelity:.12g}",
                    f"{rep.sem:.12g}",
                    str(rep.seed),
                ]
            )
        )
    return "\n".join(lines) + "\n"

