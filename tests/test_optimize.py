import inspect
import itertools
import logging
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import rosen, rosen_der

import noisyqst.optimize as optimize_module
from noisyqst.gates import (
    ENTANGLER_SLOTS,
    ENTANGLERS,
    INTERACTIONS,
    QuorumParams,
    standard_mub_params,
)
from noisyqst.noise import CHANNELS, NoiseModel
from noisyqst.optimize import (
    ObjectiveError,
    OptimizationResult,
    _bounded_objective,
    _bounded_start,
    _lbfgs_steps,
    _lockstep,
    _unpack,
    optimize_quorum,
    random_quorum,
)
from noisyqst.quality import (
    analytic_alpha_max,
    analytic_heisenberg_qn,
    quality_report,
)

# Entries [0, 1, 6, 7, 8, 74] of the flattened start arrays drawn by the
# search; a change to the order or the form of the random draws moves them.
PINNED_SLOTS = [0, 1, 6, 7, 8, 74]
# The two Ising multistart starts at seed 5.
MULTISTART_STARTS_SEED_5 = [
    [5.057982542713582, 5.076441699143409, 1.385445424048092,
     1.5446479620375486, 0.7026996783934214, 3.8485628675173906],
    [3.9674300644730947, 5.874533809778111, 0.07772491486177491,
     0.19804040996695194, -0.025811703463050284, 4.5840776915516175],
]


# (label, repr of q_noisy, trajectory length) of a tiny run, pinned with the
# projected L-BFGS refinement from plain random starts: multistart, 2 starts,
# max_iters 3, seed 11, OU/Ising at 0.05
MULTISTART_PINNED = [("multistart-0", "0.00039442448315321935", 3),
                     ("multistart-1", "6.259203027156618e-05", 3)]

FREE = (-np.inf, np.inf)


def _run_lbfgs(fg, x0, bounds, max_iters):
    """Run the refinement's step generator alone, answering each point x it yields with fg(x)."""
    steps = _lbfgs_steps(x0, bounds, max_iters)
    try:
        x = next(steps)
        while True:
            x = steps.send(fg(x))
    except StopIteration as done:
        return done.value


def test_lbfgs_quadratic_bowl():
    fg = lambda x: (float(np.sum((x - 1.0) ** 2)), 2.0 * (x - 1.0))
    x, fx, traj, _ = _run_lbfgs(fg, np.zeros(5), FREE, 200)
    assert np.max(np.abs(x - 1.0)) < 1e-6
    assert fx < 1e-10
    assert traj and traj[-1][1] == fx


def test_lbfgs_rosenbrock():
    fg = lambda v: (float(rosen(v)), rosen_der(v))
    x, fx, _, _ = _run_lbfgs(fg, np.array([-1.2, 1.0]), FREE, 200)
    assert fx < 1e-8
    assert np.max(np.abs(x - 1.0)) < 1e-3  # known minimum at (1, 1)


def test_lbfgs_stops_on_an_active_bound():
    fg = lambda x: (float((x[0] - 3.0) ** 2), 2.0 * (x - 3.0))
    x, fx, _, pg = _run_lbfgs(fg, np.array([0.5]), (np.zeros(1), np.ones(1)), 200)
    assert x[0] == 1.0 and fx == 4.0
    assert pg == 0.0  # the gradient points out of the box


def test_lbfgs_stops_where_a_free_gradient_would_overflow_a_step():
    # a slope of 1e200 overflows g . d; on a coordinate held at its bound it is harmless
    fg = lambda x: (1e200 * float(x[0]) + float(x[1] ** 2), np.array([1e200, 2.0 * x[1]]))
    box = (np.array([0.0, -np.inf]), np.full(2, np.inf))
    x, _, _, pg = _run_lbfgs(fg, np.array([0.0, 1.0]), box, 200)
    assert x[0] == 0.0 and abs(x[1]) < 1e-6 and pg < 1e-6
    # a free one stops the run where it stands, unconverged
    x, fx, trajectory, pg = _run_lbfgs(lambda x: (-1e200 * float(x[0]), np.array([-1e200])),
                                       np.zeros(1), FREE, 200)
    assert (x.tolist(), fx, trajectory, pg) == ([0.0], 0.0, [], 1e200)
    # an infinite gradient is past the cap too: harmless where it is held at its bound ...
    fg = lambda x: (float(x[0] + x[1] ** 2), np.array([np.inf, 2.0 * x[1]]))
    x, _, _, pg = _run_lbfgs(fg, np.array([0.0, 1.0]), box, 200)
    assert x[0] == 0.0 and abs(x[1]) < 1e-6 and pg < 1e-6

    # ... and where it is free, here past x[0] = 0.5, the step that reached it is kept
    # and the run stops there, with an infinite projected gradient
    def bowl(x):
        return float(np.sum((x - [1.0, 0.0]) ** 2)), 2.0 * (x - [1.0, 0.0])

    def inf_gradient(x):
        return (bowl(x)[0], np.full(2, np.inf)) if x[0] > 0.5 else bowl(x)

    box = (np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    x, fx, trajectory, pg = _run_lbfgs(inf_gradient, np.array([0.4, 0.0]), box, 200)
    assert x[0] > 0.5 and fx == bowl(x)[0]
    assert [f for _, f in trajectory] == [fx] and pg == np.inf


@st.composite
def _boxed_problems(draw):
    """(low, high, c, x0) in 2 to 20 dimensions, each bound infinite about half the time."""
    n = draw(st.integers(2, 20))

    def vector(lo, hi):
        return draw(arrays(np.float64, n, elements=st.floats(lo, hi)))

    centre, half = vector(-3.0, 3.0), vector(0.1, 3.0)
    low = np.where(draw(arrays(bool, n)), -np.inf, centre - half)
    high = np.where(draw(arrays(bool, n)), np.inf, centre + half)
    return low, high, vector(-6.0, 6.0), vector(-6.0, 6.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(problem=_boxed_problems(), data=st.data())
def test_lbfgs_diagonal_quadratic_reaches_the_clipped_minimum(problem, data):
    low, high, c, x0 = problem
    a = data.draw(arrays(np.float64, len(c), elements=st.floats(1.0, 10.0)))
    x_star = np.clip(c, low, high)

    # sum a (x - c)^2 / 2 less its minimum, written so that it has no rounding
    # error of the size of that minimum: the run stops once a step gains at most
    # LBFGS_F_TOL * max(|f|, 1), an error in x of about sqrt(2e-15 / a) < 1e-7
    def fg(x):
        return 0.5 * float(a @ ((x - x_star) * (x + x_star - 2.0 * c))), a * (x - c)

    x, _, _, _ = _run_lbfgs(fg, x0, (low, high), 1000)
    on_bound = x_star != c
    assert np.array_equal(x[on_bound], x_star[on_bound])
    assert np.max(np.abs(x - x_star)) <= 1e-7


@settings(max_examples=100, deadline=None, derandomize=True)
@given(problem=_boxed_problems(), seed=st.integers(0, 2**32 - 1))
def test_lbfgs_dense_quadratic_descends_inside_the_box(problem, seed):
    low, high, c, x0 = problem
    n = len(c)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    hessian = (q * rng.uniform(1.0, 100.0, n)) @ q.T

    def fg(x):
        return 0.5 * float((x - c) @ hessian @ (x - c)), hessian @ (x - c)

    f0, g0 = fg(np.clip(x0, low, high))
    x, _, trajectory, pg = _run_lbfgs(fg, x0, (low, high), 1000)
    assert np.all((low <= x) & (x <= high))
    values = [f0] + [f for _, f in trajectory]
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))
    assert pg <= 1e-6 * (1.0 + np.max(np.abs(g0)))


def test_lbfgs_aborts_on_non_finite_objective():
    box = (np.array([0.0, -1.0]), np.array([2.0, 1.0]))

    def bowl(x):
        # minimum at (1, 0), past x[0] = 0.5
        return float(np.sum((x - [1.0, 0.0]) ** 2)), 2.0 * (x - [1.0, 0.0])

    def bad_value(x):
        return (np.inf, bowl(x)[1]) if x[0] > 0.5 else bowl(x)

    def bad_gradient(x):
        return (bowl(x)[0], np.full(2, np.nan)) if x[0] > 0.5 else bowl(x)

    # the message says which was not finite, the value or the gradient
    for bad, message in ((bad_value, r"^objective returned inf$"),
                         (bad_gradient, r"^objective returned [0-9.]+ with a non-finite gradient$")):
        with pytest.raises(ObjectiveError, match=message):
            _run_lbfgs(bad, np.array([0.4, 0.0]), box, 200)


def test_multistart_starts_are_the_first_random_quorum_draws(monkeypatch):
    jobs = []

    def capture(noise, max_iters, starts):
        jobs.extend(starts)
        return [ObjectiveError("captured")] * len(starts)

    monkeypatch.setattr(optimize_module, "_lockstep", capture)
    noise = NoiseModel("depolarizing", "ising", 0.02)
    with pytest.raises(RuntimeError):
        optimize_quorum(noise, strategy="multistart", n_starts=3, seed=5)
    rng = np.random.default_rng(5)
    assert [label for label, _ in jobs] == ["multistart-0", "multistart-1", "multistart-2"]
    for _, x0 in jobs:
        assert np.array_equal(x0, random_quorum("ising", rng))
    starts = np.array([x0 for _, x0 in jobs[:2]])
    assert np.array_equal(starts.reshape(2, 75)[:, PINNED_SLOTS], MULTISTART_STARTS_SEED_5)


@pytest.mark.parametrize("n_starts", [0, -1])
def test_optimize_rejects_nonpositive_starts(n_starts):
    noise = NoiseModel("depolarizing", "heisenberg", 0.02)
    with pytest.raises(ValueError, match="n_starts"):
        optimize_quorum(noise, strategy="multistart", n_starts=n_starts)


def test_optimize_mub_seeded_zero_noise_keeps_mubs():
    noise = NoiseModel("depolarizing", "heisenberg", 0.0)
    res = optimize_quorum(noise, strategy="mub-seeded")[0]
    assert res.q_noisy == pytest.approx(1.0 / 32.0, abs=1e-9)
    assert res.start_label == "mub"


def test_optimize_mub_seeded_recovers_analytic_alpha():
    zeta = 0.02
    noise = NoiseModel("depolarizing", "heisenberg", zeta)
    res = optimize_quorum(noise, strategy="mub-seeded")[0]
    target = analytic_alpha_max(zeta)
    for j in (3, 4):
        alpha1, _, alpha3 = res.params.to_array()[j, ENTANGLER_SLOTS]
        assert abs(alpha1 - target) < 1e-3
        assert abs(alpha3 - target) < 1e-3
    closed = analytic_heisenberg_qn(target, target, target, target, zeta)
    assert abs(res.q_noisy - closed) < 1e-6
    # the refinement only accepts steps that lower -ln Q_N, so the result never
    # scores below the start, and the report is re-evaluable
    start_qn = quality_report(standard_mub_params("heisenberg"), noise).q_noisy
    assert res.q_noisy >= start_qn - 1e-9
    assert res.q_noisy == pytest.approx(quality_report(res.params, noise).q_noisy, abs=1e-9)


@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("interaction", INTERACTIONS)
def test_bounded_objective_value_and_gradient(channel, interaction):
    noise = NoiseModel(channel, interaction, 0.1)
    rng = np.random.default_rng(3)
    params = random_quorum(interaction, rng)
    z, bounds = _bounded_start(params, interaction)
    # the start is the quorum itself: pulses as phases pi alpha, at most one
    # part of each coupling nonzero
    q_noisy = quality_report(QuorumParams(interaction, params), noise).q_noisy
    assert _bounded_objective(z, noise)[0] == pytest.approx(-np.log(q_noisy), abs=1e-12)
    low, high = bounds
    assert len(z) == len(low) == len(high) == 75 + 15 * (len(ENTANGLERS[interaction].signs) - 1)
    assert np.all((low <= z) & (z <= high))
    # an interior point, where both parts of a coupling are free
    z = np.where(np.isfinite(low), rng.uniform(0.1, 1.4, size=len(z)), z)
    _, grad = _bounded_objective(z, noise)
    h = 1e-7
    central = np.empty(len(z))
    for i in range(len(z)):
        step = np.zeros(len(z))
        step[i] = h
        central[i] = (_bounded_objective(z + step, noise)[0]
                      - _bounded_objective(z - step, noise)[0]) / (2 * h)
    assert np.max(np.abs(grad - central)) <= 1e-5 * (1.0 + np.max(np.abs(grad)))


def test_optimize_multistart_smoke_sorted():
    noise = NoiseModel("depolarizing", "heisenberg", 0.02)
    results = optimize_quorum(
        noise, strategy="multistart", n_starts=3, max_iters=2, seed=11
    )
    assert len(results) == 3
    qs = [r.q_noisy for r in results]
    assert qs == sorted(qs, reverse=True)
    labels = {r.start_label for r in results}
    assert len(labels) == 3


@pytest.mark.parametrize("interaction", INTERACTIONS)
def test_multistart_results_stay_in_the_box(interaction):
    noise = NoiseModel("ou", interaction, 0.05)
    low, high = ENTANGLERS[interaction].box
    for r in optimize_quorum(noise, "multistart", 2, seed=2):
        ent = r.params.to_array()[:, ENTANGLER_SLOTS]
        assert np.all((low <= ent) & (ent <= high))


@pytest.mark.parametrize("interaction", INTERACTIONS)
def test_bounded_parametrization_follows_the_entangler_record(interaction):
    rec = ENTANGLERS[interaction]
    extra = 15 * (len(rec.signs) - 1)
    rng = np.random.default_rng(7)
    quorums = [random_quorum(interaction, rng) for _ in range(200)]
    draws = np.array([q[:, ENTANGLER_SLOTS] for q in quorums])
    assert np.all((rec.box[0] <= draws) & (draws < rec.box[1]))
    for params in (standard_mub_params(interaction).to_array(), *quorums[:20]):
        z, (low, high) = _bounded_start(params, interaction)
        # free angles; each entangler parameter has one part in [0, phase_bound] per sign
        boxed = np.zeros((5, 15), dtype=bool)
        boxed[:, ENTANGLER_SLOTS] = True
        boxed = np.append(boxed, np.ones(extra, dtype=bool))
        assert np.array_equal(low, np.where(boxed, 0.0, -np.inf))
        assert np.array_equal(high, np.where(boxed, rec.phase_bound, np.inf))
        assert np.all((low <= z) & (z <= high))
        back, weights = _unpack(z, interaction)
        if abs(rec.rate) == 1.0:  # the phases are the parameters
            assert np.array_equal(back, params)
        else:  # x |rate| / |rate|, one rounding each way
            assert np.all(np.abs(back - params) <= np.spacing(np.abs(params)))
        assert np.array_equal(weights, np.abs(back[:, ENTANGLER_SLOTS]))
    # the bounds of the parts span the record's box of a parameter
    spanned = [_unpack(np.append(np.full(75, c[0]), np.repeat(c[1:], 15)), interaction)[0][0, 6]
               for c in itertools.product((0.0, rec.phase_bound), repeat=len(rec.signs))]
    assert (min(spanned), max(spanned)) == rec.box


@pytest.mark.parametrize("max_iters", [0, -1])
def test_optimize_rejects_nonpositive_max_iters(max_iters):
    noise = NoiseModel("depolarizing", "heisenberg", 0.0)
    with pytest.raises(ValueError, match="max_iters"):
        optimize_quorum(noise, max_iters=max_iters)


@pytest.mark.parametrize("noise, strategy, kwargs, pinned", [
    (NoiseModel("ou", "ising", 0.05), "multistart",
     dict(max_iters=3, seed=11), MULTISTART_PINNED),
], ids=["multistart"])
def test_tiny_runs_are_pinned(noise, strategy, kwargs, pinned):
    results = optimize_quorum(noise, strategy, 2, **kwargs)
    assert [(r.start_label, repr(r.q_noisy), len(r.trajectory)) for r in results] == pinned


def test_a_start_that_stops_at_the_qn_floor_is_reported(monkeypatch, caplog):
    # The zero quorum is singular: -ln Q_N is capped at -ln(1e-300) with a zero
    # gradient, so the start stops at once, and no projected gradient shows it
    zeros = QuorumParams("heisenberg", np.zeros((5, 15)))
    monkeypatch.setattr(optimize_module, "standard_mub_params", lambda interaction: zeros)
    with caplog.at_level(logging.WARNING, logger="noisyqst.optimize"):
        [result] = optimize_quorum(NoiseModel("depolarizing", "heisenberg", 0.05))
    assert (result.q_noisy, result.iterations, result.projected_gradient) == (0.0, 0, 0.0)
    assert caplog.messages == ["start mub stopped at the Q_N floor: Q_N 0 <= 1e-300 after 0 "
                               "iterations"]
    # At r = 100 the MUB seed's Q_N is rounding noise near the floor; whichever
    # way its start ends, the run says so
    monkeypatch.undo()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="noisyqst.optimize"):
        optimize_quorum(NoiseModel("ou", "ising", 100.0))
    assert len(caplog.messages) == 1
    assert caplog.messages[0].startswith(("start mub stopped at the Q_N floor",
                                          "start mub did not converge"))


def test_optimize_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        optimize_quorum(NoiseModel("depolarizing", "heisenberg", 0.0), strategy="bogus")


@pytest.mark.slow
def test_mub_seeded_entangling_time_decreases_with_noise():
    totals = []
    for zeta in (0.01, 0.02, 0.03, 0.04, 0.05):
        noise = NoiseModel("depolarizing", "heisenberg", zeta)
        res = optimize_quorum(noise, strategy="mub-seeded")[0]
        totals.append(res.entangling_time_total)
    # mirrors the analytic trend 4 * alpha_max(zeta), monotone in zeta
    assert all(a > b - 1e-6 for a, b in zip(totals, totals[1:]))


def _outcome_key(outcome):
    """An outcome of _lockstep in a form that compares by value."""
    if isinstance(outcome, OptimizationResult):
        return outcome
    return type(outcome), str(outcome)


def test_start_outcome_does_not_depend_on_the_stack(monkeypatch):
    noise = NoiseModel("depolarizing", "heisenberg", 0.02)
    x0 = standard_mub_params("heisenberg").to_array()
    starts = [
        ("mub", x0),
        ("nan", np.full((5, 15), np.nan)),
        ("shifted", x0 + 0.05),
        ("random", random_quorum("heisenberg", np.random.default_rng(2))),
    ]
    stack_sizes = []
    objective = optimize_module._bounded_objective

    def spy(z, noise):
        stack_sizes.append(len(z))
        return objective(z, noise)

    monkeypatch.setattr(optimize_module, "_bounded_objective", spy)
    stacked = _lockstep(noise, 3, starts)
    # the first round evaluates every start as one stack
    assert stack_sizes[0] == len(starts)
    alone = [_lockstep(noise, 3, [start])[0] for start in starts]
    assert [_outcome_key(o) for o in stacked] == [_outcome_key(o) for o in alone]
    assert [o.start_label for o in stacked if isinstance(o, OptimizationResult)] == [
        "mub", "shifted", "random"]
    assert _outcome_key(stacked[1]) == (ObjectiveError, "objective returned nan")


@pytest.mark.parametrize("strategy", ["mub-seeded", "multistart"])
def test_evaluations_count_the_objective_calls_of_a_start_run_alone(strategy):
    noise = NoiseModel("ou", "ising", 0.05)
    n_starts, max_iters, seed = 2, 3, 4
    results = optimize_quorum(noise, strategy, n_starts, max_iters=max_iters, seed=seed)
    if strategy == "mub-seeded":
        x0s = {"mub": standard_mub_params("ising").to_array()}
    else:
        rng = np.random.default_rng(seed)
        x0s = {f"multistart-{i}": random_quorum("ising", rng) for i in range(n_starts)}
    assert sorted(r.start_label for r in results) == sorted(x0s)
    for result in results:
        calls = []

        def fg(z):
            calls.append(z)
            return _bounded_objective(z, noise)

        z0, bounds = _bounded_start(x0s[result.start_label], "ising")
        _, _, trajectory, _ = _run_lbfgs(fg, z0, bounds, max_iters)
        assert result.iterations == len(trajectory)
        assert result.evaluations == len(calls) > len(trajectory)
        assert "evaluations" not in result.to_dict()


def test_optimize_runs_its_starts_in_one_process():
    assert "threads" not in inspect.signature(optimize_quorum).parameters
    argv = ["optimize", "--strategy", "multistart", "--starts", "2", "--max-iters", "1",
            "--threshold-pairs", "50", "--zeta", "0.02", "--threads", "2"]
    code = ("import sys, noisyqst.cli; "
            f"assert noisyqst.cli.main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent.futures'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[]"
