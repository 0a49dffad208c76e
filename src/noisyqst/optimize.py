"""Search for high-quality measurement quorums.

Inside the search a quorum is its canonical (5, 15) parameter array.  Every
start, whatever the strategy, is refined by projected L-BFGS in a box
(Bertsekas 1982; Kim, Sra & Dhillon 2010; see _lbfgs_steps) on the
analytic gradient of -ln Q_N: the MUB seed, or each of a multistart run's
plain random quorums, with every interaction's entangler parameters held as
phases in the box of its gates.Entangler record.  The objective is -ln Q_N,
which has the same argmax as Q_N and avoids underflow for small volumes.
The refinement is a step generator that yields the points it needs
evaluated, so all starts of a run advance in lockstep in one process, and
each round evaluates their points as one stack.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .gates import (
    ENTANGLER_SLOTS,
    ENTANGLERS,
    STRATEGIES,
    QuorumParams,
    entangling_times,
    standard_mub_params,
)
from .noise import DegeneratePovmError, NoiseModel
from .quality import QN_FLOOR, neg_log_qn_and_grad, quality_report


def _warn(msg: str, *args) -> None:
    """A warning on this module's logger; logging is imported only when one is logged."""
    import logging

    logging.getLogger(__name__).warning(msg, *args)


# _lbfgs_steps runs until a step gains at most LBFGS_F_TOL relative, or its
# line search fails: at the rounding floor of -ln Q_N.  The refinement has
# converged if the max-norm of the projected gradient is then at most G_TOL.
G_TOL = 1e-6
LBFGS_F_TOL = 1e-15
# The (s, y) pairs _lbfgs_steps keeps, and its sufficient-decrease constant.
LBFGS_MEMORY = 10
ARMIJO_C = 1e-4
# Past this gradient of a free coordinate the products of a step overflow, so _lbfgs_steps stops.
LBFGS_G_MAX = 1e150


@dataclass(frozen=True)
class OptimizationResult:
    params: QuorumParams
    q_noisy: float
    q_geometric: float
    entangling_time_total: float
    trajectory: tuple[tuple[int, float], ...]
    start_label: str
    # the refinement's iterations, the max-norm of its final projected
    # gradient, and the points evaluated for this start; not written out
    iterations: int
    projected_gradient: float
    evaluations: int

    def to_dict(self) -> dict:
        return {
            "start_label": self.start_label,
            "q_noisy": self.q_noisy,
            "q_geometric": self.q_geometric,
            "entangling_time_total": self.entangling_time_total,
            "trajectory": [[int(i), float(f)] for i, f in self.trajectory],
            "params": self.params.to_dict(),
        }


# ---------------------------------------------------------------------------
# generic minimizers
# ---------------------------------------------------------------------------

class ObjectiveError(RuntimeError):
    """Non-finite objective value encountered during a search, at the point ``x``."""

    def __init__(self, message: str, x=None):
        super().__init__(message)
        self.x = x


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """H g for the L-BFGS inverse Hessian of ``pairs`` (s, y, 1 / s.y), oldest first.

    The two-loop recursion of Nocedal, Math. Comp. 35, 773 (1980), scaled by
    s.y / y.y of the newest pair.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return q


def _lbfgs_steps(x0, bounds, max_iters: int):
    """Projected L-BFGS minimization in a box, at most ``max_iters`` iterations, as a step
    generator: each point x it yields is answered by ``f, grad = yield x``.

    An active-set projected quasi-Newton method (Bertsekas, SIAM J. Control
    Optim. 20, 221 (1982); Kim, Sra & Dhillon, SIAM J. Sci. Comput. 32, 3548
    (2010)).  Each iteration holds fixed the coordinates that sit on a bound
    with the gradient pointing out of the box, takes the L-BFGS direction of
    the others, and backtracks along the projection arc clip(x + t d) until
    Armijo's condition holds.  The first step has unit length at most.  A
    pair (s, y) is stored only if y is finite and s.y > 0, with y zero on
    the fixed coordinates.  It stops when a step gains at most LBFGS_F_TOL
    relative, when the line search reaches the rounding floor of x, or where
    a free coordinate's gradient passes LBFGS_G_MAX, infinite included.  A
    fixed coordinate's gradient enters no product, so it may be infinite too.

    ``bounds`` is a pair (low, high), infinite where a coordinate is free; x0
    is clipped into it.  Returns (x_min, f_min, trajectory, pg) where
    trajectory lists the objective after each iteration and pg is the
    max-norm of the projected gradient at x_min.  Raises
    :class:`ObjectiveError` if the objective ever evaluates non-finite or its
    gradient NaN.  As a generator it lets :func:`optimize_quorum` evaluate the
    points of many runs as one stack.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    low, high = (np.broadcast_to(np.asarray(b, dtype=float), x0.shape) for b in bounds)

    def checked(reply, x):  # the error says which was not finite, the value or the gradient
        val, grad = reply
        if not np.isfinite(val):
            raise ObjectiveError(f"objective returned {val}", x)
        if np.isnan(grad).any():
            raise ObjectiveError(f"objective returned {val} with a non-finite gradient", x)
        return float(val), np.asarray(grad, dtype=float)

    x = np.clip(x0, low, high)
    f, g = checked((yield x), x)
    pairs = deque(maxlen=LBFGS_MEMORY)
    trajectory = []
    while len(trajectory) < max_iters:
        fixed = ((x <= low) & (g > 0)) | ((x >= high) & (g < 0))
        g_free = np.where(fixed, 0.0, g)
        if np.max(np.abs(g_free)) > LBFGS_G_MAX:
            break
        d = -_two_loop(g_free, pairs)
        d[fixed] = 0.0
        if g_free @ d >= 0.0:  # the pairs give no descent direction: forget them
            pairs.clear()
            d = -g_free
        if not d.any():  # the projected gradient is zero
            break
        norm = np.linalg.norm(d)
        t = 1.0 if pairs or norm <= 1.0 else 1.0 / norm
        while True:
            x_new = np.clip(x + t * d, low, high)
            if np.array_equal(x_new, x):
                return x, f, trajectory, _projected_gradient(x, g, low, high)
            f_new, g_new = checked((yield x_new), x_new)
            slope = g_free @ (x_new - x)
            if slope < 0.0 and f_new <= f + ARMIJO_C * slope:
                break
            # backtrack to the minimizer of the quadratic through f, slope and
            # f_new, kept in [t/10, t/2]; halve a step that does not descend
            ratio = -slope / (2.0 * (f_new - f - slope)) if slope < 0.0 else 0.5
            t *= min(max(ratio, 0.1), 0.5)
        s, y = x_new - x, np.where(fixed, 0.0, g_new - g_free)
        if np.isfinite(y).all() and s @ y > 0.0:
            pairs.append((s, y, 1.0 / (s @ y)))
        converged = f - f_new <= LBFGS_F_TOL * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        trajectory.append((len(trajectory), f))
        if converged:
            break
    return x, f, trajectory, _projected_gradient(x, g, low, high)


def _projected_gradient(x, g, low, high) -> float:
    """The max-norm of the projected gradient clip(x - g) - x; infinite where an
    infinite gradient can move its coordinate, so that such a run never converges."""
    step = np.abs(np.clip(x - g, low, high) - x)
    return float(np.max(np.where(np.isinf(g) & (step > 0.0), np.inf, step)))


# ---------------------------------------------------------------------------
# quorum parameters
# ---------------------------------------------------------------------------

def random_quorum(interaction: str, rng: np.random.Generator) -> np.ndarray:
    """(5, 15) parameters: uniform angles in [0, 2 pi), then entangler parameters uniform
    in their record's box, Heisenberg pulses in [0, 2) or Ising couplings in [-pi/2, pi/2)."""
    x = rng.uniform(0.0, 2.0 * np.pi, size=(5, 15))
    x[:, ENTANGLER_SLOTS] = rng.uniform(*ENTANGLERS[interaction].box, size=(5, 3))
    return x


# ---------------------------------------------------------------------------
# quorum optimization
# ---------------------------------------------------------------------------

def _finish(noise: NoiseModel, label: str, evaluations: int, params: np.ndarray, trajectory,
            iterations: int, pg: float) -> OptimizationResult:
    qp = QuorumParams(noise.interaction, params)
    rep = quality_report(qp, noise)
    return OptimizationResult(
        params=qp, q_noisy=rep.q_noisy, q_geometric=rep.q_geometric,
        entangling_time_total=float(sum(rep.entangling_times)),
        trajectory=tuple((int(i), float(f)) for i, f in trajectory), start_label=label,
        iterations=iterations, projected_gradient=pg, evaluations=evaluations)


def _bounded_start(params: np.ndarray, interaction: str):
    """The bounded vector of a quorum's (5, 15) parameters, and its bounds (low, high).

    Entangler parameter x has one part max(sign |rate| x, 0) per sign of its record
    (:class:`~noisyqst.gates.Entangler`): the first in x's slot, the others after the 75.
    """
    rec = ENTANGLERS[interaction]
    params = np.array(params, dtype=float)
    phases = abs(rec.rate) * params[:, ENTANGLER_SLOTS]
    parts = [np.maximum(sign * phases, 0.0) for sign in rec.signs]
    params[:, ENTANGLER_SLOTS] = parts[0]
    low, high = np.full((5, 15), -np.inf), np.full((5, 15), np.inf)
    low[:, ENTANGLER_SLOTS], high[:, ENTANGLER_SLOTS] = 0.0, rec.phase_bound
    extra = 15 * (len(rec.signs) - 1)
    return (np.append(params, parts[1:]),
            (np.append(low, np.zeros(extra)), np.append(high, np.full(extra, rec.phase_bound))))


def _unpack(z: np.ndarray, interaction: str):
    """(..., 5, 15) parameters sum(sign part) / |rate| and (..., 5, 3) noise weights
    sum(part) / |rate| of stacked bounded vectors (..., n)."""
    rec = ENTANGLERS[interaction]
    lead = z.shape[:-1]
    params = z[..., :75].reshape(*lead, 5, 15).copy()
    parts = np.concatenate([params[..., None, :, ENTANGLER_SLOTS],
                            z[..., 75:].reshape(*lead, len(rec.signs) - 1, 5, 3)], axis=-3)
    signed = np.reshape(rec.signs, (-1, 1, 1)) * parts
    params[..., ENTANGLER_SLOTS] = signed.sum(axis=-3) / abs(rec.rate)
    return params, parts.sum(axis=-3) / abs(rec.rate)


def _bounded_objective(z: np.ndarray, noise: NoiseModel):
    """-ln Q_N of stacked bounded vectors (..., n) and its gradients by them, row by row."""
    rec = ENTANGLERS[noise.interaction]
    params, weights = _unpack(z, noise.interaction)
    val, grad_params, grad_weights = neg_log_qn_and_grad(params, weights, noise)
    # by part: (sign d/dx + d/dw) / |rate|
    grad_parts = (np.reshape(rec.signs, (-1, 1, 1)) * grad_params[..., None, :, ENTANGLER_SLOTS]
                  + grad_weights[..., None, :, :]) / abs(rec.rate)
    grad_params[..., ENTANGLER_SLOTS] = grad_parts[..., 0, :, :]
    lead = z.shape[:-1]
    return val, np.concatenate([grad_params.reshape(*lead, 75),
                                grad_parts[..., 1:, :, :].reshape(*lead, -1)], axis=-1)


def _start_steps(noise: NoiseModel, max_iters: int, x0: np.ndarray):
    """One start as a step generator: the refinement of ``x0`` yields bounded
    vectors that want -ln Q_N and its gradient.  Returns (params, trajectory,
    iterations, pg).  Where the objective turns NaN because a point fully
    depolarizes an effect, it raises the DegeneratePovmError that names the effect."""
    z0, bounds = _bounded_start(x0, noise.interaction)
    try:
        z, _, traj, pg = yield from _lbfgs_steps(z0, bounds, max_iters)
    except ObjectiveError as exc:
        neg_log_qn_and_grad(*_unpack(exc.x, noise.interaction), noise, strict=True)
        raise
    return _unpack(z, noise.interaction)[0], traj, len(traj), pg


def _lockstep(noise: NoiseModel, max_iters: int, starts: list) -> list:
    """Run the starts (label, (5, 15) x0) in lockstep in this process.

    Each round evaluates every running start's next point, all by one stacked
    _bounded_objective; a start does the arithmetic it would alone.  Returns per
    start, in start order, its result or the ObjectiveError or
    DegeneratePovmError it failed with.
    """
    steps = [_start_steps(noise, max_iters, x0) for _, x0 in starts]
    outcomes, evaluations = [None] * len(starts), [0] * len(starts)
    replies = dict.fromkeys(range(len(starts)))  # None starts a generator
    while replies:
        points = {}
        for i, reply in replies.items():
            try:
                points[i] = steps[i].send(reply)
                evaluations[i] += 1
            except StopIteration as done:
                outcomes[i] = _finish(noise, starts[i][0], evaluations[i], *done.value)
            except (ObjectiveError, DegeneratePovmError) as exc:
                outcomes[i] = exc
        replies = {}
        if points:
            values, grads = _bounded_objective(np.stack(list(points.values())), noise)
            replies = dict(zip(points, zip(values, grads)))
    return outcomes


def optimize_quorum(
    noise: NoiseModel,
    strategy: str = "mub-seeded",
    n_starts: int = 1,
    max_iters: int = 200,
    seed: int = 0,
) -> list[OptimizationResult]:
    """Maximize Q_N over the (5, 15) quorum parameters.

    ``mub-seeded`` starts from the standard MUB quorum, and ``multistart``
    from the first ``n_starts`` draws of ``random_quorum`` from
    ``default_rng(seed)``.  Every start is refined by at most ``max_iters``
    iterations of projected L-BFGS on the analytic gradient; all run in
    lockstep in this process, each as it would alone.  A start whose
    objective turns non-finite or NaN (a fully depolarized effect, which the
    warning names) fails alone.  Starts at the Q_N floor (the objective's cap),
    or unconverged, then failed starts are logged as warnings in start order.
    Results are sorted by decreasing Q_N; if every start fails, RuntimeError
    is raised.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    # (label, x0 (5, 15))
    if strategy == "mub-seeded":
        starts = [("mub", standard_mub_params(noise.interaction).to_array())]
    else:
        rng = np.random.default_rng(seed)
        starts = [(f"multistart-{i}", random_quorum(noise.interaction, rng))
                  for i in range(n_starts)]

    outcomes = _lockstep(noise, max_iters, starts)
    results = [r for r in outcomes if isinstance(r, OptimizationResult)]
    for r in results:
        if r.q_noisy <= QN_FLOOR:  # -ln Q_N is capped there, with a zero gradient
            _warn("start %s stopped at the Q_N floor: Q_N %.3g <= %.0e after %d iterations",
                  r.start_label, r.q_noisy, QN_FLOOR, r.iterations)
        elif r.projected_gradient > G_TOL:
            _warn("start %s did not converge: projected gradient %.2e > %.0e after %d "
                  "iterations", r.start_label, r.projected_gradient, G_TOL, r.iterations)
    failures = [(label, exc) for (label, _), exc in zip(starts, outcomes)
                if not isinstance(exc, OptimizationResult)]
    for label, exc in failures:
        _warn("start %s failed: %s", label, exc)
    if not results:
        raise RuntimeError("all optimization starts failed: "
                           + "; ".join(f"{label}: {exc}" for label, exc in failures))
    results.sort(key=lambda r: r.q_noisy, reverse=True)
    return results


def results_to_csv(results: list[OptimizationResult], strategy: str, seed: int) -> str:
    """Flat CSV, one row per result."""
    lines = [
        "strategy,seed,start_label,q_geometric,q_noisy,entangling_time_total,"
        "t_1,t_2,t_3,t_4,t_5"
    ]
    for r in results:
        times = entangling_times(r.params.to_array()[:, ENTANGLER_SLOTS], r.params.interaction)
        fields = [strategy, str(seed), r.start_label]
        fields += [f"{v:.12g}" for v in (r.q_geometric, r.q_noisy, r.entangling_time_total)]
        fields += [f"{t:.12g}" for t in times]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"
