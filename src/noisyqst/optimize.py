"""Search for high-quality measurement quorums.

Inside the search a quorum is its canonical (5, 15) parameter array.  Every
start, whatever the strategy, ends in one refinement by projected L-BFGS in a
box (Bertsekas 1982; Kim, Sra & Dhillon 2010; see lbfgs_minimize) on the
analytic gradient of -ln Q_N: the MUB seed, each diversity-filtered random
start of a multistart run, and the best point of each annealing walk.  The
walk makes Gaussian proposals on the (5, 15) array, clipped into the box of
Heisenberg pulses in [0, 2] or Ising couplings in [-pi/2, pi/2], under
geometric cooling.  Multistart runs draw starting points that are mutually
diverse under a binned Jaccard distance on the projector dot-product
multisets, scored on (n, 5, 15) stacks.  The objective is -ln Q_N, which has
the same argmax as Q_N and avoids underflow for small volumes.
"""

from __future__ import annotations

import functools
import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .gates import (
    ENTANGLER_SLOTS,
    HEISENBERG,
    ISING,
    QuorumParams,
    entangling_times,
    measurement_layers,
    standard_mub_params,
)
from .noise import NoiseModel
from .quality import neg_log_qn, neg_log_qn_and_grad, quality_report

logger = logging.getLogger(__name__)

STRATEGIES = ("mub-seeded", "multistart", "annealing")

# lbfgs_minimize runs until a step gains at most LBFGS_F_TOL relative, or its
# line search fails: at the rounding floor of -ln Q_N.  The refinement has
# converged if the max-norm of the projected gradient is then at most G_TOL.
G_TOL = 1e-6
LBFGS_F_TOL = 1e-15
# The (s, y) pairs lbfgs_minimize keeps, and its sufficient-decrease constant.
LBFGS_MEMORY = 10
ARMIJO_C = 1e-4


# The schedule of simulated_annealing.
SA_T0, SA_COOLING, SA_STEPS, SA_STEP = 1.0, 0.95, 100, 0.1


@dataclass(frozen=True)
class OptimizationResult:
    params: QuorumParams
    q_noisy: float
    q_geometric: float
    entangling_time_total: float
    trajectory: tuple[tuple[int, float], ...]
    start_label: str
    # the refinement's iterations and the max-norm of its final projected
    # gradient; not written out
    iterations: int
    projected_gradient: float

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
    """Non-finite objective value encountered during a search."""


def _finite(val, x, grad=0.0) -> float:
    """The objective value ``val`` at ``x``; :class:`ObjectiveError` if it or ``grad`` is not finite."""
    if not (np.isfinite(val) and np.all(np.isfinite(grad))):
        raise ObjectiveError(f"objective returned {val} at x={np.asarray(x).tolist()}")
    return float(val)


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


def lbfgs_minimize(fg, x0, bounds, max_iters: int):
    """Projected L-BFGS minimization of ``fg(x) -> (f, grad)`` in a box, at most ``max_iters`` iterations.

    An active-set projected quasi-Newton method (Bertsekas, SIAM J. Control
    Optim. 20, 221 (1982); Kim, Sra & Dhillon, SIAM J. Sci. Comput. 32, 3548
    (2010)).  Each iteration holds fixed the coordinates that sit on a bound
    with the gradient pointing out of the box, takes the L-BFGS direction of
    the others, and backtracks along the projection arc clip(x + t d) until
    Armijo's condition holds.  The first step has unit length at most.  A
    pair (s, y) is stored only if s.y > 0, with y zero on the fixed
    coordinates.  It stops when a step gains at most LBFGS_F_TOL relative,
    or when the line search reaches the rounding floor of x.

    ``bounds`` is a pair (low, high), infinite where a coordinate is free; x0
    is clipped into it.  Returns (x_min, f_min, trajectory, pg) where
    trajectory lists the objective after each iteration and pg is the
    max-norm of the projected gradient at x_min.  Raises
    :class:`ObjectiveError` if the objective or its gradient ever evaluates
    non-finite.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    low, high = (np.broadcast_to(np.asarray(b, dtype=float), x0.shape) for b in bounds)

    def checked(x):
        val, grad = fg(x)
        return _finite(val, x, grad), np.asarray(grad, dtype=float)

    x = np.clip(x0, low, high)
    f, g = checked(x)
    pairs = deque(maxlen=LBFGS_MEMORY)
    trajectory = []
    while len(trajectory) < max_iters:
        fixed = ((x <= low) & (g > 0)) | ((x >= high) & (g < 0))
        g_free = np.where(fixed, 0.0, g)
        d = -_two_loop(g_free, pairs)
        d[fixed] = 0.0
        if g @ d >= 0.0:  # the pairs give no descent direction: forget them
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
            f_new, g_new = checked(x_new)
            slope = g @ (x_new - x)
            if slope < 0.0 and f_new <= f + ARMIJO_C * slope:
                break
            # backtrack to the minimizer of the quadratic through f, slope and
            # f_new, kept in [t/10, t/2]; halve a step that does not descend
            ratio = -slope / (2.0 * (f_new - f - slope)) if slope < 0.0 else 0.5
            t *= min(max(ratio, 0.1), 0.5)
        s, y = x_new - x, np.where(fixed, 0.0, g_new - g)
        if s @ y > 0.0:
            pairs.append((s, y, 1.0 / (s @ y)))
        converged = f - f_new <= LBFGS_F_TOL * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        trajectory.append((len(trajectory), f))
        if converged:
            break
    return x, f, trajectory, _projected_gradient(x, g, low, high)


def _projected_gradient(x, g, low, high) -> float:
    """The max-norm of the projected gradient clip(x - g) - x."""
    return float(np.max(np.abs(np.clip(x - g, low, high) - x)))


def simulated_annealing(f, x0, bounds, n_ladders: int, rng: np.random.Generator):
    """Metropolis walk in a box, with Gaussian proposals and geometric cooling.

    ``bounds`` is a pair (low, high), infinite where a coordinate is free;
    each proposal is clipped into it.  Each of the ``n_ladders`` temperature
    ladders performs SA_STEPS proposals of standard deviation SA_STEP at
    temperature SA_T0 * SA_COOLING^ladder.  Returns (x_best, f_best,
    trajectory) where trajectory lists the best value at the start and after
    each ladder.
    Raises :class:`ObjectiveError` if the objective ever evaluates non-finite.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    fx = _finite(f(x), x)
    best, fbest = x.copy(), fx
    t = SA_T0
    trajectory = [(0, fbest)]
    for ladder in range(n_ladders):
        for _ in range(SA_STEPS):
            cand = np.clip(x + rng.normal(0.0, SA_STEP, size=x.shape), *bounds)
            fc = _finite(f(cand), cand)
            if fc < fx or rng.random() < np.exp(-(fc - fx) / t):
                x, fx = cand, fc
                if fx < fbest:
                    best, fbest = x.copy(), fx
        t *= SA_COOLING
        trajectory.append((ladder + 1, fbest))
    return best, fbest, trajectory


# ---------------------------------------------------------------------------
# quorum parameters
# ---------------------------------------------------------------------------

# The box of canonical entangler parameters: Heisenberg pulses alpha and
# Ising couplings beta.  Angles are free.
_ENTANGLER_BOX = {HEISENBERG: (0.0, 2.0), ISING: (-np.pi / 2, np.pi / 2)}


def _box(entangler_bounds):
    """Bounds (low, high), each (5, 15): free angles, entangler slots in ``entangler_bounds``."""
    low, high = np.full((5, 15), -np.inf), np.full((5, 15), np.inf)
    low[:, ENTANGLER_SLOTS], high[:, ENTANGLER_SLOTS] = entangler_bounds
    return low, high


def random_quorum(interaction: str, rng: np.random.Generator) -> np.ndarray:
    """(5, 15) parameters: uniform angles in [0, 2 pi), then the entanglers'
    Heisenberg pulses in [0, 2) or Ising couplings in [-pi/2, pi/2)."""
    x = rng.uniform(0.0, 2.0 * np.pi, size=(5, 15))
    x[:, ENTANGLER_SLOTS] = rng.uniform(*_ENTANGLER_BOX[interaction], size=(5, 3))
    return x


# ---------------------------------------------------------------------------
# Jaccard diversity
# ---------------------------------------------------------------------------

_BIN_WIDTH = 0.05
_N_BINS = 20  # over [-1/4, 3/4]


# Row i of the 20 projectors counts the bins of its dot products with the
# 19 others: flat bincount index n_bins * i + bin over the off-diagonal.
_OFF_DIAGONAL = ~np.eye(20, dtype=bool)
_HIST_ROW = _N_BINS * np.nonzero(_OFF_DIAGONAL)[0]

# Random pairs that diversity_threshold scores at once.  Each pair holds
# about 45 KiB of gate and histogram temporaries: scoring 1,000 pairs at once
# raised a multistart run's peak RSS from 81 to 124 MiB; 25 at once keep 81.
_PAIR_BLOCK = 25


def _projector_histograms(params, interaction: str) -> np.ndarray:
    """Per-projector histograms (..., 20, n_bins) of parameters (..., 5, 15), as uint8.

    Row a counts the dot products of projector a with the other 19.  The dot
    product of the traceless parts of |u_a><u_a| and |u_b><u_b| is
    |<u_a|u_b>|^2 - 1/4, taken over the rows of the five measurement unitaries.
    """
    pre, ent, post = measurement_layers(params, interaction)
    rows = (pre @ ent @ post).reshape(-1, 20, 4)
    dots = np.abs(rows.conj() @ rows.swapaxes(-1, -2)) ** 2 - 0.25
    idx = np.clip(((dots + 0.25) / _BIN_WIDTH).astype(int), 0, _N_BINS - 1)
    flat = _HIST_ROW + idx[:, _OFF_DIAGONAL] + 20 * _N_BINS * np.arange(len(rows))[:, None]
    counts = np.bincount(flat.ravel(), minlength=len(rows) * 20 * _N_BINS)
    return counts.astype(np.uint8).reshape(*np.shape(params)[:-2], 20, _N_BINS)


def _jaccard_distance(ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """Symmetrized mean of per-projector minimal Jaccard distances in [0, 1],
    between histograms (..., 20, n_bins) whose leading axes broadcast.

    Every row holds 19 counts, so the union of rows a and b is 38 minus
    their intersection, and a row's nearest row is the one it shares most with.
    """
    lead = np.broadcast_shapes(ha.shape[:-2], hb.shape[:-2])
    ha, hb = (np.broadcast_to(h, lead + h.shape[-2:]) for h in (ha, hb))
    # Bins outermost: each minimum runs over a contiguous block of hb's rows,
    # and the sum over bins adds whole blocks.
    a = np.moveaxis(ha, (-1, -2), (0, 1))[..., None]
    b = np.ascontiguousarray(np.moveaxis(hb, -1, 0))[:, None]
    inter = np.minimum(a, b).sum(axis=0, dtype=np.uint8)  # (20 rows of ha, *lead, 20 of hb)

    def mean_distance(shared):
        return (1.0 - shared / (38 - shared)).mean(axis=-1)

    # Contiguous, so each mean sums its 20 terms in the same order for any stack.
    nearest_a = np.moveaxis(inter.max(axis=-1), 0, -1).copy()
    return (mean_distance(nearest_a) + mean_distance(inter.max(axis=0))) / 2.0


def diversity_threshold(
    interaction: str, rng: np.random.Generator, n_pairs: int = 10_000
) -> float:
    """Mean minus one standard deviation of the distance between random quorums."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    samples = np.empty(n_pairs)
    for lo in range(0, n_pairs, _PAIR_BLOCK):
        pairs = min(_PAIR_BLOCK, n_pairs - lo)
        params = np.stack([random_quorum(interaction, rng) for _ in range(2 * pairs)])
        hists = _projector_histograms(params, interaction)
        samples[lo : lo + pairs] = _jaccard_distance(hists[0::2], hists[1::2])
    return float(samples.mean() - samples.std())


def diverse_starts(
    n: int,
    interaction: str,
    rng: np.random.Generator,
    threshold_pairs: int = 10_000,
) -> np.ndarray:
    """Rejection-sample n quorums that are pairwise at least a threshold apart.

    Returns their parameter arrays, shape (n, 5, 15).  The threshold is
    estimated once per call from ``threshold_pairs`` random pairs; if 100 n
    consecutive candidates fail, it is relaxed by 10% and the relaxation is
    logged.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    threshold = diversity_threshold(interaction, rng, threshold_pairs)
    starts = np.empty((n, 5, 15))
    hists = np.empty((n, 20, _N_BINS), dtype=np.uint8)
    accepted = rejections = 0
    while accepted < n:
        cand = random_quorum(interaction, rng)
        hc = _projector_histograms(cand, interaction)
        if np.all(_jaccard_distance(hc, hists[:accepted]) >= threshold):
            starts[accepted], hists[accepted] = cand, hc
            accepted += 1
            rejections = 0
        else:
            rejections += 1
            if rejections > 100 * n:
                threshold *= 0.9
                rejections = 0
                logger.warning(
                    "diversity threshold unreachable, relaxing to %.4f", threshold
                )
    return starts


# ---------------------------------------------------------------------------
# quorum optimization
# ---------------------------------------------------------------------------

def _finish(params: np.ndarray, noise: NoiseModel, trajectory, label: str, iterations: int,
            pg: float) -> OptimizationResult:
    qp = QuorumParams(noise.interaction, params)
    rep = quality_report(qp, noise)
    total = float(sum(rep.entangling_times))
    return OptimizationResult(
        params=qp,
        q_noisy=rep.q_noisy,
        q_geometric=rep.q_geometric,
        entangling_time_total=total,
        trajectory=tuple((int(i), float(f)) for i, f in trajectory),
        start_label=label,
        iterations=iterations,
        projected_gradient=pg,
    )


# Every coordinate of the bounded refinement is a phase in radians, so that
# lbfgs_minimize's first step, of unit length, means the same for each: a
# Heisenberg pulse alpha is held as its phase pi alpha, boxed to [0, 2 pi].
# (Held as alpha, the first step from the MUB seed lands every entangled
# pulse on 0, a singular quorum.)
# Each Ising coupling is split as beta = b+ - b-, with b+ and b- in [0, pi/2]
# and the noise charged on b+ + b-: beta = 0 is then no kink, and
# exp(-i pi/2 sigma x sigma) is local, so the box holds every optimum.  (Local
# gates flip the signs of couplings only in pairs, so one sign of beta alone
# would not.)
_PHASE_BOX = {HEISENBERG: (0.0, 2.0 * np.pi), ISING: (0.0, np.pi / 2)}


def _bounded_start(params: np.ndarray, interaction: str):
    """The bounded vector of a quorum's (5, 15) parameters, and its bounds (low, high)."""
    params = np.array(params, dtype=float)
    low, high = _box(_PHASE_BOX[interaction])
    if interaction == HEISENBERG:
        params[:, ENTANGLER_SLOTS] *= np.pi
        return params.ravel(), (low.ravel(), high.ravel())
    beta = params[:, ENTANGLER_SLOTS].copy()
    params[:, ENTANGLER_SLOTS] = np.maximum(beta, 0.0)
    z = np.concatenate([params.ravel(), np.maximum(-beta, 0.0).ravel()])
    return z, (np.append(low, low[:, ENTANGLER_SLOTS]), np.append(high, high[:, ENTANGLER_SLOTS]))


def _unpack(z: np.ndarray, interaction: str):
    """(5, 15) parameters and (5, 3) noise weights of a bounded vector."""
    params = z[:75].reshape(5, 15).copy()
    if interaction == HEISENBERG:
        params[:, ENTANGLER_SLOTS] /= np.pi
        return params, params[:, ENTANGLER_SLOTS]
    b_plus, b_minus = params[:, ENTANGLER_SLOTS].copy(), z[75:].reshape(5, 3)
    params[:, ENTANGLER_SLOTS] = b_plus - b_minus
    return params, b_plus + b_minus


def _bounded_objective(z: np.ndarray, noise: NoiseModel):
    """-ln Q_N of a bounded vector and its gradient by the vector."""
    params, weights = _unpack(z, noise.interaction)
    val, grad_params, grad_weights = neg_log_qn_and_grad(params, weights, noise)
    grad_beta = grad_params[:, ENTANGLER_SLOTS].copy()
    grad_params[:, ENTANGLER_SLOTS] += grad_weights
    if noise.interaction == HEISENBERG:
        grad_params[:, ENTANGLER_SLOTS] /= np.pi
        return val, grad_params.ravel()
    return val, np.concatenate([grad_params.ravel(), (grad_weights - grad_beta).ravel()])


def _run_start(noise: NoiseModel, max_iters: int, label: str, x0: np.ndarray,
               walk_seed=None) -> OptimizationResult:
    """Refine one (5, 15) start by :func:`lbfgs_minimize` in the phase box.  Given
    ``walk_seed``, an annealing walk of ``max_iters`` ladders runs from ``x0`` first and
    the refinement starts at its best point; the walk's entries then precede the
    refinement's iterations in the trajectory."""
    walk = []
    if walk_seed is not None:
        x0, _, walk = simulated_annealing(lambda x: neg_log_qn(x, noise), x0,
                                          _box(_ENTANGLER_BOX[noise.interaction]), max_iters,
                                          np.random.default_rng(walk_seed))
    z0, bounds = _bounded_start(x0, noise.interaction)
    z, _, traj, pg = lbfgs_minimize(lambda v: _bounded_objective(v, noise), z0, bounds, max_iters)
    return _finish(_unpack(z, noise.interaction)[0], noise,
                   walk + [(len(walk) + i, f) for i, f in traj], label, len(traj), pg)


def _attempt(runner, start):
    """Run one start; a non-finite objective becomes a (label, message) failure record."""
    try:
        return runner(*start), None
    except ObjectiveError as exc:
        return None, (start[0], str(exc))


def _run_starts(runner, starts: list, threads: int):
    """Call ``runner(*start)`` on every start, in a pool of at most ``threads`` processes
    when threads > 1; failures are recorded, not raised.

    Returns the successful results and the failure records, both in start
    order, so the outcome does not depend on ``threads``.
    """
    attempt = functools.partial(_attempt, runner)
    if threads > 1 and len(starts) > 1:
        # imported here: the pool pulls in multiprocessing and socket, which
        # commands that never run one should not pay for
        from concurrent.futures import ProcessPoolExecutor

        # under fork the pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(threads, len(starts))) as pool:
            outcomes = list(pool.map(attempt, starts))
    else:
        outcomes = [attempt(start) for start in starts]
    results = [result for result, _ in outcomes if result is not None]
    failures = [failure for _, failure in outcomes if failure is not None]
    return results, failures


def optimize_quorum(
    noise: NoiseModel,
    strategy: str = "mub-seeded",
    n_starts: int = 1,
    max_iters: int = 200,
    seed: int = 0,
    threads: int = 1,
    threshold_pairs: int = 10_000,
) -> list[OptimizationResult]:
    """Maximize Q_N over the (5, 15) quorum parameters.

    ``mub-seeded`` starts from the standard MUB quorum, ``multistart`` from
    ``n_starts`` diversity-filtered random quorums, and ``annealing`` from
    the best points of ``n_starts`` seeded annealing walks of ``max_iters``
    ladders.  Every start is refined by at most ``max_iters`` iterations of
    projected L-BFGS on the analytic gradient, and each start that stops
    short of convergence is logged as a warning, in start order.  ``seed``
    draws the starts and the walks, and up to ``threads`` processes run
    them.  Results are sorted by decreasing Q_N.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    # (label, x0 (5, 15), walk seed or None)
    if strategy == "mub-seeded":
        starts = [("mub", standard_mub_params(noise.interaction).to_array(), None)]
    elif strategy == "multistart":
        rng = np.random.default_rng(seed)
        starts = [(f"multistart-{i}", x0, None) for i, x0 in
                  enumerate(diverse_starts(n_starts, noise.interaction, rng, threshold_pairs))]
    else:
        walk_seeds = np.random.SeedSequence(seed).spawn(n_starts)
        rng = np.random.default_rng(seed)
        starts = [(f"annealing-{i}", random_quorum(noise.interaction, rng), walk_seeds[i])
                  for i in range(n_starts)]

    runner = functools.partial(_run_start, noise, max_iters)
    results, failures = _run_starts(runner, starts, threads)
    # logged here, in start order, not by the workers as they finish
    for r in results:
        if r.projected_gradient > G_TOL:
            logger.warning("start %s did not converge: projected gradient %.2e > %.0e after %d "
                           "iterations", r.start_label, r.projected_gradient, G_TOL, r.iterations)
    for label, message in failures:
        logger.warning("start %s failed: %s", label, message)
    if not results:
        raise RuntimeError(
            "all optimization starts failed: "
            + "; ".join(f"{label}: {message}" for label, message in failures)
        )
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
