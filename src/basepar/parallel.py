"""Online optimization controllers solved under a wall-clock budget.

Two problem flavours share one solver.  A *conventional* problem optimizes
the metering-rate sequence itself (ramps x horizon decision variables); a
*parameterized* problem optimizes one feedback gain per ramp, held constant
over the window, from which the rates are derived step by step along the
predicted trajectory.

The solver is a projected quasi-Newton descent with finite-difference
gradients and a backtracking line search, run from every supplied starting
point.  Every start and every accepted iterate is recorded with its cost, so
the solve can be cut off at any time and still return the best point seen so
far.  Termination within one descent requires both the cost change and the
step size to fall below their tolerances, mirroring the usual NLP solver
semantics; the solve as a whole additionally stops when the deadline expires
or when the per-start iteration cap is reached.  With a zero budget the
result degenerates to the best starting point by objective value.

Each descent is a coroutine that requests the decision rows it needs costed:
one forward-difference gradient, or one whole line search (every step length
up to the first that does not move, the first passing the Armijo test being
accepted).  The descents from all starts run in lockstep, and with the
built-in objective each round's requests are rolled out as one batch
(:func:`~basepar.actm.rollout_batch`), whose costs equal the point-by-point
ones bit for bit.  The deadline is checked before every round, so the
overshoot is bounded by one merged batch.  Records are listed start by start
as a sequential solver lists them, so results do not depend on the
interleaving.  A substituted ``objective_fn`` is evaluated point by point,
with the deadline checked before every point.

Starting points beyond the base-controller warm start are built by shifting
previous solutions forward in time (:func:`make_shift_warm_starts`): the
previous solution with its first element dropped and the last repeated, the
average of the shift-once/shift-twice pair, and the average of all previous
solutions shifted into the current window.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator, Optional, Sequence, TypeVar

import numpy as np

from .actm import (
    ExogenousInput,
    ModelConsistencyError,
    NegativeRateError,
    NetworkParams,
    NetworkState,
    rollout,
    rollout_batch,
    step,
)
from .base_controllers import WarmStart

__all__ = [
    "CONVENTIONAL",
    "PARAMETERIZED",
    "MpcProblem",
    "OptimizerConfig",
    "CandidateSequence",
    "BudgetedResult",
    "objective",
    "decision_to_metering",
    "fallback_start",
    "make_shift_warm_starts",
    "base_start_for",
    "solve_budgeted",
    "run_parallel_cell",
]

logger = logging.getLogger(__name__)

CONVENTIONAL = "conventional"
PARAMETERIZED = "parameterized"


@dataclass(frozen=True)
class MpcProblem:
    """One receding-horizon problem frozen at a control step."""

    kind: str
    horizon: int
    params: NetworkParams
    initial_state: NetworkState
    demand_forecast: tuple[ExogenousInput, ...]  # held at the last entry if short
    mu_prev: tuple[float, ...]                   # applied rates at the previous step
    bounds_lo: tuple[float, ...]
    bounds_hi: tuple[float, ...]
    gamma: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (CONVENTIONAL, PARAMETERIZED):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not self.demand_forecast:
            raise ValueError("demand forecast must be non-empty")
        if len(self.mu_prev) != len(self.params.metered_cells):
            raise ValueError("mu_prev length does not match the metered ramp count")
        if len(self.bounds_lo) != self.decision_dim or len(self.bounds_hi) != self.decision_dim:
            raise ValueError(
                f"bounds must have {self.decision_dim} entries for kind {self.kind!r}"
            )
        if any(lo > hi for lo, hi in zip(self.bounds_lo, self.bounds_hi)):
            raise ValueError("lower bounds must not exceed upper bounds")

    @property
    def n_ramps(self) -> int:
        return len(self.params.metered_cells)

    @property
    def decision_dim(self) -> int:
        return self.n_ramps * self.horizon if self.kind == CONVENTIONAL else self.n_ramps

    def forecast_at(self, k: int) -> ExogenousInput:
        fc = self.demand_forecast
        return fc[k] if k < len(fc) else fc[-1]


@dataclass(frozen=True)
class OptimizerConfig:
    """Termination and budget settings for one budgeted solve."""

    function_tolerance: float = 1e-3
    step_tolerance: float = 1e-7
    budget_s: Optional[float] = 2.0   # None disables the deadline (serial mode)
    max_iterations: int = 40          # per starting point
    termination: str = "best"         # "best" or "all"
    fd_step: float = 1e-6

    def __post_init__(self) -> None:
        if self.function_tolerance <= 0 or self.step_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.budget_s is not None and self.budget_s < 0:
            raise ValueError("budget must be nonnegative")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if self.termination not in ("best", "all"):
            raise ValueError("termination must be 'best' or 'all'")
        if self.fd_step <= 0:
            raise ValueError("fd_step must be positive")


@dataclass(frozen=True)
class CandidateSequence:
    """A metering plan with its predicted cost and solve metadata.

    ``decision`` keeps the raw optimizer variables (equal to the flattened
    plan for conventional problems, the gains for parameterized ones) so the
    plan can be shifted into the next step's starting points.
    """

    metering: tuple[tuple[float, ...], ...]  # horizon x ramps
    source: str
    cost: float
    decision: tuple[float, ...] = ()
    iterations: int = 0
    elapsed_s: float = 0.0
    converged: bool = False


@dataclass(frozen=True)
class BudgetedResult:
    """Outcome of one budgeted solve.

    ``iterates`` holds every recorded point (starts plus accepted descent
    steps) when the solve ran with termination option "all", and just the
    best point under "best"; ``cost_trail`` always lists the recorded costs
    in evaluation order.
    """

    best: CandidateSequence
    iterates: tuple[CandidateSequence, ...]
    cost_trail: tuple[float, ...]
    elapsed_s: float
    termination: str


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def _clip_decision(problem: MpcProblem, decision: Sequence[float]) -> np.ndarray:
    x = np.asarray(decision, dtype=float).ravel()
    if x.size != problem.decision_dim:
        raise ValueError(
            f"decision has {x.size} entries, problem expects {problem.decision_dim}"
        )
    return np.clip(x, problem.bounds_lo, problem.bounds_hi)


def _parameterized_trajectory(
    problem: MpcProblem, theta: Sequence[float]
) -> tuple[tuple[tuple[float, ...], ...], float]:
    """Derive the metering plan implied by constant gains and its cost."""
    p = problem.params
    state = problem.initial_state
    mu_prev = list(problem.mu_prev)
    plan: list[tuple[float, ...]] = []
    total = 0.0
    for k in range(problem.horizon):
        mu = tuple(
            max(
                float(mu_prev[j])
                + float(theta[j]) * (p.rho_crit - state.n[i] / (p.cells[i].length * p.lanes)),
                0.0,
            )
            for j, i in enumerate(p.metered_cells)
        )
        state, _, cost = step(state, problem.forecast_at(k), mu, p, problem.gamma)
        total += cost.j
        plan.append(mu)
        mu_prev = list(mu)
    return tuple(plan), total


def objective(problem: MpcProblem, decision: Sequence[float]) -> float:
    """Predicted cost of a decision vector over the problem horizon.

    Decisions are clipped into the bounds first.  The two failures a plan can
    cause (a negative or NaN rate, a state update out of bounds) surface as
    +inf (logged) so the solver simply avoids the offending point; any other
    error propagates.
    """
    x = _clip_decision(problem, decision)
    try:
        if problem.kind == CONVENTIONAL:
            plan = [tuple(row) for row in x.reshape(problem.horizon, problem.n_ramps)]
            res = rollout(
                problem.initial_state,
                problem.demand_forecast,
                plan,
                problem.params,
                problem.horizon,
                problem.gamma,
            )
            value = res.total_cost
        else:
            _, value = _parameterized_trajectory(problem, x)
    except (ModelConsistencyError, NegativeRateError):
        logger.warning("objective evaluation failed for %s; returning +inf", problem.label)
        return math.inf
    return float(value) if math.isfinite(value) else math.inf


def _rollout_decisions(
    problem: MpcProblem, decisions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Costs ``[B]`` and plans ``[B, horizon, ramps]`` of decision rows
    ``[B, dim]``, clipped into the bounds and rolled out in one batch."""
    x = np.clip(decisions, problem.bounds_lo, problem.bounds_hi)
    common = (problem.initial_state, problem.demand_forecast, problem.params,
              problem.horizon, problem.gamma)
    if problem.kind == CONVENTIONAL:
        plans = x.reshape(len(x), problem.horizon, problem.n_ramps)
        return rollout_batch(*common, plans=plans)
    return rollout_batch(*common, gains=x, mu_prev=problem.mu_prev)


def _objective_batch(problem: MpcProblem, decisions: np.ndarray) -> np.ndarray:
    """:func:`objective` of every row of ``decisions``, in one batch."""
    costs, _ = _rollout_decisions(problem, decisions)
    failed = int(np.count_nonzero(costs == math.inf))
    if failed:
        logger.warning(
            "objective evaluation failed for %s at %d of %d points; returning +inf",
            problem.label, failed, len(costs),
        )
    costs[~np.isfinite(costs)] = math.inf
    return costs


def _plans_batch(
    problem: MpcProblem, decisions: np.ndarray
) -> list[tuple[tuple[float, ...], ...]]:
    """Metering plans of decision rows ``[B, dim]`` (see
    :func:`decision_to_metering`), derived in one batch."""
    if problem.kind == CONVENTIONAL:
        x = np.clip(decisions, problem.bounds_lo, problem.bounds_hi)
        plans = x.reshape(len(x), problem.horizon, problem.n_ramps)
    else:
        _, plans = _rollout_decisions(problem, decisions)
    return [tuple(tuple(row) for row in plan) for plan in plans.tolist()]


def decision_to_metering(
    problem: MpcProblem, decision: Sequence[float]
) -> tuple[tuple[float, ...], ...]:
    """Metering plan (horizon x ramps) encoded by a decision vector."""
    return _plans_batch(problem, _clip_decision(problem, decision)[None, :])[0]


def fallback_start(problem: MpcProblem) -> np.ndarray:
    """Start used when no history and no base warm start exist: hold the
    previously applied rates (conventional) or leave them unchanged via zero
    gains (parameterized)."""
    if problem.kind == CONVENTIONAL:
        return np.tile(np.asarray(problem.mu_prev, dtype=float), problem.horizon)
    return np.zeros(problem.n_ramps)


# ---------------------------------------------------------------------------
# Shift-based starting points
# ---------------------------------------------------------------------------

def _shift(solution: np.ndarray, by: int) -> np.ndarray:
    """Drop ``by`` leading rows and repeat the last row to keep the length."""
    sol = np.atleast_2d(np.asarray(solution, dtype=float))
    rows = sol[min(by, len(sol) - 1):]
    pad = np.repeat(rows[-1:], len(sol) - len(rows), axis=0)
    return np.vstack([rows, pad]) if len(pad) else rows.copy()


def make_shift_warm_starts(history: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Up to three starting plans from previous solutions (oldest first).

    (a) the previous solution shifted once; (b) the average of the previous
    solution shifted once and the second-previous shifted twice (needs two
    entries); (c) the average of all previous solutions, each shifted by its
    age.  Returns an empty list when there is no history.
    """
    if not history:
        return []
    starts = [_shift(history[-1], 1)]
    if len(history) >= 2:
        starts.append(0.5 * (_shift(history[-1], 1) + _shift(history[-2], 2)))
    shifted = [_shift(sol, age) for age, sol in enumerate(reversed(history), start=1)]
    starts.append(np.mean(shifted, axis=0))
    return starts


def base_start_for(problem: MpcProblem, warm: WarmStart) -> np.ndarray:
    """Starting decision derived from a base controller's warm-start rollout.

    Conventional problems take the first ``horizon`` metering rows directly.
    Parameterized problems need constant gains: the implicit base's own gain
    trail is averaged over the window; for an explicit base the gains are
    recovered by inverting the feedback law along the predicted states
    (steps where the density error vanishes contribute nothing).
    """
    if len(warm.mu) < problem.horizon:
        raise ValueError(
            f"warm start has {len(warm.mu)} steps, problem horizon is {problem.horizon}"
        )
    if problem.kind == CONVENTIONAL:
        return np.asarray(warm.mu[: problem.horizon], dtype=float).ravel()
    if warm.theta is not None:
        return np.mean(np.asarray(warm.theta[: problem.horizon], dtype=float), axis=0)
    p = problem.params
    thetas = np.zeros((problem.horizon, problem.n_ramps))
    mu_prev = np.asarray(problem.mu_prev, dtype=float)
    for k in range(problem.horizon):
        state = warm.states[k]
        mu = np.asarray(warm.mu[k], dtype=float)
        for j, i in enumerate(p.metered_cells):
            err = p.rho_crit - state.n[i] / (p.cells[i].length * p.lanes)
            if abs(err) > 1e-12:
                thetas[k, j] = (mu[j] - mu_prev[j]) / err
        mu_prev = mu
    return np.mean(thetas, axis=0)


# ---------------------------------------------------------------------------
# Budgeted projected quasi-Newton solver
# ---------------------------------------------------------------------------

def _expired(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() >= deadline


# A coroutine that yields decision rows ``[k, dim]`` to be evaluated, is sent
# their costs ``[k]`` back, and finally returns its result.
T = TypeVar("T")
Evaluation = Generator[np.ndarray, np.ndarray, T]

# backtracking step lengths 1, 1/2, ..., exactly as repeated halving gives them
_STEP_LENGTHS = 0.5 ** np.arange(30)


def _lockstep(
    coroutines: Sequence[Evaluation],
    evaluate: Callable[[np.ndarray], Optional[np.ndarray]],
    deadline: Optional[float],
) -> list:
    """Run evaluation coroutines side by side and return what each returned.

    Each round concatenates the rows every live coroutine has requested into
    one ``evaluate`` call and sends each coroutine its share of the costs.
    The deadline is checked before every round; once it has expired, or
    ``evaluate`` returns None, the coroutines still running are abandoned
    and their results are None.
    """
    results: list = [None] * len(coroutines)
    live = []

    def advance(i: int, coroutine: Evaluation, costs: Optional[np.ndarray]) -> None:
        try:
            rows = next(coroutine) if costs is None else coroutine.send(costs)
        except StopIteration as stop:
            results[i] = stop.value
        else:
            live.append((i, coroutine, rows))

    for i, coroutine in enumerate(coroutines):
        advance(i, coroutine, None)
    while live and not _expired(deadline):
        costs = evaluate(np.concatenate([rows for _, _, rows in live]))
        if costs is None:
            break
        pending, live, at = live, [], 0
        for i, coroutine, rows in pending:
            advance(i, coroutine, costs[at:at + len(rows)])
            at += len(rows)
    return results


def _evaluate_each(
    fun: Callable[[np.ndarray], float], rows: np.ndarray, deadline: Optional[float]
) -> Optional[np.ndarray]:
    """``fun`` of every row, the deadline checked before each; None once it
    has expired."""
    costs = np.empty(len(rows))
    for i, row in enumerate(rows):
        if _expired(deadline):
            return None
        costs[i] = fun(row)
    return costs


def _gradient_request(
    x: np.ndarray, f: float, lo: np.ndarray, hi: np.ndarray, h: float
) -> Evaluation[np.ndarray]:
    """Forward-difference gradient at ``x`` (whose cost is ``f``), stepping
    backward off upper bounds; coordinates with ``lo == hi`` get 0 and no
    evaluation."""
    g = np.zeros_like(x)
    free = np.flatnonzero(hi - lo != 0.0)
    if free.size:
        steps = np.where(x[free] + h <= hi[free], h, -h)
        points = np.tile(x, (free.size, 1))
        points[np.arange(free.size), free] += steps
        g[free] = ((yield points) - f) / steps
    return g


def _fd_gradient(
    fun: Callable[[np.ndarray], float],
    x: np.ndarray,
    f0: float,
    lo: np.ndarray,
    hi: np.ndarray,
    h: float,
    deadline: Optional[float],
) -> Optional[np.ndarray]:
    """The solver's forward-difference gradient of ``fun``, evaluated point
    by point; None when the deadline expires mid-computation."""
    evaluate = lambda rows: _evaluate_each(fun, rows, deadline)
    return _lockstep([_gradient_request(x, f0, lo, hi, h)], evaluate, deadline)[0]


def _line_search(
    x: np.ndarray,
    f: float,
    g: np.ndarray,
    direction: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> Evaluation[Optional[tuple[np.ndarray, float, np.ndarray]]]:
    """Backtracking projected line search along ``direction``.

    The step lengths ``1, 1/2, ...`` (30 at most) are tried up to the first
    whose clipped step is zero, all in one request, and the first that
    passes the Armijo test is accepted.  Returns the accepted point, its cost
    and the step taken, or None.
    """
    points = np.clip(x + _STEP_LENGTHS[:, None] * direction, lo, hi)
    moves = points - x
    moving = moves.any(axis=1)
    tried = len(moving) if moving.all() else int(np.argmin(moving))
    if tried == 0:
        return None
    costs = yield points[:tried]
    for i, cost in enumerate(costs):
        if math.isfinite(cost) and cost <= f + 1e-4 * min(0.0, float(g @ moves[i])):
            return points[i], float(cost), moves[i]
    return None


def _descent(
    x0: np.ndarray,
    f0: float,
    lo: np.ndarray,
    hi: np.ndarray,
    cfg: OptimizerConfig,
    record: Callable[[np.ndarray, float, int, bool], None],
) -> Evaluation[None]:
    """Projected BFGS from one start; every accepted point is recorded.

    Each request is one forward-difference gradient or one whole line search.
    An abandoned descent keeps the points it has recorded.
    """
    n = x0.size
    x, f = x0, f0
    ident = np.eye(n)
    h_inv = ident.copy()
    scaled = False  # curvature-based rescaling applied yet?
    finite = np.isfinite(hi) & np.isfinite(lo)
    box = float(np.max(hi[finite] - lo[finite], initial=1.0))
    g = yield from _gradient_request(x, f, lo, hi, cfg.fd_step)
    for it in range(1, cfg.max_iterations + 1):
        direction = -h_inv @ g
        if float(direction @ g) >= 0.0:
            h_inv = ident.copy()
            scaled = False
            direction = -g
        if not scaled:
            # no curvature information yet: size the step relative to the box
            # instead of trusting the raw gradient magnitude
            norm = float(np.max(np.abs(direction)))
            if norm > 0.0:
                direction = direction * (0.1 * box / norm)
        accepted = yield from _line_search(x, f, g, direction, lo, hi)
        if accepted is None:
            return
        x_new, f_new, step_vec = accepted
        df = f - f_new
        dx = float(np.max(np.abs(step_vec)))
        converged = bool(df < cfg.function_tolerance and dx < cfg.step_tolerance)
        record(x_new, f_new, it, converged)
        if converged or it == cfg.max_iterations:
            return
        g_new = yield from _gradient_request(x_new, f_new, lo, hi, cfg.fd_step)
        s = step_vec
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12:
            if not scaled:
                h_inv = (sy / max(float(y @ y), 1e-300)) * ident
                scaled = True
            rho = 1.0 / sy
            left = ident - rho * np.outer(s, y)
            h_inv = left @ h_inv @ left.T + rho * np.outer(s, s)
        else:
            h_inv = ident.copy()
            scaled = False
        x, f, g = x_new, f_new, g_new


def solve_budgeted(
    problem: MpcProblem,
    starts: Sequence[Sequence[float]],
    config: OptimizerConfig,
    objective_fn: Optional[Callable[[np.ndarray], float]] = None,
    deadline: Optional[float] = None,
) -> BudgetedResult:
    """Minimize the problem objective from every start within the budget.

    All starts are clipped into the bounds and evaluated up front (this
    defines the zero-budget result and guarantees the solver never returns
    worse than a provided start).  The descents from all finite starts then
    run in lockstep until they finish or the deadline expires: each round
    evaluates the requests of every live descent together, each request
    being one forward-difference gradient or one whole line search.  An
    explicit ``deadline`` (monotonic-clock value) overrides the config budget
    so several solves can share one window.

    With the built-in objective each round is one batched rollout, and the
    deadline is checked before every round, so the solve overshoots it by at
    most one round's batch.  ``objective_fn`` substitutes the cost function,
    which the test suite uses to drive the solver over closed-form
    surrogates; it is called point by point with the deadline checked before
    every point.

    Records are listed as a sequential solver would list them: the starts,
    then each descent's accepted points, descent by descent in start order.
    """
    if not starts:
        raise ValueError("at least one starting point is required")
    t0 = time.monotonic()
    if deadline is None and config.budget_s is not None:
        deadline = t0 + config.budget_s
    lo = np.asarray(problem.bounds_lo, dtype=float)
    hi = np.asarray(problem.bounds_hi, dtype=float)
    xs = np.array([_clip_decision(problem, s) for s in starts])
    if objective_fn is None:
        evaluate = partial(_objective_batch, problem)
        fs = evaluate(xs)
    else:
        evaluate = lambda rows: _evaluate_each(objective_fn, rows, deadline)
        fs = _evaluate_each(objective_fn, xs, None)

    def recorder(into: list) -> Callable[[np.ndarray, float, int, bool], None]:
        return lambda x, f, iterations, converged: into.append(
            (x.copy(), float(f), iterations, time.monotonic() - t0, converged)
        )

    recorded: list[tuple[np.ndarray, float, int, float, bool]] = []
    record_start = recorder(recorded)
    for x, f in zip(xs, fs):
        record_start(x, f, 0, False)
    trails: list[list] = []
    descents = []
    for x, f in zip(xs, fs):
        if math.isfinite(f):
            trails.append([])
            descents.append(_descent(x, float(f), lo, hi, config, recorder(trails[-1])))
    _lockstep(descents, evaluate, deadline)
    for trail in trails:
        recorded.extend(trail)

    best_idx = min(range(len(recorded)), key=lambda i: (recorded[i][1], i))
    if config.termination == "all":
        kept = recorded
    else:
        kept, best_idx = [recorded[best_idx]], 0
    plans = _plans_batch(problem, np.array([item[0] for item in kept]))
    iterates = tuple(
        CandidateSequence(
            metering=plan,
            source=problem.label,
            cost=float(f),
            decision=tuple(float(v) for v in x),
            iterations=iters,
            elapsed_s=elapsed,
            converged=converged,
        )
        for plan, (x, f, iters, elapsed, converged) in zip(plans, kept)
    )
    return BudgetedResult(
        best=iterates[best_idx],
        iterates=iterates,
        cost_trail=tuple(item[1] for item in recorded),
        elapsed_s=time.monotonic() - t0,
        termination=config.termination,
    )


def run_parallel_cell(
    problems: Sequence[MpcProblem],
    base_warm: WarmStart,
    histories: dict[str, list[np.ndarray]],
    config: OptimizerConfig,
    serial: bool = False,
    deadline: Optional[float] = None,
) -> dict[str, BudgetedResult]:
    """Solve every problem of one parallel cell from its warm starts.

    Each controller receives the prefix of the shared base warm start that
    matches its horizon plus the shift starts built from its own solution
    history.  In the default mode the solves run concurrently against one
    shared deadline; serial mode runs them in order (results are keyed by
    controller label either way, so scheduling cannot reorder them).
    """
    if len(base_warm.mu) < max(p.horizon for p in problems):
        raise ValueError("base warm start is shorter than the largest horizon")
    if deadline is None and config.budget_s is not None and not serial:
        deadline = time.monotonic() + config.budget_s

    all_starts = []
    for problem in problems:
        starts = [base_start_for(problem, base_warm)]
        starts.extend(
            s.ravel() for s in make_shift_warm_starts(histories.get(problem.label, []))
        )
        all_starts.append(starts)

    results: dict[str, BudgetedResult] = {}
    if serial or len(problems) == 1:
        for problem, starts in zip(problems, all_starts):
            results[problem.label] = solve_budgeted(
                problem, starts, config, deadline=deadline
            )
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(problems)) as pool:
            futures = [
                pool.submit(solve_budgeted, problem, starts, config, None, deadline)
                for problem, starts in zip(problems, all_starts)
            ]
            for problem, fut in zip(problems, futures):
                results[problem.label] = fut.result()
    return results
