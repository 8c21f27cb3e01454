"""Online optimization controllers solved under a wall-clock budget.

Two problem flavours share one solver.  A *conventional* problem optimizes
the metering-rate sequence itself (ramps x horizon decision variables); a
*parameterized* problem optimizes one feedback gain per ramp, held constant
over the window, from which the rates are derived step by step along the
predicted trajectory.

The solver is a projected quasi-Newton descent with finite-difference
gradients and a backtracking line search, run sequentially from every
supplied starting point.  Every start and every accepted iterate is recorded
with its cost, so the solve can be cut off at any time and still return the
best point seen so far.  Termination within one descent requires both the
cost change and the step size to fall below their tolerances, mirroring the
usual NLP solver semantics; the solve as a whole additionally stops when the
deadline expires or when the per-start iteration cap is reached.  With a
zero budget the result degenerates to the best starting point by objective
value.

With the built-in objective, the starts and each finite-difference gradient
are rolled out as one batch (:func:`~basepar.actm.rollout_batch`), whose
costs equal the point-by-point ones bit for bit.  The deadline is checked
before every batch and every line-search evaluation, so the overshoot is
bounded by one batch.  A substituted ``objective_fn`` is evaluated point by
point, with the deadline checked before every evaluation.

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
from typing import Callable, Optional, Sequence

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
    cause (a negative rate, a state update out of bounds) surface as +inf
    (logged) so the solver simply avoids the offending point; any other error
    propagates.
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


def _fd_gradient(
    fun: Callable[[np.ndarray], float],
    x: np.ndarray,
    f0: float,
    lo: np.ndarray,
    hi: np.ndarray,
    h: float,
    deadline: Optional[float],
) -> Optional[np.ndarray]:
    """Forward differences, stepping backward off upper bounds; None when the
    deadline expires mid-computation."""
    g = np.zeros_like(x)
    for j in range(x.size):
        if hi[j] - lo[j] == 0.0:
            continue
        if _expired(deadline):
            return None
        hj = h if x[j] + h <= hi[j] else -h
        xj = x.copy()
        xj[j] += hj
        g[j] = (fun(xj) - f0) / hj
    return g


def _fd_gradient_batch(
    problem: MpcProblem,
    x: np.ndarray,
    f0: float,
    lo: np.ndarray,
    hi: np.ndarray,
    h: float,
    deadline: Optional[float],
) -> Optional[np.ndarray]:
    """:func:`_fd_gradient` of the problem objective with every perturbed
    point rolled out in one batch; the deadline is checked once, before it."""
    g = np.zeros_like(x)
    free = np.flatnonzero(hi - lo != 0.0)
    if free.size == 0:
        return g
    if _expired(deadline):
        return None
    steps = np.where(x[free] + h <= hi[free], h, -h)
    points = np.tile(x, (free.size, 1))
    points[np.arange(free.size), free] += steps
    g[free] = (_objective_batch(problem, points) - f0) / steps
    return g


def _descend(
    fun: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray, float], Optional[np.ndarray]],
    x0: np.ndarray,
    f0: float,
    lo: np.ndarray,
    hi: np.ndarray,
    cfg: OptimizerConfig,
    deadline: Optional[float],
    record: Callable[[np.ndarray, float, int, bool], None],
) -> None:
    """Projected BFGS from one start; every accepted point is recorded.

    ``gradient(x, f)`` returns the gradient at ``x`` (whose cost is ``f``),
    or None when the deadline expired while computing it.
    """
    n = x0.size
    x, f = x0, f0
    ident = np.eye(n)
    h_inv = ident.copy()
    scaled = False  # curvature-based rescaling applied yet?
    finite = np.isfinite(hi) & np.isfinite(lo)
    box = float(np.max(hi[finite] - lo[finite], initial=1.0))
    g = gradient(x, f)
    for it in range(1, cfg.max_iterations + 1):
        if g is None or _expired(deadline):
            return
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
        alpha = 1.0
        accepted = False
        for _ in range(30):
            if _expired(deadline):
                return
            x_new = np.clip(x + alpha * direction, lo, hi)
            step_vec = x_new - x
            if not step_vec.any():
                break
            f_new = fun(x_new)
            if math.isfinite(f_new) and f_new <= f + 1e-4 * min(0.0, float(g @ step_vec)):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            return
        df = f - f_new
        dx = float(np.max(np.abs(step_vec)))
        converged = bool(df < cfg.function_tolerance and dx < cfg.step_tolerance)
        record(x_new, f_new, it, converged)
        if converged:
            return
        g_new = gradient(x_new, f_new)
        if g_new is not None:
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
    worse than a provided start); the descents then run sequentially until
    the shared deadline expires.  An explicit ``deadline`` (monotonic-clock
    value) overrides the config budget so several solves can share one
    window.  ``objective_fn`` substitutes the cost function, which the test
    suite uses to drive the solver over closed-form surrogates.

    With the built-in objective the starts and each forward-difference
    gradient are evaluated as one batched rollout; the line search, whose
    evaluations depend on each other, calls :func:`objective` point by point.
    An ``objective_fn`` is called point by point throughout.
    """
    if not starts:
        raise ValueError("at least one starting point is required")
    t0 = time.monotonic()
    if deadline is None and config.budget_s is not None:
        deadline = t0 + config.budget_s
    lo = np.asarray(problem.bounds_lo, dtype=float)
    hi = np.asarray(problem.bounds_hi, dtype=float)
    h = config.fd_step
    if objective_fn is None:
        fun = lambda x: objective(problem, x)
        fun_all = lambda xs: _objective_batch(problem, np.array(xs)).tolist()
        gradient = lambda x, f: _fd_gradient_batch(problem, x, f, lo, hi, h, deadline)
    else:
        fun = objective_fn
        fun_all = lambda xs: [fun(x) for x in xs]
        gradient = lambda x, f: _fd_gradient(fun, x, f, lo, hi, h, deadline)

    recorded: list[tuple[np.ndarray, float, int, float, bool]] = []

    def record(x: np.ndarray, f: float, iterations: int, converged: bool) -> None:
        recorded.append((x.copy(), f, iterations, time.monotonic() - t0, converged))

    xs = [_clip_decision(problem, s) for s in starts]
    fs = fun_all(xs)
    for x, f in zip(xs, fs):
        record(x, f, 0, False)

    for x, f in zip(xs, fs):
        if _expired(deadline):
            break
        if not math.isfinite(f):
            continue
        _descend(fun, gradient, x, f, lo, hi, config, deadline, record)

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
