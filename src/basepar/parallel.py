"""Online optimization controllers solved under a wall-clock budget.

Two problem flavours share one solver.  A *conventional* problem optimizes
the metering-rate sequence itself (ramps x horizon decision variables); a
*parameterized* problem optimizes one feedback gain per ramp, held constant
over the window, from which the rates are derived step by step along the
predicted trajectory.

The solver is a projected quasi-Newton descent with finite-difference
gradients and a backtracking line search, run from every supplied starting
point.  Every start and every point a descent moves to is recorded with its
cost, so the solve can be cut off at any time and still return the best
point seen so far.  A descent ends at its first accepted step whose cost is
not strictly below the current one, without recording that point, so each
recorded point of a descent costs less than the one before it.  It also
ends when no step length passes the line search, or when both the cost
change and the step size fall below their tolerances, mirroring the usual
NLP solver semantics.  The solve as a whole additionally stops when the
deadline expires or when the per-start iteration cap is reached.  With a
zero budget the result degenerates to the best starting point by objective
value.

Each descent is a coroutine that requests the decision rows it needs costed:
one whole line search (every step length up to the first that does not
move, the first passing the Armijo test being accepted), which also carries
the forward-difference points around its full step, or one forward-difference
gradient where a shorter step was accepted.  One scheduler drives the
descents of every solve in lockstep: those from all starts of one problem,
and through :func:`run_parallel_cells` those of every problem of every
parallel cell of a control step, whatever their kind and horizon.  The
problems of one joint solve share one context: the measured state, the
forecast, the network, gamma and the previous rates.  The starts round
comes first whatever the deadline; it evaluates every distinct start
together with the forward-difference points around it, so each descent
begins with its gradient, and a start repeated bit for bit lists its twin's
records instead of descending again.  Each later round evaluates the
requests of every live descent together; with the built-in objective that is
one :func:`~basepar.actm.rollout_batch` call per round, and its costs equal
the point-by-point ones bit for bit, whatever other rows share the call.
The deadline is checked before every round after the starts round, so every
live solve takes part in every round until it expires and the overshoot is
bounded by one merged batch.  There is no thread pool: without a deadline
(serial mode) the same scheduler runs until every descent has finished.
Records are listed start by start as a sequential solver lists them, so
results depend neither on the interleaving nor on which other problems share
the rounds.  A substituted ``objective_fn`` is evaluated point by point,
with the deadline checked before every point after the starts round.  What
the solver derives from a problem's bounds (the coordinates with
``lo != hi``, where their difference steps go, the width of the box) is
derived once per solve, not once per gradient.

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
from typing import Callable, Generator, Optional, Sequence, TypeVar

import numpy as np

# ``step`` and ``rollout`` are not called here; they stay importable from
# this module because perfbench/layers.py wraps them here.
from .actm import (
    ExogenousInput,
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
    "make_shift_warm_starts",
    "base_start_for",
    "solve_budgeted",
    "run_parallel_cells",
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
        # written so that NaN fails too
        if not all(lo <= hi for lo, hi in zip(self.bounds_lo, self.bounds_hi)):
            raise ValueError("lower bounds must not exceed upper bounds")

    @property
    def n_ramps(self) -> int:
        return len(self.params.metered_cells)

    @property
    def decision_dim(self) -> int:
        return self.n_ramps * self.horizon if self.kind == CONVENTIONAL else self.n_ramps


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
        # written so that NaN fails too: a NaN budget would never expire
        if not (self.function_tolerance > 0 and self.step_tolerance > 0):
            raise ValueError("tolerances must be positive")
        if self.budget_s is not None and not self.budget_s >= 0:
            raise ValueError("budget must be nonnegative")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if self.termination not in ("best", "all"):
            raise ValueError("termination must be 'best' or 'all'")
        if not self.fd_step > 0:
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


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def _decision(problem: MpcProblem, decision: Sequence[float]) -> np.ndarray:
    x = np.asarray(decision, dtype=float).ravel()
    if x.size != problem.decision_dim:
        raise ValueError(
            f"decision has {x.size} entries, problem expects {problem.decision_dim}"
        )
    return x


def objective(problem: MpcProblem, decision: Sequence[float]) -> float:
    """Predicted cost of a decision vector over the problem horizon.

    One merged rollout of one row, clipped into the bounds.  The two failures a plan can
    cause (a negative or NaN rate, a state update out of bounds) surface as
    +inf (logged) so the solver simply avoids the offending point; any other
    error propagates.
    """
    x = _decision(problem, decision)[None, :]
    return float(_MergedRollouts([problem]).objective([(0, x)])[0])


class _MergedRollouts:
    """Decision rows of several problems that share one context, rolled out
    together.

    Every problem must share its initial state, forecast, network, gamma and
    previous rates with the others, as every problem of one control step
    does.  Each call is one :func:`~basepar.actm.rollout_batch` call,
    whatever the problems' kinds and horizons: the rows in request order,
    rolled over the longest requested horizon, each row costed over its own
    problem's horizon.  Rows are clipped into their problem's bounds first.
    """

    def __init__(self, problems: Sequence[MpcProblem]):
        contexts = [(p.initial_state, tuple(p.demand_forecast), p.params,
                     tuple(p.mu_prev), p.gamma) for p in problems]
        if any(context != contexts[0] for context in contexts):
            raise ValueError("problems solved jointly must share one context")
        self.problems = problems
        self.bounds = [_Bounds(p.bounds_lo, p.bounds_hi) for p in problems]

    def __call__(
        self, requests: Sequence[tuple[int, np.ndarray]]
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Costs of every requested row, in request order, and the plans
        ``[rows, horizon, ramps]`` of each request; a request is a problem
        index with its decision rows ``[rows, dim]``."""
        problems = [self.problems[i] for i, _ in requests]
        first = problems[0]
        horizon = max(p.horizon for p in problems)
        batch = sum(len(rows) for _, rows in requests)
        rates = np.zeros((batch, horizon, first.n_ramps))
        gains = gain_rows = None
        if any(p.kind == PARAMETERIZED for p in problems):
            gains = np.zeros((batch, first.n_ramps))
            gain_rows = np.zeros(batch, dtype=bool)
        horizons = np.empty(batch, dtype=int)
        places = []
        at = 0
        for (i, x), problem in zip(requests, problems):
            x = self.bounds[i].clip(x)
            rows = slice(at, at + len(x))
            if problem.kind == CONVENTIONAL:
                rates[rows, : problem.horizon] = x.reshape(len(x), problem.horizon, -1)
            else:
                gains[rows] = x
                gain_rows[rows] = True
            horizons[rows] = problem.horizon
            places.append(rows)
            at = rows.stop
        costs, plans = rollout_batch(
            first.initial_state, first.demand_forecast, first.params, horizon,
            first.gamma, plans=rates, gains=gains, mu_prev=first.mu_prev,
            gain_rows=gain_rows, horizons=horizons,
        )
        return costs, [plans[rows, : p.horizon] for rows, p in zip(places, problems)]

    def objective(self, requests: Sequence[tuple[int, np.ndarray]]) -> np.ndarray:
        """:func:`objective` of every requested row, in request order."""
        costs, _ = self(requests)
        finite = np.isfinite(costs)
        if not finite.all():
            failed = costs == math.inf
            at = 0
            for i, rows in requests:
                count = int(np.count_nonzero(failed[at:at + len(rows)]))
                if count:
                    logger.warning(
                        "objective evaluation failed for %s at %d of %d points; "
                        "returning +inf", self.problems[i].label, count, len(rows),
                    )
                at += len(rows)
            costs[~finite] = math.inf
        return costs

    def plans(
        self, decisions: Sequence[np.ndarray]
    ) -> list[list[tuple[tuple[float, ...], ...]]]:
        """Metering plans of each problem's decision rows (see
        :func:`decision_to_metering`); the parameterized problems' plans are
        derived in one merged rollout."""
        derived = [i for i, p in enumerate(self.problems) if p.kind == PARAMETERIZED]
        arrays = [bounds.clip(x) for x, bounds in zip(decisions, self.bounds)]
        for i, problem in enumerate(self.problems):
            if problem.kind == CONVENTIONAL:
                arrays[i] = arrays[i].reshape(-1, problem.horizon, problem.n_ramps)
        if derived:
            _, rolled = self([(i, decisions[i]) for i in derived])
            for i, plan in zip(derived, rolled):
                arrays[i] = plan
        return [[tuple(tuple(row) for row in plan) for plan in a.tolist()] for a in arrays]


def decision_to_metering(
    problem: MpcProblem, decision: Sequence[float]
) -> tuple[tuple[float, ...], ...]:
    """Metering plan (horizon x ramps) encoded by a decision vector."""
    x = _decision(problem, decision)[None, :]
    return _MergedRollouts([problem]).plans([x])[0][0]


# ---------------------------------------------------------------------------
# Shift-based starting points
# ---------------------------------------------------------------------------

def make_shift_warm_starts(history: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Up to three starting plans from previous solutions (oldest first).

    Shifting a solution by ``k`` drops its ``k`` leading rows and repeats
    the last row to keep the length.  (a) the previous solution shifted
    once; (b) the average of the previous solution shifted once and the
    second-previous shifted twice (needs two entries); (c) the average of
    all previous solutions, each shifted by its age.  Returns an empty list
    when there is no history.
    """
    if not history:
        return []
    stack = np.asarray(history, dtype=float)
    count, length = stack.shape[:2]
    ages = np.arange(1, count + 1)[:, None]  # newest first
    shifted = stack[count - ages, np.minimum(np.arange(length) + ages, length - 1)]
    starts = [shifted[0]]
    if count >= 2:
        starts.append(0.5 * (shifted[0] + shifted[1]))
    starts.append(np.mean(shifted, axis=0))
    return starts


def base_start_for(problem: MpcProblem, warm: WarmStart) -> np.ndarray:
    """Starting decision derived from a base controller's warm-start rollout:
    its first ``horizon`` metering rows for a conventional problem, its gain
    trail averaged over the window for a parameterized one."""
    if len(warm.mu) < problem.horizon:
        raise ValueError(
            f"warm start has {len(warm.mu)} steps, problem horizon is {problem.horizon}"
        )
    if problem.kind == CONVENTIONAL:
        return np.asarray(warm.mu[: problem.horizon], dtype=float).ravel()
    return np.mean(np.asarray(warm.theta[: problem.horizon], dtype=float), axis=0)


# ---------------------------------------------------------------------------
# Budgeted projected quasi-Newton solver
# ---------------------------------------------------------------------------

def _expired(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() >= deadline


# A coroutine that yields decision rows ``[k, dim]`` to be evaluated, is sent
# their costs ``[k]`` back, and finally returns its result.
T = TypeVar("T")
Evaluation = Generator[np.ndarray, np.ndarray, T]

# backtracking step lengths 1, 1/2, ..., exactly as repeated halving gives
# them, as a column
_STEP_LENGTHS = (0.5 ** np.arange(30))[:, None]

# Costs of the requested rows, one ``(key, rows)`` pair per live coroutine,
# as one array in request order; None to stop.
Evaluator = Callable[[list[tuple[object, np.ndarray]]], Optional[np.ndarray]]


def _lockstep(
    tasks: Sequence[tuple[object, Evaluation]], evaluate: Evaluator,
    deadline: Optional[float],
) -> list:
    """Run evaluation coroutines side by side and return what each returned.

    ``tasks`` pairs each coroutine with a key naming what its rows belong to
    (a problem).  Each round passes the rows every live coroutine has
    requested, with its key, to one ``evaluate`` call and sends each
    coroutine its share of the costs.  A deadline is checked before every
    round; once it has expired, or ``evaluate`` returns None, the coroutines
    still running are abandoned and their results are None.
    """
    results: list = [None] * len(tasks)
    live = []

    def advance(t: int, key: object, coroutine: Evaluation, costs) -> None:
        try:
            rows = next(coroutine) if costs is None else coroutine.send(costs)
        except StopIteration as stop:
            results[t] = stop.value
        else:
            live.append((t, key, coroutine, rows))

    for t, (key, coroutine) in enumerate(tasks):
        advance(t, key, coroutine, None)
    while live and (deadline is None or not _expired(deadline)):
        costs = evaluate([(key, rows) for _, key, _, rows in live])
        if costs is None:
            break
        pending, live, at = live, [], 0
        for t, key, coroutine, rows in pending:
            advance(t, key, coroutine, costs[at:at + len(rows)])
            at += len(rows)
    return results


class _Bounds:
    """A problem's box ``[lo, hi]`` with what the solver derives from it,
    once per solve: the coordinates with ``lo != hi``, where each one's
    difference step goes among the flattened difference points, the width
    of the finite box and the identity of its dimension."""

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.free = np.flatnonzero(self.hi - self.lo != 0.0)
        dim, self.n_free = self.lo.size, self.free.size
        self.diagonal = np.arange(self.n_free) * dim + self.free
        finite = np.isfinite(self.hi) & np.isfinite(self.lo)
        self.width = float(np.max(self.hi[finite] - self.lo[finite], initial=1.0))
        self.eye = np.eye(dim)
        self.eye.flags.writeable = False

    def clip(self, x: np.ndarray) -> np.ndarray:
        """``np.clip(x, lo, hi)`` bit for bit: numpy's maximum and minimum
        return their second operand, here the bound, on ties, as clip does."""
        return np.minimum(np.maximum(x, self.lo), self.hi)


class _Differences:
    """The forward-difference points around ``x``, stepping backward off
    upper bounds; coordinates with ``lo == hi`` get no point."""

    def __init__(self, x: np.ndarray, bounds: _Bounds, h: float):
        self.x, self.free = x, bounds.free
        self.steps = np.where(x[self.free] + h <= bounds.hi[self.free], h, -h)
        self.points = np.empty((bounds.n_free, x.size))
        self.points[...] = x
        self.points.reshape(-1)[bounds.diagonal] += self.steps

    def gradient(self, f: float, costs: np.ndarray) -> np.ndarray:
        """The gradient at ``x`` (whose cost is ``f``) from the costs of
        :attr:`points`; 0 in the coordinates with ``lo == hi``."""
        g = np.zeros_like(self.x)
        g[self.free] = (costs - f) / self.steps
        return g


def _gradient_request(
    x: np.ndarray, f: float, bounds: _Bounds, h: float
) -> Evaluation[np.ndarray]:
    """Forward-difference gradient at ``x`` (whose cost is ``f``), stepping
    backward off upper bounds; coordinates with ``lo == hi`` get 0 and no
    evaluation."""
    differences = _Differences(x, bounds, h)
    costs = (yield differences.points) if bounds.n_free else np.empty(0)
    return differences.gradient(f, costs)


def _starts_request(
    x: np.ndarray, bounds: _Bounds, h: Optional[float]
) -> Evaluation[tuple[np.ndarray, list[Optional[np.ndarray]]]]:
    """Costs of the starts ``x`` ``[k, dim]`` and, given a difference step
    ``h``, the gradient at each finite one, all in one request; a start
    without a gradient gets None."""
    differences = [] if h is None else [_Differences(row, bounds, h) for row in x]
    costs = yield np.concatenate([x, *(d.points for d in differences)])
    fs, gradients, at = costs[:len(x)], [None] * len(x), len(x)
    for j, d in enumerate(differences):
        if math.isfinite(fs[j]):
            gradients[j] = d.gradient(float(fs[j]), costs[at:at + len(d.points)])
        at += len(d.points)
    return fs, gradients


def _pointwise(fun: Callable[[np.ndarray], float], deadline: Optional[float]) -> Evaluator:
    """Evaluator calling ``fun`` row by row, the deadline checked before
    every row; it returns None once the deadline has expired."""

    def evaluate(requests: list[tuple[object, np.ndarray]]) -> Optional[np.ndarray]:
        rows = np.concatenate([rows for _, rows in requests])
        costs = np.empty(len(rows))
        for i, row in enumerate(rows):
            if _expired(deadline):
                return None
            costs[i] = fun(row)
        return costs

    return evaluate


def _fd_gradient(
    fun: Callable[[np.ndarray], float],
    x: np.ndarray,
    f0: float,
    bounds: _Bounds,
    h: float,
) -> np.ndarray:
    """The solver's forward-difference gradient of ``fun``, evaluated point
    by point."""
    request = _gradient_request(x, f0, bounds, h)
    return _lockstep([(None, request)], _pointwise(fun, None), None)[0]


def _line_search(
    x: np.ndarray,
    f: float,
    g: np.ndarray,
    direction: np.ndarray,
    bounds: _Bounds,
    h: Optional[float],
) -> Evaluation[Optional[tuple[np.ndarray, float, np.ndarray, Optional[np.ndarray]]]]:
    """Backtracking projected line search along ``direction``.

    The step lengths ``1, 1/2, ...`` (30 at most) are tried up to the first
    whose clipped step is zero, all in one request, and the first that
    passes the Armijo test is accepted.  With a difference step ``h`` the
    request also carries the forward-difference points around the full-step
    point, so that a full step comes with its gradient.  Returns the
    accepted point, its cost, the step taken and the gradient there (None
    unless the full step was accepted), or None.  The accepted cost may
    equal ``f``: the test admits equality where the predicted decrease is
    zero or lost to rounding, and :func:`_descent` ends there.
    """
    points = bounds.clip(x + _STEP_LENGTHS * direction)
    moves = points - x
    moving = moves.any(axis=1)
    tried = len(moving) if moving.all() else int(np.argmin(moving))
    if tried == 0:
        return None
    ahead = None if h is None else _Differences(points[0], bounds, h)
    costs = yield points[:tried] if ahead is None else np.concatenate([points[:tried], ahead.points])
    for i, cost in enumerate(costs[:tried]):
        if math.isfinite(cost) and cost <= f + 1e-4 * min(0.0, float(g @ moves[i])):
            g_new = None if i or ahead is None else ahead.gradient(float(cost), costs[tried:])
            return points[i], float(cost), moves[i], g_new
    return None


def _descent(
    x0: np.ndarray,
    f0: float,
    g0: np.ndarray,
    bounds: _Bounds,
    cfg: OptimizerConfig,
    record: Callable[[np.ndarray, float, int, bool], None],
) -> Evaluation[None]:
    """Projected BFGS from one start whose gradient ``g0`` is known; every
    point it moves to is recorded, and each costs strictly less than the
    one before it.

    The descent ends when the line search accepts no step, or accepts one
    whose cost is not strictly below the current cost (that point is not
    recorded, so a plateau of equal cost is never walked), on the
    tolerances, or at the iteration cap.  Each request is one whole line
    search, carrying the gradient points of its full step unless the
    iteration cap ends the descent there, or one forward-difference
    gradient at a point reached by a shorter step.  An abandoned descent
    keeps the points it has recorded.
    """
    x, f, g = x0, f0, g0
    ident = bounds.eye
    h_inv = ident.copy()
    scaled = False  # curvature-based rescaling applied yet?
    box = bounds.width
    for it in range(1, cfg.max_iterations + 1):
        direction = -h_inv @ g
        if float(direction @ g) >= 0.0:
            h_inv = ident.copy()
            scaled = False
            direction = -g
        if not scaled:
            # no curvature information yet: size the step relative to the box
            # instead of trusting the raw gradient magnitude
            norm = float(np.maximum.reduce(np.abs(direction)))
            if norm > 0.0:
                direction = direction * (0.1 * box / norm)
        h = cfg.fd_step if it < cfg.max_iterations else None
        accepted = yield from _line_search(x, f, g, direction, bounds, h)
        if accepted is None:
            return
        x_new, f_new, step_vec, g_new = accepted
        if f_new >= f:  # no decrease: end here, without recording the point
            return
        df = f - f_new
        dx = float(np.maximum.reduce(np.abs(step_vec)))
        converged = bool(df < cfg.function_tolerance and dx < cfg.step_tolerance)
        record(x_new, f_new, it, converged)
        if converged or it == cfg.max_iterations:
            return
        if g_new is None:
            g_new = yield from _gradient_request(x_new, f_new, bounds, cfg.fd_step)
        s = step_vec
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12:
            if not scaled:
                h_inv = (sy / max(float(y @ y), 1e-300)) * ident
                scaled = True
            rho = 1.0 / sy
            left = ident - rho * (s[:, None] * y)
            h_inv = left @ h_inv @ left.T + rho * (s[:, None] * s)
        else:
            h_inv = ident.copy()
            scaled = False
        x, f, g = x_new, f_new, g_new


def _solve_jointly(
    problems: Sequence[MpcProblem],
    starts: Sequence[Sequence[Sequence[float]]],
    config: OptimizerConfig,
    deadline: Optional[float],
    objective_fn: Optional[Callable[[np.ndarray], float]] = None,
) -> list[BudgetedResult]:
    """Solve every problem from its starts in one lockstep (see
    :func:`solve_budgeted`).

    The starts round comes first, whatever the deadline: it evaluates each
    distinct clipped start of every problem together with the
    forward-difference points around it, so every descent begins with its
    gradient.  One descent then runs from every distinct finite start of
    every problem, side by side, and each round evaluates all their requests
    together: with the built-in objective as one merged rollout, with
    ``objective_fn`` point by point.  A start repeated bit for bit lists its
    twin's records again.  Finally the kept points of all problems are converted to plans, the
    parameterized ones in one merged rollout.
    """
    if any(len(s) == 0 for s in starts):
        raise ValueError("at least one starting point is required")
    t0 = time.monotonic()
    rollouts = _MergedRollouts(problems)
    if objective_fn is None:
        evaluate: Evaluator = rollouts.objective
        evaluate_starts = evaluate
    else:
        evaluate = _pointwise(objective_fn, deadline)
        evaluate_starts = _pointwise(objective_fn, None)

    # per problem: the clipped starts, and for each the position of its
    # first copy among the distinct ones
    xs, twins, requests = [], [], []
    h = config.fd_step if config.max_iterations else None
    for i, (problem, s) in enumerate(zip(problems, starts)):
        x = rollouts.bounds[i].clip(np.array([_decision(problem, row) for row in s]))
        first: dict[bytes, int] = {}
        twin = [first.setdefault(row.tobytes(), len(first)) for row in x]
        distinct = x[[twin.index(j) for j in range(len(first))]]
        requests.append((i, _starts_request(distinct, rollouts.bounds[i], h)))
        xs.append(x)
        twins.append(twin)
    opened = _lockstep(requests, evaluate_starts, None)

    def recorder(into: list) -> Callable[[np.ndarray, float, int, bool], None]:
        return lambda x, f, iterations, converged: into.append(
            (x.copy(), float(f), iterations, converged)
        )

    # per problem: the start records, then one trail per descent in start
    # order, a repeated start listing its twin's trail again
    logs: list[list[list]] = []
    tasks = []
    for i, (x, twin, (fs, gradients)) in enumerate(zip(xs, twins, opened)):
        log = [[]]
        record_start = recorder(log[0])
        trails: dict[int, list] = {}
        for k, j in enumerate(twin):
            record_start(x[k], fs[j], 0, False)
            if gradients[j] is None:
                continue
            if j not in trails:
                trails[j] = []
                tasks.append((i, _descent(x[k], float(fs[j]), gradients[j], rollouts.bounds[i],
                                          config, recorder(trails[j]))))
            log.append(trails[j])
        logs.append(log)
    _lockstep(tasks, evaluate, deadline)

    recorded = [[item for part in log for item in part] for log in logs]
    best = [min(range(len(r)), key=lambda k, r=r: (r[k][1], k)) for r in recorded]
    if config.termination == "all":
        kept = recorded
    else:
        kept = [[r[k]] for r, k in zip(recorded, best)]
        best = [0] * len(problems)
    plans = rollouts.plans([np.array([item[0] for item in items]) for items in kept])
    elapsed = time.monotonic() - t0
    results = []
    for problem, items, plan_list, best_idx, trail in zip(problems, kept, plans, best, recorded):
        iterates = tuple(
            CandidateSequence(
                metering=plan,
                source=problem.label,
                cost=float(f),
                decision=tuple(float(v) for v in x),
                iterations=iters,
                converged=converged,
            )
            for plan, (x, f, iters, converged) in zip(plan_list, items)
        )
        results.append(BudgetedResult(
            best=iterates[best_idx],
            iterates=iterates,
            cost_trail=tuple(item[1] for item in trail),
            elapsed_s=elapsed,
        ))
    return results


def solve_budgeted(
    problem: MpcProblem,
    starts: Sequence[Sequence[float]],
    config: OptimizerConfig,
    objective_fn: Optional[Callable[[np.ndarray], float]] = None,
) -> BudgetedResult:
    """Minimize the problem objective from every start within the budget.

    All starts are clipped into the bounds and evaluated up front, with the
    gradient at each (this defines the zero-budget result and guarantees the
    solver never returns worse than a provided start).  The descents from
    all distinct finite starts then run in lockstep until they finish or the
    deadline expires: each round evaluates the requests of every live
    descent together, each request being one whole line search (with the
    gradient points of its full step) or one forward-difference gradient.

    With the built-in objective each round is one batched rollout, and the
    deadline is checked before every round, so the solve overshoots it by at
    most one round's batch.  ``objective_fn`` substitutes the cost function,
    which the test suite uses to drive the solver over closed-form
    surrogates; it is called point by point with the deadline checked before
    every point.

    Records are listed as a sequential solver would list them: the starts,
    then each descent's accepted points, descent by descent in start order.
    This is the one-problem case of the scheduler :func:`run_parallel_cells`
    runs.
    """
    deadline = None if config.budget_s is None else time.monotonic() + config.budget_s
    return _solve_jointly([problem], [starts], config, deadline, objective_fn)[0]


def run_parallel_cells(
    cells: Sequence[tuple[Sequence[MpcProblem], WarmStart]],
    histories: dict[str, list[np.ndarray]],
    config: OptimizerConfig,
) -> dict[str, BudgetedResult]:
    """Solve every problem of several parallel cells together.

    Each cell pairs its problems with its base controller's warm start.  All
    problems must share one context (initial state, forecast, network, gamma
    and previous rates), as those of one control step do; ``ValueError``
    otherwise.  Each controller receives the prefix of that warm start that
    matches its horizon plus the shift starts built from its own solution
    history.  All solves of all cells run in one lockstep against one
    deadline, the config budget from when the starts are built, so every
    solve takes part in every round until it finishes or the deadline
    expires.  Without a budget the results equal those of separate
    :func:`solve_budgeted` calls, except ``elapsed_s``: every result reports
    the wall time of the whole call, whose rounds its solves shared.
    Results are keyed by controller label.
    """
    problems: list[MpcProblem] = []
    starts: list[list[np.ndarray]] = []
    for cell_problems, base_warm in cells:
        if cell_problems and len(base_warm.mu) < max(p.horizon for p in cell_problems):
            raise ValueError("base warm start is shorter than the largest horizon")
        for problem in cell_problems:
            problems.append(problem)
            starts.append([base_start_for(problem, base_warm)])
            starts[-1].extend(
                s.ravel() for s in make_shift_warm_starts(histories.get(problem.label, []))
            )
    deadline = None if config.budget_s is None else time.monotonic() + config.budget_s
    results = _solve_jointly(problems, starts, config, deadline) if problems else []
    return {problem.label: result for problem, result in zip(problems, results)}


def run_parallel_cell(
    problems: Sequence[MpcProblem],
    base_warm: WarmStart,
    histories: dict[str, list[np.ndarray]],
    config: OptimizerConfig,
) -> dict[str, BudgetedResult]:
    """Solve every problem of one parallel cell (see
    :func:`run_parallel_cells`)."""
    return run_parallel_cells([(problems, base_warm)], histories, config)
