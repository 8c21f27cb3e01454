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
deadline passes or when the per-start iteration cap is reached.  With a
zero budget the result degenerates to the best starting point by objective
value.

Each start is one coroutine, from its first cost to its last descent step.
Its first request is its own cost with the forward-difference points around
it, so its descent begins with its gradient.  Each later request is one
whole line search (every step length up to the first that does not move,
the first passing the Armijo test being accepted; none if the full step
does not move), which also carries the forward-difference points around its
full step, or one forward-difference gradient where a shorter step was
accepted.  One scheduler pass drives the starts of every solve in lockstep:
those of one problem, and through :func:`run_parallel_cells` those of every
problem of every parallel cell of a control step, whatever their kind and
horizon, from the step's one :class:`StepContext` (the measured state, the
forecast, the network, gamma and the previous rates).  A start repeated bit
for bit lists its first copy's records instead of descending again.  Each
round hands the requests of every live start to one evaluator, which
returns every requested row's cost, its cost over the context's evaluation
horizon (+inf if it fails within it; None without one) and its plan.  Each
start is sent the share that belongs to its rows, and records each point
with its own copy of that point's plan row and its evaluation cost: the
evaluation block's score, so no kept point is rolled again, and no round
outlives the next.  The built-in evaluator is one kernel call per round,
whose costs equal the point-by-point ones bit for bit whatever other rows
share it; the test suite passes its own to :func:`_solve_jointly`.  The
scheduler knows no clock: it stops when the evaluator returns None.  The
deadline lives in the evaluator alone (:func:`_until`), which runs the
first round, the starts', whatever the deadline and returns None for any
later round once the deadline has passed, so every live solve takes part
in every round until then.  A control step counts its deadline from its
own start, before its warm starts (:mod:`basepar.orchestrator`);
:func:`solve_budgeted` counts it from its call.  There is no thread pool:
without a deadline (serial mode) the same pass runs until every start has
finished.  Every requested row already lies in its problem's box: the
starts are clipped, the line-search points are clipped, and a
forward-difference point that would leave the box stops at its bound
(:class:`_Differences`).  Records are listed start by start as a
sequential solver lists them, so results depend neither on the
interleaving nor on which other problems share the rounds.  An
:class:`MpcProblem` is fixed for a run, and what the solver derives from
its bounds (the coordinates with ``lo != hi``, where their difference steps
go, the width of the box) is derived once, when the problem is built.

Each online controller starts from its base controller's warm start and,
from its second step on, from its previous solution shifted one step
forward in time (:func:`make_shift_warm_starts`): its first element
dropped and the last repeated.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence, TypeVar

import numpy as np

from . import actm
# ``step`` and ``rollout`` are not called here; they stay importable from
# this module because perfbench/layers.py wraps them here.
from .actm import (
    ExogenousInput,
    NetworkParams,
    NetworkState,
    rollout,
    step,
)
from .base_controllers import WarmStart

__all__ = [
    "CONVENTIONAL",
    "PARAMETERIZED",
    "MpcProblem",
    "StepContext",
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
    """One online controller's receding-horizon problem, fixed for a run;
    the solver's view of its box, :attr:`bounds`, is derived once, here."""

    label: str
    kind: str
    horizon: int
    bounds_lo: tuple[float, ...]  # ramps x horizon entries if conventional, one per ramp if not
    bounds_hi: tuple[float, ...]
    bounds: _Bounds = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in (CONVENTIONAL, PARAMETERIZED):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        dim = len(self.bounds_lo)
        if len(self.bounds_hi) != dim or (self.kind == CONVENTIONAL and dim % self.horizon):
            raise ValueError("bounds must have one entry per ramp, and per step if conventional")
        # written so that NaN fails too
        if not all(lo <= hi for lo, hi in zip(self.bounds_lo, self.bounds_hi)):
            raise ValueError("lower bounds must not exceed upper bounds")
        object.__setattr__(self, "bounds", _Bounds(self.bounds_lo, self.bounds_hi))

    @property
    def n_ramps(self) -> int:
        return self.decision_dim // (self.horizon if self.kind == CONVENTIONAL else 1)

    @property
    def decision_dim(self) -> int:
        return len(self.bounds_lo)


@dataclass(frozen=True)
class StepContext:
    """What every problem of one control step is solved from, and the
    horizon its candidates are evaluated over (None for no evaluation)."""

    params: NetworkParams
    initial_state: NetworkState
    demand_forecast: tuple[ExogenousInput, ...]  # held at the last entry if short
    mu_prev: tuple[float, ...]                   # applied rates at the previous step
    gamma: float
    evaluation_horizon: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.mu_prev) != len(self.params.metered_cells):
            raise ValueError("mu_prev length does not match the metered ramp count")
        if self.evaluation_horizon is not None and self.evaluation_horizon < 1:
            raise ValueError("evaluation horizon must be at least 1")


@dataclass(frozen=True)
class OptimizerConfig:
    """Termination and budget settings for one budgeted solve."""

    function_tolerance: float
    step_tolerance: float
    budget_s: Optional[float]   # None disables the deadline (serial mode)
    max_iterations: int         # per starting point
    termination: str            # "best" or "all"
    fd_step: float

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
    ``evaluation_cost`` is the plan's cost over the evaluation horizon of
    the step's context, +inf if it fails within it, read off the rollout
    that costed the plan (None without an evaluation horizon).
    """

    metering: tuple[tuple[float, ...], ...]  # horizon x ramps
    source: str
    cost: float
    decision: tuple[float, ...] = ()
    iterations: int = 0
    converged: bool = False
    evaluation_cost: Optional[float] = None


@dataclass(frozen=True)
class BudgetedResult:
    """Outcome of one budgeted solve.

    ``iterates`` holds every recorded point (starts plus accepted descent
    steps), in the order :func:`solve_budgeted` lists them, when the solve
    ran with termination option "all", and just the best point under
    "best".
    """

    best: CandidateSequence
    iterates: tuple[CandidateSequence, ...]


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def _decision(problem: MpcProblem, decision: Sequence[float]) -> np.ndarray:
    """The decision as a flat array, clipped into the problem's box."""
    x = np.asarray(decision, dtype=float).ravel()
    if x.size != problem.decision_dim:
        raise ValueError(f"decision has {x.size} entries, problem expects {problem.decision_dim}")
    return problem.bounds.clip(x)


def objective(problem: MpcProblem, context: StepContext, decision: Sequence[float]) -> float:
    """Predicted cost of a decision vector over the problem horizon, from
    the step's context.

    One merged rollout of the decision clipped into the bounds.  The two
    failures a plan can cause (a negative or NaN rate, a state update out
    of bounds) surface as +inf (logged) so the solver simply avoids the
    offending point; any other error propagates.
    """
    x = _decision(problem, decision)[None, :]
    return float(_MergedRollouts([problem], context)([(0, x)])[0][0])


class _MergedRollouts:
    """The solver's built-in evaluator: decision rows of several problems
    rolled out together from one step's context.

    Each call is one kernel call, whatever the problems' kinds and
    horizons: the rows in request order, rolled over the longest requested
    horizon, each row costed over its own problem's horizon and, if the
    context has one, over the evaluation horizon, a prefix of its own.
    Rows are rolled as they come, so each must lie in its problem's box
    already.  Every problem must have as many ramps as the context's
    network, and a horizon no shorter than the evaluation horizon;
    ``ValueError`` otherwise.
    """

    def __init__(self, problems: Sequence[MpcProblem], context: StepContext):
        n_ramps = len(context.params.metered_cells)
        for p in problems:
            if p.n_ramps != n_ramps:
                raise ValueError(f"problem {p.label!r} has {p.n_ramps} ramps, network {n_ramps}")
            if p.horizon < (context.evaluation_horizon or 0):
                raise ValueError(f"problem {p.label!r} is shorter than the evaluation horizon")
        self.problems = problems
        self.context = context

    def __call__(self, requests: Sequence[tuple[int, np.ndarray]]) -> Round:
        """The round of every requested row, in request order: its
        :func:`objective` over its problem's horizon, its cost over the
        evaluation horizon (None without one) and the plans ``[rows,
        horizon, ramps]`` over the longest requested horizon.  A request is
        a problem index with its decision rows ``[rows, dim]``."""
        problems = [self.problems[i] for i, _ in requests]
        ctx = self.context
        n_ramps = len(ctx.mu_prev)
        horizon = max(p.horizon for p in problems)
        batch = sum(len(rows) for _, rows in requests)
        rates = np.zeros((batch, horizon, n_ramps))
        gains = gain_rows = None
        if any(p.kind == PARAMETERIZED for p in problems):
            gains = np.zeros((batch, n_ramps))
            gain_rows = np.zeros(batch, dtype=bool)
        horizons = np.empty(batch, dtype=int)
        at = 0
        for (i, x), problem in zip(requests, problems):
            rows = slice(at, at + len(x))
            if problem.kind == CONVENTIONAL:
                rates[rows, : problem.horizon] = x.reshape(len(x), problem.horizon, -1)
            else:
                gains[rows] = x
                gain_rows[rows] = True
            horizons[rows] = problem.horizon
            at = rows.stop
        costs, plans, running, fail, *_ = actm.rollout_batch(
            ctx.initial_state, ctx.demand_forecast, ctx.params, horizon,
            ctx.gamma, plans=rates, gains=gains, mu_prev=ctx.mu_prev,
            gain_rows=gain_rows, horizons=horizons,
        )
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
        e = ctx.evaluation_horizon
        evaluation = None if e is None else np.where(fail < e, math.inf, running[e])
        return costs, evaluation, plans


def decision_to_metering(
    problem: MpcProblem, context: StepContext, decision: Sequence[float]
) -> tuple[tuple[float, ...], ...]:
    """Metering plan (horizon x ramps) encoded by a decision vector from the
    step's context: the plan one merged rollout of its clipped row rolls."""
    x = _decision(problem, decision)[None, :]
    plan = _MergedRollouts([problem], context)([(0, x)])[2][0, :problem.horizon]
    return tuple(map(tuple, plan.tolist()))


# ---------------------------------------------------------------------------
# Shift-based starting points
# ---------------------------------------------------------------------------

def make_shift_warm_starts(previous: Sequence[Sequence[float]]) -> Optional[np.ndarray]:
    """The shift start from a controller's previous solution ``[rows,
    ramps]``: that solution shifted one step, its first row dropped and the
    last repeated to keep the length.  Returns None when there is none (an
    empty sequence).
    """
    if len(previous) == 0:
        return None
    previous = np.asarray(previous, dtype=float)
    return np.concatenate([previous[1:], previous[-1:]])


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

# What an evaluator returns for the rows of one round, in request order:
# their costs ``[k]``, their costs over the evaluation horizon ``[k]`` (None
# without one) and their plans ``[k, horizon, ramps]``.
Round = tuple[np.ndarray, Optional[np.ndarray], np.ndarray]

# A coroutine that yields decision rows ``[k, dim]`` to be evaluated, is sent
# their share of the round back, and finally returns its result.
T = TypeVar("T")
Evaluation = Generator[np.ndarray, Round, T]

# backtracking step lengths 1, 1/2, ..., exactly as repeated halving gives
# them, as a column
_STEP_LENGTHS = (0.5 ** np.arange(30))[:, None]

# The round of the requested rows, one ``(key, rows)`` pair per live
# coroutine; None to stop.
Evaluator = Callable[[list[tuple[object, np.ndarray]]], Optional[Round]]


def _until(evaluate: Evaluator, budget_s: Optional[float], t0: Optional[float] = None):
    """``evaluate`` for one solve, held to the deadline ``budget_s`` after
    ``t0``, a :func:`time.monotonic` reading (now by default; no deadline
    without a budget): its first round, the starts', runs whatever the
    deadline, and every later round returns None once the deadline has
    passed.  The one place a deadline is enforced."""
    if budget_s is None:
        return evaluate
    deadline = (time.monotonic() if t0 is None else t0) + budget_s
    later = itertools.count()  # 0, falsy, at the first round
    return lambda requests: (None if next(later) and time.monotonic() >= deadline
                             else evaluate(requests))


def _lockstep(tasks: Sequence[tuple[object, Evaluation]], evaluate: Evaluator) -> list:
    """Run evaluation coroutines side by side and return what each returned.

    ``tasks`` pairs each coroutine with a key naming what its rows belong to
    (a problem).  Each round passes the rows every live coroutine has
    requested, with its key, to one ``evaluate`` call and sends each
    coroutine the slice of the round's costs, evaluation costs and plans
    that belongs to its rows.  Once ``evaluate`` returns None (see
    :func:`_until`), the coroutines still running are abandoned and their
    results are None.
    """
    results: list = [None] * len(tasks)
    live = []

    def advance(t: int, key: object, coroutine: Evaluation, share) -> None:
        try:
            rows = next(coroutine) if share is None else coroutine.send(share)
        except StopIteration as stop:
            results[t] = stop.value
        else:
            live.append((t, key, coroutine, rows))

    for t, (key, coroutine) in enumerate(tasks):
        advance(t, key, coroutine, None)
    while live:
        answer = evaluate([(key, rows) for _, key, _, rows in live])
        if answer is None:
            break
        costs, evaluation, plans = answer
        pending, live, at = live, [], 0
        for t, key, coroutine, rows in pending:
            rows = slice(at, at + len(rows))
            evaluated = None if evaluation is None else evaluation[rows]
            advance(t, key, coroutine, (costs[rows], evaluated, plans[rows]))
            at = rows.stop
    return results


def _priced(share: Round, i: int) -> tuple[np.ndarray, Optional[float]]:
    """Row ``i``'s plan, a copy, so that no round outlives the next, and its
    evaluation cost."""
    _, evaluation, plans = share
    return plans[i].copy(), None if evaluation is None else float(evaluation[i])


class _Bounds:
    """A problem's box ``[lo, hi]`` and what the solver derives from it
    once per problem, read-only since every solve shares them: the
    coordinates with ``lo != hi`` and their bounds, where each one's
    difference step goes among the flattened difference points, the width
    of the finite box and its identity matrix."""

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        self.lo = np.array(lo, dtype=float)
        self.hi = np.array(hi, dtype=float)
        self.free = np.flatnonzero(self.hi - self.lo != 0.0)
        self.lo_free, self.hi_free = self.lo[self.free], self.hi[self.free]
        dim, self.n_free = self.lo.size, self.free.size
        self.diagonal = np.arange(self.n_free) * dim + self.free
        finite = np.isfinite(self.hi) & np.isfinite(self.lo)
        self.width = float(np.max(self.hi[finite] - self.lo[finite], initial=1.0))
        self.eye = np.eye(dim)
        for array in (self.lo, self.hi, self.free, self.lo_free, self.hi_free, self.diagonal,
                      self.eye):
            array.flags.writeable = False

    def clip(self, x: np.ndarray) -> np.ndarray:
        """``np.clip(x, lo, hi)`` bit for bit: numpy's maximum and minimum
        return their second operand, here the bound, on ties, as clip does."""
        return np.minimum(np.maximum(x, self.lo), self.hi)


class _Differences:
    """The forward-difference points around ``x``, the first of the rows
    ``head``, stepping backward off upper bounds; coordinates with ``lo ==
    hi`` get no point.  Where the box is narrower than ``2h`` and neither
    step fits, the point goes only as far as the box allows, to the bound
    with more room, and :attr:`steps` holds the step actually taken; every
    point thus lies in the box.  :attr:`rows` holds ``head`` and then
    :attr:`points` in one array, ready to be requested together."""

    def __init__(self, head: np.ndarray, bounds: _Bounds, h: float):
        x = head[0]
        self.size, self.free = x.size, bounds.free
        at = x[self.free]
        lo, hi = bounds.lo_free, bounds.hi_free
        self.steps = np.where(at + h <= hi, h, -h)
        moved = at + self.steps
        out = moved < lo
        if out.any():
            moved = np.where(out, np.where(hi - at >= at - lo, hi, lo), moved)
            self.steps = np.where(out, moved - at, self.steps)
        self.rows = np.empty((len(head) + bounds.n_free, x.size))
        self.rows[:len(head)] = head
        self.points = self.rows[len(head):]
        self.points[...] = x
        self.points.reshape(-1)[bounds.diagonal] = moved

    def gradient(self, f: float, costs: np.ndarray) -> np.ndarray:
        """The gradient at ``x`` (whose cost is ``f``) from the costs of
        :attr:`points`, each divided by its step; 0 in the coordinates with
        ``lo == hi``."""
        g = np.zeros(self.size)
        g[self.free] = (costs - f) / self.steps
        return g


def _gradient_request(
    x: np.ndarray, f: float, bounds: _Bounds, h: float
) -> Evaluation[np.ndarray]:
    """Forward-difference gradient at ``x`` (whose cost is ``f``) from the
    points of :class:`_Differences`; coordinates with ``lo == hi`` get 0 and
    no evaluation."""
    differences = _Differences(x[None], bounds, h)
    costs = (yield differences.points)[0] if bounds.n_free else np.empty(0)
    return differences.gradient(f, costs)


def _line_search(
    x: np.ndarray,
    f: float,
    g: np.ndarray,
    direction: np.ndarray,
    bounds: _Bounds,
    h: Optional[float],
) -> Evaluation[Optional[tuple[np.ndarray, float, np.ndarray, Optional[np.ndarray], tuple]]]:
    """Backtracking projected line search along ``direction``.

    The step lengths ``1, 1/2, ...`` (30 at most) are tried up to the first
    whose clipped step is zero, all in one request, and the first that
    passes the Armijo test is accepted; a full step that does not move
    ends the search before any is built.  With a difference step ``h`` the
    request also carries the forward-difference points around the full-step
    point, so that a full step comes with its gradient.  Returns the
    accepted point, its cost, the step taken, the gradient there (None
    unless the full step was accepted) and its plan and evaluation cost
    (see :func:`_priced`), or None.  The accepted cost may equal ``f``: the
    test admits equality where the predicted decrease is zero or lost to
    rounding, and :func:`_descent` ends there.
    """
    if not (bounds.clip(x + direction) - x).any():
        return None
    points = bounds.clip(x + _STEP_LENGTHS * direction)
    moves = points - x
    moving = moves.any(axis=1)
    tried = len(moving) if moving.all() else int(np.argmin(moving))
    ahead = None if h is None else _Differences(points[:tried], bounds, h)
    request = points[:tried] if ahead is None else ahead.rows
    share = yield request
    costs = share[0]
    for i, cost in enumerate(costs[:tried]):
        if math.isfinite(cost) and cost <= f + 1e-4 * min(0.0, float(g @ moves[i])):
            g_new = None if i or ahead is None else ahead.gradient(float(cost), costs[tried:])
            return points[i], float(cost), moves[i], g_new, _priced(share, i)
    return None


def _descent(
    x0: np.ndarray,
    f0: float,
    g0: np.ndarray,
    bounds: _Bounds,
    cfg: OptimizerConfig,
    trail: list,
) -> Evaluation[None]:
    """Projected BFGS from one start whose gradient ``g0`` is known; every
    point it moves to is recorded onto ``trail`` as ``(x, cost, iterations,
    converged, (plan, evaluation cost))``, and each costs strictly less
    than the one before it.

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
        x_new, f_new, step_vec, g_new, priced = accepted
        if f_new >= f:  # no decrease: end here, without recording the point
            return
        df = f - f_new
        dx = float(np.maximum.reduce(np.abs(step_vec)))
        converged = bool(df < cfg.function_tolerance and dx < cfg.step_tolerance)
        trail.append((x_new.copy(), f_new, it, converged, priced))
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


def _opening(
    x: np.ndarray, bounds: _Bounds, cfg: OptimizerConfig, trail: list
) -> Evaluation[None]:
    """One start, from its first cost to its last descent step.

    The start's cost is requested together with the forward-difference
    points around it (none under a zero iteration cap), and the start is
    recorded onto ``trail`` first, as :func:`_descent` records its points;
    from a finite cost the descent follows, beginning with that gradient.
    """
    ahead = _Differences(x[None], bounds, cfg.fd_step) if cfg.max_iterations else None
    request = x[None] if ahead is None else ahead.rows
    share = yield request
    f = float(share[0][0])
    trail.append((x.copy(), f, 0, False, _priced(share, 0)))
    if ahead is not None and math.isfinite(f):
        yield from _descent(x, f, ahead.gradient(f, share[0][1:]), bounds, cfg, trail)


def _solve_jointly(
    problems: Sequence[MpcProblem],
    starts: Sequence[Sequence[Sequence[float]]],
    config: OptimizerConfig,
    evaluate: Evaluator,
) -> list[BudgetedResult]:
    """Solve every problem from its starts in one lockstep (see
    :func:`solve_budgeted`), until ``evaluate`` returns None.

    One :func:`_opening` runs from every distinct clipped start of every
    problem, side by side, and each round hands all their requests, keyed
    by problem index, to ``evaluate``: the merged rollouts
    (:class:`_MergedRollouts`) of the step's context held to the caller's
    deadline (:func:`_until`), or the test suite's closed-form surrogates.
    The config's budget is not read here.  The first round costs every
    start with the forward-difference points around it.  A start repeated
    bit for bit lists its first copy's records again.  Each recorded point
    keeps its plan, and its evaluation cost, from the round that costed it.
    """
    if any(len(s) == 0 for s in starts):
        raise ValueError("at least one starting point is required")

    # per problem: each clipped start's trail, a start repeated bit for bit
    # sharing its first copy's
    openings, trails = [], []
    for i, (problem, s) in enumerate(zip(problems, starts)):
        x = np.array([_decision(problem, row) for row in s])
        distinct = {row.tobytes(): (row, []) for row in x}
        openings.extend((i, _opening(row, problem.bounds, config, trail))
                        for row, trail in distinct.values())
        trails.append([distinct[row.tobytes()][1] for row in x])
    _lockstep(openings, evaluate)

    # the starts, then each start's descent in start order
    recorded = [[t[0] for t in ts] + [item for t in ts for item in t[1:]] for ts in trails]
    if config.termination == "all":
        kept = recorded
    else:  # the first point of least cost
        kept = [[min(r, key=lambda item: item[1])] for r in recorded]
    iterates = [
        tuple(CandidateSequence(tuple(map(tuple, plan[:problem.horizon].tolist())), problem.label,
                                f, tuple(x.tolist()), iterations, converged, evaluation)
              for x, f, iterations, converged, (plan, evaluation) in items)
        for problem, items in zip(problems, kept)
    ]
    return [BudgetedResult(min(points, key=lambda c: c.cost), points) for points in iterates]


def solve_budgeted(
    problem: MpcProblem,
    context: StepContext,
    starts: Sequence[Sequence[float]],
    config: OptimizerConfig,
) -> BudgetedResult:
    """Minimize the problem objective from the context and every start
    within the budget.

    All starts are clipped into the bounds and evaluated up front, with the
    gradient at each, in the first round, which runs whatever the deadline
    (this defines the zero-budget result and guarantees the solver never
    returns worse than a provided start).  The descents from all distinct
    finite starts then go on in the same lockstep until they finish or the
    deadline, the config budget counted from this call, passes: each round
    evaluates the requests of every live descent together, each request
    being one whole line search (with the gradient points of its full step)
    or one forward-difference gradient.  Each round is one batched rollout,
    and the deadline is checked before every round after the first
    (:func:`_until`), so the solve overshoots it by at most one round's
    batch.

    Records are listed as a sequential solver would list them: the starts,
    then each descent's accepted points, descent by descent in start order.
    This is the one-problem case of the scheduler :func:`run_parallel_cells`
    runs.
    """
    evaluate = _until(_MergedRollouts([problem], context), config.budget_s)
    return _solve_jointly([problem], [starts], config, evaluate)[0]


def run_parallel_cells(
    cells: Sequence[tuple[Sequence[MpcProblem], WarmStart]],
    context: StepContext,
    previous: dict[MpcProblem, np.ndarray],
    config: OptimizerConfig,
    t0: Optional[float] = None,
) -> dict[str, BudgetedResult]:
    """Solve every problem of several parallel cells together, from the one
    context of the control step, within the config budget counted from
    ``t0``.

    Each cell pairs its problems with its base controller's warm start.
    Each controller receives the prefix of that warm start that matches its
    horizon, then the shift start of its previous solution, ``previous``
    keyed by the problem it solved (none for a controller without one, or
    whose problem has changed since: that one starts from its base alone).
    All solves of all cells run in one lockstep, every round through one
    evaluator, the merged rollouts held to the deadline (:func:`_until`):
    the budget after ``t0``, a :func:`time.monotonic` reading that the
    control step takes at its own start, before its warm starts (this
    call's start by default).  So every solve takes part in every round
    until it finishes or the deadline passes.  Without a budget the
    results equal those of separate :func:`solve_budgeted` calls.  Results
    are keyed by controller label.
    """
    problems = [problem for cell_problems, _ in cells for problem in cell_problems]
    starts = [[base_start_for(problem, warm)] for ps, warm in cells for problem in ps]
    for problem, own in zip(problems, starts):
        shifted = make_shift_warm_starts(previous.get(problem, ()))
        if shifted is not None:
            own.append(shifted.ravel())
    evaluate = _until(_MergedRollouts(problems, context), config.budget_s, t0)
    results = _solve_jointly(problems, starts, config, evaluate)
    return {problem.label: result for problem, result in zip(problems, results)}


def run_parallel_cell(
    problems: Sequence[MpcProblem],
    base_warm: WarmStart,
    context: StepContext,
    previous: dict[MpcProblem, np.ndarray],
    config: OptimizerConfig,
) -> dict[str, BudgetedResult]:
    """Solve every problem of one parallel cell (see
    :func:`run_parallel_cells`), within the config budget from the call."""
    return run_parallel_cells([(problems, base_warm)], context, previous, config)
