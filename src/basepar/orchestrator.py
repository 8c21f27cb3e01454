"""One control step of the base-parallel architecture.

Each step: every base controller is rolled forward into a warm-start
sequence, which is also its candidate, all bases in one kernel call; the
parallel cells solve their budgeted problems seeded by that sequence and by
their own previous solution shifted one step
(:meth:`BaseParallelController.propose`); the evaluation block scores every
candidate by its cost over a short horizon on the evaluation model, which
is the plant model, read off the rollout that costed the candidate (the
warm-start call or the solver round that recorded it), a prefix of that
rollout bit for bit; the selector applies the first element of the
candidate with the least realized cost, or the first cell's base candidate
when every rollout failed; and the applied rates and each solve's best
decision are committed (:meth:`BaseParallelController.commit`).
:func:`evaluate_candidates` rolls candidates out afresh, for a different
evaluation model or as the reference the tests check those costs against.

The architecture is data, the frozen :class:`ArchitectureConfig`, which
each step reads afresh: replacing :attr:`BaseParallelController.config`
between steps (``dataclasses.replace`` runs its checks) adds, eliminates
or changes cells and controllers online; a controller whose problem has
changed starts from its base alone, as one added back does.  A standalone
approach is the one-cell case, which applies its own plan without the
evaluation block (:meth:`BaseParallelController.own_step`): a standalone
online controller is seeded by a base that holds the previous rates and
applies its best plan, a standalone base controller has no online
controller and applies its own rates.

Every base is a :class:`~basepar.base_controllers.FeedbackController`, its
gains and a label, and every online controller is the
:class:`~basepar.parallel.MpcProblem` it solves, built once per run.  The
architecture owns the previous rates
(:attr:`BaseParallelController.mu_prev`), the *applied* ones.  Every
feedback law starts from them, and every problem from the step's one
:class:`~basepar.parallel.StepContext`, which holds them with the measured
state, so each sees what actually reached the plant.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import actm
# ``rollout`` and ``run_parallel_cell`` are not called here; they stay
# importable from this module because perfbench/layers.py wraps them here.
from .actm import (
    ExogenousInput,
    NetworkParams,
    NetworkState,
    TopologyError,
    rollout,
)
from .base_controllers import FeedbackController, warm_start_rollout
from .parallel import (
    BudgetedResult,
    CandidateSequence,
    MpcProblem,
    OptimizerConfig,
    StepContext,
    run_parallel_cell,
    run_parallel_cells,
)

__all__ = [
    "ParallelCell",
    "ArchitectureConfig",
    "EvaluationResult",
    "SelectionRecord",
    "evaluate_candidates",
    "select_best",
    "BaseParallelController",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ParallelCell:
    """A base controller with the online controllers it seeds."""

    base: FeedbackController
    controllers: tuple[MpcProblem, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "controllers", tuple(self.controllers))


@dataclass(frozen=True)
class ArchitectureConfig:
    """The full architecture as data, read afresh at every step; replace it
    (``dataclasses.replace`` runs these checks) to change it online."""

    params: NetworkParams
    cells: tuple[ParallelCell, ...]
    evaluation_horizon: int
    gamma: float
    optimizer: OptimizerConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        if self.evaluation_horizon < 1:
            raise ValueError("evaluation horizon must be at least 1")
        if not self.cells:
            raise ValueError("architecture needs at least one cell")
        horizons = [c.horizon for cell in self.cells for c in cell.controllers]
        if horizons and self.evaluation_horizon > min(horizons):
            raise ValueError(
                "evaluation horizon must not exceed the smallest prediction horizon"
            )
        labels = [c.label for cell in self.cells for c in cell.controllers]
        labels += [cell.base.label for cell in self.cells]
        if len(set(labels)) != len(labels):
            raise ValueError("controller labels must be unique")


@dataclass
class EvaluationResult:
    """Realized short-horizon costs of every candidate; the winner fields are
    filled by :func:`select_best`."""

    candidates: tuple[CandidateSequence, ...]
    costs: tuple[float, ...]
    winner_index: Optional[int] = None
    margins: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class SelectionRecord:
    """Everything the architecture decided at one control step."""

    applied: tuple[float, ...]
    winner: str
    candidate_labels: tuple[str, ...]
    candidate_costs: tuple[float, ...]
    solver_stats: tuple[tuple[str, float, int, bool], ...]  # label, elapsed, iters, converged


def evaluate_candidates(
    candidates: Sequence[CandidateSequence],
    eval_params: NetworkParams,
    state: NetworkState,
    forecast: Sequence[ExogenousInput],
    evaluation_horizon: int,
    gamma: float,
) -> EvaluationResult:
    """Roll every candidate out on the evaluation model and sum the stage
    costs over the evaluation horizon.

    All candidates are rolled out as one batch; the costs equal
    :func:`~basepar.actm.rollout`'s bit for bit.  Candidates shorter than the
    horizon hold their last rate.  A candidate with a negative rate or whose
    rollout leaves the admissible states is kept with +inf cost so the
    selector skips it; a plan of the wrong shape raises.
    """
    if not candidates:
        raise ValueError("candidate set must not be empty")
    n_ramps = len(eval_params.metered_cells)
    plans = np.empty((len(candidates), evaluation_horizon, n_ramps))
    for b, cand in enumerate(candidates):
        rows = np.asarray(cand.metering, dtype=float)
        if rows.ndim != 2 or len(rows) == 0 or rows.shape[1] != n_ramps:
            raise TopologyError(
                f"candidate {cand.source!r} has a plan of shape {rows.shape}, "
                f"expected (steps, {n_ramps})"
            )
        plans[b] = rows[np.minimum(np.arange(evaluation_horizon), len(rows) - 1)]
    costs, *_ = actm.rollout_batch(
        state, forecast, eval_params, evaluation_horizon, gamma, plans=plans
    )
    return _evaluation(candidates, tuple(costs.tolist()))


def _evaluation(candidates: Sequence[CandidateSequence], costs: tuple[float, ...]):
    """The evaluation of ``candidates`` at ``costs``, each failed one
    (+inf) logged as excluded."""
    for cand, cost in zip(candidates, costs):
        if cost == math.inf:
            logger.warning(
                "evaluation rollout failed for candidate %r; excluding it", cand.source
            )
    return EvaluationResult(candidates=tuple(candidates), costs=costs)


def select_best(evaluation: EvaluationResult) -> tuple[int, tuple[float, ...]]:
    """Pick the candidate with the least realized cost.

    Ties break toward the lowest candidate index (candidates are ordered
    bases first, then parallel controllers).  If every cost is +inf the
    first candidate, the first cell's base, is applied instead, with a
    prominent warning.  Fills the evaluation's winner and margin fields and
    returns ``(winner_index, applied_rates)``.
    """
    costs = evaluation.costs
    finite = [c for c in costs if math.isfinite(c)]
    if not finite:
        logger.warning(
            "every candidate was excluded by the evaluation block; "
            "falling back to the base candidate %r",
            evaluation.candidates[0].source,
        )
        winner = 0
        margins = tuple(0.0 if i == winner else math.inf for i in range(len(costs)))
    else:
        winner = min(range(len(costs)), key=lambda i: (costs[i], i))
        margins = tuple(c - costs[winner] for c in costs)
    evaluation.winner_index = winner
    evaluation.margins = margins
    return winner, tuple(evaluation.candidates[winner].metering[0])


class BaseParallelController:
    """Driver running the architecture step by step from its config, the
    previous rates and the previous solutions, and nothing derived."""

    def __init__(self, config: ArchitectureConfig, mu_init: Sequence[float]):
        self.config = config
        nr = len(config.params.metered_cells)
        if len(mu_init) != nr:
            raise ValueError("mu_init must have one entry per metered ramp")
        self.mu_prev: tuple[float, ...] = tuple(float(m) for m in mu_init)
        # each controller's best decision at the last commit, ``[rows, ramps]``,
        # keyed by the problem it solved
        self.previous: dict[MpcProblem, np.ndarray] = {}

    def propose(
        self,
        measurement: NetworkState,
        measured: ExogenousInput,
        o_prev: Sequence[float],
    ) -> tuple[list[CandidateSequence], dict[str, BudgetedResult]]:
        """Roll every base forward and solve every cell's problems together.

        Returns the base candidates, one per cell in cell order, and the
        result of every solve keyed by controller label, in cell order.
        ``o_prev`` carries the realized upstream mainline inflow per metered
        ramp from the previous plant step (the network gains read it at the
        first step of a warm start).
        """
        cfg = self.config
        e = cfg.evaluation_horizon
        forecast = (measured,)  # persistence forecast, shared by every block
        # a base rolls its cell's longest horizon, at least the evaluation one
        lengths = [max([e] + [p.horizon for p in cell.controllers]) for cell in cfg.cells]
        warm = warm_start_rollout([cell.base for cell in cfg.cells], self.mu_prev, measurement,
                                  forecast, lengths, cfg.params, o_prev, cfg.gamma)
        bases = [CandidateSequence(w.mu, cell.base.label, w.total_cost,
                                   evaluation_cost=w.running_cost[e])
                 for cell, w in zip(cfg.cells, warm)]
        context = StepContext(cfg.params, measurement, forecast, self.mu_prev, cfg.gamma, e)
        # every solve of every cell, in one lockstep against the one deadline
        cells = [(cell.controllers, w) for cell, w in zip(cfg.cells, warm)]
        return bases, run_parallel_cells(cells, context, self.previous, cfg.optimizer)

    def commit(self, applied: tuple[float, ...], results: dict[str, BudgetedResult]) -> None:
        """Make ``applied`` the previous rates of every base and problem, and
        each solve's best decision its controller's previous solution, the
        next step's shift start, keyed by the config's problem of that
        label, so that it seeds only that problem; a controller that did not
        solve keeps none."""
        self.mu_prev = applied
        problems = {p.label: p for cell in self.config.cells for p in cell.controllers}
        self.previous = {problems[label]: np.asarray(result.best.decision, dtype=float).reshape(
            -1, len(applied)) for label, result in results.items()}

    def control_step(
        self,
        measurement: NetworkState,
        measured: ExogenousInput,
        o_prev: Sequence[float],
    ) -> tuple[SelectionRecord, EvaluationResult]:
        """Run one full architecture step from the measured plant state:
        :meth:`propose`, evaluate every candidate (each
        :attr:`~basepar.parallel.CandidateSequence.evaluation_cost`, which
        equals :func:`evaluate_candidates` on the architecture's model bit for
        bit), apply the best and :meth:`commit` it.  If the evaluation
        excludes every candidate, the first cell's base candidate is
        applied."""
        candidates, results = self.propose(measurement, measured, o_prev)
        for result in results.values():
            candidates.extend(result.iterates)
        evaluation = _evaluation(candidates, tuple(c.evaluation_cost for c in candidates))
        winner_index, applied = select_best(evaluation)
        self.commit(applied, results)
        record = SelectionRecord(
            applied=applied,
            winner=evaluation.candidates[winner_index].source,
            candidate_labels=tuple(c.source for c in evaluation.candidates),
            candidate_costs=evaluation.costs,
            solver_stats=tuple(
                (label, r.elapsed_s, r.best.iterations, r.best.converged)
                for label, r in results.items()
            ),
        )
        return record, evaluation

    def own_step(
        self,
        measurement: NetworkState,
        measured: ExogenousInput,
        o_prev: Sequence[float],
    ) -> tuple[SelectionRecord, None]:
        """Run one step of a standalone approach, the one-cell architecture,
        from the measured plant state: :meth:`propose`, apply the cell's own
        plan with no evaluation block and :meth:`commit` it.  A cell with an
        online controller applies the controller's best plan (its base holds
        the previous rates); a cell without one applies its base's rates.
        Built with evaluation horizon 1, since nothing is evaluated, the
        base rolls only as far as the controller needs: one step without
        one."""
        bases, results = self.propose(measurement, measured, o_prev)
        cell = self.config.cells[0]
        label = (cell.controllers[0] if cell.controllers else cell.base).label
        result = results.get(label)
        best = bases[0] if result is None else result.best
        applied = tuple(best.metering[0])
        self.commit(applied, results)
        if result is None:
            return SelectionRecord(applied, label, (), (), ()), None
        stats = ((label, result.elapsed_s, best.iterations, best.converged),)
        return SelectionRecord(applied, label, (label,), (best.cost,), stats), None
