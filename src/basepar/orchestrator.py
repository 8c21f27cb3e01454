"""One control step of the base-parallel architecture.

Each step: every base controller is rolled forward into a warm-start
sequence, which is also its candidate; the parallel cells solve their
budgeted problems seeded by that sequence plus the shift starts from their
own history (:meth:`BaseParallelController.propose`); the evaluation block
scores every candidate by rolling it out on the evaluation model over a
short horizon; the selector applies the first element of the candidate with
the least realized cost, or the first cell's base candidate when every
rollout failed; and the applied rates and each solve's best decision are
committed (:meth:`BaseParallelController.commit`).

The architecture changes by adding or removing cells and controllers.  A
standalone approach is the one-cell case, which applies its own plan
through ``propose`` and ``commit`` without the evaluation block: a
standalone online controller is seeded by a base that holds the previous
rates and applies its best plan, a standalone base controller has no online
controller and applies its own rates.

Every base is a stateless
:class:`~basepar.base_controllers.FeedbackController`.  The architecture
owns the previous rates (:attr:`BaseParallelController.mu_prev`), the
*applied* ones, and every feedback law and every problem starts from them,
so each sees what actually reached the plant.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# ``rollout`` and ``run_parallel_cell`` are not called here; they stay
# importable from this module because perfbench/layers.py wraps them here.
from .actm import (
    ExogenousInput,
    NetworkParams,
    NetworkState,
    TopologyError,
    rollout,
    rollout_batch,
)
from .base_controllers import FeedbackController, warm_start_rollout
from .parallel import (
    CONVENTIONAL,
    PARAMETERIZED,
    BudgetedResult,
    CandidateSequence,
    MpcProblem,
    OptimizerConfig,
    run_parallel_cell,
    run_parallel_cells,
)

__all__ = [
    "ParallelControllerSpec",
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
class ParallelControllerSpec:
    """One online controller inside a parallel cell."""

    label: str
    kind: str      # "conventional" or "parameterized"
    horizon: int

    def __post_init__(self) -> None:
        if self.kind not in (CONVENTIONAL, PARAMETERIZED):
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")


@dataclass
class ParallelCell:
    """A base controller with the online controllers it seeds."""

    base: FeedbackController
    controllers: tuple[ParallelControllerSpec, ...] = ()


@dataclass
class ArchitectureConfig:
    """Static description of the full architecture."""

    params: NetworkParams
    cells: list[ParallelCell]
    evaluation_horizon: int
    gamma: float
    optimizer: OptimizerConfig
    metering_upper: float   # every rate lies in [0, metering_upper]
    gain_upper: float       # every parameterized gain lies in [0, gain_upper]

    def __post_init__(self) -> None:
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
        # written so that NaN fails too
        for name in ("metering_upper", "gain_upper"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be a nonnegative number")


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
    costs, _ = rollout_batch(
        state, forecast, eval_params, evaluation_horizon, gamma, plans=plans
    )
    for cand, cost in zip(candidates, costs):
        if cost == math.inf:
            logger.warning(
                "evaluation rollout failed for candidate %r; excluding it", cand.source
            )
    return EvaluationResult(candidates=tuple(candidates), costs=tuple(costs.tolist()))


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
    """Stateful driver running the full architecture step by step."""

    def __init__(self, config: ArchitectureConfig, mu_init: Sequence[float]):
        self.config = config
        nr = len(config.params.metered_cells)
        if len(mu_init) != nr:
            raise ValueError("mu_init must have one entry per metered ramp")
        self.mu_prev: tuple[float, ...] = tuple(float(m) for m in mu_init)
        self.histories: dict[str, list[np.ndarray]] = {
            spec.label: [] for cell in config.cells for spec in cell.controllers
        }

    def _problem(
        self, spec: ParallelControllerSpec, measurement: NetworkState,
        forecast: tuple[ExogenousInput, ...],
    ) -> MpcProblem:
        """The problem ``spec`` solves at this step."""
        cfg = self.config
        if spec.kind == CONVENTIONAL:
            dim, upper = len(self.mu_prev) * spec.horizon, cfg.metering_upper
        else:
            dim, upper = len(self.mu_prev), cfg.gain_upper
        return MpcProblem(
            kind=spec.kind,
            horizon=spec.horizon,
            params=cfg.params,
            initial_state=measurement,
            demand_forecast=forecast,
            mu_prev=self.mu_prev,
            bounds_lo=(0.0,) * dim,
            bounds_hi=(upper,) * dim,
            gamma=cfg.gamma,
            label=spec.label,
        )

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
        forecast = (measured,)  # persistence forecast, shared by every block
        bases: list[CandidateSequence] = []
        cells = []
        for cell in cfg.cells:
            length = max([spec.horizon for spec in cell.controllers] + [cfg.evaluation_horizon])
            warm = warm_start_rollout(
                cell.base, self.mu_prev, measurement, forecast, length, o_prev, cfg.gamma,
            )
            bases.append(CandidateSequence(warm.mu, cell.base.label, warm.total_cost))
            cells.append(([self._problem(spec, measurement, forecast) for spec in cell.controllers],
                          warm))
        # every solve of every cell, in one lockstep against the one deadline
        return bases, run_parallel_cells(cells, self.histories, cfg.optimizer)

    def commit(self, applied: tuple[float, ...], results: dict[str, BudgetedResult]) -> None:
        """Make ``applied`` the previous rates of every base and problem, and
        add each solve's best decision to its shift-start history."""
        self.mu_prev = applied
        n_ramps = len(self.mu_prev)
        for label, result in results.items():
            decision = np.asarray(result.best.decision, dtype=float)
            self.histories[label].append(decision.reshape(-1, n_ramps))

    def control_step(
        self,
        measurement: NetworkState,
        measured: ExogenousInput,
        o_prev: Sequence[float],
    ) -> tuple[SelectionRecord, EvaluationResult]:
        """Run one full architecture step from the measured plant state:
        :meth:`propose`, evaluate every candidate, apply the best and
        :meth:`commit` it.  If the evaluation excludes every candidate, the
        first cell's base candidate is applied."""
        cfg = self.config
        candidates, results = self.propose(measurement, measured, o_prev)
        for result in results.values():
            candidates.extend(result.iterates)
        evaluation = evaluate_candidates(
            candidates, cfg.params, measurement, (measured,),
            cfg.evaluation_horizon, cfg.gamma,
        )
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
