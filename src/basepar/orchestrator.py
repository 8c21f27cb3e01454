"""One control step of the base-parallel architecture.

Each step: every base controller emits its candidate and is rolled forward
into a warm-start sequence; the parallel cells solve their budgeted problems
seeded by that sequence plus the shift starts from their own history; the
evaluation block scores every candidate by rolling it out on the evaluation
model over a short horizon; the selector applies the first element of the
candidate with the least realized cost.

Base controllers keep per-instance feedback state (their previous metering
rate).  After selection that state is synchronized to the *applied* rates,
so every controller's feedback law sees what actually reached the plant.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
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
from .base_controllers import WarmStart, warm_start_rollout
from .parallel import (
    CONVENTIONAL,
    PARAMETERIZED,
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

    base: object    # ExplicitAlineaController or ImplicitAnnController
    controllers: tuple[ParallelControllerSpec, ...] = ()


@dataclass
class ArchitectureConfig:
    """Static description of the full architecture."""

    params: NetworkParams
    cells: list[ParallelCell]
    evaluation_horizon: int
    gamma: float
    optimizer: OptimizerConfig
    metering_lo: tuple[float, ...]   # per metered ramp
    metering_hi: tuple[float, ...]
    gain_lo: tuple[float, ...]
    gain_hi: tuple[float, ...]
    eval_params: Optional[NetworkParams] = None  # refined evaluation model hook
    serial: bool = False

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
        nr = len(self.params.metered_cells)
        for name in ("metering_lo", "metering_hi", "gain_lo", "gain_hi"):
            if len(getattr(self, name)) != nr:
                raise ValueError(f"{name} must have one entry per metered ramp")


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

    step: int
    applied: tuple[float, ...]
    winner: str
    candidate_labels: tuple[str, ...]
    candidate_costs: tuple[float, ...]
    solver_stats: tuple[tuple[str, float, int, bool], ...]  # label, elapsed, iters, converged
    elapsed_s: float


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


def select_best(
    evaluation: EvaluationResult, fallback_index: int = 0
) -> tuple[int, tuple[float, ...]]:
    """Pick the candidate with the least realized cost.

    Ties break toward the lowest candidate index (candidates are ordered
    bases first, then parallel controllers).  If every cost is +inf the
    explicit-base fallback candidate is applied instead, with a prominent
    warning.  Fills the evaluation's winner and margin fields and returns
    ``(winner_index, applied_rates)``.
    """
    costs = evaluation.costs
    finite = [c for c in costs if math.isfinite(c)]
    if not finite:
        logger.warning(
            "every candidate was excluded by the evaluation block; "
            "falling back to the base candidate %r",
            evaluation.candidates[fallback_index].source,
        )
        winner = fallback_index
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
            spec.label: []
            for cell in config.cells
            for spec in cell.controllers
        }
        # Serial mode trades the wall-clock deadline for the iteration cap so
        # repeated runs terminate identically.
        self._optimizer = (
            replace(config.optimizer, budget_s=None) if config.serial else config.optimizer
        )

    def _problem(
        self, spec: ParallelControllerSpec, measurement: NetworkState,
        forecast: tuple[ExogenousInput, ...],
    ) -> MpcProblem:
        """The problem ``spec`` solves at this step."""
        cfg = self.config
        if spec.kind == CONVENTIONAL:
            lo = tuple(cfg.metering_lo) * spec.horizon
            hi = tuple(cfg.metering_hi) * spec.horizon
        else:
            lo, hi = tuple(cfg.gain_lo), tuple(cfg.gain_hi)
        return MpcProblem(
            kind=spec.kind,
            horizon=spec.horizon,
            params=cfg.params,
            initial_state=measurement,
            demand_forecast=forecast,
            mu_prev=self.mu_prev,
            bounds_lo=lo,
            bounds_hi=hi,
            gamma=cfg.gamma,
            label=spec.label,
        )

    def control_step(
        self,
        measurement: NetworkState,
        measured: ExogenousInput,
        o_prev: Sequence[float],
    ) -> tuple[SelectionRecord, EvaluationResult]:
        """Run one full architecture step from the measured plant state.

        ``o_prev`` carries the realized upstream mainline inflow per metered
        ramp from the previous plant step (the implicit base controller and
        the warm-start loop consume it).
        """
        cfg = self.config
        t0 = time.monotonic()
        forecast = (measured,)  # persistence forecast, shared by every block

        warm_starts: list[WarmStart] = []
        candidates: list[CandidateSequence] = []
        fallback_index: Optional[int] = None
        for idx, cell in enumerate(cfg.cells):
            horizons = [spec.horizon for spec in cell.controllers]
            length = max(horizons + [cfg.evaluation_horizon])
            warm = warm_start_rollout(
                cell.base, measurement, forecast, length, cfg.params, o_prev, cfg.gamma
            )
            warm_starts.append(warm)
            if warm.theta is None and fallback_index is None:
                fallback_index = idx  # first explicit base, used as safety default
            candidates.append(
                CandidateSequence(
                    metering=warm.mu, source=cell.base.label, cost=warm.total_cost
                )
            )
        if fallback_index is None:
            fallback_index = 0

        deadline = None
        if self._optimizer.budget_s is not None:
            deadline = time.monotonic() + self._optimizer.budget_s

        # every solve of every cell, in one lockstep against the one deadline
        results = run_parallel_cells(
            [
                ([self._problem(spec, measurement, forecast) for spec in cell.controllers], warm)
                for cell, warm in zip(cfg.cells, warm_starts)
            ],
            self.histories, self._optimizer, deadline,
        )
        solver_stats: list[tuple[str, float, int, bool]] = []
        for cell in cfg.cells:
            for spec in cell.controllers:
                res = results[spec.label]
                solver_stats.append(
                    (spec.label, res.elapsed_s, res.best.iterations, res.best.converged)
                )
                candidates.extend(res.iterates)

        eval_params = cfg.eval_params if cfg.eval_params is not None else cfg.params
        evaluation = evaluate_candidates(
            candidates, eval_params, measurement, forecast,
            cfg.evaluation_horizon, cfg.gamma,
        )
        winner_index, applied = select_best(evaluation, fallback_index)

        # Commit: feedback states track the applied rates; each controller's
        # best solution enters its shift-start history.
        self.mu_prev = applied
        for cell in cfg.cells:
            cell.base.set_previous_metering(applied)
        for cell in cfg.cells:
            for spec in cell.controllers:
                best = results[spec.label].best
                if spec.kind == CONVENTIONAL:
                    plan = np.asarray(best.decision, dtype=float).reshape(
                        spec.horizon, -1
                    )
                else:
                    plan = np.asarray(best.decision, dtype=float).reshape(1, -1)
                self.histories[spec.label].append(plan)

        record = SelectionRecord(
            step=measurement.step,
            applied=applied,
            winner=evaluation.candidates[winner_index].source,
            candidate_labels=tuple(c.source for c in evaluation.candidates),
            candidate_costs=evaluation.costs,
            solver_stats=tuple(solver_stats),
            elapsed_s=time.monotonic() - t0,
        )
        return record, evaluation
