"""Base-parallel ramp-metering control on a cell-transmission highway model.

Offline-tuned base controllers and budgeted online MPC controllers run side
by side; every candidate metering plan is scored on a plant-model rollout
and the cheapest one is applied each control step.
"""

from .actm import (
    CellParams,
    ExogenousInput,
    FlowVector,
    NetworkParams,
    NetworkState,
    RolloutResult,
    StageCost,
    rollout,
    step,
)
from .base_controllers import (
    FeedbackController,
    MlpParams,
    WarmStart,
    mlp_forward,
    network_gains,
    warm_start_rollout,
)
from .orchestrator import (
    ArchitectureConfig,
    BaseParallelController,
    EvaluationResult,
    ParallelCell,
    SelectionRecord,
    evaluate_candidates,
    select_best,
)
from .parallel import (
    BudgetedResult,
    CandidateSequence,
    MpcProblem,
    OptimizerConfig,
    StepContext,
    make_shift_warm_starts,
    objective,
    run_parallel_cell,
    run_parallel_cells,
    solve_budgeted,
)
from .scenario import (
    MetricsSummary,
    NoiseModel,
    RunLog,
    ScenarioConfig,
    default_scenario,
    default_scenario_path,
    emit_plot_data,
    load_scenario,
    perturb_demand,
    run_experiment,
    summarize,
    train_networks,
    write_runlog,
)

__version__ = "0.1.0"
