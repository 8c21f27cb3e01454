"""Scenario definition, closed-loop experiment runner, metrics and outputs.

A scenario bundles the network, its initial condition, piecewise-linear
demand profiles, the demand-measurement noise, the control settings and a
seed.  Scenario files are YAML (schema documented in the README), read
through the dataclasses they fill: every section rejects unknown fields and
ill-typed values, naming the field.  ``scenarios/default.yaml`` is the one
definition of the shipped single-lane six-cell case with three metered
on-ramps; :func:`default_scenario` reads it, and :func:`load_scenario` fills
whatever a file omits from it.

The closed loop is driven step by step: the plant advances under the true
demands while every controller sees a noisy measurement of them (one
symmetric-uniform multiplicative draw per source per step, identical across
controller choices for a given seed, so different control approaches face
exactly the same disturbance stream).  Controllers see the plant state
exactly.

Run logs are line-delimited JSON with a schema header, one record per step
and a trailing summary; plot data is emitted as plain CSV tables.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from itertools import accumulate
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .actm import (
    ExogenousInput,
    NetworkParams,
    NetworkState,
    step,
    upstream_inflows,
)
from .base_controllers import (
    FeedbackController,
    GenerationRanges,
    MlpParams,
    TrainConfig,
    TrainResult,
    generate_training_data,
    load_mlp_params,
    network_gains,
    train_mlp,
)
from .orchestrator import (
    ArchitectureConfig,
    BaseParallelController,
    ParallelCell,
)
from .parallel import CONVENTIONAL, PARAMETERIZED, MpcProblem, OptimizerConfig

__all__ = [
    "ScenarioError",
    "DemandProfile",
    "NoiseModel",
    "ControlSettings",
    "AnnSettings",
    "ScenarioConfig",
    "MetricsSummary",
    "StepRecord",
    "RunLog",
    "CONTROLLER_KEYS",
    "CONTROLLER_LABELS",
    "default_scenario",
    "default_scenario_path",
    "load_scenario",
    "overridden",
    "perturb_demand",
    "train_networks",
    "build_architecture",
    "run_experiment",
    "summarize",
    "write_runlog",
    "read_runlog",
    "emit_plot_data",
]

RUNLOG_SCHEMA = "runlog/1"
SCENARIO_SCHEMA = "scenario/1"

CONTROLLER_KEYS = ("alinea", "ann", "cmpc1", "cmpc2", "pmpc1", "pmpc2", "architecture")
CONTROLLER_LABELS = {
    "alinea": "ALINEA",
    "ann": "ANN",
    "cmpc1": "CMPC(1)",
    "cmpc2": "CMPC(2)",
    "pmpc1": "PMPC(1)",
    "pmpc2": "PMPC(2)",
    "architecture": "Base-parallel architecture",
}


class ScenarioError(ValueError):
    """Scenario file violates the schema; the message names the field."""


# ---------------------------------------------------------------------------
# Scenario data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DemandProfile:
    """Piecewise-linear demand over simulation steps, veh/cycle."""

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.breakpoints:
            raise ValueError("a demand profile needs at least one breakpoint")
        # written so that NaN fails too: a NaN time fails `<=` even against +inf
        times = [t for t, _ in self.breakpoints]
        if not all(a <= b for a, b in zip(times, times[1:] + [math.inf])):
            raise ValueError("breakpoints must be time-sorted numbers")
        if not all(0 <= v < math.inf for _, v in self.breakpoints):
            raise ValueError("demand values must be nonnegative and finite")

    def value(self, step_index: float) -> float:
        xs = [t for t, _ in self.breakpoints]
        ys = [v for _, v in self.breakpoints]
        return float(np.interp(step_index, xs, ys))


@dataclass(frozen=True)
class NoiseModel:
    """Symmetric-uniform multiplicative demand-measurement noise."""

    fraction: float
    seed: Optional[int]  # None: the scenario seed

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError("noise fraction must lie in [0, 1)")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class ControlSettings:
    """Controller and solver parameters shared by every control approach."""

    evaluation_horizon: int
    horizons: tuple[int, int]          # short and long MPC horizons
    budget_s: Optional[float]          # per control step; None: no deadline
    function_tolerance: float
    step_tolerance: float
    max_iterations: int
    fd_step: float
    termination: str
    metering_upper: float              # per-ramp rate bound, veh/cycle
    gain_upper: float
    alinea_gain: float                 # SI units

    def __post_init__(self) -> None:
        # written so that NaN fails too
        for name in ("metering_upper", "gain_upper"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be a nonnegative number")
        if not math.isfinite(self.alinea_gain):
            raise ValueError("alinea_gain must be a finite number")
        if min(self.horizons) < 1:
            raise ValueError("horizons must be at least 1")
        if not 1 <= self.evaluation_horizon <= min(self.horizons):
            raise ValueError("evaluation_horizon must be between 1 and the shortest MPC horizon")
        self.optimizer()  # rejects bad solver settings here, not at the first solve

    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(
            function_tolerance=self.function_tolerance,
            step_tolerance=self.step_tolerance,
            budget_s=self.budget_s,
            max_iterations=self.max_iterations,
            termination=self.termination,
            fd_step=self.fd_step,
        )


@dataclass(frozen=True)
class AnnSettings:
    """How the gain-network base controller gets its parameters."""

    params_file: Optional[str]   # load when set, train from seed otherwise
    sample_count: int
    validation_count: int
    train_seed: Optional[int]    # None: the scenario seed

    def __post_init__(self) -> None:
        # checked even with a parameter file, which train-ann and compare
        # do not read
        if self.sample_count < 2:
            raise ValueError("sample_count must be at least 2")
        if not 0 < self.validation_count < self.sample_count:
            raise ValueError("validation_count must lie between 0 and sample_count, exclusive")
        if self.train_seed is not None and self.train_seed < 0:
            raise ValueError("train_seed must be a nonnegative integer")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int
    steps: int
    gamma: float
    network: NetworkParams
    initial_state: NetworkState
    mu_prev_init: tuple[float, ...]     # per metered ramp
    o_prev_init: tuple[float, ...]      # upstream inflow per metered ramp at step 0
    mainstream_profile: DemandProfile
    ramp_profiles: tuple[DemandProfile, ...]  # aligned with network.onramp_cells
    noise: NoiseModel
    control: ControlSettings
    ann: AnnSettings

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if not 0 <= self.gamma < math.inf:  # NaN fails too
            raise ValueError("gamma must be nonnegative and finite")
        nr = len(self.network.metered_cells)
        if len(self.mu_prev_init) != nr or len(self.o_prev_init) != nr:
            raise ValueError("initial flow vectors must match the metered ramp count")
        # written so that NaN fails too
        for name in ("mu_prev_init", "o_prev_init"):
            if not all(v >= 0 for v in getattr(self, name)):
                raise ValueError(f"{name} entries must be nonnegative numbers")
        if len(self.ramp_profiles) != len(self.network.onramp_cells):
            raise ValueError("one demand profile per on-ramp is required")
        self.initial_state.validate(self.network)

    def true_demand(self, k: float) -> tuple[float, ...]:
        """Mainstream followed by per-on-ramp demand at step k."""
        return (self.mainstream_profile.value(k),) + tuple(
            p.value(k) for p in self.ramp_profiles
        )


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_type_hints = functools.cache(get_type_hints)  # resolving annotations cost a third of a parse
_KINDS = {float: "a number", int: "an integer", bool: "a boolean", str: "a string"}


def _key(section: str, name) -> str:
    return f"{section}.{name}" if section else str(name)


def _mapping(raw, name: str) -> dict:
    if not isinstance(raw, dict):
        raise ScenarioError(f"field '{name}' must be a mapping, got {raw!r}")
    return raw


def _reject_unknown(raw: dict, known, name: str) -> None:
    unknown = sorted(set(raw) - set(known), key=str)
    if unknown:
        listed = ", ".join(f"'{_key(name, k)}'" for k in unknown)
        raise ScenarioError(f"unknown field(s) {listed}")


def _value(hint, v, key: str, base=None, empty=False):
    """``v`` checked against the field type ``hint``; ``key`` names it in errors.

    A bool is not a number and a float is not an integer; numbers become
    floats.  Dataclass-typed values are sections of their own.  A field's
    list of any length must be non-empty unless ``empty``.
    """
    if is_dataclass(hint):
        return _section(hint, v, key, base)
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[...]
        return None if v is None else _value(args[0], v, key)
    if origin is tuple:
        size = None if args[-1] is Ellipsis else len(args)
        if isinstance(v, list) and (len(v) == size if size else v or empty):
            types = args if size else args[:1] * len(v)
            return tuple(_value(t, x, f"{key}[{i}]") for i, (t, x) in enumerate(zip(types, v)))
        expected = f"a list of {size}" if size else "a list" if empty else "a non-empty list"
    elif type(v) is hint or (hint is float and type(v) is int):
        if type(v) is int and abs(v) > sys.float_info.max:
            # the model computes in floats, which such an integer overflows
            raise ScenarioError(
                f"field '{key}' must fit in a float, got an integer of {len(str(abs(v)))} digits"
            )
        return float(v) if hint is float else v
    else:
        expected = _KINDS[hint]
    raise ScenarioError(f"field '{key}' must be {expected}, got {v!r}")


def _section(cls, raw, name: str, base=None, **given):
    """One ``cls`` from the mapping ``raw`` of section ``name``.

    ``given`` holds fields parsed elsewhere because their YAML layout
    differs; every other init field is read from ``raw`` and checked against
    its type.  An omitted field takes ``base``'s value, then its default.
    """
    raw = _mapping(raw, name)
    hints = _type_hints(cls)
    read = [f for f in fields(cls) if f.init and f.name not in given]
    _reject_unknown(raw, [f.name for f in read], name)
    values = dict(given)
    for f in read:
        key = _key(name, f.name)
        if f.name in raw:
            values[f.name] = _value(hints[f.name], raw[f.name], key, getattr(base, f.name, None))
        elif base is not None:
            values[f.name] = getattr(base, f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ScenarioError(f"missing required field '{key}'")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"invalid '{name}': {exc}" if name else str(exc)) from exc


def _entries(raw, name: str, keys) -> list:
    """The values of ``keys`` in the mapping ``raw``: all required, no others."""
    _reject_unknown(_mapping(raw, name), keys, name)
    for k in keys:
        if k not in raw:
            raise ScenarioError(f"missing required field '{name}.{k}'")
    return [raw[k] for k in keys]


def _cell_keyed(hint, raw, cells: Sequence[int], name: str) -> tuple:
    """A ``{1-based cell number: value}`` mapping as a tuple aligned with ``cells``."""
    raw = {str(k): v for k, v in _mapping(raw, name).items()}
    keys = [str(i + 1) for i in cells]
    return tuple(_value(hint, v, f"{name}.{k}") for k, v in zip(keys, _entries(raw, name, keys)))


def _initial_state(raw, network: NetworkParams) -> tuple[NetworkState]:
    n, q = _entries(raw, "initial_state", ("n", "q"))
    state = NetworkState(
        n=_value(tuple[float, ...], n, "initial_state.n"),
        q=_cell_keyed(float, q, network.onramp_cells, "initial_state.q"),
    )
    try:
        state.validate(network)
    except ValueError as exc:
        raise ScenarioError(f"invalid 'initial_state': {exc}") from exc
    return (state,)


def _initial_flows(raw, network: NetworkParams) -> tuple[tuple[float, ...], ...]:
    mu_prev, o_prev = _entries(raw, "initial_flows", ("mu_prev", "o_prev"))
    return (
        _cell_keyed(float, mu_prev, network.metered_cells, "initial_flows.mu_prev"),
        _cell_keyed(float, o_prev, network.metered_cells, "initial_flows.o_prev"),
    )


def _demand(raw, network: NetworkParams) -> tuple:
    mainstream, onramps = _entries(raw, "demand", ("mainstream", "onramps"))
    return (
        _section(DemandProfile, mainstream, "demand.mainstream"),
        _cell_keyed(DemandProfile, onramps, network.onramp_cells, "demand.onramps"),
    )


def _scenario(raw: dict, base: Optional[ScenarioConfig]) -> ScenarioConfig:
    """The scenario of a parsed file; omitted parts come from ``base``, and
    without a base every part is required."""
    raw = dict(raw)
    schema = raw.pop("schema", SCENARIO_SCHEMA)
    if schema != SCENARIO_SCHEMA:
        raise ScenarioError(f"unsupported schema {schema!r}, expected {SCENARIO_SCHEMA!r}")
    given: dict = {}

    def part(key: str, names: tuple[str, ...], parse) -> None:
        # the network comes first: the other parts follow its cells
        if key in raw:
            given.update(zip(names, parse(raw.pop(key))))
        elif base is None:
            raise ScenarioError(f"missing required field '{key}'")
        else:
            given.update((n, getattr(base, n)) for n in names)

    part("network", ("network",),
         lambda v: (_section(NetworkParams, v, "network", base and base.network),))
    part("initial_state", ("initial_state",), lambda v: _initial_state(v, given["network"]))
    part("initial_flows", ("mu_prev_init", "o_prev_init"),
         lambda v: _initial_flows(v, given["network"]))
    part("demand", ("mainstream_profile", "ramp_profiles"), lambda v: _demand(v, given["network"]))
    return _section(ScenarioConfig, raw, "", base, **given)


def _parse(path, base: Optional[ScenarioConfig]) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must hold a mapping at the top level")
    cfg = _scenario(raw, base)
    if not cfg.ann.params_file:
        return cfg
    # a relative parameter file is named from the scenario file's directory
    located = os.path.join(os.path.dirname(path), cfg.ann.params_file)
    return replace(cfg, ann=replace(cfg.ann, params_file=located))


def default_scenario_path() -> str:
    """Path of the shipped default scenario file."""
    return os.path.join(os.path.dirname(__file__), "scenarios", "default.yaml")


def default_scenario(seed: Optional[int] = None) -> ScenarioConfig:
    """The shipped case, read from ``default.yaml`` with no base to fill
    omissions: six 560 m cells, metered on-ramps at cells 2, 4 and 5.
    Such a file must state every field except the schema line and the
    model defaults: a network's ``lanes`` and ``free_flow_mps`` and a
    cell's ramp, split and exit fields (those of
    :class:`~basepar.actm.NetworkParams` and
    :class:`~basepar.actm.CellParams` that have defaults).  ``seed``
    replaces the file's seed when given."""
    cfg = _parse(default_scenario_path(), None)
    return cfg if seed is None else replace(cfg, seed=seed)


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file, filling omitted sections and
    fields from the shipped default."""
    return _parse(path, default_scenario())


def overridden(scenario: ScenarioConfig, *, serial: bool = False,
               budget_s: Optional[float] = None, termination: Optional[str] = None,
               steps: Optional[int] = None, function_tolerance: Optional[float] = None,
               step_tolerance: Optional[float] = None) -> ScenarioConfig:
    """The scenario of one run: each setting that is not None replaces the
    scenario's, and ``serial`` sets no budget, whatever budget is given."""
    control = {"budget_s": budget_s, "termination": termination,
               "function_tolerance": function_tolerance, "step_tolerance": step_tolerance}
    control = {name: value for name, value in control.items() if value is not None}
    if serial:
        control["budget_s"] = None
    return replace(scenario, steps=scenario.steps if steps is None else steps,
                   control=replace(scenario.control, **control))


# ---------------------------------------------------------------------------
# Demand noise
# ---------------------------------------------------------------------------

def perturb_demand(true_demand, noise: NoiseModel, rng: np.random.Generator):
    """Noisy measurement of nonnegative demand: ``d * (1 + u)`` with
    ``u ~ U(-fraction, +fraction)``, clipped at zero.  Draws one variate per
    element, so the stream is reproducible for a fixed generator state."""
    d = np.asarray(true_demand, dtype=float)
    if np.any(d < 0):
        raise ValueError("demands must be nonnegative")
    u = rng.uniform(-noise.fraction, noise.fraction, size=d.shape)
    out = np.maximum(d * (1.0 + u), 0.0)
    return float(out) if np.isscalar(true_demand) else out


# ---------------------------------------------------------------------------
# Network training for the implicit base controller
# ---------------------------------------------------------------------------

def train_networks(
    scenario: ScenarioConfig, seed: Optional[int] = None
) -> tuple[dict[int, MlpParams], dict[int, TrainResult]]:
    """Generate data and train one gain network per metered cell.

    Deterministic for a fixed seed (defaults to the scenario's training
    seed, then the scenario seed).  Returns the parameters plus the full
    training results (validation RMSE, loss history) keyed by cell index.
    """
    if seed is None:
        seed = scenario.ann.train_seed if scenario.ann.train_seed is not None else scenario.seed
    params = scenario.network
    nets: dict[int, MlpParams] = {}
    results: dict[int, TrainResult] = {}
    for cell_index in params.metered_cells:
        cell = params.cells[cell_index]
        ranges = GenerationRanges(
            n=(0.0, cell.capacity_nbar),
            q=(0.0, 30.0),
            d=(0.0, 4.0),
            o_prev=(0.0, cell.sat_mainline_obar),
        )
        rng = np.random.default_rng([seed, cell_index])
        samples = generate_training_data(
            params, cell_index, scenario.ann.sample_count, ranges, rng
        )
        result = train_mlp(
            samples, ranges,
            TrainConfig(seed=seed + cell_index,
                        validation_count=scenario.ann.validation_count),
        )
        nets[cell_index] = result.params
        results[cell_index] = result
    return nets, results


def _networks_for(scenario: ScenarioConfig, nets: Optional[dict[int, MlpParams]]):
    if nets is not None:
        return nets
    if scenario.ann.params_file:
        # the parameter file is keyed by 1-based cell numbers
        loaded = load_mlp_params(scenario.ann.params_file)
        return {cell - 1: p for cell, p in loaded.items()}
    trained, _ = train_networks(scenario)
    return trained


# ---------------------------------------------------------------------------
# Controllers wired for the closed loop
# ---------------------------------------------------------------------------

def _alinea_controller(scenario: ScenarioConfig) -> FeedbackController:
    gains = (scenario.control.alinea_gain,) * len(scenario.network.metered_cells)
    return FeedbackController(gains, CONTROLLER_LABELS["alinea"])


def _ann_controller(scenario: ScenarioConfig, nets) -> FeedbackController:
    nets = _networks_for(scenario, nets)
    gains = network_gains(scenario.network, nets, (0.0, scenario.control.gain_upper))
    return FeedbackController(gains, CONTROLLER_LABELS["ann"])


def _hold_controller(scenario: ScenarioConfig) -> FeedbackController:
    zero = (0.0,) * len(scenario.network.metered_cells)
    return FeedbackController(zero, "hold")


def _online_controller(scenario: ScenarioConfig, key: str) -> MpcProblem:
    """The problem of online controller ``key`` (``cmpc1`` ... ``pmpc2``),
    built once per run: the rates over the short or long horizon in
    ``[0, metering_upper]``, or one gain per ramp in ``[0, gain_upper]``."""
    ctl = scenario.control
    horizon = ctl.horizons[int(key[-1]) - 1]
    n_ramps = len(scenario.network.metered_cells)
    if key.startswith("cmpc"):
        kind, dim, upper = CONVENTIONAL, n_ramps * horizon, ctl.metering_upper
    else:
        kind, dim, upper = PARAMETERIZED, n_ramps, ctl.gain_upper
    return MpcProblem(CONTROLLER_LABELS[key], kind, horizon, (0.0,) * dim, (upper,) * dim)


def _architecture(scenario: ScenarioConfig, cells: tuple[ParallelCell, ...],
                  evaluation_horizon: Optional[int] = None) -> BaseParallelController:
    """The architecture of ``cells`` under the scenario's control settings,
    by default with the scenario's evaluation horizon."""
    ctl = scenario.control
    config = ArchitectureConfig(
        params=scenario.network,
        cells=cells,
        evaluation_horizon=ctl.evaluation_horizon if evaluation_horizon is None
        else evaluation_horizon,
        gamma=scenario.gamma,
        optimizer=ctl.optimizer(),
    )
    return BaseParallelController(config, mu_init=scenario.mu_prev_init)


def build_architecture(
    scenario: ScenarioConfig,
    nets: Optional[dict[int, MlpParams]] = None,
    serial: bool = False,
    budget_override: Optional[float] = None,
    termination: Optional[str] = None,
) -> BaseParallelController:
    """Full case-study architecture: ALINEA seeds two conventional MPC
    controllers, the gain network seeds two parameterized ones.  The
    overrides are applied by :func:`overridden`."""
    scenario = overridden(scenario, serial=serial, budget_s=budget_override,
                          termination=termination)
    cells = (
        ParallelCell(_alinea_controller(scenario),
                     tuple(_online_controller(scenario, k) for k in ("cmpc1", "cmpc2"))),
        ParallelCell(_ann_controller(scenario, nets),
                     tuple(_online_controller(scenario, k) for k in ("pmpc1", "pmpc2"))),
    )
    return _architecture(scenario, cells)


def _controller_step(scenario, key, nets):
    """The step method of control approach ``key``: the architecture's
    :meth:`~basepar.orchestrator.BaseParallelController.control_step`, or
    the :meth:`~basepar.orchestrator.BaseParallelController.own_step` of a
    one-cell architecture, which evaluates nothing (evaluation horizon
    1)."""
    if key == "architecture":
        return build_architecture(scenario, nets).control_step
    if key == "alinea":
        cell = ParallelCell(_alinea_controller(scenario))
    elif key == "ann":
        cell = ParallelCell(_ann_controller(scenario, nets))
    else:
        cell = ParallelCell(_hold_controller(scenario), (_online_controller(scenario, key),))
    return _architecture(scenario, (cell,), evaluation_horizon=1).own_step


# ---------------------------------------------------------------------------
# Closed-loop experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepRecord:
    """Everything logged for one closed-loop step (state is pre-step)."""

    step: int
    n: tuple[float, ...]
    q: tuple[float, ...]
    true_demand: tuple[float, ...]       # mainstream first, then on-ramps
    measured_demand: tuple[float, ...]
    applied: tuple[float, ...]
    flow_e: tuple[float, ...]
    flow_o: tuple[float, ...]
    flow_s: tuple[float, ...]
    mainstream_in: float
    cost_tt: float
    cost_td_h: float
    cost_j: float
    throughput: float
    winner: str
    candidate_labels: tuple[str, ...]
    candidate_costs: tuple[float, ...]
    solver_stats: tuple[tuple[str, float, int, bool], ...]
    control_elapsed_s: float


@dataclass(frozen=True)
class MetricsSummary:
    j_total: float                       # hours
    n_total: float                       # vehicles that exited the network
    avg_cost_per_vehicle: Optional[float]  # seconds; None when nothing exited
    win_counts: tuple[tuple[str, int], ...]


@dataclass
class RunLog:
    scenario_name: str
    controller: str
    seed: int
    sample_cycle_s: float
    cell_lengths_m: tuple[float, ...]
    lanes: int
    onramp_cells: tuple[int, ...]   # 1-based cell numbers carrying an on-ramp
    records: list[StepRecord] = field(default_factory=list)
    summary: Optional[MetricsSummary] = None
    schema: str = RUNLOG_SCHEMA


def run_experiment(
    scenario: ScenarioConfig,
    controller_choice: str,
    serial: bool = False,
    nets: Optional[dict[int, MlpParams]] = None,
    budget_override: Optional[float] = None,
    termination: Optional[str] = None,
) -> RunLog:
    """Run the closed loop for one control approach.

    The plant advances under the true demand profiles; the controller sees
    the noisy measured demands.  ``controller_choice`` is one of
    ``CONTROLLER_KEYS``.  The overrides are applied by :func:`overridden`.
    A run whose budget is None, as with ``serial=True``, solves to the
    iteration cap and logs no wall time, so it is fully reproducible for a
    fixed seed.
    """
    key = controller_choice.lower()
    if key not in CONTROLLER_KEYS:
        raise ValueError(
            f"unknown controller {controller_choice!r}; pick one of {CONTROLLER_KEYS}"
        )
    scenario = overridden(scenario, serial=serial, budget_s=budget_override,
                          termination=termination)
    params = scenario.network
    noise_seed = scenario.noise.seed if scenario.noise.seed is not None else scenario.seed
    rng = np.random.default_rng(noise_seed)
    decide = _controller_step(scenario, key, nets)

    state = scenario.initial_state
    o_prev = tuple(scenario.o_prev_init)
    log = RunLog(
        scenario_name=scenario.name,
        controller=CONTROLLER_LABELS[key],
        seed=scenario.seed,
        sample_cycle_s=params.sample_cycle_s,
        cell_lengths_m=tuple(c.length for c in params.cells),
        lanes=params.lanes,
        onramp_cells=tuple(i + 1 for i in params.onramp_cells),
    )
    for k in range(scenario.steps):
        d_true = np.asarray(scenario.true_demand(k))
        d_meas = perturb_demand(d_true, scenario.noise, rng)
        true_inp = ExogenousInput(float(d_true[0]), tuple(float(v) for v in d_true[1:]))
        measured = ExogenousInput(float(d_meas[0]), tuple(float(v) for v in d_meas[1:]))

        t0 = time.monotonic()
        selection, _ = decide(state, measured, o_prev)
        elapsed = time.monotonic() - t0
        stats = selection.solver_stats
        if scenario.control.budget_s is None:
            # reproducible logs: wall-clock observations are not recorded
            elapsed = 0.0
            stats = tuple((lbl, 0.0, iters, conv) for lbl, _, iters, conv in stats)

        nxt, flows, cost = step(state, true_inp, selection.applied, params, scenario.gamma)
        log.records.append(StepRecord(
            step=k,
            n=state.n, q=state.q,
            true_demand=tuple(float(v) for v in d_true),
            measured_demand=tuple(float(v) for v in d_meas),
            applied=selection.applied,
            flow_e=flows.e, flow_o=flows.o, flow_s=flows.s,
            mainstream_in=flows.mainstream_in,
            cost_tt=cost.tt, cost_td_h=cost.td_h, cost_j=cost.j,
            throughput=cost.throughput,
            winner=selection.winner,
            candidate_labels=selection.candidate_labels,
            candidate_costs=selection.candidate_costs,
            solver_stats=stats,
            control_elapsed_s=elapsed,
        ))
        o_prev = upstream_inflows(flows, params)
        state = nxt
    log.summary = summarize(log)
    return log


def summarize(log: RunLog) -> MetricsSummary:
    """Totals of a run: summed stage cost, summed network exits, and the
    average cost per vehicle in seconds (undefined when nothing exited)."""
    if not log.records:
        raise ValueError("cannot summarize an empty run log")
    j_total = sum(r.cost_j for r in log.records)
    n_total = sum(r.throughput for r in log.records)
    avg = j_total * 3600.0 / n_total if n_total > 0 else None
    wins = Counter(r.winner for r in log.records)
    return MetricsSummary(
        j_total=j_total,
        n_total=n_total,
        avg_cost_per_vehicle=avg,
        win_counts=tuple(sorted(wins.items())),
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# the run-log header's fields with their types, as written and as read
_HEADER_FIELDS = {"schema": str, "scenario": str, "controller": str, "seed": int,
                  "sample_cycle_s": float, "cell_lengths_m": tuple[float, ...], "lanes": int,
                  "onramp_cells": tuple[int, ...], "steps": int}


def write_runlog(log: RunLog, path) -> None:
    """Line-delimited JSON: a header, one record per step, and the summary."""
    with open(path, "w", encoding="utf-8") as fh:
        head = (log.schema, log.scenario_name, log.controller, log.seed, log.sample_cycle_s,
                list(log.cell_lengths_m), log.lanes, list(log.onramp_cells), len(log.records))
        fh.write(_json_line(dict(zip(_HEADER_FIELDS, head))) + "\n")
        entries = [("record", r) for r in log.records]
        entries += [("summary", log.summary)] if log.summary is not None else []
        for key, e in entries:  # the fields as they are: no deep copy
            fh.write(_json_line({key: {f.name: getattr(e, f.name) for f in fields(e)}}) + "\n")


def _entry(raw, hints: dict, what: str, lineno: int) -> dict:
    """The fields of the mapping ``raw`` on line ``lineno``, each checked
    against its type in ``hints``: all required, no others.  A list may be
    empty: a standalone base logs no candidates."""
    try:
        return {n: _value(h, v, f"{what}.{n}", empty=True)
                for (n, h), v in zip(hints.items(), _entries(raw, what, hints))}
    except ScenarioError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def read_runlog(path) -> RunLog:
    """The run log :func:`write_runlog` wrote; a malformed file raises a
    ``ValueError`` naming the line and the field at fault."""
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, start=1):
            if text.strip():
                try:
                    lines.append((lineno, json.loads(text)))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"line {lineno}: not JSON: {exc}") from None
    if not lines or not isinstance(lines[0][1], dict) or "schema" not in lines[0][1]:
        raise ValueError(f"{path} is not a run log (missing header)")
    lineno, head = lines[0]
    if head["schema"] != RUNLOG_SCHEMA:
        raise ValueError(f"unsupported run-log schema {head['schema']!r}")
    head = _entry(head, _HEADER_FIELDS, "header", lineno)
    log = RunLog(
        scenario_name=head["scenario"],
        controller=head["controller"],
        seed=head["seed"],
        sample_cycle_s=head["sample_cycle_s"],
        cell_lengths_m=head["cell_lengths_m"],
        lanes=head["lanes"],
        onramp_cells=head["onramp_cells"],
    )
    for lineno, line in lines[1:]:
        if not (isinstance(line, dict) and len(line) == 1 and set(line) <= {"record", "summary"}):
            raise ValueError(f"line {lineno}: expected a 'record' or a 'summary' entry")
        if "record" in line:
            hints = _type_hints(StepRecord)
            log.records.append(StepRecord(**_entry(line["record"], hints, "record", lineno)))
        else:
            hints = _type_hints(MetricsSummary)
            log.summary = MetricsSummary(**_entry(line["summary"], hints, "summary", lineno))
    if len(log.records) != head["steps"]:
        raise ValueError(
            f"run log holds {len(log.records)} records, header says {head['steps']}"
        )
    return log


# ---------------------------------------------------------------------------
# Plot-data emission
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return repr(float(v))


def emit_plot_data(log: RunLog, out_dir) -> list[str]:
    """Write CSV tables for plotting; returns the created paths.

    Files: per-source demands, per-cell states (count, queue, density), the
    per-candidate evaluation costs, the winner timeline and the cumulative
    cost.  Floats are written with full repr precision so the tables
    round-trip exactly.
    """
    if not log.records:
        raise ValueError("cannot emit plot data for an empty run log")
    os.makedirs(out_dir, exist_ok=True)
    sources = ["mainstream"] + [f"onramp_{c}" for c in log.onramp_cells]
    queue_pos = {c: j for j, c in enumerate(log.onramp_cells)}
    cumulative = list(accumulate((r.cost_j for r in log.records), initial=0.0))[1:]
    tables = [
        ("demands.csv", "step,t_s,source,demand_veh_per_step",
         (f"{r.step},{_fmt(r.step * log.sample_cycle_s)},{src},{_fmt(val)}"
          for r in log.records for src, val in zip(sources, r.true_demand))),
        ("states.csv", "step,cell,n_veh,q_veh,rho_veh_per_m_per_lane",
         (f"{r.step},{c},{_fmt(n)},{_fmt(r.q[queue_pos[c]]) if c in queue_pos else ''},"
          f"{_fmt(n / (log.cell_lengths_m[c - 1] * log.lanes))}"
          for r in log.records for c, n in enumerate(r.n, start=1))),
        ("candidates.csv", "step,candidate,epsilon",
         (f"{r.step},{label},{_fmt(cost)}"
          for r in log.records for label, cost in zip(r.candidate_labels, r.candidate_costs))),
        ("winners.csv", "step,winner", (f"{r.step},{r.winner}" for r in log.records)),
        ("cumulative_cost.csv", "step,stage_j_h,cumulative_j_h",
         (f"{r.step},{_fmt(r.cost_j)},{_fmt(total)}"
          for r, total in zip(log.records, cumulative))),
    ]
    paths = []
    for name, header, rows in tables:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.writelines(row + "\n" for row in rows)
        paths.append(path)
    return paths
