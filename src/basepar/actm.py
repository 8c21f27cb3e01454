"""Asymmetric cell-transmission model of a metered highway stretch.

The mainline is divided into cells; each cell holds at most one on-ramp
(upstream of its off-ramp, if any).  Per simulation cycle the model computes,
in this order, on-ramp inflows ``e``, mainline outflows ``o`` and off-ramp
outflows ``s``, then advances the per-cell vehicle counts ``n`` and the
per-on-ramp queues ``q``.  The ordering matters only because the mainline
outflow of cell ``i`` reads the on-ramp inflow of cell ``i+1``; there is no
other intra-step coupling.

UNIT CONVENTIONS
----------------
* All flows (``e``, ``o``, ``s``, demands, metering rates) are vehicles per
  simulation cycle.
* Vehicle counts (``n``, ``q``) are vehicles and may be fractional.
* Lengths are metres, the cycle length is seconds, speeds are m/s.
* Densities are vehicles per metre per lane.
* Stage costs are vehicle-hours: occupancy time is ``(cycle/3600) * sum(n+q)``
  and the travelled-distance reward is expressed as the free-flow time
  equivalent of the distance covered by exiting flows, which keeps the
  weighting factor dimensionless.

Boundary treatment: the upstream mainstream demand is admitted into cell 1
subject to that cell's vacant-capacity term (same form as the interior
receiving term); the last cell discharges freely (no downstream term).
Unserved mainstream demand is dropped, so conservation accounting uses the
*admitted* upstream inflow reported in :class:`FlowVector`.

:func:`step` and :func:`rollout` are the readable reference and the plant.
:func:`rollout_batch` rolls many plans forward side by side for the
optimizers and the evaluation block; it performs every float operation of
:func:`step` in the same order, so its costs equal :func:`rollout`'s bit for
bit.

BATCHED ROLLOUTS
----------------
Python's ``min(a, b)`` returns ``a`` unless ``b < a``, and ``max(a, b)``
returns ``a`` unless ``b > a``.  ``np.minimum(b, a)`` and ``np.maximum(b,
a)`` return their second operand on ties and propagate a NaN from either
operand, so they equal ``min(a, b)`` and ``max(a, b)`` byte for byte, the
sign of a zero included, whenever ``b`` cannot be NaN (the test suite pins
this rule).  :func:`rollout_batch` uses the swapped ufunc where ``b`` is a
constant: the floor 0.0, the saturation flow, the off-ramp bound and the
capacity, none of which :class:`CellParams` lets be NaN.  Where ``b`` can be
NaN it keeps the selection ``np.where(b < a, b, a)``: the metering cap
``min(e, rate)``, which ignores a NaN rate as Python does (the row then costs
+inf), and the vacant-capacity, receiving and moving terms, which carry any
NaN of the state.

Each call checks the initial state and the inputs once, and every array is
laid out cells by rows.  Rows are sorted by horizon, so the rows still
rolling form a prefix; the steps over which that prefix keeps its length
form a stretch, rolled on arrays allocated for it.  A stretch keeps the
pre-step state and the flows of every step, sums them over the cells once,
left to right like Python's ``sum``, and then adds each step's stage cost to
the row totals in step order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "STATE_TOL",
    "TopologyError",
    "ModelConsistencyError",
    "NegativeRateError",
    "CellParams",
    "NetworkParams",
    "NetworkState",
    "ExogenousInput",
    "FlowVector",
    "StageCost",
    "RolloutResult",
    "compute_onramp_inflow",
    "compute_mainline_outflow",
    "compute_offramp_outflow",
    "stage_cost",
    "step",
    "rollout",
    "rollout_batch",
    "density",
]

# Absolute per-component tolerance for post-step state checks.
STATE_TOL = 1e-9


class TopologyError(ValueError):
    """Vector lengths do not match the network topology."""


class ModelConsistencyError(RuntimeError):
    """A state update left the physically admissible region, which signals a
    flow-formula bug rather than bad input."""


class NegativeRateError(ValueError):
    """A metering plan holds a negative or NaN rate."""


@dataclass(frozen=True)
class CellParams:
    """Static parameters of one mainline cell."""

    length: float                 # metres
    capacity_nbar: float          # max vehicles in the cell
    sat_mainline_obar: float      # max mainline outflow, veh/cycle
    sat_offramp_sbar: float       # max off-ramp outflow, veh/cycle
    split_beta: float = 0.0       # off-ramp split fraction, 0 if no off-ramp
    blend_alpha: float = 0.0      # on-ramp blending fraction, 0 if no on-ramp
    eta_moving: float = 1.0       # moving-regime exit fraction per cycle
    eta_idling: float = 1.0       # vacant-capacity receiving fraction per cycle
    xi: float = 1.0               # vacant-capacity share available to the on-ramp
    has_onramp: bool = False
    has_offramp: bool = False
    metered: bool = False
    allow_beta_one: bool = False  # opt-in for the split_beta == 1 boundary branch

    def __post_init__(self) -> None:
        # written so that NaN fails too: rollout_batch relies on capacities
        # and saturation flows being numbers
        if not self.length > 0:
            raise ValueError("cell length must be positive")
        if not self.capacity_nbar > 0:
            raise ValueError("capacity_nbar must be positive")
        if not (self.sat_mainline_obar >= 0 and self.sat_offramp_sbar >= 0):
            raise ValueError("saturation flows must be nonnegative")
        for name in ("split_beta", "blend_alpha", "eta_moving", "eta_idling", "xi"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.split_beta >= 1.0 and not self.allow_beta_one:
            raise ValueError("split_beta == 1 requires allow_beta_one=True")
        if self.metered and not self.has_onramp:
            raise ValueError("a metered cell must have an on-ramp")
        if self.has_offramp and self.split_beta == 0.0:
            raise ValueError("a cell with an off-ramp needs split_beta > 0")
        if not self.has_offramp and self.split_beta != 0.0:
            raise ValueError("split_beta must be 0 for cells without an off-ramp")
        if not self.has_onramp and self.blend_alpha != 0.0:
            raise ValueError("blend_alpha must be 0 for cells without an on-ramp")


@dataclass(frozen=True)
class NetworkParams:
    """Ordered cell parameters plus network-wide constants."""

    cells: tuple[CellParams, ...]
    sample_cycle_s: float         # simulation/control cycle, seconds
    rho_crit: float               # critical density, veh/m/lane
    lanes: int = 1
    free_flow_mps: float = 28.0   # used to express travelled distance in time units

    # Derived topology indices and coefficient arrays, filled in __post_init__.
    onramp_cells: tuple[int, ...] = field(init=False, repr=False)
    metered_cells: tuple[int, ...] = field(init=False, repr=False)
    offramp_cells: tuple[int, ...] = field(init=False, repr=False)
    arrays: CellArrays = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("network needs at least one cell")
        if not self.sample_cycle_s > 0:
            raise ValueError("sample_cycle_s must be positive")
        if not self.rho_crit > 0:
            raise ValueError("rho_crit must be positive")
        if self.lanes < 1:
            raise ValueError("lanes must be at least 1")
        if not self.free_flow_mps > 0:
            raise ValueError("free_flow_mps must be positive")
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(
            self, "onramp_cells", tuple(i for i, c in enumerate(self.cells) if c.has_onramp)
        )
        object.__setattr__(
            self, "metered_cells", tuple(i for i, c in enumerate(self.cells) if c.metered)
        )
        object.__setattr__(
            self, "offramp_cells", tuple(i for i, c in enumerate(self.cells) if c.has_offramp)
        )
        object.__setattr__(self, "arrays", CellArrays.build(self))

    @property
    def n_cells(self) -> int:
        return len(self.cells)


@dataclass(frozen=True, eq=False)
class CellArrays:
    """Per-cell coefficients of the flow formulas as arrays, read by
    :func:`rollout_batch`.

    Each entry is the float expression :func:`step` evaluates for that cell.
    A term a cell lacks inside a ``min`` is +inf, which leaves the minimum
    unchanged.  Coefficients are columns ``[n, 1]``, which broadcast over a
    batch laid out cells by rows; indices are flat.
    """

    nbar: np.ndarray                 # capacity per cell
    nbar_tol: np.ndarray             # capacity + STATE_TOL, the post-update bound
    alpha: np.ndarray                # on-ramp blending fraction
    send: np.ndarray                 # 1 - split_beta
    eta_moving: np.ndarray
    eta_idling: np.ndarray
    obar: np.ndarray                 # mainline saturation flow
    offramp_bound: np.ndarray        # (1 - beta) / beta * sbar, +inf unless 0 < beta < 1
    length: np.ndarray
    onramps: np.ndarray              # cell of each on-ramp
    onramp_xi: np.ndarray
    onramp_nbar: np.ndarray
    metered: np.ndarray              # cell of each metered ramp
    metered_slots: np.ndarray        # position of each metered ramp among the on-ramps
    metered_lane_length: np.ndarray  # length * lanes of each metered cell
    split: np.ndarray                # cells whose off-ramp takes a share beta < 1
    split_ratio: np.ndarray          # beta / (1 - beta) of those cells
    split_all: np.ndarray            # cells whose off-ramp takes every moving vehicle
    split_all_sbar: np.ndarray

    @classmethod
    def build(cls, params: NetworkParams) -> CellArrays:
        cells = params.cells

        def per_cell(values) -> np.ndarray:
            return np.array(list(values), dtype=float).reshape(-1, 1)

        def index(values) -> np.ndarray:
            return np.array(list(values), dtype=np.intp)

        split = [i for i in params.offramp_cells if cells[i].split_beta < 1.0]
        split_all = [i for i in params.offramp_cells if cells[i].split_beta >= 1.0]
        return cls(
            nbar=per_cell(c.capacity_nbar for c in cells),
            nbar_tol=per_cell(c.capacity_nbar + STATE_TOL for c in cells),
            alpha=per_cell(c.blend_alpha for c in cells),
            send=per_cell(1.0 - c.split_beta for c in cells),
            eta_moving=per_cell(c.eta_moving for c in cells),
            eta_idling=per_cell(c.eta_idling for c in cells),
            obar=per_cell(c.sat_mainline_obar for c in cells),
            offramp_bound=per_cell(
                (1.0 - c.split_beta) / c.split_beta * c.sat_offramp_sbar
                if 0.0 < c.split_beta < 1.0 else math.inf
                for c in cells
            ),
            length=per_cell(c.length for c in cells),
            onramps=index(params.onramp_cells),
            onramp_xi=per_cell(cells[i].xi for i in params.onramp_cells),
            onramp_nbar=per_cell(cells[i].capacity_nbar for i in params.onramp_cells),
            metered=index(params.metered_cells),
            metered_slots=index(params.onramp_cells.index(i) for i in params.metered_cells),
            metered_lane_length=per_cell(
                cells[i].length * params.lanes for i in params.metered_cells
            ),
            split=index(split),
            split_ratio=per_cell(
                cells[i].split_beta / (1.0 - cells[i].split_beta) for i in split
            ),
            split_all=index(split_all),
            split_all_sbar=per_cell(cells[i].sat_offramp_sbar for i in split_all),
        )


@dataclass(frozen=True, slots=True)
class NetworkState:
    """Vehicle counts per cell and queue lengths per on-ramp at one step."""

    n: tuple[float, ...]          # vehicles per cell
    q: tuple[float, ...]          # vehicles queued, aligned with params.onramp_cells
    step: int = 0

    def validate(self, params: NetworkParams, tol: float = STATE_TOL) -> None:
        if len(self.n) != params.n_cells:
            raise TopologyError(
                f"state has {len(self.n)} cells, network has {params.n_cells}"
            )
        if len(self.q) != len(params.onramp_cells):
            raise TopologyError(
                f"state has {len(self.q)} queues, network has {len(params.onramp_cells)} on-ramps"
            )
        # written so that NaN fails too
        for i, (ni, cell) in enumerate(zip(self.n, params.cells)):
            if not -tol <= ni <= cell.capacity_nbar + tol:
                raise ValueError(f"n[{i}]={ni} outside [0, {cell.capacity_nbar}]")
        for j, qj in enumerate(self.q):
            if not qj >= -tol:
                raise ValueError(f"q[{j}]={qj} negative or NaN")


@dataclass(frozen=True, slots=True)
class ExogenousInput:
    """Uncontrolled inflow demands for one step, veh/cycle."""

    mainstream_demand: float
    ramp_demands: tuple[float, ...]  # aligned with params.onramp_cells

    def __post_init__(self) -> None:
        if not (self.mainstream_demand >= 0 and all(d >= 0 for d in self.ramp_demands)):
            raise ValueError("demands must be nonnegative numbers")


@dataclass(frozen=True, slots=True)
class FlowVector:
    """Realized flows of one step, veh/cycle.

    ``mainstream_in`` is the *admitted* upstream inflow into the first cell;
    entries of ``e``/``s`` are zero for cells without the corresponding ramp.
    """

    e: tuple[float, ...]
    o: tuple[float, ...]
    s: tuple[float, ...]
    mainstream_in: float


@dataclass(frozen=True, slots=True)
class StageCost:
    """Cost contributions of one step."""

    tt: float          # occupancy travel time, vehicle-hours
    td_h: float        # travelled distance as free-flow time equivalent, vehicle-hours
    j: float           # tt - gamma * td_h, hours
    throughput: float  # vehicles exiting the network this step


@dataclass(frozen=True)
class RolloutResult:
    """Trajectory produced by :func:`rollout`."""

    states: tuple[NetworkState, ...]   # length horizon + 1, includes the initial state
    flows: tuple[FlowVector, ...]      # length horizon
    costs: tuple[StageCost, ...]       # length horizon
    total_cost: float                  # sum of per-step j


def _metering_by_cell(
    metering: Optional[Sequence[float]], params: NetworkParams
) -> dict[int, float]:
    """Map a per-metered-ramp metering vector onto cell indices."""
    if metering is None:
        return {}
    if len(metering) != len(params.metered_cells):
        raise TopologyError(
            f"metering vector has {len(metering)} entries, "
            f"network has {len(params.metered_cells)} metered ramps"
        )
    for m in metering:
        if not m >= 0:  # NaN fails too: min(inflow, NaN) would leave the ramp unmetered
            raise NegativeRateError("metering rates must be nonnegative numbers")
    return dict(zip(params.metered_cells, metering))


def compute_onramp_inflow(
    state: NetworkState,
    inp: ExogenousInput,
    metering: Optional[Sequence[float]],
    params: NetworkParams,
) -> tuple[float, ...]:
    """On-ramp inflow per cell.

    Unmetered ramps admit ``min(queue + demand, xi * vacant capacity)``; a
    metered ramp additionally caps the inflow at its metering rate.  Cells
    without an on-ramp get 0.  ``metering`` is ordered like
    ``params.metered_cells`` (pass None to leave every ramp unmetered).
    """
    mu = _metering_by_cell(metering, params)
    demands = dict(zip(params.onramp_cells, inp.ramp_demands))
    e = []
    for i, cell in enumerate(params.cells):
        if not cell.has_onramp:
            e.append(0.0)
            continue
        supply = state.q[params.onramp_cells.index(i)] + demands[i]
        space = cell.xi * (cell.capacity_nbar - state.n[i])
        ei = min(supply, space)
        if i in mu:
            ei = min(ei, mu[i])
        e.append(max(ei, 0.0))
    return tuple(e)


def compute_mainline_outflow(
    state: NetworkState, e: Sequence[float], params: NetworkParams
) -> tuple[float, ...]:
    """Mainline outflow per cell: minimum of the sending term, the downstream
    receiving term (skipped for the last cell), the saturation flow and the
    off-ramp-coupled bound (skipped when the cell has no off-ramp)."""
    o = []
    last = params.n_cells - 1
    for i, cell in enumerate(params.cells):
        terms = [
            (1.0 - cell.split_beta) * (state.n[i] + cell.blend_alpha * e[i]) * cell.eta_moving,
            cell.sat_mainline_obar,
        ]
        if i < last:
            nxt = params.cells[i + 1]
            terms.append(
                (nxt.capacity_nbar - state.n[i + 1] - nxt.blend_alpha * e[i + 1])
                * nxt.eta_idling
            )
        if 0.0 < cell.split_beta < 1.0:
            terms.append((1.0 - cell.split_beta) / cell.split_beta * cell.sat_offramp_sbar)
        o.append(max(min(terms), 0.0))
    return tuple(o)


def compute_offramp_outflow(
    o: Sequence[float],
    params: NetworkParams,
    state: NetworkState,
    e: Sequence[float],
) -> tuple[float, ...]:
    """Off-ramp outflow per cell, proportional to the mainline outflow; the
    split-everything boundary case discharges the moving flow directly,
    capped at the off-ramp saturation."""
    s = []
    for i, cell in enumerate(params.cells):
        if not cell.has_offramp:
            s.append(0.0)
        elif cell.split_beta < 1.0:
            s.append(cell.split_beta / (1.0 - cell.split_beta) * o[i])
        else:
            moving = (state.n[i] + cell.blend_alpha * e[i]) * cell.eta_moving
            s.append(min(cell.sat_offramp_sbar, moving))
    return tuple(s)


def stage_cost(
    flows: FlowVector,
    state: NetworkState,
    params: NetworkParams,
    gamma: float,
) -> StageCost:
    """Stage cost of one step evaluated on the pre-step occupancy.

    Travel time is occupancy over the cycle; travelled distance counts each
    exiting flow across its cell length, converted to vehicle-hours at free
    flow so the weight ``gamma`` stays dimensionless.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    cycle_h = params.sample_cycle_s / 3600.0
    tt = cycle_h * (sum(state.n) + sum(state.q))
    dist = sum(
        (flows.o[i] + flows.s[i]) * cell.length for i, cell in enumerate(params.cells)
    )
    td_h = dist / (params.free_flow_mps * 3600.0)
    throughput = flows.o[-1] + sum(flows.s)
    return StageCost(tt=tt, td_h=td_h, j=tt - gamma * td_h, throughput=throughput)


def step(
    state: NetworkState,
    inp: ExogenousInput,
    metering: Optional[Sequence[float]],
    params: NetworkParams,
    gamma: float = 0.8,
) -> tuple[NetworkState, FlowVector, StageCost]:
    """Advance the network by one cycle.

    Returns the successor state, the realized flows and the stage cost of the
    step (computed from the pre-step occupancy).  Raises
    :class:`ModelConsistencyError` if the update leaves the admissible state
    region by more than ``STATE_TOL``.
    """
    state.validate(params)
    e = compute_onramp_inflow(state, inp, metering, params)
    o = compute_mainline_outflow(state, e, params)
    s = compute_offramp_outflow(o, params, state, e)

    first = params.cells[0]
    space0 = (first.capacity_nbar - state.n[0] - first.blend_alpha * e[0]) * first.eta_idling
    mainstream_in = max(min(inp.mainstream_demand, space0), 0.0)

    n_next = []
    for i, cell in enumerate(params.cells):
        inflow = mainstream_in if i == 0 else o[i - 1]
        ni = state.n[i] + inflow + e[i] - o[i] - s[i]
        if ni < -STATE_TOL or ni > cell.capacity_nbar + STATE_TOL:
            raise ModelConsistencyError(
                f"cell {i}: n={ni} outside [0, {cell.capacity_nbar}] after update"
            )
        n_next.append(min(max(ni, 0.0), cell.capacity_nbar))

    demands = dict(zip(params.onramp_cells, inp.ramp_demands))
    q_next = []
    for j, i in enumerate(params.onramp_cells):
        qi = state.q[j] + demands[i] - e[i]
        if qi < -STATE_TOL:
            raise ModelConsistencyError(f"on-ramp {i}: queue {qi} negative after update")
        q_next.append(max(qi, 0.0))

    flows = FlowVector(e=e, o=o, s=s, mainstream_in=mainstream_in)
    cost = stage_cost(flows, state, params, gamma)
    nxt = NetworkState(n=tuple(n_next), q=tuple(q_next), step=state.step + 1)
    return nxt, flows, cost


def rollout(
    state: NetworkState,
    inputs: Sequence[ExogenousInput],
    metering_plan: Optional[Sequence[Sequence[float]]],
    params: NetworkParams,
    horizon: int,
    gamma: float = 0.8,
) -> RolloutResult:
    """Apply :func:`step` ``horizon`` times.

    ``inputs`` and ``metering_plan`` shorter than the horizon hold their last
    entry; ``metering_plan`` may be None for a fully unmetered rollout.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not inputs:
        raise ValueError("at least one exogenous input is required")
    if metering_plan is not None and len(metering_plan) == 0:
        raise ValueError("metering_plan must be None or non-empty")

    states = [state]
    flows: list[FlowVector] = []
    costs: list[StageCost] = []
    for k in range(horizon):
        inp = inputs[k] if k < len(inputs) else inputs[-1]
        mu = None
        if metering_plan is not None:
            mu = metering_plan[k] if k < len(metering_plan) else metering_plan[-1]
        nxt, fl, c = step(states[-1], inp, mu, params, gamma)
        states.append(nxt)
        flows.append(fl)
        costs.append(c)
    total = sum(c.j for c in costs)
    return RolloutResult(
        states=tuple(states), flows=tuple(flows), costs=tuple(costs), total_cost=total
    )


def _cell_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the cell axis (the second to last), left to right from 0.0
    like Python's ``sum``."""
    total = 0.0
    for i in range(x.shape[-2]):
        total = total + x[..., i, :]
    return total


def rollout_batch(
    state: NetworkState,
    inputs: Sequence[ExogenousInput],
    params: NetworkParams,
    horizon: int,
    gamma: float = 0.8,
    *,
    plans: Optional[np.ndarray] = None,
    gains: Optional[np.ndarray] = None,
    mu_prev: Optional[Sequence[float]] = None,
    gain_rows: Optional[np.ndarray] = None,
    horizons: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Total cost of many plans from one initial state, rolled side by side.

    A row is either a metering plan, a row of ``plans`` ``[B, horizon,
    ramps]``, or feedback gains, a row of ``gains`` ``[B, ramps]``: from the
    rates ``mu_prev`` applied before the window, each step then meters at
    ``max(mu_prev + gain * (rho_crit - rho), 0)`` on the predicted density.
    Pass ``plans`` or ``gains`` alone for rows of one kind, or both with the
    boolean ``gain_rows`` ``[B]`` flagging the gain rows.  ``horizons``
    ``[B]`` gives each row its own horizon, at most ``horizon`` (default:
    ``horizon`` for every row); a row is rolled out over its own horizon
    only, and whatever a plan holds past it is never read.  ``inputs``
    shorter than a horizon hold their last entry.  Returns the costs ``[B]``
    and the plans ``[B, horizon, ramps]``: as given, with the derived rates
    written into the gain rows over their horizon.

    Every float operation is that of :func:`step`, in the same order, so each
    cost equals ``rollout(...).total_cost`` over the row's horizon bit for
    bit (the module notes say how each ``min`` and ``max`` stays exact).
    Where the scalar model raises for a plan within that horizon (a negative
    or NaN rate, :class:`NegativeRateError`; a state update out of bounds,
    :class:`ModelConsistencyError`) that row's cost is +inf instead.  The
    initial state and the inputs are checked once per call.  The stage costs
    are summed over the cells once per stretch of steps, from histories of
    the state and the flows, and then added up in step order.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not inputs:
        raise ValueError("at least one exogenous input is required")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if gain_rows is None:
        if (plans is None) == (gains is None):
            raise ValueError("pass exactly one of plans and gains, or gain_rows with both")
        batch = len(plans if gains is None else gains)
        derive = gains is not None
        flags = None  # every row of one kind
    elif plans is None or gains is None:
        raise ValueError("gain_rows needs both plans and gains")
    else:
        flags = np.asarray(gain_rows, dtype=bool)
        batch = len(flags)
        derive = bool(flags.any())
    state.validate(params)
    ca = params.arrays
    n_ramps = len(params.metered_cells)
    if plans is None:
        plans = np.zeros((batch, horizon, n_ramps))
    plans = np.asarray(plans, dtype=float)
    if plans.ndim != 3 or plans.shape[:2] != (batch, horizon):
        raise ValueError(f"plans must have shape [{batch}, {horizon}, ramps], got {plans.shape}")
    if plans.shape[2] != n_ramps:
        raise TopologyError(
            f"plans have {plans.shape[2]} rates per step, network has {n_ramps} metered ramps"
        )
    if derive:
        gains = np.asarray(gains, dtype=float)
        if gains.shape[:1] != (batch,) or gains.ndim != 2 or mu_prev is None:
            raise ValueError(f"gains must have shape [{batch}, ramps] and need mu_prev")
        if gains.shape[1] != n_ramps or len(mu_prev) != n_ramps:
            raise TopologyError(
                f"gains have {gains.shape[1]} and mu_prev {len(mu_prev)} entries, "
                f"network has {n_ramps} metered ramps"
            )
        mu_prev = np.asarray(mu_prev, dtype=float)[:, None]
    if horizons is not None:
        ends = np.asarray(horizons)
        if ends.shape != (batch,) or not ((ends >= 1) & (ends <= horizon)).all():
            raise ValueError(f"horizons must be {batch} integers in [1, {horizon}]")
    # the inputs the horizon reads, each once; step k reads entry min(k, last)
    last = min(horizon, len(inputs)) - 1
    read = [inputs[k] for k in range(last + 1)]
    n_onramps = len(params.onramp_cells)
    for inp in read:
        if len(inp.ramp_demands) != n_onramps:
            raise TopologyError(
                f"input has {len(inp.ramp_demands)} ramp demands, "
                f"network has {n_onramps} on-ramps"
            )
    demands = np.array([inp.ramp_demands for inp in read], dtype=float)[:, :, None]
    mainstream = [inp.mainstream_demand for inp in read]

    # Rows sorted by horizon, longest first, so that the rows still rolling
    # at step k are a prefix, lives[k] long.  Every array is laid out cells
    # (or ramps) by rows, and the rates as [horizon, ramps, rows].
    if horizons is None:
        order = None
        lives = [batch] * horizon if batch else []
        rates = plans.transpose(1, 2, 0).copy()
    else:
        order = np.argsort(-ends, kind="stable")
        ends = ends[order]
        lives = [rows for rows in np.searchsorted(-ends, -np.arange(horizon)).tolist() if rows]
        rates = plans[order].transpose(1, 2, 0).copy()
        if derive:
            gains = gains[order]
            flags = None if flags is None else flags[order]

    cells = params.n_cells
    all_metered = n_ramps == n_onramps
    cycle_h = params.sample_cycle_s / 3600.0
    td_scale = params.free_flow_mps * 3600.0
    total = np.zeros(batch)
    failed = np.zeros(batch, dtype=bool)
    start = np.zeros((2, cells, batch))  # n, then q padded with zeros to the cell count
    start[0] = np.asarray(state.n, dtype=float)[:, None]
    start[1, :n_onramps] = np.asarray(state.q, dtype=float)[:, None]
    first = 0
    for rows, group in itertools.groupby(lives):
        # A stretch of steps over which the same rows roll, on contiguous
        # arrays cut to them.  Its histories hold the state before each step
        # (n, q), the flow o + s leaving each cell and the update before
        # clamping; the stage costs are summed and the bounds checked on them
        # once per stretch.
        count = len(list(group))
        hist = np.zeros((3, count + 1, cells, rows))
        raw = np.zeros((2, count, cells, rows))
        hist[:2, 0] = start[:, :, :rows]
        # work arrays of one step; e and s stay 0 in cells without that ramp
        e = np.zeros((cells, rows))
        s = np.zeros((cells, rows))
        # the admitted mainstream inflow, then the mainline outflow o of each
        # cell: row i is the inflow of cell i, bounded by its receiving term
        flow = np.empty((cells + 1, rows))
        admitted, inflow, o = flow[0], flow[:-1], flow[1:]
        blended = np.empty((cells, rows))
        receiving = np.empty((cells, rows))
        below = np.empty((cells, rows), dtype=bool)
        if derive:
            live_gains = np.ascontiguousarray(gains[:rows].T)
            live_flags = None if flags is None else flags[:rows]
        for j in range(count):
            k = first + j
            n, q = hist[0, j], hist[1, j, :n_onramps]
            mu = rates[k, :, :rows]
            if derive:
                prev = mu_prev if k == 0 else rates[k - 1, :, :rows]
                rho = n.take(ca.metered, axis=0) / ca.metered_lane_length
                derived = prev + live_gains * (params.rho_crit - rho)
                if live_flags is None:
                    np.maximum(0.0, derived, out=mu)
                else:
                    np.copyto(mu, np.maximum(0.0, derived), where=live_flags)

            # on-ramp inflow
            at = min(k, last)
            supply = q + demands[at]
            space = ca.onramp_xi * (ca.onramp_nbar - n.take(ca.onramps, axis=0))
            e_ramp = np.where(space < supply, space, supply)
            if all_metered:
                e_ramp = np.where(mu < e_ramp, mu, e_ramp)
            else:
                capped = e_ramp[ca.metered_slots]
                e_ramp[ca.metered_slots] = np.where(mu < capped, mu, capped)
            np.maximum(0.0, e_ramp, out=e_ramp)
            e[ca.onramps] = e_ramp

            # mainline outflow: min of sending, saturation, receiving
            # downstream and the off-ramp-coupled bound, floored at 0; the
            # admitted mainstream inflow: min of demand and receiving, floored
            # at 0
            np.multiply(ca.alpha, e, out=blended)
            np.subtract(ca.nbar, n, out=receiving)
            np.subtract(receiving, blended, out=receiving)
            np.multiply(receiving, ca.eta_idling, out=receiving)
            admitted.fill(mainstream[at])
            np.add(n, blended, out=o)
            np.multiply(ca.send, o, out=o)
            np.multiply(o, ca.eta_moving, out=o)
            np.minimum(ca.obar, o, out=o)
            np.less(receiving, inflow, out=below)
            np.copyto(inflow, receiving, where=below)
            np.minimum(ca.offramp_bound, o, out=o)
            np.maximum(0.0, flow, out=flow)

            # off-ramp outflow
            s[ca.split] = ca.split_ratio * o.take(ca.split, axis=0)
            if ca.split_all.size:
                moving = (n[ca.split_all] + blended[ca.split_all]) * ca.eta_moving[ca.split_all]
                s[ca.split_all] = np.where(moving < ca.split_all_sbar, moving, ca.split_all_sbar)

            # the update, then the next state: clamped into bounds
            np.add(o, s, out=hist[2, j])
            n_next = raw[0, j]
            np.add(n, inflow, out=n_next)
            np.add(n_next, e, out=n_next)
            np.subtract(n_next, o, out=n_next)
            np.subtract(n_next, s, out=n_next)
            np.subtract(supply, e_ramp, out=raw[1, j, :n_onramps])
            np.maximum(0.0, raw[:, j], out=hist[:2, j + 1])
            np.minimum(ca.nbar, hist[0, j + 1], out=hist[0, j + 1])

        # stage costs on the pre-step occupancy (the zero padding of q leaves
        # its sums unchanged), added up in step order
        np.multiply(hist[2], ca.length, out=hist[2])
        n_sum, q_sum, dist = _cell_sum(hist[:, :count])
        stage = cycle_h * (n_sum + q_sum) - gamma * (dist / td_scale)
        part = total[:rows]
        for cost in stage:
            np.add(part, cost, out=part)
        # updates out of bounds; a NaN is never flagged, as in step
        low, high = raw < -STATE_TOL, raw[0] > ca.nbar_tol
        if low.any() or high.any():
            failed[:rows] |= low.any(axis=(0, 1, 2)) | high.any(axis=(0, 1))
        start = hist[:2, count]
        first += count

    # negative or NaN rates within a row's horizon, derived ones included
    bad_rates = ~(rates >= 0)
    if bad_rates.any():
        if order is not None:
            bad_rates &= np.arange(horizon)[:, None, None] < ends
        failed |= bad_rates.any(axis=(0, 1))
    total[failed] = math.inf
    if order is None:
        return total, np.ascontiguousarray(rates.transpose(2, 0, 1))
    costs, out = np.empty(batch), np.empty_like(plans)
    costs[order] = total
    out[order] = rates.transpose(2, 0, 1)
    return costs, out


def density(state: NetworkState, params: NetworkParams) -> tuple[float, ...]:
    """Per-cell density in veh/m/lane."""
    return tuple(
        state.n[i] / (cell.length * params.lanes) for i, cell in enumerate(params.cells)
    )
