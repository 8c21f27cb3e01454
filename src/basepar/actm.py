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

:func:`rollout_batch`, the one model and its one entry point, rolls many
plans forward side by side for the warm starts, optimizers and evaluation
block; the plant :func:`step` is one of its rows rolled one step, and
:func:`rollout` loops over :func:`step`.  :func:`raise_failure` types a
failed row for the plant and the warm starts alike.  The kernel performs
every float operation of the scalar model the test suite keeps as its
reference, in the same order, and in the cells a term does not apply to,
operations that give the scalar value there exactly, so its states, flows
and costs equal that model's bit for bit.

BATCHED ROLLOUTS
----------------
Python's ``min(a, b)`` returns ``a`` unless ``b < a``, and ``max(a, b)``
returns ``a`` unless ``b > a``.  ``np.minimum(b, a)`` and ``np.maximum(b,
a)`` return their second operand on ties and propagate a NaN from either
operand, so they equal ``min(a, b)`` and ``max(a, b)`` byte for byte, the
sign of a zero included, whenever ``b`` cannot be NaN (the test suite pins
this rule).  :func:`rollout_batch` uses the swapped ufunc for every ``min``
and ``max`` of the scalar model.  The floor 0.0, the saturation flow, the
off-ramp bound and the capacity are numbers by :class:`CellParams`.  The
vacant-capacity and receiving terms are numbers too: the initial state is
checked, the capacities are finite, and no flow of a step can be NaN or
infinite, so neither can the next state.  A metering rate can be NaN, which
Python's ``min(e, rate)`` ignores and ``np.minimum`` does not, so the cap is
the selection ``np.where(rate < e, rate, e)``, done as ``np.less`` and
``np.copyto``.  So is the split-everything off-ramp, a rare case.

Every array is laid out cells by rows over all cells, so that no step takes
or puts a subset of cells.  Cells without an on-ramp hold queue 0.0, demand
0.0 and on-ramp share ``xi`` 0: their supply is +0.0 and their space
``0 * (capacity - n)`` is never below it, so their inflow is +0.0 as in
the scalar model.  Cells without a metered ramp meter at +inf, which never
caps an inflow; a gain row derives +inf there too, from gain 0 on finite
densities.  A cell whose off-ramp takes no share ``beta < 1`` gets ratio 0
and pad +0.0, so ``0 * o + 0.0`` is +0.0 (``o`` is finite); the other cells
get pad -0.0, and ``x + -0.0`` is ``x`` for every ``x``.  The sums over the
cells run left to right from +0.0 like Python's ``sum``, so the zeros of the
queues off the on-ramp cells change nothing: adding +0.0 to a partial sum
that started at +0.0 leaves it as it is.

A gain row may hold a :class:`GainNetwork`: before each step within the
row's horizon the kernel evaluates it ramp by ramp on Python floats, in the
scalar forward pass's order and with ``math.tanh`` (``np.tanh`` changes some
last bits), on the counts, queues, ramp demands and upstream inflows of its
metered cells: the caller's inflows at the first step, then the step before's.
Each network's weights are unpacked into that order once, when the
:class:`GainNetwork` is built, not by every call that rolls it.

Each call checks the initial state and the inputs once, then rolls every
row over the call's horizon on one set of arrays of shape ``[cells, rows]``,
allocated once, the per-cell coefficients copied out to that shape because
such an operand costs numpy less than a ``[cells, 1]`` one to broadcast.
The call keeps the pre-step state and the flows of every step, and the
updates before clamping, quantity by quantity (``[3, horizon + 1, cells,
rows]`` and ``[2, horizon, cells, rows]``), so that the travelled distance,
the sums over the cells and the bounds check each read whole blocks.  It
sums them over the cells once, as a loop of ``np.add`` calls:
``np.add.reduce`` over the cell axis gives the same bits on the shipped
network, but it sums pairwise when that axis is the innermost one (one row
and eight cells or more), and then differs from Python's ``sum`` in its
last bit.  It checks the updates for bounds once; the stage costs are then
added up in step order by one ``np.add.accumulate``, which keeps every
row's cost after every step, and each row's first failing step is found
once.  A row with a shorter horizon of its own keeps rolling past
it: its cost is read at its own end, and only a failure within it counts,
so nothing it rolls past its end reaches its cost.  The cost of any prefix
of a row's horizon is read off the same call, bit for bit what a call of
that horizon would give; the evaluation block's costs are such prefixes.

A step is about 30 numpy calls on small arrays, so what numpy costs per
call matters more than the data.  With numpy 2.4.6, ``add``, ``subtract``,
``multiply`` and ``divide`` take their output faster as a positional
argument than as ``out=`` (0.33-0.49 against 0.38-0.53 us on ``[6, 49]``
arrays), and ``less`` takes it either way in 0.38 us, so these five pass
it positionally.  ``minimum`` and ``maximum`` keep ``out=``: numpy 2.4
deprecates a positional output for them, and raising the warning makes
such a call about three times as slow (1.06-1.10 against 0.35-0.36 us).

On the shipped network (6 cells, 3 metered ramps), replaying the 935
calls of a 180-step serial architecture run (best of 16 rounds per call,
2 shared vCPUs, Python 3.11, numpy 2.4.6), a least-squares fit puts a
call at 61-63 us before its first step, a model step at 18 us and a
row-step at 0.08 us (two fits; the median residual is 28-29 us), so in a
call of a few steps the set-up weighs as much as the steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import isfinite, tanh
from typing import NoReturn, Optional, Sequence, Union

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
    "upstream_inflows",
    "GainNetwork",
    "StageCost",
    "RolloutResult",
    "step",
    "rollout",
    "rollout_batch",
    "raise_failure",
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
        # and saturation flows being numbers, and on finite capacities and
        # lengths
        if not 0 < self.length < math.inf:
            raise ValueError("cell length must be positive and finite")
        if not 0 < self.capacity_nbar < math.inf:
            raise ValueError("capacity_nbar must be positive and finite")
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
        # written so that NaN fails too
        for name in ("sample_cycle_s", "rho_crit", "free_flow_mps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.lanes < 1:
            raise ValueError("lanes must be at least 1")
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


# The rows of CellArrays.coef, in the order rollout_batch unpacks them.
_COEFS = ("alpha", "nbar", "xi", "eta_idling", "send", "eta_moving", "obar",
          "offramp_bound", "split_ratio", "split_pad", "lane_length", "rho_crit")


@dataclass(frozen=True, eq=False)
class CellArrays:
    """Per-cell coefficients of the flow formulas as arrays, read by
    :func:`rollout_batch`.

    Each entry of :attr:`coef` is the float expression the scalar model
    evaluates for that cell, one row per name in ``_COEFS``, every cell
    present.  A term a cell lacks inside a ``min`` is +inf, which leaves the
    minimum unchanged.  The on-ramp share ``xi`` is 0 where there is no
    on-ramp.  Where no share ``beta < 1`` leaves, the off-ramp ratio is 0
    and ``split_pad`` +0.0; it is -0.0 elsewhere (module notes).
    """

    coef: np.ndarray                 # [len(_COEFS), cells, 1]
    length: np.ndarray               # [cells, 1]
    nbar_tol: np.ndarray             # [cells, 1], capacity + STATE_TOL, the post-update bound
    onramps: np.ndarray              # cell of each on-ramp
    metered: np.ndarray              # cell of each metered ramp
    split_all: np.ndarray            # cells whose off-ramp takes every moving vehicle
    split_all_sbar: np.ndarray       # [len(split_all), 1]

    @classmethod
    def build(cls, params: NetworkParams) -> CellArrays:
        cells = params.cells
        split = [c.has_offramp and c.split_beta < 1.0 for c in cells]
        rows = {
            "alpha": [c.blend_alpha for c in cells],
            "nbar": [c.capacity_nbar for c in cells],
            "xi": [c.xi if c.has_onramp else 0.0 for c in cells],
            "eta_idling": [c.eta_idling for c in cells],
            "send": [1.0 - c.split_beta for c in cells],
            "eta_moving": [c.eta_moving for c in cells],
            "obar": [c.sat_mainline_obar for c in cells],
            "offramp_bound": [
                (1.0 - c.split_beta) / c.split_beta * c.sat_offramp_sbar
                if 0.0 < c.split_beta < 1.0 else math.inf
                for c in cells
            ],
            "split_ratio": [
                c.split_beta / (1.0 - c.split_beta) if is_split else 0.0
                for c, is_split in zip(cells, split)
            ],
            "split_pad": [-0.0 if is_split else 0.0 for is_split in split],
            "lane_length": [c.length * params.lanes for c in cells],
            "rho_crit": [params.rho_crit] * len(cells),
        }
        split_all = [i for i in params.offramp_cells if cells[i].split_beta >= 1.0]
        return cls(
            coef=np.array([rows[name] for name in _COEFS], dtype=float)[:, :, None],
            length=np.array([[c.length] for c in cells]),
            nbar_tol=np.array([[c.capacity_nbar + STATE_TOL] for c in cells]),
            onramps=np.array(params.onramp_cells, dtype=np.intp),
            metered=np.array(params.metered_cells, dtype=np.intp),
            split_all=np.array(split_all, dtype=np.intp),
            split_all_sbar=np.array([cells[i].sat_offramp_sbar for i in split_all])[:, None],
        )


@dataclass(frozen=True, slots=True)
class NetworkState:
    """Vehicle counts per cell and queue lengths per on-ramp at one step."""

    n: tuple[float, ...]          # vehicles per cell
    q: tuple[float, ...]          # vehicles queued, aligned with params.onramp_cells

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
            if not -tol <= qj < math.inf:
                raise ValueError(f"q[{j}]={qj} negative, infinite or NaN")


@dataclass(frozen=True, slots=True)
class ExogenousInput:
    """Uncontrolled inflow demands for one step, veh/cycle."""

    mainstream_demand: float
    ramp_demands: tuple[float, ...]  # aligned with params.onramp_cells

    def __post_init__(self) -> None:
        # written so that NaN fails too
        if not all(0 <= d < math.inf for d in (self.mainstream_demand, *self.ramp_demands)):
            raise ValueError("demands must be nonnegative finite numbers")


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


def upstream_inflows(flows: FlowVector, params: NetworkParams) -> tuple[float, ...]:
    """Mainline inflow into each metered cell this step, in metered-cell
    order: the admitted upstream inflow for the first cell, the outflow of
    the cell before it otherwise.  The gain network reads it as ``o_prev``."""
    return tuple(
        flows.mainstream_in if i == 0 else flows.o[i - 1] for i in params.metered_cells
    )


@dataclass(frozen=True)
class GainNetwork:
    """Gains as data: per metered ramp, in metered-cell order, a network with
    :class:`~basepar.base_controllers.MlpParams`'s fields, whose output is
    clipped into ``gain_range``; :attr:`weights` holds each network's
    weights in :func:`_forward`'s order, unpacked once."""

    nets: tuple
    gain_range: tuple[float, float]
    weights: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(_unpack(net) for net in self.nets))


def _unpack(net) -> tuple[float, ...]:
    """The weights of ``net`` in :func:`_forward`'s order: the input offsets
    and spans, each hidden unit's bias and weights, the output's."""
    spans = [hi - lo for lo, hi in zip(net.input_lo, net.input_hi)]
    hidden = [v for bias, row in zip(net.hidden_bias, net.hidden_weights) for v in (bias, *row)]
    return (*net.input_lo, *spans, *hidden, *net.output_weights, net.output_bias)


def _forward(weights, n: float, q: float, d: float, o: float) -> float:
    """The 4-3-1 network's output on one input (count, queue, ramp demand,
    upstream inflow), summed in the scalar forward pass's order; a
    non-finite input raises ``ValueError``."""
    if not (isfinite(n) and isfinite(q) and isfinite(d) and isfinite(o)):
        raise ValueError("inputs must be finite")
    (l0, l1, l2, l3, s0, s1, s2, s3, b0, a0, a1, a2, a3, b1, c0, c1, c2, c3,
     b2, e0, e1, e2, e3, w0, w1, w2, y) = weights
    x0, x1, x2, x3 = (n - l0) / s0, (q - l1) / s1, (d - l2) / s2, (o - l3) / s3
    y += w0 * tanh(b0 + a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3)
    y += w1 * tanh(b1 + c0 * x0 + c1 * x1 + c2 * x2 + c3 * x3)
    y += w2 * tanh(b2 + e0 * x0 + e1 * x1 + e2 * x2 + e3 * x3)
    return y


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
    costs: tuple[StageCost, ...]       # length horizon
    total_cost: float                  # sum of per-step j


def step(
    state: NetworkState,
    inp: ExogenousInput,
    metering: Optional[Sequence[float]],
    params: NetworkParams,
    gamma: float = 0.8,
) -> tuple[NetworkState, FlowVector, StageCost]:
    """Advance the network by one cycle: one row of :func:`rollout_batch`,
    rolled one step.

    ``metering`` is ordered like ``params.metered_cells`` (None leaves every
    ramp unmetered).  Returns the successor state, the realized flows and the
    stage cost of the step (computed from the pre-step occupancy).  Raises
    what :func:`raise_failure` raises if the row fails.
    """
    if metering is None:
        plan = np.full((1, 1, len(params.metered_cells)), math.inf)
    else:
        plan = np.array(metering, dtype=float).reshape(1, 1, -1)
    *_, fail, _, (after, flow, e, s, cost) = rollout_batch(
        state, (inp,), params, 1, gamma, plans=plan)
    if fail[0] < 1:
        raise_failure(plan[0], "the plan")
    admitted, *o = flow[:, 0].tolist()
    s = s[:, 0].tolist()
    tt, td_h = cost[:, 0].tolist()
    nxt = NetworkState(n=tuple(after[0, :, 0].tolist()),
                       q=tuple(after[1, params.arrays.onramps, 0].tolist()))
    flows = FlowVector(e=tuple(e[:, 0].tolist()), o=tuple(o), s=tuple(s), mainstream_in=admitted)
    return nxt, flows, StageCost(tt=tt, td_h=td_h, j=tt - gamma * td_h,
                                 throughput=o[-1] + sum(s))


def raise_failure(plan: np.ndarray, label: str) -> NoReturn:
    """Raise what a row of :func:`rollout_batch` that failed within its own
    horizon failed on, given its ``plan`` over that horizon and a ``label``
    naming it: :class:`NegativeRateError` if a rate there is negative or
    NaN, :class:`ModelConsistencyError` (a state update out of bounds)
    otherwise."""
    if not (plan >= 0).all():
        raise NegativeRateError(f"{label} set a negative or NaN metering rate")
    raise ModelConsistencyError(f"{label}'s rollout left the admissible states")


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
    costs: list[StageCost] = []
    for k in range(horizon):
        inp = inputs[k] if k < len(inputs) else inputs[-1]
        mu = None
        if metering_plan is not None:
            mu = metering_plan[k] if k < len(metering_plan) else metering_plan[-1]
        nxt, _, c = step(states[-1], inp, mu, params, gamma)
        states.append(nxt)
        costs.append(c)
    total = sum(c.j for c in costs)
    return RolloutResult(states=tuple(states), costs=tuple(costs), total_cost=total)


def rollout_batch(
    state: NetworkState,
    inputs: Sequence[ExogenousInput],
    params: NetworkParams,
    horizon: int,
    gamma: float = 0.8,
    *,
    plans: Optional[np.ndarray] = None,
    gains: Union[np.ndarray, Sequence, None] = None,
    mu_prev: Optional[Sequence[float]] = None,
    gain_rows: Optional[np.ndarray] = None,
    horizons: Optional[np.ndarray] = None,
    o_prev: Optional[Sequence[float]] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[int, list], tuple]:
    """Many plans rolled side by side from one initial state: the one model.

    A row is either a metering plan, a row of ``plans`` ``[B, horizon,
    ramps]``, or feedback gains, a row of ``gains`` ``[B, ramps]``: from the
    rates ``mu_prev`` applied before the window, each step then meters at
    ``max(mu_prev + gain * (rho_crit - rho), 0)`` on the predicted density.
    A row of ``gains`` may also be a :class:`GainNetwork`, which reads the
    upstream inflows ``o_prev`` at the first step.  Pass ``plans`` or
    ``gains`` alone for rows of one kind, or both with the boolean
    ``gain_rows`` ``[B]`` flagging the gain rows.  ``horizons`` ``[B]``
    gives each row its own horizon, at most ``horizon`` (default:
    ``horizon`` for every row).  Every row is rolled over ``horizon``;
    whatever a plan holds past the row's own horizon is rolled, but it never
    reaches that row's cost, failure flag or in-horizon plan.  ``inputs``
    shorter than a horizon hold their last entry; the initial state and the
    inputs are checked once per call.

    Returns, in order:

    * the costs ``[B]``, each row's over its own horizon: the scalar
      model's, bit for bit (the module notes say how each ``min`` and
      ``max`` stays exact, and why the full-cell layout adds nothing), or
      +inf where the row fails within that horizon (a negative or NaN rate,
      derived ones included, or a state update out of bounds;
      :func:`raise_failure` says which);
    * the plans ``[B, horizon, ramps]``: as given, with the derived rates
      written into the gain rows over the whole ``horizon``; without gain
      rows they may be the ``plans`` array passed in, not a copy;
    * each row's cost over its first ``k`` steps ``[horizon + 1, B]``
      (``k = 0 ... horizon``, whatever the row's own horizon);
    * each row's first failing step ``[B]`` (``horizon`` if none);
    * each network row's gains by step within its horizon, by row;
    * the state after the last step ``[2, cells, B]`` (n, then q at every
      cell), the admitted inflow and the outflows ``[cells + 1, B]``, the
      flows ``e`` and ``s`` ``[cells, B]`` and the last step's ``tt`` and
      ``td_h`` ``[2, B]``.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not inputs:
        raise ValueError("at least one exogenous input is required")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    networks = {}
    if gains is not None and not isinstance(gains, np.ndarray):
        networks = {b: g for b, g in enumerate(gains) if isinstance(g, GainNetwork)}
        # a network's gains are set at every step
        gains = [np.zeros(len(params.metered_cells)) if b in networks else g
                 for b, g in enumerate(gains)]
        if any(len(g) != len(params.metered_cells) for g in gains):
            raise TopologyError(f"a gain row has other than {len(params.metered_cells)} gains, "
                                "one per metered ramp")
    trails = {b: [] for b in networks}
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
    cells = params.n_cells
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
        if networks and not (o_prev is not None and len(o_prev) == n_ramps
                             and all(len(g.nets) == n_ramps for g in networks.values())):
            raise TopologyError(f"a gain network needs {n_ramps} networks and o_prev entries")
    ends = np.full(batch, horizon) if horizons is None else np.asarray(horizons)
    if (ends.shape != (batch,) or ends.dtype.kind not in "iu"
            or ((ends < 1) | (ends > horizon)).any()):
        raise ValueError(f"horizons must be {batch} integers in [1, {horizon}]")
    # the inputs the horizon reads, each once; step k reads entry min(k, last)
    last = min(horizon, len(inputs)) - 1
    read = inputs[:last + 1]
    n_onramps = len(params.onramp_cells)
    for inp in read:
        if len(inp.ramp_demands) != n_onramps:
            raise TopologyError(
                f"input has {len(inp.ramp_demands)} ramp demands, "
                f"network has {n_onramps} on-ramps"
            )
    mainstream = [inp.mainstream_demand for inp in read]

    # Every array is laid out cells by rows, the constants included: the
    # coefficients, two rows of zeros and the ramp demands of each input
    # read, at their cells and 0 elsewhere.  The rates are [horizon, cells,
    # rows] with +inf off the metered cells, which never caps an inflow.
    c = len(_COEFS)
    block = np.zeros((c + 2 + last + 1, cells, batch))
    block[:c] = ca.coef
    block[c + 2:, ca.onramps] = np.array([inp.ramp_demands for inp in read])[:, :, None]
    (alpha, nbar, xi, eta_idling, send, eta_moving, obar, offramp_bound,
     split_ratio, split_pad, lane_length, rho_crit, zero, _, *demand) = block
    zeros = block[c:c + 2]
    zero_flow = zeros.reshape(-1)[:(cells + 1) * batch].reshape(cells + 1, batch)
    # step k reads input min(k, last)
    demand += demand[-1:] * (horizon - last - 1)
    mainstream += mainstream[-1:] * (horizon - last - 1)
    rates = np.empty((horizon, cells, batch))
    rates.fill(math.inf)
    rates[:, ca.metered] = plans.transpose(1, 2, 0)
    if derive:
        # the previous rates and the gains at their cells, +inf and 0
        # elsewhere; the mask flags the rows that derive when not all do
        prev = np.full((cells, 1), math.inf)
        prev[ca.metered, 0] = mu_prev
        cell_gains = np.zeros((cells, batch))
        cell_gains[ca.metered] = gains.T
        mask = None if flags is None or flags.all() else flags
        # each network row's metered cells as flat indices into a [cells,
        # rows] array, its horizon, each ramp's weights, its gain range and
        # its trail; and the ramp demands of each input read at those cells
        forwards = [(ca.metered * batch + b, int(ends[b]), net.weights, *net.gain_range,
                     trails[b]) for b, net in networks.items()]
        ramp_demands = block[c + 2:, ca.metered, 0].tolist() if forwards else None

    # the histories, quantity by quantity: the state before each step (n,
    # q) and the flow o + s leaving each cell, and the update before
    # clamping (n, then q); they are summed over the cells and checked for
    # bounds once per call; the initial state is n, then q at the on-ramp
    # cells and 0 elsewhere
    h = np.empty((3, horizon + 1, cells, batch))
    h[0, 0] = np.array(state.n)[:, None]
    h[1, 0] = 0.0
    h[1, 0, ca.onramps] = np.array(state.q)[:, None]
    r = np.empty((2, horizon, cells, batch))
    vacant, space, e, s, blended, receiving, derived = np.empty((7, cells, batch))
    below = np.empty((cells, batch), dtype=bool)
    # the admitted mainstream inflow, then the mainline outflow o of each
    # cell: row i is the inflow of cell i, bounded by its receiving term
    flow = np.empty((cells + 1, batch))
    admitted, inflow, o = flow[0], flow[:-1], flow[1:]
    # numpy 2.4 takes the output of add, subtract, multiply and divide
    # faster as a positional argument, that of minimum and maximum faster
    # as out= (module notes)
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    minimum, maximum, less, copyto = np.minimum, np.maximum, np.less, np.copyto
    split_all = ca.split_all if ca.split_all.size else None
    # each step's views: the state before it (n, q and the flows leaving the
    # cells), its update before clamping (n and q, both), the state after
    # it (n and q, then n), its rates and its inputs
    for k, n, q, flows, n_next, supply, update, after, n_after, mu, d, m in zip(
            range(horizon), *h[:, :horizon], *r, r.swapaxes(0, 1),
            h[:2, 1:].swapaxes(0, 1), h[0, 1:], rates, demand, mainstream):
        if derive:
            for row, end, weights, lo, hi, trail in forwards:
                if k < end:
                    theta = [min(max(_forward(w, n_i, q_i, d_i, o_i), lo), hi)
                             for w, n_i, q_i, d_i, o_i in zip(
                                 weights, n.take(row).tolist(), q.take(row).tolist(),
                                 ramp_demands[min(k, last)],
                                 inflow.take(row).tolist() if k else o_prev)]
                    trail.append(tuple(theta))
                    cell_gains.put(row, theta)
            # the feedback law on the predicted density at every cell:
            # +inf + 0 * (rho_crit - rho) stays +inf off the metered cells
            divide(n, lane_length, derived)
            subtract(rho_crit, derived, derived)
            multiply(cell_gains, derived, derived)
            add(prev, derived, derived)
            if mask is None:
                maximum(zero, derived, out=mu)
            else:
                maximum(zero, derived, out=derived)
                copyto(mu, derived, where=mask)
            prev = mu

        # on-ramp inflow: min of supply and space, capped at the rate and
        # floored at 0; the supply becomes the queue update
        add(q, d, supply)
        subtract(nbar, n, vacant)
        multiply(xi, vacant, space)
        minimum(space, supply, out=e)
        less(mu, e, below)
        copyto(e, mu, where=below)
        maximum(zero, e, out=e)

        # mainline outflow: min of sending, saturation, receiving downstream
        # and the off-ramp-coupled bound, floored at 0; the admitted
        # mainstream inflow: min of demand and receiving, floored at 0
        multiply(alpha, e, blended)
        subtract(vacant, blended, receiving)
        multiply(receiving, eta_idling, receiving)
        admitted.fill(m)
        add(n, blended, o)
        multiply(send, o, o)
        multiply(o, eta_moving, o)
        minimum(obar, o, out=o)
        minimum(receiving, inflow, out=inflow)
        minimum(offramp_bound, o, out=o)
        maximum(zero_flow, flow, out=flow)

        # off-ramp outflow; 0 * o plus the pad +0.0 is 0.0 itself where no
        # share beta < 1 leaves, and the pad -0.0 leaves s unchanged
        multiply(split_ratio, o, s)
        add(s, split_pad, s)
        if split_all is not None:
            moving = (n[split_all] + blended[split_all]) * eta_moving[split_all]
            s[split_all] = np.where(moving < ca.split_all_sbar, moving, ca.split_all_sbar)

        # the update, then the next state: clamped into bounds
        add(o, s, flows)
        add(n, inflow, n_next)
        add(n_next, e, n_next)
        subtract(n_next, o, n_next)
        subtract(n_next, s, n_next)
        subtract(supply, e, supply)
        maximum(zeros, update, out=after)
        minimum(nbar, n_after, out=n_after)

    # the flows leaving the cells times their lengths, the travelled
    # distance; then the sums over the cells of n, q and (o + s) * length
    # before each step, left to right from 0.0 like Python's sum (the zeros
    # of q off the on-ramp cells leave its sums unchanged)
    before = h[:, :horizon]
    multiply(before[2], ca.length, before[2])
    sums = np.empty((3, horizon, batch))
    add(0.0, before[:, :, 0], sums)
    for i in range(1, cells):
        add(sums, before[:, :, i], sums)

    # stage costs on the pre-step occupancy: tt (in place of the sums of q)
    # minus gamma times td_h (in place of the distances), added up in step
    # order from 0.0; each row's cost is read at its own end
    n_sum, tt, td_h = sums
    add(n_sum, tt, tt)
    multiply(params.sample_cycle_s / 3600.0, tt, tt)
    divide(td_h, params.free_flow_mps * 3600.0, td_h)
    multiply(gamma, td_h, n_sum)
    costs = np.zeros((horizon + 1, batch))
    subtract(tt, n_sum, costs[1:])
    add.accumulate(costs, out=costs)
    # each row's first step with a negative or NaN rate, derived ones
    # included, or with an update out of bounds (a NaN is never flagged);
    # a row costs +inf if it fails within its own horizon
    fail = np.full(batch, horizon)
    metered = rates[:, ca.metered] if derive else plans.transpose(1, 2, 0)
    if not np.minimum.reduce(metered, axis=None, initial=0.0) >= 0:
        bad = ~(metered >= 0).all(axis=1)
        fail = np.where(bad.any(axis=0), bad.argmax(axis=0), fail)
    if np.fmin.reduce(r, axis=None) < -STATE_TOL or (r[0] > ca.nbar_tol).any():
        bad = (r < -STATE_TOL).any(axis=(0, 2)) | (r[0] > ca.nbar_tol).any(axis=1)
        fail = np.minimum(fail, np.where(bad.any(axis=0), bad.argmax(axis=0), horizon))
    total = costs[ends, np.arange(batch)]
    total[fail < ends] = math.inf
    last = (h[:2, horizon], flow, e, s, sums[1:, horizon - 1])
    if not derive:
        return total, plans, costs, fail, trails, last
    return total, metered.transpose(2, 0, 1), costs, fail, trails, last

