"""The scalar cell-transmission model, feedback law and gain network,
alternated step by step, and the solver's point-by-point evaluator: the references the
package's batched kernel is compared against, and the harness through
which the solver runs on closed-form surrogates.

The package runs one model, the kernel ``basepar.actm.rollout_batch``;
``basepar.actm.step``, the plant, is one row of it rolled one step.  The
:func:`step` here evaluates the flow formulas cell by cell in Python floats,
as the package did before the kernel replaced it.  The kernel performs
every float operation of this :func:`step`, of :func:`alinea_step` and of
:func:`mlp_forward` in the same order, so its states, flows, costs, gains
and derived rates are compared against this model byte for byte; a
comparison against ``basepar.actm.step`` would compare the kernel with
itself.
"""

import itertools
import math
import time
from typing import Optional, Sequence

import numpy as np

from basepar.actm import (
    STATE_TOL,
    ExogenousInput,
    FlowVector,
    GainNetwork,
    ModelConsistencyError,
    NegativeRateError,
    NetworkParams,
    NetworkState,
    RolloutResult,
    StageCost,
    TopologyError,
    upstream_inflows,
)
from basepar.parallel import _gradient_request, _lockstep, _solve_jointly


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
    e = [0.0] * params.n_cells
    for j, i in enumerate(params.onramp_cells):
        cell = params.cells[i]
        supply = state.q[j] + inp.ramp_demands[j]
        space = cell.xi * (cell.capacity_nbar - state.n[i])
        ei = min(supply, space)
        if i in mu:
            ei = min(ei, mu[i])
        e[i] = max(ei, 0.0)
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

    q_next = []
    for j, i in enumerate(params.onramp_cells):
        qi = state.q[j] + inp.ramp_demands[j] - e[i]
        if qi < -STATE_TOL:
            raise ModelConsistencyError(f"on-ramp {i}: queue {qi} negative after update")
        q_next.append(max(qi, 0.0))

    flows = FlowVector(e=e, o=o, s=s, mainstream_in=mainstream_in)
    cost = stage_cost(flows, state, params, gamma)
    nxt = NetworkState(n=tuple(n_next), q=tuple(q_next))
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


def alinea_step(
    mu_prev: Sequence[float],
    theta: Sequence[float],
    rho: Sequence[float],
    rho_crit: float,
) -> tuple[float, ...]:
    """One metering update: ``mu = max(mu_prev + theta * (rho_crit - rho), 0)``.

    ``rho`` holds the measured density downstream of each metered ramp, in
    the same order as the previous rates ``mu_prev`` and the gains ``theta``.
    """
    if not len(mu_prev) == len(theta) == len(rho):
        raise ValueError("mu_prev, gains and densities must have one entry per metered ramp")
    # written so that NaN fails too
    if not all(m >= 0 for m in mu_prev):
        raise ValueError("mu_prev must be nonnegative")
    if not all(math.isfinite(t) for t in theta):
        raise ValueError("gains must be finite")
    if not all(r >= 0 for r in rho):
        raise ValueError("densities must be nonnegative")
    return tuple(max(m + t * (rho_crit - r), 0.0) for m, t, r in zip(mu_prev, theta, rho))


def pointwise(fun, bounds, horizon=1, deadline=None):
    """A solver evaluator calling ``fun`` row by row.  Its first round runs
    whatever the deadline; in every later round it reads the solver's
    clock, ``time.monotonic``, before every row and returns None once
    ``deadline`` (None for none) has passed.  It has no evaluation costs,
    and its plans are the rows clipped into ``bounds`` and reshaped to
    ``horizon`` steps, as a conventional problem's are."""
    later = itertools.count()  # 0 at the first round

    def evaluate(requests):
        rows = np.concatenate([rows for _, rows in requests])
        costs = np.empty(len(rows))
        checked = deadline is not None and next(later) > 0
        for i, row in enumerate(rows):
            if checked and time.monotonic() >= deadline:
                return None
            costs[i] = fun(row)
        return costs, None, bounds.clip(rows).reshape(len(rows), horizon, -1)

    return evaluate


def solve_pointwise(fun, problem, context, starts, config):
    """``solve_budgeted`` with ``fun`` costing every point in place of the
    model, through the solver's :func:`pointwise` evaluator, within the
    config budget counted from the call.  ``context`` is not read."""
    budget = config.budget_s
    deadline = None if budget is None else time.monotonic() + budget
    evaluate = pointwise(fun, problem.bounds, problem.horizon, deadline)
    return _solve_jointly([problem], [starts], config, evaluate)[0]


def fd_gradient(fun, x, f0, bounds, h):
    """The solver's forward-difference gradient of ``fun`` at ``x`` (whose
    cost is ``f0``) within ``bounds``, evaluated point by point."""
    request = _gradient_request(x, f0, bounds, h)
    return _lockstep([(None, request)], pointwise(fun, bounds))[0]


def metered_density(state, params):
    """Density in each metered cell, veh/m/lane, as the feedback law reads it."""
    return [state.n[i] / (params.cells[i].length * params.lanes) for i in params.metered_cells]


def mlp_forward(params, inputs):
    """The gain network's forward pass as the package computed it before its
    kernel evaluated the networks, one input at a time in Python floats:
    the reference the kernel's forward pass is compared against byte for
    byte.  Rejects non-finite inputs."""
    if len(inputs) != 4:
        raise ValueError("expected 4 inputs")
    if not all(math.isfinite(v) for v in inputs):
        raise ValueError("inputs must be finite")
    xs = [
        (inputs[k] - params.input_lo[k]) / (params.input_hi[k] - params.input_lo[k])
        for k in range(4)
    ]
    y = params.output_bias
    for j in range(3):
        pre = params.hidden_bias[j]
        row = params.hidden_weights[j]
        for k in range(4):
            pre += row[k] * xs[k]
        y += params.output_weights[j] * math.tanh(pre)
    return y


def scalar_gain_rollout(params, gains, mu_prev, state, inputs, horizon, o_prev, gamma=0.8):
    """Alternate the gains ``gains`` (constant gains, or a gain network's
    :func:`mlp_forward` outputs clipped into its range),
    :func:`alinea_step`, the scalar :func:`step` and
    :func:`upstream_inflows` for ``horizon`` steps, starting after the rates
    ``mu_prev`` with the upstream inflows ``o_prev``.

    Returns the rates, the gains and the summed stage cost; raises what the
    scalar model raises.
    """
    slots = [params.onramp_cells.index(i) for i in params.metered_cells]
    mu, total, rates, trail = tuple(mu_prev), 0.0, [], []
    for k in range(horizon):
        inp = inputs[min(k, len(inputs) - 1)]
        if isinstance(gains, GainNetwork):
            lo, hi = gains.gain_range
            cells = zip(gains.nets, [state.n[i] for i in params.metered_cells],
                        [state.q[j] for j in slots], [inp.ramp_demands[j] for j in slots], o_prev)
            theta = tuple(min(max(mlp_forward(net, x), lo), hi) for net, *x in cells)
        else:
            theta = tuple(gains)
        mu = alinea_step(mu, theta, metered_density(state, params), params.rho_crit)
        state, flows, cost = step(state, inp, mu, params, gamma)
        o_prev = upstream_inflows(flows, params)
        total += cost.j
        rates.append(mu)
        trail.append(theta)
    return rates, trail, total
