"""The package's scalar model and feedback law, alternated step by step,
and the solver's gradient evaluated point by point.

``actm.step`` and ``base_controllers.alinea_step`` perform every float
operation of the batched kernel's gain rows in the same order, so the
kernel's derived rates and costs are compared against this loop byte for
byte.
"""

from basepar.actm import step, upstream_inflows
from basepar.base_controllers import alinea_step
from basepar.parallel import _gradient_request, _lockstep, _pointwise


def fd_gradient(fun, x, f0, bounds, h):
    """The solver's forward-difference gradient of ``fun`` at ``x`` (whose
    cost is ``f0``) within ``bounds``, evaluated point by point."""
    request = _gradient_request(x, f0, bounds, h)
    return _lockstep([(None, request)], _pointwise(fun), None)[0]


def metered_density(state, params):
    """Density in each metered cell, veh/m/lane, as the feedback law reads it."""
    return [state.n[i] / (params.cells[i].length * params.lanes) for i in params.metered_cells]


def scalar_gain_rollout(params, gains, mu_prev, state, inputs, horizon, o_prev, gamma=0.8):
    """Alternate the gain source ``gains``, :func:`alinea_step`, :func:`step`
    and :func:`upstream_inflows` for ``horizon`` steps, starting after the
    rates ``mu_prev`` with the upstream inflows ``o_prev``.

    Returns the rates, the gains and the summed stage cost; raises what the
    scalar model raises.
    """
    slots = [params.onramp_cells.index(i) for i in params.metered_cells]
    mu, total, rates, trail = tuple(mu_prev), 0.0, [], []
    for k in range(horizon):
        inp = inputs[min(k, len(inputs) - 1)]
        theta = tuple(gains([state.n[i] for i in params.metered_cells],
                            [state.q[j] for j in slots],
                            [inp.ramp_demands[j] for j in slots], o_prev))
        mu = alinea_step(mu, theta, metered_density(state, params), params.rho_crit)
        state, flows, cost = step(state, inp, mu, params, gamma)
        o_prev = upstream_inflows(flows, params)
        total += cost.j
        rates.append(mu)
        trail.append(theta)
    return rates, trail, total
