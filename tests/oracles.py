"""Independent re-implementations used as test oracles.

Everything here is written directly from the flow formulas, scalar by
scalar and structured differently from the package code (dict-based flows,
no shared helpers), so agreement is meaningful.
"""

import math


def oracle_onramp_inflow(n, q_by_cell, d_by_cell, mu_by_cell, cells):
    """cells: list of dicts with keys xi, nbar, has_onramp."""
    e = {}
    for i, cell in enumerate(cells):
        if not cell["has_onramp"]:
            e[i] = 0.0
            continue
        candidates = [q_by_cell[i] + d_by_cell[i], cell["xi"] * (cell["nbar"] - n[i])]
        if i in mu_by_cell:
            candidates.append(mu_by_cell[i])
        e[i] = max(min(candidates), 0.0)
    return e


def oracle_mainline_outflow(n, e, cells):
    o = {}
    for i, cell in enumerate(cells):
        terms = [
            (1.0 - cell["beta"]) * (n[i] + cell["alpha"] * e[i]) * cell["eta_m"],
            cell["obar"],
        ]
        if i + 1 < len(cells):
            down = cells[i + 1]
            terms.append(
                (down["nbar"] - n[i + 1] - down["alpha"] * e[i + 1]) * down["eta_i"]
            )
        if 0.0 < cell["beta"] < 1.0:
            terms.append((1.0 - cell["beta"]) / cell["beta"] * cell["sbar"])
        o[i] = max(min(terms), 0.0)
    return o


def oracle_offramp_outflow(n, e, o, cells):
    s = {}
    for i, cell in enumerate(cells):
        if not cell["has_offramp"]:
            s[i] = 0.0
        elif cell["beta"] < 1.0:
            s[i] = cell["beta"] / (1.0 - cell["beta"]) * o[i]
        else:
            s[i] = min(cell["sbar"], (n[i] + cell["alpha"] * e[i]) * cell["eta_m"])
    return s


def cells_as_dicts(params):
    return [
        dict(
            xi=c.xi, nbar=c.capacity_nbar, has_onramp=c.has_onramp,
            beta=c.split_beta, alpha=c.blend_alpha, eta_m=c.eta_moving,
            eta_i=c.eta_idling, obar=c.sat_mainline_obar, sbar=c.sat_offramp_sbar,
            has_offramp=c.has_offramp, length=c.length,
        )
        for c in params.cells
    ]


def oracle_step(params, n, q, d_main, d_by_cell, mu_by_cell, gamma):
    """Full one-step oracle.  Returns dict with next state, flows and cost."""
    cells = cells_as_dicts(params)
    q_by_cell = {}
    pos = 0
    for i, c in enumerate(cells):
        if c["has_onramp"]:
            q_by_cell[i] = q[pos]
            pos += 1
        else:
            q_by_cell[i] = 0.0
    d_full = {i: d_by_cell.get(i, 0.0) for i in range(len(cells))}
    e = oracle_onramp_inflow(n, q_by_cell, d_full, mu_by_cell, cells)
    o = oracle_mainline_outflow(n, e, cells)
    s = oracle_offramp_outflow(n, e, o, cells)
    first = cells[0]
    admitted = max(
        min(d_main, (first["nbar"] - n[0] - first["alpha"] * e[0]) * first["eta_i"]), 0.0
    )
    n_next = []
    for i in range(len(cells)):
        inflow = admitted if i == 0 else o[i - 1]
        n_next.append(n[i] + inflow + e[i] - o[i] - s[i])
    q_next = []
    for i, c in enumerate(cells):
        if c["has_onramp"]:
            q_next.append(q_by_cell[i] + d_full[i] - e[i])

    cycle_h = params.sample_cycle_s / 3600.0
    tt = cycle_h * (sum(n) + sum(q))
    dist = sum((o[i] + s[i]) * cells[i]["length"] for i in range(len(cells)))
    td_h = dist / (params.free_flow_mps * 3600.0)
    throughput = o[len(cells) - 1] + sum(s.values())
    return {
        "n": n_next,
        "q": q_next,
        "e": [e[i] for i in range(len(cells))],
        "o": [o[i] for i in range(len(cells))],
        "s": [s[i] for i in range(len(cells))],
        "admitted": admitted,
        "tt": tt,
        "td_h": td_h,
        "j": tt - gamma * td_h,
        "throughput": throughput,
    }


def oracle_rollout_cost(params, state, inputs, plan, horizon, gamma):
    """Total cost of a metering plan, recomputed step by step."""
    n = list(state.n)
    q = list(state.q)
    total = 0.0
    for k in range(horizon):
        inp = inputs[k] if k < len(inputs) else inputs[-1]
        mu_row = plan[k] if k < len(plan) else plan[-1]
        mu_by_cell = dict(zip(params.metered_cells, mu_row))
        d_by_cell = dict(zip(params.onramp_cells, inp.ramp_demands))
        out = oracle_step(params, n, q, inp.mainstream_demand, d_by_cell, mu_by_cell, gamma)
        total += out["j"]
        n, q = out["n"], out["q"]
    return total


def oracle_gain_plan(params, state, inputs, mu_prev, theta, horizon):
    """Rates the feedback law ``max(mu_prev + theta * (rho_crit - rho), 0)``
    sets over the horizon, each on the density the oracle step predicts.  A
    state update out of bounds is clamped back into them, so the plan stays
    defined past a step the package model rejects."""
    n = list(state.n)
    q = list(state.q)
    prev = list(mu_prev)
    plan = []
    for k in range(horizon):
        inp = inputs[k] if k < len(inputs) else inputs[-1]
        mu = []
        for j, i in enumerate(params.metered_cells):
            rho = n[i] / (params.cells[i].length * params.lanes)
            mu.append(max(prev[j] + theta[j] * (params.rho_crit - rho), 0.0))
        out = oracle_step(params, n, q, inp.mainstream_demand,
                          dict(zip(params.onramp_cells, inp.ramp_demands)),
                          dict(zip(params.metered_cells, mu)), 0.0)
        n = [min(max(v, 0.0), c.capacity_nbar) for v, c in zip(out["n"], params.cells)]
        q = [max(v, 0.0) for v in out["q"]]
        plan.append(mu)
        prev = mu
    return plan


def central_difference(fun, x, h=1e-6):
    """Central-difference gradient oracle."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (fun(up) - fun(dn)) / (2 * h)
    return g


def grid_search_gain(params, cell_index, n, q, d, o_prev, theta_max=1.0, resolution=1e-4):
    """Brute-force oracle for the isolated-cell gain choice: evaluate the
    expected-density error on a dense gain grid and return the first
    minimizer (ties resolve to the smallest gain)."""
    import numpy as np

    cell = params.cells[cell_index]
    lanes_len = cell.length * params.lanes
    rho = n / lanes_len
    target = params.rho_crit * lanes_len
    best_theta, best_err = 0.0, math.inf
    for theta in np.arange(0.0, theta_max + resolution / 2, resolution):
        mu = max(theta * (params.rho_crit - rho), 0.0)
        e = max(min(q + d, cell.xi * (cell.capacity_nbar - n), mu), 0.0)
        o = (1.0 - cell.split_beta) * (n + cell.blend_alpha * e) * cell.eta_moving
        s = cell.split_beta / (1.0 - cell.split_beta) * o if cell.split_beta < 1 else 0.0
        n_exp = n + o_prev + e - o - s
        err = abs(n_exp - target)
        if err < best_err - 1e-15:
            best_err, best_theta = err, theta
    return best_theta
