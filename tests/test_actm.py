import gc
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from basepar.actm import (
    CellParams,
    ExogenousInput,
    ModelConsistencyError,
    NegativeRateError,
    NetworkParams,
    FlowVector,
    NetworkState,
    TopologyError,
    compute_mainline_outflow,
    compute_offramp_outflow,
    compute_onramp_inflow,
    rollout,
    rollout_batch,
    stage_cost,
    step,
    upstream_inflows,
)
from basepar.scenario import default_scenario

from oracles import oracle_gain_plan, oracle_step


@pytest.fixture
def net():
    return default_scenario().network


@pytest.fixture
def init_state():
    return NetworkState(n=(32.6, 36.2, 5.1, 25.3, 3.9, 0.0), q=(5.5, 9.6, 1.6), step=0)


def demand(d_main=4.0, ramps=(2.0, 0.8, 0.6)):
    return ExogenousInput(d_main, ramps)


class TestOnrampInflow:
    def test_unmetered_hand_value(self, net, init_state):
        e = compute_onramp_inflow(init_state, demand(), None, net)
        # q=5.5, d=2.0 vs 0.4*(80-36.2)=17.52
        assert e[1] == pytest.approx(7.5, abs=1e-9)

    def test_metered_hand_value(self, net, init_state):
        e = compute_onramp_inflow(init_state, demand(), (0.5, 0.2, 0.4), net)
        assert e[1] == pytest.approx(0.5, abs=1e-9)

    def test_empty_ramp(self, net):
        state = NetworkState(n=(0.0,) * 6, q=(0.0, 0.0, 0.0))
        e = compute_onramp_inflow(state, demand(0.0, (0.0, 0.0, 0.0)), None, net)
        assert e == (0.0,) * 6

    def test_no_ramp_cells_zero(self, net, init_state):
        e = compute_onramp_inflow(init_state, demand(), None, net)
        assert e[0] == e[2] == e[5] == 0.0

    def test_metering_dimension_mismatch(self, net, init_state):
        with pytest.raises(TopologyError):
            compute_onramp_inflow(init_state, demand(), (0.5, 0.2), net)

    def test_negative_or_nan_rate_rejected(self, net, init_state):
        # a NaN rate must not read as "unmetered": min(inflow, NaN) keeps the inflow
        for bad in (-0.1, float("nan")):
            with pytest.raises(NegativeRateError):
                compute_onramp_inflow(init_state, demand(), (0.5, bad, 0.4), net)

    def test_monotone_in_metering(self, net, init_state):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mu_hi = rng.uniform(0, 8, size=3)
            mu_lo = mu_hi * rng.uniform(0, 1, size=3)
            e_hi = compute_onramp_inflow(init_state, demand(), tuple(mu_hi), net)
            e_lo = compute_onramp_inflow(init_state, demand(), tuple(mu_lo), net)
            assert all(lo <= hi + 1e-12 for lo, hi in zip(e_lo, e_hi))


class TestMainlineOutflow:
    def test_four_term_hand_value(self, net, init_state):
        e = compute_onramp_inflow(init_state, demand(), (0.5, 0.2, 0.4), net)
        o = compute_mainline_outflow(init_state, e, net)
        # cell 2 terms: 0.65*(36.2+0.3)*0.8=18.98, (80-5.1)*0.3=22.47, 8, 0.65/0.35*6
        assert o[1] == pytest.approx(8.0, abs=1e-9)

    def test_empty_cell(self, net):
        state = NetworkState(n=(0.0,) * 6, q=(0.0,) * 3)
        o = compute_mainline_outflow(state, (0.0,) * 6, net)
        assert o == (0.0,) * 6

    def test_full_downstream_blocks(self, net):
        n = [10.0] * 6
        n[2] = 80.0  # cell 3 saturated
        state = NetworkState(n=tuple(n), q=(0.0,) * 3)
        o = compute_mainline_outflow(state, (0.0,) * 6, net)
        assert o[1] == 0.0


class TestOfframpOutflow:
    def test_proportional_hand_value(self, net, init_state):
        s = compute_offramp_outflow((0.0, 8.0, 0.0, 0.0, 0.0, 0.0), net, init_state, (0.0,) * 6)
        assert s[1] == pytest.approx(0.35 / 0.65 * 8.0, abs=1e-9)

    def test_no_offramp(self, net, init_state):
        s = compute_offramp_outflow((5.0,) * 6, net, init_state, (0.0,) * 6)
        assert s[0] == s[2] == s[5] == 0.0

    def test_split_everything_boundary(self):
        cell = CellParams(
            length=560.0, capacity_nbar=80.0, sat_mainline_obar=8.0,
            sat_offramp_sbar=6.0, split_beta=1.0, eta_moving=0.8, eta_idling=0.3,
            xi=0.4, has_offramp=True, allow_beta_one=True,
        )
        params = NetworkParams(cells=(cell,), sample_cycle_s=20.0, rho_crit=0.0335)
        state = NetworkState(n=(10.0,), q=())
        o = compute_mainline_outflow(state, (0.0,), params)
        s = compute_offramp_outflow(o, params, state, (0.0,))
        assert o[0] == 0.0
        assert s[0] == pytest.approx(min(6.0, 10.0 * 0.8), abs=1e-9)


class TestStep:
    def test_count_update_hand_value(self, net):
        # n1 = 3.8 makes the upstream inflow into cell 2 exactly 3.8 veh.
        state = NetworkState(n=(3.8, 36.2, 5.1, 25.3, 3.9, 0.0), q=(5.5, 9.6, 1.6))
        nxt, flows, _ = step(state, demand(), (0.5, 0.2, 0.4), net)
        assert flows.o[0] == pytest.approx(3.8, abs=1e-9)
        assert nxt.n[1] == pytest.approx(36.2 + 3.8 + 0.5 - 8.0 - 0.35 / 0.65 * 8.0, abs=1e-9)

    def test_queue_update_hand_value(self, net, init_state):
        nxt, _, _ = step(init_state, demand(), (0.5, 0.2, 0.4), net)
        assert nxt.q[0] == pytest.approx(5.5 + 2.0 - 0.5, abs=1e-9)

    def test_all_zero(self, net):
        state = NetworkState(n=(0.0,) * 6, q=(0.0,) * 3)
        nxt, flows, cost = step(state, demand(0.0, (0.0, 0.0, 0.0)), None, net)
        assert nxt.n == (0.0,) * 6 and nxt.q == (0.0,) * 3
        assert flows.o == (0.0,) * 6 and cost.j == 0.0

    def test_update_consistency(self, net, init_state):
        nxt, flows, _ = step(init_state, demand(), (0.5, 0.2, 0.4), net)
        for i in range(1, 6):
            expected = init_state.n[i] + flows.o[i - 1] + flows.e[i] - flows.o[i] - flows.s[i]
            assert nxt.n[i] == pytest.approx(expected, abs=1e-12)
        assert nxt.n[0] == pytest.approx(
            init_state.n[0] + flows.mainstream_in - flows.o[0], abs=1e-12
        )

    def test_deterministic(self, net, init_state):
        a = step(init_state, demand(), (0.5, 0.2, 0.4), net)
        b = step(init_state, demand(), (0.5, 0.2, 0.4), net)
        assert a[0] == b[0] and a[1] == b[1]

    def test_stage_order_is_the_only_coupling(self, net):
        # e for all cells, then o, then s: iterating the cells in reverse
        # inside each stage must not change anything
        rng = np.random.default_rng(19)
        for _ in range(30):
            state = NetworkState(
                n=tuple(rng.uniform(0, 80, size=6)), q=tuple(rng.uniform(0, 20, size=3))
            )
            inp = ExogenousInput(rng.uniform(0, 8), tuple(rng.uniform(0, 3, size=3)))
            mu = tuple(rng.uniform(0, 8, size=3))
            e = compute_onramp_inflow(state, inp, mu, net)
            o = compute_mainline_outflow(state, e, net)
            s = compute_offramp_outflow(o, net, state, e)

            order = list(range(6))[::-1]
            e_rev = [None] * 6
            for i in order:
                e_rev[i] = compute_onramp_inflow(state, inp, mu, net)[i]
            o_rev = [None] * 6
            for i in order:
                o_rev[i] = compute_mainline_outflow(state, tuple(e_rev), net)[i]
            s_rev = [None] * 6
            for i in order:
                s_rev[i] = compute_offramp_outflow(tuple(o_rev), net, state, tuple(e_rev))[i]
            assert tuple(e_rev) == e and tuple(o_rev) == o and tuple(s_rev) == s

    def test_matches_oracle_on_random_states(self, net):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = tuple(rng.uniform(0, 80, size=6))
            q = tuple(rng.uniform(0, 20, size=3))
            state = NetworkState(n=n, q=q)
            d_main = rng.uniform(0, 8)
            ramps = tuple(rng.uniform(0, 3, size=3))
            mu = tuple(rng.uniform(0, 8, size=3))
            nxt, flows, cost = step(state, ExogenousInput(d_main, ramps), mu, net, 0.8)
            ref = oracle_step(
                net, list(n), list(q), d_main,
                dict(zip(net.onramp_cells, ramps)),
                dict(zip(net.metered_cells, mu)), 0.8,
            )
            assert flows.e == pytest.approx(ref["e"], abs=1e-9)
            assert flows.o == pytest.approx(ref["o"], abs=1e-9)
            assert flows.s == pytest.approx(ref["s"], abs=1e-9)
            assert flows.mainstream_in == pytest.approx(ref["admitted"], abs=1e-9)
            assert nxt.n == pytest.approx(ref["n"], abs=1e-9)
            assert nxt.q == pytest.approx(ref["q"], abs=1e-9)
            assert cost.j == pytest.approx(ref["j"], abs=1e-12)

    def test_clamping_invariants_random_run(self, net):
        rng = np.random.default_rng(11)
        state = NetworkState(n=(32.6, 36.2, 5.1, 25.3, 3.9, 0.0), q=(5.5, 9.6, 1.6))
        for _ in range(180):
            inp = ExogenousInput(rng.uniform(0, 8), tuple(rng.uniform(0, 3, size=3)))
            mu = tuple(rng.uniform(0, 8, size=3))
            state, flows, _ = step(state, inp, mu, net)
            for i, cell in enumerate(net.cells):
                assert 0.0 <= flows.o[i] <= cell.sat_mainline_obar + 1e-12
                assert 0.0 <= flows.s[i] <= cell.sat_offramp_sbar + 1e-12
                assert 0.0 <= state.n[i] <= cell.capacity_nbar + 1e-12
            assert all(qv >= 0.0 for qv in state.q)

    def test_conservation_random_run(self, net):
        rng = np.random.default_rng(13)
        state = NetworkState(n=(32.6, 36.2, 5.1, 25.3, 3.9, 0.0), q=(5.5, 9.6, 1.6))
        initial = sum(state.n) + sum(state.q)
        entered = exited = 0.0
        steps = 180
        for _ in range(steps):
            inp = ExogenousInput(rng.uniform(0, 8), tuple(rng.uniform(0, 3, size=3)))
            mu = tuple(rng.uniform(0, 8, size=3))
            state, flows, _ = step(state, inp, mu, net)
            entered += flows.mainstream_in + sum(inp.ramp_demands)
            exited += flows.o[-1] + sum(flows.s)
        final = sum(state.n) + sum(state.q)
        assert abs(initial + entered - exited - final) < 1e-9 * steps

    def test_inconsistent_flows_raise(self):
        # xi + eta_i chosen so the receiving terms over-admit: the update must
        # be detected as leaving the admissible region.
        cell = CellParams(
            length=100.0, capacity_nbar=10.0, sat_mainline_obar=100.0,
            sat_offramp_sbar=0.0, eta_moving=0.0, eta_idling=1.0, xi=1.0,
            has_onramp=True, metered=False,
        )
        params = NetworkParams(cells=(cell,), sample_cycle_s=20.0, rho_crit=0.0335)
        state = NetworkState(n=(9.0,), q=(5.0,))
        with pytest.raises(ModelConsistencyError):
            step(state, ExogenousInput(20.0, (5.0,)), None, params)


class TestRollout:
    def test_horizon_one_equals_step(self, net, init_state):
        plan = [(0.5, 0.2, 0.4)]
        res = rollout(init_state, [demand()], plan, net, 1)
        nxt, flows, cost = step(init_state, demand(), plan[0], net)
        assert res.states[-1] == nxt
        assert res.costs[0] == cost
        assert res.total_cost == cost.j

    def test_cost_additivity(self, net, init_state):
        plan = [(0.5, 0.2, 0.4), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)]
        res = rollout(init_state, [demand()], plan, net, 3)
        assert res.total_cost == pytest.approx(sum(c.j for c in res.costs), abs=1e-15)
        assert len(res.states) == 4 and len(res.costs) == 3

    def test_zero_demand_empty_network(self, net):
        state = NetworkState(n=(0.0,) * 6, q=(0.0,) * 3)
        res = rollout(state, [demand(0.0, (0.0, 0.0, 0.0))], None, net, 5)
        assert res.total_cost == 0.0

    def test_short_plan_holds_last(self, net, init_state):
        short = rollout(init_state, [demand()], [(0.5, 0.2, 0.4)], net, 3)
        full = rollout(init_state, [demand()], [(0.5, 0.2, 0.4)] * 3, net, 3)
        assert short.states[-1] == full.states[-1]


class TestDensityAndCost:
    def test_travel_time_hand_value(self, net):
        # occupancy 90 veh over a 20 s cycle -> 0.5 veh-hours
        state = NetworkState(n=(30.0, 30.0, 10.0, 5.0, 5.0, 0.0), q=(5.0, 3.0, 2.0))
        assert sum(state.n) + sum(state.q) == pytest.approx(90.0)
        from basepar.actm import FlowVector

        flows = FlowVector(e=(0.0,) * 6, o=(0.0,) * 6, s=(0.0,) * 6, mainstream_in=0.0)
        cost = stage_cost(flows, state, net, 0.8)
        assert cost.tt == pytest.approx(0.5, abs=1e-12)

    def test_gamma_zero_reduces_to_travel_time(self, net, init_state):
        _, flows, _ = step(init_state, demand(), None, net)
        cost = stage_cost(flows, init_state, net, 0.0)
        assert cost.j == cost.tt

    def test_empty_network_zero_cost(self, net):
        from basepar.actm import FlowVector

        state = NetworkState(n=(0.0,) * 6, q=(0.0,) * 3)
        flows = FlowVector(e=(0.0,) * 6, o=(0.0,) * 6, s=(0.0,) * 6, mainstream_in=0.0)
        cost = stage_cost(flows, state, net, 0.8)
        assert cost.tt == cost.td_h == cost.j == 0.0


class TestUpstreamInflows:
    def test_first_cell_reads_the_admitted_inflow(self, net):
        flows = FlowVector(e=(0.0,) * 6, o=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                           s=(0.0,) * 6, mainstream_in=9.0)
        # the shipped case meters cells 1, 3 and 4 (0-based): each reads the
        # outflow of the cell before it
        assert net.metered_cells == (1, 3, 4)
        assert upstream_inflows(flows, net) == (1.0, 3.0, 4.0)
        cells = list(net.cells)
        cells[0] = replace(cells[0], has_onramp=True, metered=True)
        first_metered = replace(net, cells=tuple(cells))
        assert upstream_inflows(flows, first_metered)[0] == 9.0


class TestValidation:
    def test_metered_requires_onramp(self):
        with pytest.raises(ValueError):
            CellParams(
                length=560.0, capacity_nbar=80.0, sat_mainline_obar=8.0,
                sat_offramp_sbar=6.0, metered=True,
            )

    def test_beta_one_requires_flag(self):
        with pytest.raises(ValueError):
            CellParams(
                length=560.0, capacity_nbar=80.0, sat_mainline_obar=8.0,
                sat_offramp_sbar=6.0, split_beta=1.0, has_offramp=True,
            )

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            CellParams(
                length=560.0, capacity_nbar=80.0, sat_mainline_obar=8.0,
                sat_offramp_sbar=6.0, xi=1.5,
            )

    @pytest.mark.parametrize(
        "name", ["length", "capacity_nbar", "sat_mainline_obar", "sat_offramp_sbar"]
    )
    def test_nan_parameter_rejected(self, name):
        values = dict(length=560.0, capacity_nbar=80.0, sat_mainline_obar=8.0,
                      sat_offramp_sbar=6.0)
        values[name] = math.nan
        with pytest.raises(ValueError):
            CellParams(**values)

    def test_infinite_capacity_rejected(self):
        # the batched kernel takes the vacant-capacity and receiving terms as
        # numbers, which an infinite capacity would make inf or NaN
        with pytest.raises(ValueError):
            CellParams(length=560.0, capacity_nbar=math.inf, sat_mainline_obar=8.0,
                       sat_offramp_sbar=6.0)

    def test_state_topology(self, net):
        with pytest.raises(TopologyError):
            NetworkState(n=(0.0,) * 5, q=(0.0,) * 3).validate(net)

    @pytest.mark.parametrize("where", ["n", "q"])
    def test_nan_state_rejected(self, net, where):
        n, q = [1.0] * 6, [1.0] * 3
        (n if where == "n" else q)[1] = math.nan
        with pytest.raises(ValueError):
            NetworkState(n=tuple(n), q=tuple(q)).validate(net)

    @pytest.mark.parametrize("mainstream, ramps", [
        (math.nan, (1.0, 1.0, 1.0)), (1.0, (1.0, math.nan, 1.0)), (-1.0, (1.0, 1.0, 1.0)),
    ])
    def test_nan_or_negative_demand_rejected(self, mainstream, ramps):
        with pytest.raises(ValueError):
            ExogenousInput(mainstream, ramps)

    @pytest.mark.parametrize("name", ["sample_cycle_s", "rho_crit", "free_flow_mps"])
    def test_nan_network_constant_rejected(self, net, name):
        values = dict(cells=net.cells, sample_cycle_s=20.0, rho_crit=0.0335, free_flow_mps=28.0)
        values[name] = math.nan
        with pytest.raises(ValueError):
            NetworkParams(**values)


class TestSwappedOperandRule:
    """``np.minimum(b, a)`` and ``np.maximum(b, a)`` equal Python's ``min(a,
    b)`` and ``max(a, b)`` byte for byte whenever ``b`` is not NaN: numpy
    returns its second operand on ties (so ``-0.0`` and ``0.0`` come out as
    Python picks them) and propagates a NaN in ``a``.  ``rollout_batch``
    relies on this wherever :func:`step` takes a ``min``/``max`` against a
    constant; a numpy release that breaks ties differently fails here."""

    A = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan)
    B = A[:-1]
    RULES = [(np.minimum, min), (np.maximum, max)]

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=float).tobytes()

    @pytest.mark.parametrize("ufunc, builtin", RULES)
    def test_array_array(self, ufunc, builtin):
        # repeated so the vectorized inner loops run, not only their tails
        pairs = list(itertools.product(self.A, self.B)) * 5
        a = np.array([x for x, _ in pairs])
        b = np.array([y for _, y in pairs])
        want = self.bits([builtin(x, y) for x, y in pairs])
        assert ufunc(b, a).tobytes() == want
        out = a.copy()
        ufunc(b, out, out=out)
        assert out.tobytes() == want
        # strided columns, as the kernel's cell slices are
        wide_a, wide_b = np.repeat(a[:, None], 3, axis=1), np.repeat(b[:, None], 3, axis=1)
        assert ufunc(wide_b[:, 1], wide_a[:, 1]).tobytes() == want

    @pytest.mark.parametrize("ufunc, builtin", RULES)
    def test_array_scalar(self, ufunc, builtin):
        a = np.array(self.A * 5)
        for y in self.B:
            want = self.bits([builtin(x, y) for x in a.tolist()])
            assert ufunc(y, a).tobytes() == want
            assert ufunc(np.float64(y), a).tobytes() == want

    @pytest.mark.parametrize("ufunc, builtin", RULES)
    def test_broadcast_2d(self, ufunc, builtin):
        # a per-cell constant row against a [rows, cells] matrix
        rows = np.array(list(itertools.product(self.A, repeat=2)))
        a = np.repeat(rows, 3, axis=1)              # [49, 6]
        b = np.array(self.B)                        # [6]
        want = self.bits([[builtin(x, y) for x, y in zip(row, self.B)] for row in a.tolist()])
        assert ufunc(b, a).tobytes() == want
        assert ufunc(b[None, :], a).tobytes() == want
        out = a.copy()
        ufunc(b, out, out=out)
        assert out.tobytes() == want


def test_rollout_batch_keeps_nothing_per_batch_size(net, init_state):
    # one call per batch size, 200 sizes, of mixed kinds and horizons: what
    # the kernel allocates goes with the call, so traced memory comes back
    inputs = (demand(),)
    rng = np.random.default_rng(5)

    def call(rows):
        flags = np.arange(rows) % 3 == 0
        rollout_batch(init_state, inputs, net, 10, 0.8,
                      plans=rng.uniform(0.0, 8.0, size=(rows, 10, 3)),
                      gains=rng.uniform(0.0, 1.0, size=(rows, 3)), mu_prev=(0.5, 0.2, 0.4),
                      gain_rows=flags, horizons=np.where(np.arange(rows) % 2 == 0, 10, 3))

    call(7)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for rows in range(1, 201):
            call(rows)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= 256 * 1024


@pytest.mark.parametrize("gain_rows", [None, [True, True, False], [True, False, True]])
def test_a_nan_rate_leaves_the_other_ramps_derived_rates(net, init_state, gain_rows):
    # a NaN previous rate makes its ramp's derived rates NaN, which the cap
    # ignores as step does, so the other ramps' rates are derived from a
    # state that stays a number: byte for byte the oracle's, whether every
    # row derives its rates or only some, side by side or apart
    gains = np.array([[0.3, 0.5, 0.2], [0.0, 1.0, 0.7], [0.2, 0.2, 0.2]])
    mu_prev = (math.nan, 0.5, 0.4)
    inputs = (demand(),)
    kinds = {} if gain_rows is None else dict(plans=np.full((3, 6, 3), 2.0),
                                              gain_rows=np.array(gain_rows))
    costs, plans = rollout_batch(init_state, inputs, net, 6, 0.8, gains=gains,
                                 mu_prev=mu_prev, **kinds)
    flags = [True] * 3 if gain_rows is None else gain_rows
    for theta, plan, cost, derived in zip(gains, plans, costs, flags):
        if derived:
            assert cost == math.inf
            want = oracle_gain_plan(net, init_state, inputs, mu_prev, theta, 6)
            assert plan.tobytes() == np.array(want).tobytes()
        else:
            assert math.isfinite(cost)


def test_a_rows_cost_ignores_its_plan_past_its_horizon(net, init_state):
    # rows of horizon 3 share a call of horizon 10 with rows of horizon 10;
    # every row is rolled over the call's horizon, and a plan padded with
    # NaN, a negative rate or a huge one past step 3 still costs exactly
    # its first 3 steps, warning about nothing
    inputs = (demand(), demand(5.0, (1.5, 1.0, 0.4)))
    mu_prev = (3.0, 2.5, 1.0)
    rng = np.random.default_rng(41)
    pads = (math.nan, -1.0, 1e300)
    plans = rng.uniform(0.0, 8.0, size=(8, 10, 3))
    for b, pad in enumerate(pads):
        plans[b, 3:] = pad
        plans[3 + b, 3:] = pad  # gain rows: their rates are derived anyway
    gains = rng.uniform(0.0, 60.0, size=(8, 3))
    flags = np.array([False, False, False, True, True, True, False, True])
    horizons = np.array([3, 3, 3, 3, 3, 3, 10, 10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        costs, rolled = rollout_batch(init_state, inputs, net, 10, 0.8, plans=plans,
                                      gains=gains, mu_prev=mu_prev, gain_rows=flags,
                                      horizons=horizons)
    for b, (derived, end) in enumerate(zip(flags, horizons)):
        if derived:
            plan = oracle_gain_plan(net, init_state, inputs, mu_prev, gains[b], end)
            assert rolled[b, :end].tobytes() == np.array(plan).tobytes()
        else:
            plan = plans[b, :end].tolist()
            assert rolled[b].tobytes() == plans[b].tobytes()
        want = rollout(init_state, inputs, plan, net, int(end)).total_cost
        assert np.float64(want).tobytes() == costs[b].tobytes()


def test_a_callable_gains_rolls_one_row_alone(net, init_state):
    # a gain source sets the gains of one row of its own: next to plans or
    # gain rows there would be rows it does not set
    inputs = (demand(),)
    mu_prev = (0.5, 0.2, 0.4)

    def source(*_):
        return (0.016,) * 3

    for kinds in (dict(plans=np.ones((1, 3, 3))), dict(gain_rows=np.array([True])),
                  dict(plans=np.ones((1, 3, 3)), gain_rows=np.array([True]))):
        with pytest.raises(ValueError, match="callable gains"):
            rollout_batch(init_state, inputs, net, 3, 0.8, gains=source, mu_prev=mu_prev,
                          **kinds)
    costs, plans = rollout_batch(init_state, inputs, net, 3, 0.8, gains=source, mu_prev=mu_prev)
    assert costs.shape == (1,) and plans.shape == (1, 3, 3)
    with pytest.raises(TopologyError):
        rollout_batch(init_state, inputs, net, 3, 0.8, gains=lambda *_: (0.016,) * 2,
                      mu_prev=mu_prev)
