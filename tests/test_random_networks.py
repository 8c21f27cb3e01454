"""Property sweeps over randomly generated network topologies.

The rest of the suite leans on the shipped six-cell stretch; these tests
draw arbitrary topologies (cell counts, ramp placement, parameters) and
assert the model-level guarantees hold everywhere.  Parameters are drawn
inside the consistency envelope ``eta_idling + xi <= 1``, under which the
receiving term plus the ramp-supply share can never overfill a cell.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from basepar.actm import (
    CellParams,
    ExogenousInput,
    ModelConsistencyError,
    NegativeRateError,
    NetworkParams,
    NetworkState,
    TopologyError,
    rollout_batch,
    step,
)
from basepar.base_controllers import (
    FeedbackController,
    MlpParams,
    network_gains,
    warm_start_rollout,
)
from basepar.orchestrator import (
    ArchitectureConfig,
    BaseParallelController,
    ParallelCell,
)
from basepar.parallel import (
    CONVENTIONAL,
    PARAMETERIZED,
    MpcProblem,
    StepContext,
    objective,
    solve_budgeted,
)

from oracles import oracle_gain_plan, oracle_rollout_cost
from scalar_reference import rollout as scalar_rollout
from scalar_reference import scalar_gain_rollout
from scalar_reference import step as scalar_step
from shipped import optimizer


def random_network(rng, allow_beta_one=False):
    n_cells = int(rng.integers(1, 9))
    cells = []
    for i in range(n_cells):
        has_onramp = bool(rng.random() < 0.5)
        has_offramp = bool(rng.random() < 0.5)
        eta_idling = float(rng.uniform(0.1, 0.6))
        xi = float(rng.uniform(0.1, 1.0 - eta_idling))  # consistency envelope
        beta = 0.0
        if has_offramp:
            if allow_beta_one and rng.random() < 0.1:
                beta = 1.0
            else:
                beta = float(rng.uniform(0.05, 0.9))
        cells.append(CellParams(
            length=float(rng.uniform(200.0, 1200.0)),
            capacity_nbar=float(rng.uniform(30.0, 120.0)),
            sat_mainline_obar=float(rng.uniform(2.0, 12.0)),
            sat_offramp_sbar=float(rng.uniform(1.0, 8.0)),
            split_beta=beta,
            blend_alpha=float(rng.uniform(0.0, 1.0)) if has_onramp else 0.0,
            eta_moving=float(rng.uniform(0.2, 1.0)),
            eta_idling=eta_idling,
            xi=xi,
            has_onramp=has_onramp,
            has_offramp=has_offramp,
            metered=has_onramp and bool(rng.random() < 0.7),
            allow_beta_one=beta == 1.0,
        ))
    return NetworkParams(
        cells=tuple(cells),
        sample_cycle_s=float(rng.uniform(5.0, 60.0)),
        rho_crit=float(rng.uniform(0.01, 0.08)),
        lanes=int(rng.integers(1, 4)),
        free_flow_mps=float(rng.uniform(15.0, 35.0)),
    )


def random_state(rng, net):
    return NetworkState(
        n=tuple(float(rng.uniform(0, c.capacity_nbar)) for c in net.cells),
        q=tuple(float(rng.uniform(0, 25)) for _ in net.onramp_cells),
    )


def random_input(rng, net):
    return ExogenousInput(
        float(rng.uniform(0, 15)),
        tuple(float(rng.uniform(0, 5)) for _ in net.onramp_cells),
    )


def random_metering(rng, net):
    return tuple(float(rng.uniform(0, 10)) for _ in net.metered_cells)


def overfilling(net):
    """The same topology outside the consistency envelope: the ramp share
    plus the receiving term can overfill a cell, so rollouts can fail."""
    cells = tuple(
        replace(c, xi=1.0, eta_idling=1.0, blend_alpha=0.0, sat_mainline_obar=40.0)
        for c in net.cells
    )
    return replace(net, cells=cells)


class TestRandomTopologies:
    def test_conservation_and_clamping_everywhere(self):
        rng = np.random.default_rng(211)
        for _ in range(30):
            net = random_network(rng, allow_beta_one=True)
            state = random_state(rng, net)
            entered = exited = 0.0
            start_total = sum(state.n) + sum(state.q)
            for _ in range(40):
                inp = random_input(rng, net)
                mu = random_metering(rng, net)
                state, flows, cost = step(state, inp, mu, net)
                entered += flows.mainstream_in + sum(inp.ramp_demands)
                exited += flows.o[-1] + sum(flows.s)
                for i, cell in enumerate(net.cells):
                    assert 0.0 <= flows.o[i] <= cell.sat_mainline_obar + 1e-12
                    assert 0.0 <= flows.s[i] <= cell.sat_offramp_sbar + 1e-12
                    assert 0.0 <= state.n[i] <= cell.capacity_nbar + 1e-12
                assert all(q >= 0.0 for q in state.q)
                assert cost.tt >= 0.0 and cost.td_h >= 0.0 and cost.throughput >= 0.0
            final_total = sum(state.n) + sum(state.q)
            assert abs(start_total + entered - exited - final_total) < 1e-9 * 40

    def test_single_cell_network(self):
        cell = CellParams(
            length=400.0, capacity_nbar=40.0, sat_mainline_obar=6.0,
            sat_offramp_sbar=3.0, split_beta=0.3, blend_alpha=0.5,
            eta_moving=0.7, eta_idling=0.3, xi=0.5,
            has_onramp=True, has_offramp=True, metered=True,
        )
        net = NetworkParams(cells=(cell,), sample_cycle_s=20.0, rho_crit=0.03)
        state = NetworkState(n=(20.0,), q=(4.0,))
        nxt, flows, _ = step(state, ExogenousInput(5.0, (2.0,)), (1.0,), net)
        # last (and only) cell discharges freely but still splits to its ramp
        assert flows.o[0] > 0.0 and flows.s[0] > 0.0
        assert 0.0 <= nxt.n[0] <= 40.0

    def test_no_ramps_pipeline(self):
        rng = np.random.default_rng(223)
        cells = tuple(
            CellParams(length=500.0, capacity_nbar=60.0, sat_mainline_obar=8.0,
                       sat_offramp_sbar=0.0, eta_moving=1.0, eta_idling=0.3, xi=0.4)
            for _ in range(4)
        )
        net = NetworkParams(cells=cells, sample_cycle_s=20.0, rho_crit=0.0335)
        state = NetworkState(n=(30.0, 20.0, 10.0, 5.0), q=())
        total_in = 0.0
        total_out = 0.0
        for _ in range(25):
            inp = ExogenousInput(float(rng.uniform(0, 10)), ())
            state, flows, _ = step(state, inp, None, net)
            assert flows.e == (0.0,) * 4 and flows.s == (0.0,) * 4
            total_in += flows.mainstream_in
            total_out += flows.o[-1]
        assert abs(30 + 20 + 10 + 5 + total_in - total_out - sum(state.n)) < 1e-9 * 25

    def test_objective_matches_oracle_on_random_networks(self):
        rng = np.random.default_rng(227)
        checked = 0
        while checked < 10:
            net = random_network(rng)
            if not net.metered_cells:
                continue
            horizon = int(rng.integers(1, 5))
            nr = len(net.metered_cells)
            problem = MpcProblem(label="R", kind=CONVENTIONAL, horizon=horizon,
                                 bounds_lo=(0.0,) * (nr * horizon),
                                 bounds_hi=(10.0,) * (nr * horizon))
            context = StepContext(
                params=net, initial_state=random_state(rng, net),
                demand_forecast=(random_input(rng, net),),
                mu_prev=tuple(rng.uniform(0, 2, size=nr)), gamma=0.8,
            )
            x = rng.uniform(0, 10, size=problem.decision_dim)
            plan = [tuple(float(v) for v in row) for row in x.reshape(horizon, nr)]
            want = oracle_rollout_cost(
                net, context.initial_state, context.demand_forecast, plan, horizon, 0.8
            )
            assert objective(problem, context, x) == pytest.approx(want, abs=1e-9)
            checked += 1

    def test_solver_dominance_on_random_networks(self):
        rng = np.random.default_rng(229)
        checked = 0
        while checked < 6:
            net = random_network(rng)
            if not net.metered_cells:
                continue
            nr = len(net.metered_cells)
            problem = MpcProblem(label="R", kind=CONVENTIONAL, horizon=2,
                                 bounds_lo=(0.0,) * (nr * 2), bounds_hi=(10.0,) * (nr * 2))
            context = StepContext(
                params=net, initial_state=random_state(rng, net),
                demand_forecast=(random_input(rng, net),),
                mu_prev=tuple(rng.uniform(0, 2, size=nr)), gamma=0.8,
            )
            starts = [rng.uniform(0, 10, size=problem.decision_dim) for _ in range(3)]
            result = solve_budgeted(
                problem, context, starts, optimizer(budget_s=None, max_iterations=12)
            )
            for s in starts:
                assert result.best.cost <= objective(problem, context, s) + 1e-12
            checked += 1

    def test_architecture_on_random_network(self):
        rng = np.random.default_rng(233)
        attempts = 0
        while True:
            net = random_network(rng)
            attempts += 1
            if net.metered_cells:
                break
            assert attempts < 100
        nr = len(net.metered_cells)
        base = FeedbackController((0.02,) * nr, "ALINEA")
        config = ArchitectureConfig(
            params=net,
            cells=[ParallelCell(
                base=base,
                controllers=(MpcProblem("CMPC(1)", CONVENTIONAL, 2,
                                        (0.0,) * (nr * 2), (10.0,) * (nr * 2)),),
            )],
            evaluation_horizon=2,
            gamma=0.8,
            optimizer=optimizer(budget_s=None, max_iterations=6),
        )
        arch = BaseParallelController(config, mu_init=(0.5,) * nr)
        state = random_state(rng, net)
        measured = random_input(rng, net)
        o_prev = tuple(0.5 for _ in range(nr))
        record, evaluation = arch.control_step(state, measured, o_prev)
        recomputed = [
            oracle_rollout_cost(net, state, (measured,), list(c.metering), 2, 0.8)
            for c in evaluation.candidates
        ]
        assert evaluation.costs == pytest.approx(recomputed, abs=1e-9)
        assert evaluation.costs[evaluation.winner_index] == min(evaluation.costs)
        assert record.applied == evaluation.candidates[evaluation.winner_index].metering[0]

    def test_warm_start_rollout_on_random_networks(self):
        rng = np.random.default_rng(239)
        checked = 0
        while checked < 6:
            net = random_network(rng)
            if not net.metered_cells:
                continue
            nr = len(net.metered_cells)
            base = FeedbackController((0.02,) * nr, "ALINEA")
            horizon = int(rng.integers(1, 7))
            warm = warm_start_rollout(
                [base], (0.3,) * nr, random_state(rng, net), (random_input(rng, net),),
                [horizon], net, (0.5,) * nr,
            )[0]
            assert len(warm.mu) == horizon
            assert len(warm.theta) == horizon
            assert all(all(m >= 0.0 for m in row) for row in warm.mu)
            checked += 1

    def test_merged_warm_starts_equal_one_row_calls(self):
        # constant gains (ALINEA, hold) and two gain networks, rolled in one
        # call over lengths of their own: each warm start equals its base's
        # one-row call byte for byte, and a base that sets a NaN gain raises
        # its own call's error, naming it
        rng = np.random.default_rng(283)
        checked = 0
        while checked < 12:
            net = random_network(rng)
            if not net.metered_cells:
                continue
            nr = len(net.metered_cells)
            theta = tuple(rng.uniform(0.0, 0.05, size=nr).tolist())
            nets = {
                i: MlpParams(
                    hidden_weights=tuple(tuple(rng.normal(0.0, 2.0, size=4)) for _ in range(3)),
                    hidden_bias=tuple(rng.normal(0.0, 1.0, size=3)),
                    output_weights=tuple(rng.normal(0.0, 0.01, size=3)),
                    output_bias=float(rng.uniform(0.0, 0.04)),
                    input_lo=(0.0,) * 4, input_hi=(120.0, 25.0, 5.0, 12.0),
                )
                for i in net.metered_cells
            }
            bases = [
                FeedbackController(theta, "ALINEA"),
                FeedbackController(network_gains(net, nets, (0.0, 0.05)), "ANN"),
                FeedbackController((0.0,) * nr, "hold"),
                FeedbackController(network_gains(net, nets, (0.01, 0.03)), "ANN narrow"),
            ]
            lengths = [int(h) for h in rng.integers(1, 11, size=len(bases))]
            mu_prev = tuple(rng.uniform(0.0, 3.0, size=nr).tolist())
            o_prev = tuple(rng.uniform(0.0, 8.0, size=nr).tolist())
            state, forecast = random_state(rng, net), (random_input(rng, net),)
            merged = warm_start_rollout(bases, mu_prev, state, forecast, lengths, net, o_prev)
            for base, length, got in zip(bases, lengths, merged):
                want = warm_start_rollout([base], mu_prev, state, forecast, [length], net,
                                          o_prev)[0]
                assert len(got.mu) == len(got.theta) == len(got.running_cost) - 1 == length
                for name in ("mu", "theta", "running_cost"):
                    assert (np.array(getattr(got, name)).tobytes()
                            == np.array(getattr(want, name)).tobytes())
                assert (np.float64(got.total_cost).tobytes()
                        == np.float64(want.total_cost).tobytes())
            nan = FeedbackController((math.nan,) * nr, "NaN")
            with pytest.raises(NegativeRateError, match="NaN set") as alone:
                warm_start_rollout([nan], mu_prev, state, forecast, [3], net, o_prev)
            with pytest.raises(NegativeRateError) as together:
                warm_start_rollout([bases[0], nan, bases[1]], mu_prev, state, forecast,
                                   [2, 3, 4], net, o_prev)
            assert str(together.value) == str(alone.value)
            checked += 1

    def test_warm_start_raises_where_the_scalar_loop_raises(self):
        # on overfilling networks a rollout can leave the admissible states:
        # a warm start raises ModelConsistencyError where the scalar loop
        # does, and otherwise gives the loop's rates and cost byte for byte
        rng = np.random.default_rng(271)
        raised = finished = 0
        for trial in range(80):
            net = random_network(rng)
            if not net.metered_cells:
                continue
            net = overfilling(net)
            nr = len(net.metered_cells)
            theta = tuple(rng.uniform(0.0, 2.0, size=nr).tolist())
            mu_prev = tuple(rng.uniform(0.0, 5.0, size=nr).tolist())
            state, forecast = random_state(rng, net), (random_input(rng, net),)
            horizon = int(rng.integers(1, 11))
            base = FeedbackController(theta, "R")
            try:
                rates, _, cost = scalar_gain_rollout(net, base.gains, mu_prev, state, forecast,
                                                     horizon, ())
            except ModelConsistencyError:
                with pytest.raises(ModelConsistencyError):
                    warm_start_rollout([base], mu_prev, state, forecast, [horizon], net, ())[0]
                raised += 1
                continue
            warm = warm_start_rollout([base], mu_prev, state, forecast, [horizon], net, ())[0]
            assert np.array(warm.mu).tobytes() == np.array(rates).tobytes()
            assert np.float64(warm.total_cost).tobytes() == np.float64(cost).tobytes()
            finished += 1
        assert raised >= 10 and finished >= 10, (raised, finished)


class TestStepIsTheReferenceStep:
    """``actm.step``, one kernel row, against the scalar reference step,
    compared byte for byte so that the sign of a zero counts too."""

    @staticmethod
    def bits(result):
        state, flows, cost = result
        values = (state.n, state.q, flows.e, flows.o, flows.s, flows.mainstream_in,
                  cost.tt, cost.td_h, cost.j, cost.throughput)
        return [np.array(v, dtype=float).tobytes() for v in values]

    def test_step_equals_the_reference_step_byte_for_byte(self):
        rng = np.random.default_rng(277)
        compared = raised = unmetered = split_all = 0
        for trial in range(300):
            net = random_network(rng, allow_beta_one=True)
            if trial % 3 == 0:
                net = overfilling(net)
            state, inp = random_state(rng, net), random_input(rng, net)
            mu = None if trial % 4 == 0 else random_metering(rng, net)
            try:
                want = scalar_step(state, inp, mu, net)
            except ModelConsistencyError:
                with pytest.raises(ModelConsistencyError):
                    step(state, inp, mu, net)
                raised += 1
                continue
            assert self.bits(step(state, inp, mu, net)) == self.bits(want)
            compared += 1
            unmetered += mu is None
            split_all += any(c.split_beta == 1.0 for c in net.cells)
        assert compared >= 150 and raised >= 10 and unmetered >= 30 and split_all >= 10, (
            compared, raised, unmetered, split_all)

    @pytest.mark.parametrize("bad", [math.nan, -0.5])
    def test_a_nan_or_negative_rate_raises_as_in_the_reference(self, bad):
        rng = np.random.default_rng(281)
        net = random_network(rng)
        while not net.metered_cells:
            net = random_network(rng)
        state, inp = random_state(rng, net), random_input(rng, net)
        mu = random_metering(rng, net)[:-1] + (bad,)
        for model in (scalar_step, step):
            with pytest.raises(NegativeRateError):
                model(state, inp, mu, net)


class TestBatchedRollout:
    """``rollout_batch`` against the scalar model and feedback law, compared
    byte for byte so that the sign of a zero counts too."""

    def gain_rollout(self, problem, context, theta):
        """The scalar rollout of the constant gains ``theta``: rates, gains
        and cost."""
        gains = tuple(float(t) for t in theta)
        return scalar_gain_rollout(context.params, gains, context.mu_prev,
                                   context.initial_state, context.demand_forecast,
                                   problem.horizon, (), context.gamma)

    def scalar(self, problem, context, x):
        """The scalar model's cost of decision ``x``, clipped into the
        bounds, and the exception it raises, if any, with cost +inf."""
        x = np.clip(x, problem.bounds_lo, problem.bounds_hi)
        try:
            if problem.kind == CONVENTIONAL:
                cost = scalar_rollout(context.initial_state, context.demand_forecast,
                               x.reshape(problem.horizon, -1).tolist(), context.params,
                               problem.horizon, context.gamma).total_cost
            else:
                cost = self.gain_rollout(problem, context, x)[2]
        except (ModelConsistencyError, NegativeRateError) as exc:
            return math.inf, type(exc)
        return cost, None

    def scalar_cost(self, problem, context, x):
        return self.scalar(problem, context, x)[0]

    def scalar_failure(self, problem, context, x):
        return self.scalar(problem, context, x)[1]

    def assert_gain_plan(self, problem, context, theta, plan):
        """The rates ``rollout_batch`` derived for gains ``theta``, byte for
        byte: against the scalar path where it completes, and against the
        clamping oracle everywhere, rows that fail included."""
        want = oracle_gain_plan(context.params, context.initial_state,
                                context.demand_forecast, context.mu_prev, theta,
                                problem.horizon)
        assert plan.tobytes() == np.array(want, dtype=float).tobytes()
        if self.scalar_failure(problem, context, theta) is None:
            scalar = self.gain_rollout(problem, context, theta)[0]
            assert plan.tobytes() == np.array(scalar, dtype=float).tobytes()

    def test_costs_equal_scalar_objective_bit_for_bit(self):
        # the scalar objective: the scalar model's cost, +inf where it raises
        rng = np.random.default_rng(241)
        rows = {CONVENTIONAL: 0, PARAMETERIZED: 0}
        failures = {ModelConsistencyError: 0, NegativeRateError: 0}
        horizons = set()
        trial = 0
        while trial < 60:
            net = random_network(rng, allow_beta_one=True)
            if not net.metered_cells:
                continue
            if trial % 3 == 0:
                net = overfilling(net)
            horizon = 1 + trial % 10
            nr = len(net.metered_cells)
            state = random_state(rng, net)
            forecast = tuple(random_input(rng, net) for _ in range(int(rng.integers(1, 4))))
            mu_prev = tuple(float(v) for v in rng.uniform(0, 3, size=nr))
            context = StepContext(params=net, initial_state=state, demand_forecast=forecast,
                                  mu_prev=mu_prev, gamma=0.8)
            for kind in (CONVENTIONAL, PARAMETERIZED):
                dim = nr * horizon if kind == CONVENTIONAL else nr
                lo, hi = (-1.0, 10.0) if kind == CONVENTIONAL else (-2.0, 4.0)
                problem = MpcProblem(label="R", kind=kind, horizon=horizon,
                                     bounds_lo=(lo,) * dim, bounds_hi=(hi,) * dim)
                xs = rng.uniform(lo, hi, size=(8, dim))
                if kind == CONVENTIONAL:
                    got, plans, *_ = rollout_batch(
                        state, forecast, net, horizon, 0.8,
                        plans=xs.reshape(8, horizon, nr),
                    )
                    assert plans.tobytes() == xs.reshape(8, horizon, nr).tobytes()
                else:
                    got, plans, *_ = rollout_batch(
                        state, forecast, net, horizon, 0.8, gains=xs, mu_prev=mu_prev,
                    )
                    for x, plan in zip(xs, plans):
                        self.assert_gain_plan(problem, context, x, plan)
                want = np.array([self.scalar_cost(problem, context, x) for x in xs])
                assert got.tobytes() == want.tobytes()
                for x in xs:
                    failure = self.scalar_failure(problem, context, x)
                    if failure is not None:
                        failures[failure] += 1
                rows[kind] += len(xs)
            horizons.add(horizon)
            trial += 1
        assert horizons == set(range(1, 11))
        assert min(rows.values()) >= 400
        # rows that must come out +inf, for each reason the scalar model raises
        assert min(failures.values()) >= 10, failures

    def test_signed_zero_rates_keep_their_sign(self):
        # previous rates of -0.0 and zero gains of either sign: the feedback
        # law yields -0.0 or 0.0 depending on the sign of rho_crit - rho, and
        # Python's max(-0.0, 0.0) keeps -0.0, so the derived plans must too
        rng = np.random.default_rng(269)
        negative_zeros = 0
        for _ in range(20):
            net = random_network(rng)
            if not net.metered_cells:
                continue
            nr = len(net.metered_cells)
            state = random_state(rng, net)
            forecast = (random_input(rng, net),)
            mu_prev = (-0.0,) * nr
            gains = np.array([[0.0] * nr, [-0.0] * nr])
            costs, plans, *_ = rollout_batch(state, forecast, net, 4, 0.8,
                                         gains=gains, mu_prev=mu_prev)
            problem = MpcProblem(label="R", kind=PARAMETERIZED, horizon=4,
                                 bounds_lo=(-1.0,) * nr, bounds_hi=(1.0,) * nr)
            context = StepContext(params=net, initial_state=state, demand_forecast=forecast,
                                  mu_prev=mu_prev, gamma=0.8)
            want = np.array([self.scalar_cost(problem, context, g) for g in gains])
            assert costs.tobytes() == want.tobytes()
            for g, plan in zip(gains, plans):
                self.assert_gain_plan(problem, context, g, plan)
            negative_zeros += int(np.count_nonzero(np.signbit(plans)))
        assert negative_zeros >= 50, negative_zeros

    def test_wrong_ramp_count_raises(self):
        rng = np.random.default_rng(251)
        net = random_network(rng)
        while not net.metered_cells:
            net = random_network(rng)
        nr = len(net.metered_cells)
        state = random_state(rng, net)
        with pytest.raises(TopologyError):
            rollout_batch(state, (random_input(rng, net),), net, 2, 0.8,
                          plans=np.ones((3, 2, nr + 1)))

    def test_wrong_ramp_demand_count_inside_the_horizon_raises(self):
        rng = np.random.default_rng(257)
        net = random_network(rng)
        while not net.metered_cells:
            net = random_network(rng)
        nr = len(net.metered_cells)
        state = random_state(rng, net)
        good = random_input(rng, net)
        bad = ExogenousInput(1.0, good.ramp_demands + (1.0,))

        def run(forecast, horizon):
            return rollout_batch(state, forecast, net, horizon, 0.8,
                                 plans=np.ones((2, horizon, nr)))

        with pytest.raises(TopologyError, match="ramp demands"):
            run((good, bad, good), 3)
        # a short forecast holds its last entry, which is then read
        with pytest.raises(TopologyError, match="ramp demands"):
            run((good, bad), 4)
        # an entry past the horizon is never read
        costs, *_ = run((good, good, bad), 2)
        assert costs.shape == (2,)

    def test_mixed_kinds_and_horizons_in_one_batch(self):
        # plan rows and gain rows of horizons 1-10 share one call; each row is
        # rolled out over its own horizon only, so a plan's padded tail is
        # never read and a failure past a row's horizon does not count
        rng = np.random.default_rng(263)
        bounds = {CONVENTIONAL: (-1.0, 10.0), PARAMETERIZED: (-2.0, 4.0)}
        finite_despite_tail = failed_within = rows_checked = 0
        for trial in range(40):
            net = random_network(rng, allow_beta_one=True)
            if not net.metered_cells:
                continue
            if trial % 2 == 0:
                net = overfilling(net)
            nr = len(net.metered_cells)
            state = random_state(rng, net)
            forecast = tuple(random_input(rng, net) for _ in range(int(rng.integers(1, 4))))
            mu_prev = tuple(float(v) for v in rng.uniform(0, 3, size=nr))
            context = StepContext(params=net, initial_state=state, demand_forecast=forecast,
                                  mu_prev=mu_prev, gamma=0.8)

            def problem(kind, horizon):
                lo, hi = bounds[kind]
                dim = nr * horizon if kind == CONVENTIONAL else nr
                return MpcProblem(label="R", kind=kind, horizon=horizon,
                                  bounds_lo=(lo,) * dim, bounds_hi=(hi,) * dim)

            # each row: its problem, its decision and its decision over all 10 steps
            rows = []
            for horizon in range(1, 11):
                for kind in (CONVENTIONAL, PARAMETERIZED):
                    for _ in range(3):
                        lo, hi = bounds[kind]
                        if kind == CONVENTIONAL:
                            full = rng.uniform(lo, hi, size=(10, nr))
                            x = full[:horizon].ravel()
                        else:
                            x = full = rng.uniform(lo, hi, size=nr)
                        rows.append((problem(kind, horizon), x, full.ravel()))
            rows = [rows[i] for i in rng.permutation(len(rows))]
            plans = np.zeros((len(rows), 10, nr))
            gains = np.zeros((len(rows), nr))
            for b, (p, x, full) in enumerate(rows):
                if p.kind == CONVENTIONAL:
                    plans[b] = full.reshape(10, nr)  # the tail past p.horizon is padding
                else:
                    gains[b] = x
            got, derived, *_ = rollout_batch(
                state, forecast, net, 10, 0.8, plans=plans, gains=gains, mu_prev=mu_prev,
                gain_rows=np.array([p.kind == PARAMETERIZED for p, _, _ in rows]),
                horizons=np.array([p.horizon for p, _, _ in rows]),
            )
            want = np.array([self.scalar_cost(p, context, x) for p, x, _ in rows])
            assert got.tobytes() == want.tobytes()
            for b, (p, x, full) in enumerate(rows):
                rows_checked += 1
                if p.kind == PARAMETERIZED:
                    self.assert_gain_plan(p, context, x, derived[b, :p.horizon])
                else:
                    assert derived[b].tobytes() == plans[b].tobytes()
                if self.scalar_failure(p, context, x) is not None:
                    failed_within += 1
                    assert got[b] == math.inf
                    continue
                if self.scalar_failure(problem(p.kind, 10), context, full) is ModelConsistencyError:
                    finite_despite_tail += 1
                    assert math.isfinite(got[b])
        assert rows_checked >= 1200
        assert failed_within >= 10, failed_within
        assert finite_despite_tail >= 10, finite_despite_tail
