import math
import time
from dataclasses import replace

import numpy as np
import pytest

from basepar import actm, parallel
from basepar.actm import ExogenousInput, NetworkState, TopologyError
from basepar.base_controllers import FeedbackController, warm_start_rollout
from basepar.parallel import (
    CONVENTIONAL,
    PARAMETERIZED,
    BudgetedResult,
    MpcProblem,
    StepContext,
    _STEP_LENGTHS,
    _Bounds,
    _Differences,
    _gradient_request,
    _line_search,
    _lockstep,
    _MergedRollouts,
    base_start_for,
    decision_to_metering,
    make_shift_warm_starts,
    objective,
    run_parallel_cell,
    run_parallel_cells,
    solve_budgeted,
)
from basepar.scenario import default_scenario

from oracles import central_difference, oracle_rollout_cost
from scalar_reference import fd_gradient, solve_pointwise
from shipped import optimizer


NET = default_scenario().network


def random_state(rng):
    return NetworkState(
        n=tuple(rng.uniform(0, 60, size=6)), q=tuple(rng.uniform(0, 15, size=3))
    )


def random_input(rng):
    return ExogenousInput(rng.uniform(0, 7), tuple(rng.uniform(0, 3, size=3)))


def make_problem(rng, kind=CONVENTIONAL, horizon=3, label="MPC"):
    """A problem with the case study's box, and a random context to solve
    it from."""
    nr = 3
    if kind == CONVENTIONAL:
        lo, hi = (0.0,) * (nr * horizon), (8.0,) * (nr * horizon)
    else:
        lo, hi = (0.0,) * nr, (1.0,) * nr
    problem = MpcProblem(label=label, kind=kind, horizon=horizon, bounds_lo=lo, bounds_hi=hi)
    context = StepContext(
        params=NET, initial_state=random_state(rng), demand_forecast=(random_input(rng),),
        mu_prev=tuple(rng.uniform(0, 2, size=nr)), gamma=0.8,
    )
    return problem, context


# the context of every surrogate objective's problem
SURROGATE = StepContext(
    params=NET, initial_state=NetworkState(n=(10.0,) * 6, q=(1.0,) * 3),
    demand_forecast=(ExogenousInput(1.0, (0.5, 0.5, 0.5)),), mu_prev=(0.5, 0.5, 0.5), gamma=0.8,
)


def recorded_costs(result):
    """The costs a solve recorded, in the order it recorded them: its
    iterates' costs, for a solve under termination option "all"."""
    return tuple(c.cost for c in result.iterates)


def dummy_problem(dim, lo=-10.0, hi=10.0):
    """Conventional-shaped carrier for surrogate objectives (3 ramps)."""
    assert dim % 3 == 0
    return MpcProblem(label="surrogate", kind=CONVENTIONAL, horizon=dim // 3,
                      bounds_lo=(lo,) * dim, bounds_hi=(hi,) * dim)


class TestObjective:
    def test_matches_independent_rollout_cost(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            problem, context = make_problem(rng, horizon=4)
            for _ in range(10):
                x = rng.uniform(0, 8, size=problem.decision_dim)
                got = objective(problem, context, x)
                plan = [tuple(r) for r in x.reshape(4, 3)]
                want = oracle_rollout_cost(
                    NET, context.initial_state, context.demand_forecast, plan, 4, 0.8
                )
                assert got == pytest.approx(want, abs=1e-9)

    def test_parameterized_zero_gain_zero_prev_is_no_admission(self):
        rng = np.random.default_rng(23)
        state = random_state(rng)
        problem = MpcProblem(label="PMPC", kind=PARAMETERIZED, horizon=5,
                             bounds_lo=(0.0,) * 3, bounds_hi=(1.0,) * 3)
        context = StepContext(params=NET, initial_state=state,
                              demand_forecast=(random_input(rng),), mu_prev=(0.0, 0.0, 0.0),
                              gamma=0.8)
        got = objective(problem, context, np.zeros(3))
        plan = [(0.0, 0.0, 0.0)] * 5
        want = oracle_rollout_cost(NET, state, context.demand_forecast, plan, 5, 0.8)
        assert decision_to_metering(problem, context, np.zeros(3)) == ((0.0, 0.0, 0.0),) * 5
        assert got == pytest.approx(want, abs=1e-12)

    def test_horizon_one_gamma_zero_is_occupancy_time(self):
        rng = np.random.default_rng(29)
        state = random_state(rng)
        problem = MpcProblem(label="CMPC", kind=CONVENTIONAL, horizon=1,
                             bounds_lo=(0.0,) * 3, bounds_hi=(8.0,) * 3)
        context = StepContext(params=NET, initial_state=state,
                              demand_forecast=(random_input(rng),), mu_prev=(0.0, 0.0, 0.0),
                              gamma=0.0)
        expected = NET.sample_cycle_s / 3600.0 * (sum(state.n) + sum(state.q))
        assert objective(problem, context, rng.uniform(0, 8, size=3)) == pytest.approx(expected)

    def test_nan_rate_costs_inf(self):
        # np.clip keeps NaN, so a NaN decision reaches the model; it must be
        # rejected like a negative rate rather than leave its ramp unmetered
        rng = np.random.default_rng(19)
        for kind in (CONVENTIONAL, PARAMETERIZED):
            problem, context = make_problem(rng, kind=kind, horizon=3)
            x = np.full(problem.decision_dim, 0.5)
            one_nan = x.copy()
            one_nan[-1] = math.nan
            all_nan = np.full(problem.decision_dim, math.nan)
            assert math.isfinite(objective(problem, context, x))
            assert objective(problem, context, one_nan) == math.inf
            assert objective(problem, context, all_nan) == math.inf
            rows = np.array([x, one_nan, all_nan])
            costs = _MergedRollouts([problem], context)([(0, rows)])[0]
            assert costs.tolist() == [objective(problem, context, x), math.inf, math.inf]

    def test_a_failed_row_is_logged_once_and_leaves_the_other_rows_alone(self, caplog):
        # one round of two requests: a CMPC request with one NaN row and a
        # PMPC request with finite rows; the NaN row costs +inf, one warning
        # names its problem, and every other row costs what it costs in the
        # same round without the NaN row, byte for byte
        rng = np.random.default_rng(31)
        cmpc, context = make_problem(rng, CONVENTIONAL, horizon=3, label="CMPC(1)")
        pmpc, _ = make_problem(rng, PARAMETERIZED, horizon=10, label="PMPC(2)")
        context = replace(context, evaluation_horizon=3)
        rates = rng.uniform(0, 8, size=(5, cmpc.decision_dim))
        gains = rng.uniform(0, 1, size=(4, pmpc.decision_dim))
        with_nan = rates.copy()
        with_nan[2, 4] = math.nan
        evaluate = _MergedRollouts([cmpc, pmpc], context)
        with caplog.at_level("WARNING", logger="basepar.parallel"):
            costs, evaluation, _ = evaluate([(0, with_nan), (1, gains)])
        assert [r.getMessage() for r in caplog.records] == [
            "objective evaluation failed for CMPC(1) at 1 of 5 points; returning +inf"]
        assert costs[2] == evaluation[2] == math.inf
        kept = [0, 1, 3, 4, 5, 6, 7, 8]
        want_costs, want_evaluation, _ = evaluate([(0, np.delete(rates, 2, axis=0)), (1, gains)])
        assert np.isfinite(want_costs).all() and np.isfinite(want_evaluation).all()
        assert costs[kept].tobytes() == want_costs.tobytes()
        assert evaluation[kept].tobytes() == want_evaluation.tobytes()

    def test_dimension_check(self):
        rng = np.random.default_rng(1)
        problem, context = make_problem(rng)
        with pytest.raises(ValueError):
            objective(problem, context, np.zeros(problem.decision_dim + 1))


class TestShiftStarts:
    def test_shift_once(self):
        previous = np.array([[1.0], [2.0], [3.0]])
        start = make_shift_warm_starts(previous)
        assert start.shape == (3, 1)  # one start
        np.testing.assert_allclose(start, [[2.0], [3.0], [3.0]])

    def test_empty_history(self):
        assert make_shift_warm_starts([]) is None

    def test_one_row_solution_is_its_own_shift(self):
        # a parameterized solution, one gain per ramp, holds over the window
        previous = np.array([[0.2, 0.4, 0.6]])
        start = make_shift_warm_starts(previous)
        assert start.tobytes() == previous.tobytes()
        assert start.shape == (1, 3)


class TestProblem:
    def test_nan_bounds_rejected(self):
        with pytest.raises(ValueError):
            replace(dummy_problem(3), bounds_lo=(0.0, math.nan, 0.0),
                    bounds_hi=(8.0, 8.0, math.nan))

    def test_box_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="one entry per ramp"):
            MpcProblem(label="C", kind=CONVENTIONAL, horizon=3, bounds_lo=(0.0,) * 8,
                       bounds_hi=(8.0,) * 8)
        with pytest.raises(ValueError, match="one entry per ramp"):
            MpcProblem(label="C", kind=CONVENTIONAL, horizon=3, bounds_lo=(0.0,) * 9,
                       bounds_hi=(8.0,) * 6)

    def test_derived_bounds_are_read_only(self):
        # every step's solve shares them
        problem, _ = make_problem(np.random.default_rng(3), horizon=2)
        bounds = problem.bounds
        for array in (bounds.lo, bounds.hi, bounds.free, bounds.eye):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5
        assert bounds.lo.tolist() == list(problem.bounds_lo)
        assert bounds.hi.tolist() == list(problem.bounds_hi)


class TestOptimizerConfig:
    @pytest.mark.parametrize(
        "name", ["function_tolerance", "step_tolerance", "budget_s", "fd_step"]
    )
    def test_nan_setting_rejected(self, name):
        # a NaN budget would give a deadline that never expires
        with pytest.raises(ValueError):
            optimizer(**{name: math.nan})


class TestSolver:
    def quadratic(self, dim, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-3, 3, size=dim)
        m = rng.normal(size=(dim, dim))
        q = m.T @ m + np.eye(dim)
        return (lambda x: float((x - a) @ q @ (x - a))), a

    def test_reaches_quadratic_minimizer(self):
        fun, a = self.quadratic(6, seed=3)
        problem = dummy_problem(6)
        cfg = optimizer(budget_s=None, max_iterations=300)
        result = solve_pointwise(fun, problem, SURROGATE, [np.zeros(6)], cfg)
        x = np.asarray(result.best.decision)
        assert np.max(np.abs(x - a)) < 1e-5

    def test_bound_optimum_projected(self):
        problem = dummy_problem(3, lo=0.0, hi=2.0)
        fun = lambda x: float(np.sum((x - 5.0) ** 2))
        cfg = optimizer(budget_s=None, max_iterations=100)
        result = solve_pointwise(fun, problem, SURROGATE, [np.ones(3)], cfg)
        np.testing.assert_allclose(result.best.decision, [2.0, 2.0, 2.0], atol=1e-9)

    def test_zero_budget_returns_best_start(self):
        fun, _ = self.quadratic(3, seed=5)
        problem = dummy_problem(3)
        starts = [np.zeros(3), np.ones(3), np.full(3, -1.0)]
        cfg = optimizer(budget_s=0.0, max_iterations=100)
        result = solve_pointwise(fun, problem, SURROGATE, starts, cfg)
        start_costs = [fun(np.clip(s, -10, 10)) for s in starts]
        assert result.best.cost == min(start_costs)
        every = solve_pointwise(fun, problem, SURROGATE, starts, replace(cfg, termination="all"))
        assert len(recorded_costs(every)) == 3

    def test_anytime_best_so_far_non_increasing(self):
        rng = np.random.default_rng(31)
        problem, context = make_problem(rng, horizon=3)
        cfg = optimizer(budget_s=None, max_iterations=40, termination="all")
        hold = np.tile(context.mu_prev, problem.horizon)  # the previous rates, held
        starts = [hold, rng.uniform(0, 8, size=problem.decision_dim)]
        result = solve_budgeted(problem, context, starts, cfg)
        costs = recorded_costs(result)
        best_so_far = np.minimum.accumulate(costs)
        assert all(b <= a + 1e-15 for a, b in zip(best_so_far, best_so_far[1:]))
        assert result.best.cost == min(costs)
        # the solve under "best" keeps the first recorded point of least cost
        first = costs.index(min(costs))
        best = solve_budgeted(problem, context, starts, replace(cfg, termination="best"))
        assert best.iterates == (result.iterates[first],)

    def test_final_never_worse_than_any_start(self):
        rng = np.random.default_rng(37)
        for i in range(20):
            kind = CONVENTIONAL if i % 2 == 0 else PARAMETERIZED
            problem, context = make_problem(rng, kind=kind, horizon=rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            if kind == CONVENTIONAL:
                starts = [rng.uniform(0, 8, size=problem.decision_dim) for _ in range(k)]
            else:
                starts = [rng.uniform(0, 1, size=problem.decision_dim) for _ in range(k)]
            cfg = optimizer(budget_s=None, max_iterations=15)
            result = solve_budgeted(problem, context, starts, cfg)
            for s in starts:
                assert result.best.cost <= objective(problem, context, s) + 1e-12

    def test_gradient_matches_central_difference_oracle(self):
        rng = np.random.default_rng(41)
        problem, context = make_problem(rng, horizon=3)
        fun = lambda x: objective(problem, context, x)
        lo = np.asarray(problem.bounds_lo)
        hi = np.asarray(problem.bounds_hi)
        for _ in range(10):
            x = rng.uniform(0.5, 7.5, size=problem.decision_dim)
            g_fwd = fd_gradient(fun, x, fun(x), _Bounds(lo, hi), 1e-6)
            g_ctr = central_difference(fun, x, h=1e-6)
            scale = max(1e-6, float(np.max(np.abs(g_ctr))))
            assert np.max(np.abs(g_fwd - g_ctr)) / scale < 1e-4

    def test_batched_gradient_equals_scalar_gradient(self):
        # the solver's gradient request, evaluated point by point and in one
        # batch, against forward differences built here coordinate by
        # coordinate (a backward step where a forward one leaves the box)
        rng = np.random.default_rng(53)
        h = 1e-6
        for i in range(12):
            kind = CONVENTIONAL if i % 2 == 0 else PARAMETERIZED
            problem, context = make_problem(rng, kind=kind, horizon=int(rng.integers(1, 11)))
            lo = np.asarray(problem.bounds_lo)
            hi = np.asarray(problem.bounds_hi).copy()
            fixed = rng.random(problem.decision_dim) < 0.3
            fixed[0], fixed[-1] = False, True
            hi[fixed] = lo[fixed]  # lo == hi: the coordinate cannot move
            problem = replace(problem, bounds_hi=tuple(hi))
            fun = lambda x: objective(problem, context, x)
            x = rng.uniform(lo, hi)
            upper = rng.random(x.size) < 0.3
            upper[0] = True  # on the upper bound: the step goes backward
            x[upper] = hi[upper]
            f0 = fun(x)
            want = np.zeros(x.size)
            for j in np.flatnonzero(~fixed):
                s = h if x[j] + h <= hi[j] else -h
                point = x.copy()
                point[j] += s
                want[j] = (fun(point) - f0) / s
            scalar = fd_gradient(fun, x, f0, _Bounds(lo, hi), h)
            request = _gradient_request(x, f0, _Bounds(lo, hi), h)
            evaluate = _MergedRollouts([problem], context)
            batched = _lockstep([(0, request)], evaluate)[0]
            assert scalar.tolist() == want.tolist()
            assert batched.tolist() == want.tolist()

    @staticmethod
    def boxed_problem(rng, kind, horizon):
        """A problem with some ``lo == hi`` coordinates and a point on the
        upper bound in others, where the difference step goes backward, and
        its context."""
        problem, context = make_problem(rng, kind=kind, horizon=horizon)
        lo = np.asarray(problem.bounds_lo)
        hi = np.asarray(problem.bounds_hi).copy()
        fixed = rng.random(problem.decision_dim) < 0.3
        fixed[0], fixed[-1] = False, True
        hi[fixed] = lo[fixed]
        return replace(problem, bounds_hi=tuple(hi)), context, lo, hi

    def test_full_step_carries_its_gradient(self):
        # with f = +inf every finite cost passes the Armijo test, so the full
        # step is accepted; its gradient, costed in the line-search round,
        # must equal the one a gradient round there would give
        rng = np.random.default_rng(79)
        h = 1e-6
        for i in range(12):
            kind = CONVENTIONAL if i % 2 == 0 else PARAMETERIZED
            problem, context, lo, hi = self.boxed_problem(rng, kind, int(rng.integers(1, 11)))
            evaluate = _MergedRollouts([problem], context)
            x = rng.uniform(lo, hi)
            direction = rng.normal(size=x.size) * (hi - lo)
            direction[0] = 10.0 * (hi[0] - lo[0])  # clipped onto the upper bound
            g = rng.normal(size=x.size)
            search = _line_search(x, math.inf, g, direction, _Bounds(lo, hi), h)
            x_new, f_new, step_vec, g_new, _ = _lockstep([(0, search)], evaluate)[0]
            assert x_new[0] == hi[0]
            assert x_new.tolist() == np.clip(x + direction, lo, hi).tolist()
            request = _gradient_request(x_new, f_new, _Bounds(lo, hi), h)
            want = _lockstep([(0, request)], evaluate)[0]
            assert g_new.tolist() == want.tolist()
            # without a difference step nothing extra is costed or returned
            search = _line_search(x, math.inf, g, direction, _Bounds(lo, hi), None)
            assert _lockstep([(0, search)], evaluate)[0][3] is None

    def test_shorter_step_carries_no_gradient(self):
        sizes = []

        def evaluate(requests):
            (_, rows), = requests
            sizes.append(len(rows))
            costs = np.full(len(rows), 5.0)
            costs[:2] = 2.0, 0.5  # the full step fails the Armijo test, the half passes
            return costs, None, rows[:, None]

        lo, hi = np.full(3, -10.0), np.full(3, 10.0)
        search = _line_search(np.zeros(3), 1.0, np.zeros(3), np.ones(3), _Bounds(lo, hi), 1e-6)
        x_new, f_new, _, g_new, _ = _lockstep([(0, search)], evaluate)[0]
        assert (x_new.tolist(), f_new, g_new) == ([0.5] * 3, 0.5, None)
        assert sizes == [30 + 3]  # every step length, then the full step's gradient points

    def test_a_full_step_that_does_not_move_ends_the_search_at_once(self):
        # the search ends before building its grid of step lengths exactly
        # where the grid's first clipped step is zero, and otherwise
        # requests the grid's moving points; on random boxes, from points
        # on the bounds and inside them, along directions that leave the
        # box, tiny ones and zero
        rng = np.random.default_rng(151)
        exits = searches = 0
        for _ in range(600):
            dim = int(rng.integers(1, 8))
            lo = rng.uniform(-2.0, 0.0, size=dim)
            hi = lo + rng.uniform(0.0, 3.0, size=dim)
            fixed = rng.random(dim) < 0.2
            hi[fixed] = lo[fixed]
            x = rng.uniform(lo, hi)
            where = rng.random(dim)
            x[where < 0.35] = lo[where < 0.35]
            x[where > 0.65] = hi[where > 0.65]
            direction = rng.normal(size=dim) * rng.choice([1.0, 1e-17, 0.0], p=[0.6, 0.2, 0.2])
            outward = rng.random(dim) < 0.7
            direction[outward & (x == hi)] = np.abs(direction[outward & (x == hi)])
            direction[outward & (x == lo)] = -np.abs(direction[outward & (x == lo)])
            points = np.clip(x + _STEP_LENGTHS * direction, lo, hi)
            moving = (points - x).any(axis=1)
            tried = len(moving) if moving.all() else int(np.argmin(moving))
            search = _line_search(x, 1.0, np.zeros(dim), direction, _Bounds(lo, hi), None)
            if tried == 0:
                with pytest.raises(StopIteration) as stop:
                    next(search)
                assert stop.value.value is None
                exits += 1
            else:
                assert next(search).tobytes() == points[:tried].tobytes()
                searches += 1
        assert exits >= 100 and searches >= 100, (exits, searches)

    def test_starts_round_gradients(self, monkeypatch):
        # every descent begins with the gradient the starts round costed at
        # its start; it must equal a gradient round there
        rng = np.random.default_rng(89)
        h = 1e-6
        begun = []
        descent = parallel._descent

        def recorded(x0, f0, g0, bounds, cfg, trail):
            begun.append((x0, f0, g0, bounds))
            return descent(x0, f0, g0, bounds, cfg, trail)

        monkeypatch.setattr(parallel, "_descent", recorded)
        problems, contexts, starts = [], [], []
        for kind, horizon in ((CONVENTIONAL, 4), (PARAMETERIZED, 3), (CONVENTIONAL, 1)):
            problem, context, lo, hi = self.boxed_problem(rng, kind, horizon)
            problems.append(problem)
            contexts.append(context)
            x = [rng.uniform(lo, hi) for _ in range(3)]
            x[0][0] = hi[0]  # on the upper bound
            x[1][:] = hi     # on the upper bound everywhere
            starts.append(x)
        cfg = optimizer(budget_s=None, max_iterations=2)
        context = contexts[0]  # one context for the joint solve
        parallel._solve_jointly(problems, starts, cfg, _MergedRollouts(problems, context))
        assert len(begun) == 9
        for problem, problem_starts in zip(problems, starts):
            evaluate = _MergedRollouts([problem], context)
            for x in problem_starts:
                x0, f0, g0, bounds = begun.pop(0)
                assert x0.tolist() == x.tolist()
                assert f0 == objective(problem, context, x)
                request = _gradient_request(x, f0, bounds, h)
                assert g0.tolist() == _lockstep([(0, request)], evaluate)[0].tolist()

    @staticmethod
    def fresh_differences(x, lo, hi, h):
        """The forward-difference points and steps around ``x``, built from
        the bounds on every call, as before the solver derived them once
        per problem."""
        free = np.flatnonzero(hi - lo != 0.0)
        steps = np.where(x[free] + h <= hi[free], h, -h)
        points = np.tile(x, (free.size, 1))
        points[np.arange(free.size), free] += steps
        return free, steps, points

    def test_bounds_derived_once_match_a_fresh_construction(self, monkeypatch):
        # two problems of one dimension fixed (lo == hi) in different
        # coordinates, solved in one lockstep and then one after the other:
        # in the first round every start must request itself and the
        # difference points a fresh construction from its problem's own
        # bounds gives, and every descent must begin with the gradient they
        # yield, byte for byte
        rng = np.random.default_rng(97)
        h = 1e-6
        problems, contexts, starts = [], [], []
        for label, fixed, value in (("A", 1, 3.0), ("B", 4, 5.0)):
            problem, context = make_problem(rng, kind=CONVENTIONAL, horizon=2, label=label)
            lo, hi = list(problem.bounds_lo), list(problem.bounds_hi)
            lo[fixed] = hi[fixed] = value
            problem = replace(problem, bounds_lo=tuple(lo), bounds_hi=tuple(hi))
            contexts.append(context)
            x = [np.clip(rng.uniform(0.0, 8.0, size=6), lo, hi) for _ in range(3)]
            x[1][:] = hi  # on the upper bound, where the steps go backward
            problems.append(problem)
            starts.append(x)
        rounds, begun = [], []
        evaluate = parallel._MergedRollouts.__call__
        descent = parallel._descent

        def recorded(self, requests):
            answer = evaluate(self, requests)
            rounds.append(([(self.problems[i], rows.copy()) for i, rows in requests],
                           answer[0].copy()))
            return answer

        def recorded_descent(x0, f0, g0, bounds, cfg, trail):
            begun.append(g0.copy())
            return descent(x0, f0, g0, bounds, cfg, trail)

        monkeypatch.setattr(parallel._MergedRollouts, "__call__", recorded)
        monkeypatch.setattr(parallel, "_descent", recorded_descent)
        cfg = optimizer(budget_s=None, max_iterations=3)
        for together in ([0, 1], [0], [1]):
            rounds.clear()
            begun.clear()
            chosen = [problems[i] for i in together]
            parallel._solve_jointly(chosen, [starts[i] for i in together], cfg,
                                    _MergedRollouts(chosen, contexts[0]))
            requests, costs = rounds[0]  # the first round
            owners = [(problems[i], x) for i in together for x in starts[i]]
            assert len(requests) == len(owners)  # one request per start
            gradients, at = [], 0
            for (problem, rows), (owner, x) in zip(requests, owners):
                assert problem is owner
                lo, hi = np.asarray(problem.bounds_lo), np.asarray(problem.bounds_hi)
                free, steps, points = self.fresh_differences(x, lo, hi, h)
                assert rows.tobytes() == np.vstack([x, points]).tobytes()
                g = np.zeros_like(x)
                g[free] = (costs[at + 1:at + len(rows)] - costs[at]) / steps
                gradients.append(g)
                at += len(rows)
            assert len(begun) == len(gradients)
            for got, want in zip(begun, gradients):
                assert got.tobytes() == want.tobytes()

    def test_difference_points_stay_in_a_box_narrower_than_two_steps(self):
        # box [0, 1.5h] in the first coordinate: from inside (h/2, h), where
        # neither +h nor -h fits, the point goes to the bound with more room
        # (the upper one on a tie) and the gradient divides by the step
        # actually taken, so it equals the model's slope to that bound and a
        # linear cost's slope; from elsewhere the step is the usual +-h
        rng = np.random.default_rng(191)
        h = 1e-6
        problem, _ = make_problem(rng, kind=CONVENTIONAL, horizon=3)
        problem = replace(problem, bounds_hi=(1.5 * h,) + problem.bounds_hi[1:])
        # uncongested, so the first ramp's first rate moves the cost
        context = StepContext(NET, NetworkState(n=(10.0,) * 6, q=(5.0,) * 3),
                              (ExogenousInput(3.0, (1.5,) * 3),), (1.0,) * 3, 0.8)
        bounds = problem.bounds
        fun = lambda y: objective(problem, context, y)
        for first, bound in ((0.75 * h, 1.5 * h), (0.6 * h, 1.5 * h), (0.9 * h, 0.0),
                             (0.2 * h, None), (1.2 * h, None)):
            x = np.full(problem.decision_dim, 2.0)
            x[0] = first
            differences = _Differences(x[None], bounds, h)
            assert (differences.points >= bounds.lo).all()
            assert (differences.points <= bounds.hi).all()
            step = (h if first + h <= 1.5 * h else -h) if bound is None else bound - first
            assert differences.steps[0] == step
            assert differences.points[0, 0] == (first + step if bound is None else bound)
            f0 = fun(x)
            point = x.copy()
            point[0] = differences.points[0, 0]
            g = _lockstep([(0, _gradient_request(x, f0, bounds, h))],
                          _MergedRollouts([problem], context))[0]
            assert g[0] == (fun(point) - f0) / step and g[0] != 0.0
            linear = lambda y: 3.0 * y[0] + y[1]
            slope = fd_gradient(linear, x, linear(x), bounds, h)[0]
            assert slope == pytest.approx(3.0, rel=1e-9)
        # a box at least 2h wide keeps every point and step bit for bit
        for _ in range(200):
            lo = rng.uniform(-1.0, 1.0, size=4)
            hi = lo + rng.choice([2 * h, 3 * h, 1.0], size=4)
            x = np.where(rng.random(4) < 0.5, hi, rng.uniform(lo, hi))
            differences = _Differences(x[None], _Bounds(lo, hi), h)
            _, steps, points = self.fresh_differences(x, lo, hi, h)
            assert differences.steps.tobytes() == steps.tobytes()
            assert differences.points.tobytes() == points.tobytes()

    def test_repeated_starts_descend_once(self, monkeypatch):
        # a start repeated bit for bit (here also after clipping) lists its
        # twin's records again instead of replaying its descent
        rng = np.random.default_rng(97)
        for kind in (CONVENTIONAL, PARAMETERIZED):
            problem, context = make_problem(rng, kind=kind, horizon=3)
            lo, hi = np.asarray(problem.bounds_lo), np.asarray(problem.bounds_hi)
            a, b, c = (rng.uniform(lo, hi) for _ in range(3))
            above = hi + 1.0  # clips onto hi
            starts = [a, b, a.copy(), hi, c, b, above]
            for termination in ("all", "best"):
                cfg = optimizer(budget_s=None, max_iterations=8, termination=termination)
                singles = [solve_budgeted(problem, context, [s], cfg) for s in starts]
                begun = []
                descent = parallel._descent
                monkeypatch.setattr(
                    parallel, "_descent", lambda *args: begun.append(1) or descent(*args)
                )
                got = solve_budgeted(problem, context, starts, cfg)
                monkeypatch.setattr(parallel, "_descent", descent)
                assert len(begun) == 4

                every = singles if termination == "all" else [
                    solve_budgeted(problem, context, [s], replace(cfg, termination="all"))
                    for s in starts
                ]
                iterates = [r.iterates[0] for r in every]
                for r in every:
                    iterates.extend(r.iterates[1:])
                trail = [c.cost for c in iterates]
                best = iterates[min(range(len(trail)), key=lambda k: (trail[k], k))]
                want = BudgetedResult(
                    best=best,
                    iterates=tuple(iterates) if termination == "all" else (best,),
                )
                assert got == want

    def test_batched_gradient_stops_at_deadline(self):
        # the first round runs whatever the deadline: a coroutine with two
        # requests gets its first round from an evaluator held to an
        # expired deadline, and is then cut off
        rng = np.random.default_rng(59)
        problem, context = make_problem(rng, horizon=3)
        bounds = _Bounds(problem.bounds_lo, problem.bounds_hi)
        x = np.full(problem.decision_dim, 1.0)
        f0 = objective(problem, context, x)
        seen = []

        def two_gradients():
            seen.append((yield from _gradient_request(x, f0, bounds, 1e-6)))
            return (yield from _gradient_request(x, f0, bounds, 1e-6))

        def evaluate(requests):
            seen.append(len(requests))
            return _MergedRollouts([problem], context)(requests)

        expired = parallel._until(evaluate, 0.0, time.monotonic() - 1.0)
        assert _lockstep([(0, two_gradients())], expired) == [None]
        assert seen[0] == 1 and len(seen) == 2
        want = fd_gradient(lambda y: objective(problem, context, y), x, f0, bounds, 1e-6)
        assert seen[1].tobytes() == want.tobytes()

    def test_expired_joint_solve_returns_its_zero_budget_result(self, monkeypatch):
        # a conventional and a parameterized problem under a deadline that
        # has expired before the solve: each result is its zero-budget one
        # (the best start, the starts' costs alone), from one kernel call,
        # the first round, which also gives the kept points' plans
        rng = np.random.default_rng(131)
        conventional, context = make_problem(rng, kind=CONVENTIONAL, horizon=3, label="C")
        parameterized, _ = make_problem(rng, kind=PARAMETERIZED, horizon=4, label="P")
        problems = [conventional, parameterized]
        starts = []
        for problem in problems:
            lo, hi = np.asarray(problem.bounds_lo), np.asarray(problem.bounds_hi)
            a = rng.uniform(lo, hi)
            starts.append([a, rng.uniform(lo, hi), a.copy(), hi + 1.0])
        calls = []
        counted = actm.rollout_batch
        monkeypatch.setattr(actm, "rollout_batch",
                            lambda *args, **kw: calls.append(1) or counted(*args, **kw))
        def solve(cfg):
            # the merged rollouts held to the config budget from the call
            evaluate = parallel._until(_MergedRollouts(problems, context), cfg.budget_s)
            return parallel._solve_jointly(problems, starts, cfg, evaluate)

        for termination in ("all", "best"):
            cfg = optimizer(budget_s=0.0, max_iterations=40, termination=termination)
            calls.clear()
            expired = solve(cfg)
            assert len(calls) == 1
            zero = solve(replace(cfg, max_iterations=0))
            # the recorded costs of both, read off the same solves under "all"
            every = [solve(replace(c, termination="all"))
                     for c in (cfg, replace(cfg, max_iterations=0))]
            for problem, s, got, want, *alls in zip(problems, starts, expired, zero, *every):
                costs = tuple(objective(problem, context, x) for x in s)
                assert tuple(map(recorded_costs, alls)) == (costs, costs)
                assert got.iterates == want.iterates
                assert got.best == want.best
                assert got.best.cost == min(costs)
                first = costs.index(min(costs))
                assert got.best.metering == decision_to_metering(problem, context, s[first])

    def test_lockstep_descents_equal_single_start_solves(self):
        # the descents of a multi-start solve run in lockstep, one merged batch
        # per round; each must still produce exactly its single-start trail
        rng = np.random.default_rng(67)
        for i in range(8):
            kind = CONVENTIONAL if i % 2 == 0 else PARAMETERIZED
            problem, context = make_problem(rng, kind=kind, horizon=int(rng.integers(1, 6)))
            lo, hi = np.asarray(problem.bounds_lo), np.asarray(problem.bounds_hi)
            starts = [rng.uniform(lo, hi) for _ in range(int(rng.integers(2, 5)))]
            cfg = optimizer(budget_s=None, max_iterations=15, termination="all")
            multi = solve_budgeted(problem, context, starts, cfg)
            singles = [solve_budgeted(problem, context, [s], cfg) for s in starts]
            want_iterates = [r.iterates[0] for r in singles]
            for r in singles:
                want_iterates.extend(r.iterates[1:])
            want_trail = [c.cost for c in want_iterates]
            assert recorded_costs(multi) == tuple(want_trail)
            assert [c.decision for c in multi.iterates] == [c.decision for c in want_iterates]
            first_best = min(range(len(want_trail)), key=lambda k: (want_trail[k], k))
            assert multi.best.decision == want_iterates[first_best].decision

    def test_the_injection_point_is_no_fork(self):
        # the test harness's point-by-point evaluator, costing every point
        # with objective(), gives the built-in solve byte for byte: every
        # iterate's decision, cost and plan, the cost trail and the best
        # point (the harness has no evaluation costs)
        def pinned(c):
            return tuple(np.array(v).tobytes() for v in (c.decision, c.cost, c.metering))

        rng = np.random.default_rng(181)
        descended = 0
        for _ in range(8):
            problem, context = make_problem(rng, horizon=int(rng.integers(1, 6)))
            hi = np.asarray(problem.bounds_hi)
            starts = [rng.uniform(0, 8, size=problem.decision_dim) for _ in range(2)]
            starts.append(hi + rng.uniform(0, 1, size=hi.size))  # clipped onto hi
            cfg = optimizer(budget_s=None, max_iterations=12, termination="all")
            built_in = solve_budgeted(problem, context, starts, cfg)
            harness = solve_pointwise(lambda x: objective(problem, context, x),
                                      problem, context, starts, cfg)
            assert list(map(pinned, harness.iterates)) == list(map(pinned, built_in.iterates))
            assert (np.array(recorded_costs(harness)).tobytes()
                    == np.array(recorded_costs(built_in)).tobytes())
            assert pinned(harness.best) == pinned(built_in.best)
            descended += len(built_in.iterates) - len(starts)
        assert descended >= 20, descended  # the descents did work

    def test_model_errors_other_than_plan_failures_propagate(self):
        rng = np.random.default_rng(61)
        problem, context = make_problem(rng, horizon=2)
        bad = replace(context, initial_state=NetworkState(n=(1.0,) * 5, q=(0.0,) * 3))
        x = np.ones(problem.decision_dim)
        with pytest.raises(TopologyError):
            objective(problem, bad, x)
        with pytest.raises(TopologyError):
            solve_budgeted(problem, bad, [x], optimizer(budget_s=None, max_iterations=2))

    def test_budget_compliance_with_slow_objective(self):
        eval_time = 0.02
        calls = []

        def slow(x):
            time.sleep(eval_time)
            calls.append(1)
            return float(np.sum(np.sin(x * 37.0)) + np.sum(x**2) * 1e-6)

        problem = dummy_problem(3)
        budget = 0.5
        cfg = optimizer(budget_s=budget, max_iterations=10_000)
        t0 = time.monotonic()
        solve_pointwise(slow, problem, SURROGATE, [np.zeros(3)], cfg)
        elapsed = time.monotonic() - t0
        assert elapsed <= (budget + eval_time) * 1.10 + 0.05
        assert len(calls) >= 2  # it did work inside the window

    def test_parameterized_conventional_consistency_horizon_one(self):
        rng = np.random.default_rng(43)
        consistent = 0
        for _ in range(10):
            state = random_state(rng)
            inp = random_input(rng)
            mu_prev = tuple(rng.uniform(0.5, 3, size=3))
            context = StepContext(params=NET, initial_state=state, demand_forecast=(inp,),
                                  mu_prev=mu_prev, gamma=0.8)
            conv = MpcProblem(label="C", kind=CONVENTIONAL, horizon=1,
                              bounds_lo=(0.0,) * 3, bounds_hi=(8.0,) * 3)
            rho = [state.n[i] / (NET.cells[i].length) for i in NET.metered_cells]
            delta = [NET.rho_crit - r for r in rho]
            if any(abs(d) < 1e-6 for d in delta):
                continue
            lo, hi = [], []
            for j in range(3):
                a = (0.0 - mu_prev[j]) / delta[j]
                b = (8.0 - mu_prev[j]) / delta[j]
                lo.append(min(a, b))
                hi.append(max(a, b))
            par = MpcProblem(label="P", kind=PARAMETERIZED, horizon=1,
                             bounds_lo=tuple(lo), bounds_hi=tuple(hi))
            cfg = optimizer(budget_s=None, max_iterations=150)
            c_starts = [np.zeros(3), np.full(3, 8.0), np.asarray(mu_prev)]
            p_starts = [np.asarray(lo), np.asarray(hi), np.zeros(3)]
            jc = solve_budgeted(conv, context, c_starts, cfg).best.cost
            jp = solve_budgeted(par, context, p_starts, cfg).best.cost
            assert abs(jc - jp) <= cfg.function_tolerance
            consistent += 1
        assert consistent >= 8  # almost every random draw is usable

    def test_requires_a_start(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            solve_budgeted(*make_problem(rng), [], optimizer())


class TestBoundsClip:
    def test_clip_equals_numpy_clip_bit_for_bit(self):
        # signed zeros, NaN and infinities against bounds with signed zeros,
        # lo == hi and infinite ends: numpy's clip returns the bound on
        # ties, and so must the maximum and minimum that replace it
        rng = np.random.default_rng(113)
        values = np.array([-0.0, 0.0, math.nan, 1.0, -1.0, 2.5, math.inf, -math.inf])
        ends = [(-0.0, 2.5), (0.0, 2.5), (0.0, 0.0), (-0.0, -0.0), (1.0, 1.0),
                (-math.inf, 0.0), (0.0, math.inf), (-1.0, -0.0)]
        for _ in range(200):
            lo, hi = np.array([ends[k] for k in rng.integers(0, len(ends), size=5)]).T
            x = rng.choice(values, size=(4, 5))
            assert _Bounds(lo, hi).clip(x).tobytes() == np.clip(x, lo, hi).tobytes()
            assert _Bounds(lo, hi).clip(x[0]).tobytes() == np.clip(x[0], lo, hi).tobytes()


class TestHoldBase:
    """A zero-gain feedback law holds the previous rates: the start it gives
    is the previous rates held over the horizon (conventional) or zero gains
    (parameterized), byte for byte."""

    @pytest.mark.parametrize("kind", [CONVENTIONAL, PARAMETERIZED])
    @pytest.mark.parametrize("horizon", [3, 10])
    def test_start_holds_the_previous_rates(self, kind, horizon):
        rng = np.random.default_rng(79 + horizon)
        zeros = 0
        for _ in range(100):
            problem, context = make_problem(rng, kind=kind, horizon=horizon)
            mu_prev = np.where(rng.uniform(size=3) < 0.3, 0.0, context.mu_prev)
            context = replace(context, mu_prev=tuple(mu_prev.tolist()))
            zeros += int(np.count_nonzero(mu_prev == 0.0))
            hold = FeedbackController((0.0,) * 3, "hold")
            warm = warm_start_rollout([hold], context.mu_prev, context.initial_state,
                                      context.demand_forecast, [horizon], context.params,
                                      tuple(rng.uniform(0, 8, size=3)))[0]
            if kind == CONVENTIONAL:
                want = np.tile(np.asarray(context.mu_prev, dtype=float), horizon)
            else:
                want = np.zeros(3)
            assert base_start_for(problem, warm).tobytes() == want.tobytes()
        assert zeros >= 50  # rates of exactly 0.0 are covered


class TestParallelCell:
    def setup_cell(self, seed=47):
        rng = np.random.default_rng(seed)
        state = NetworkState(n=(32.6, 36.2, 5.1, 25.3, 3.9, 0.0), q=(5.5, 9.6, 1.6))
        measured = ExogenousInput(5.0, (1.5, 1.0, 0.8))
        base = FeedbackController((0.016,) * 3, "ALINEA")
        warm = warm_start_rollout(
            [base], (0.5, 0.2, 0.4), state, (measured,), [10], NET, (3.8, 3.2, 0.6)
        )[0]
        problems = [
            MpcProblem(label=f"CMPC({i})", kind=CONVENTIONAL, horizon=h,
                       bounds_lo=(0.0,) * (3 * h), bounds_hi=(8.0,) * (3 * h))
            for i, h in enumerate((3, 10), start=1)
        ]
        context = StepContext(params=NET, initial_state=state, demand_forecast=(measured,),
                              mu_prev=(0.5, 0.2, 0.4), gamma=0.8)
        return problems, warm, context

    def test_warm_start_prefix_truncation(self):
        problems, warm, _ = self.setup_cell()
        start = base_start_for(problems[0], warm)
        np.testing.assert_allclose(
            start, np.asarray(warm.mu[:3], dtype=float).ravel()
        )
        assert start.size == 9
        assert base_start_for(problems[1], warm).size == 30

    def test_single_controller_cell_equals_solve_budgeted(self):
        problems, warm, context = self.setup_cell()
        cfg = optimizer(budget_s=None, max_iterations=10)
        cell = run_parallel_cell(problems[:1], warm, context, {}, cfg)
        direct = solve_budgeted(problems[0], context, [base_start_for(problems[0], warm)], cfg)
        assert cell["CMPC(1)"].best.decision == direct.best.decision
        every = replace(cfg, termination="all")
        cell = run_parallel_cell(problems[:1], warm, context, {}, every)
        direct = solve_budgeted(problems[0], context, [base_start_for(problems[0], warm)], every)
        assert recorded_costs(cell["CMPC(1)"]) == recorded_costs(direct)

    def test_serial_determinism_bitwise(self):
        problems, warm, context = self.setup_cell()
        cfg = optimizer(budget_s=None, max_iterations=12)
        hist = {problems[0]: np.full((3, 3), 0.7)}
        a = run_parallel_cell(problems, warm, context, hist, cfg)
        b = run_parallel_cell(problems, warm, context, hist, cfg)
        every = replace(cfg, termination="all")
        a_all, b_all = (run_parallel_cell(problems, warm, context, hist, every) for _ in "ab")
        for label in ("CMPC(1)", "CMPC(2)"):
            assert a[label].best.decision == b[label].best.decision
            assert recorded_costs(a_all[label]) == recorded_costs(b_all[label])

    def test_cells_solved_together_equal_separate_solves(self):
        # conventional and parameterized problems of horizons 3 and 10, from
        # one state, share every round of one lockstep; without a deadline
        # each result equals its own solve_budgeted run
        rng = np.random.default_rng(73)
        for trial in range(3):
            state = NetworkState(n=tuple(rng.uniform(0, 60, size=6)),
                                 q=tuple(rng.uniform(0, 15, size=3)))
            measured = ExogenousInput(rng.uniform(0, 7), tuple(rng.uniform(0, 3, size=3)))
            mu_prev = tuple(rng.uniform(0, 2, size=3))
            context = StepContext(params=NET, initial_state=state, demand_forecast=(measured,),
                                  mu_prev=mu_prev, gamma=0.8)
            cells = []
            for c, kind in enumerate((CONVENTIONAL, PARAMETERIZED)):
                gains = tuple(rng.uniform(0.005, 0.03, size=3))
                base = FeedbackController(gains, "ALINEA")
                warm = warm_start_rollout(
                    [base], mu_prev, state, (measured,), [10], NET, (3.8, 3.2, 0.6)
                )[0]
                problems = [
                    make_problem(rng, kind=kind, horizon=h, label=f"{kind}-{h}")[0]
                    for h in (3, 10)
                ]
                cells.append((problems, warm))
            hist = {}
            for problems, _ in cells:
                for p in problems:
                    rows = p.horizon if p.kind == CONVENTIONAL else 1
                    if trial:  # none at the first trial, as at a run's first step
                        hist[p] = rng.uniform(0, 1, size=(rows, 3))
            cfg = optimizer(budget_s=None, max_iterations=12, termination="all")
            together = run_parallel_cells(cells, context, hist, cfg)
            for problems, warm in cells:
                for p in problems:
                    starts = [base_start_for(p, warm)]
                    shifted = make_shift_warm_starts(hist.get(p, ()))
                    starts += [] if shifted is None else [shifted.ravel()]
                    alone = solve_budgeted(p, context, starts, cfg)
                    got = together[p.label]
                    assert recorded_costs(got) == recorded_costs(alone)
                    assert [c.decision for c in got.iterates] == [
                        c.decision for c in alone.iterates
                    ]
                    assert [c.metering for c in got.iterates] == [
                        c.metering for c in alone.iterates
                    ]
                    assert got.best.decision == alone.best.decision
                    assert got.best.cost == alone.best.cost
                    assert len(recorded_costs(got)) > len(starts)  # the descents did work

    def test_problem_of_another_ramp_count_rejected(self):
        # a box of two ramps per step against the network's three
        problems, warm, context = self.setup_cell()
        two_ramps = MpcProblem(label="two", kind=CONVENTIONAL, horizon=3,
                               bounds_lo=(0.0,) * 6, bounds_hi=(8.0,) * 6)
        cfg = optimizer(budget_s=None, max_iterations=2)
        with pytest.raises(ValueError, match="'two' has 2 ramps"):
            run_parallel_cells([(problems, warm), ([two_ramps], warm)], context, {}, cfg)
        with pytest.raises(ValueError, match="'two' has 2 ramps"):
            objective(two_ramps, context, np.zeros(6))

    def test_short_warm_start_rejected(self):
        problems, _, context = self.setup_cell()
        base = FeedbackController((0.016,) * 3, "ALINEA")
        state = NetworkState(n=(32.6, 36.2, 5.1, 25.3, 3.9, 0.0), q=(5.5, 9.6, 1.6))
        short = warm_start_rollout(
            [base], (0.5, 0.2, 0.4), state, (ExogenousInput(5.0, (1.5, 1.0, 0.8)),), [3], NET,
            (3.8, 3.2, 0.6),
        )[0]
        with pytest.raises(ValueError):
            run_parallel_cell(problems, short, context, {}, optimizer())
