"""Release acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS line (run with ``pytest -s tests/test_acceptance.py``
to see them).  The heavyweight closed-loop comparison is computed once per
session and shared.
"""

import hashlib
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from basepar import actm, base_controllers, orchestrator, parallel, scenario as scenario_module
from basepar.actm import (
    CellParams,
    ExogenousInput,
    NetworkParams,
    NetworkState,
    rollout_batch,
    step,
)
from basepar.base_controllers import (
    FeedbackController,
    GenerationRanges,
    generate_training_data,
    optimal_gain_for_sample,
)
from basepar.cli import main as cli_main
from basepar.orchestrator import ParallelCell
from basepar.parallel import (
    CONVENTIONAL,
    PARAMETERIZED,
    MpcProblem,
    StepContext,
    _Bounds,
    base_start_for,
    objective,
    solve_budgeted,
)
from basepar.scenario import (
    CONTROLLER_KEYS,
    build_architecture,
    default_scenario_path,
    load_scenario,
    overridden,
    run_experiment,
    train_networks,
    write_runlog,
)

from oracles import central_difference, grid_search_gain, oracle_step
from scalar_reference import alinea_step, fd_gradient, metered_density, solve_pointwise
from seed_panel import near_winner, panel, tie_steps
from shipped import optimizer

pytestmark = pytest.mark.filterwarnings("ignore")


def _report(criterion: int, text: str) -> None:
    print(f"\n[ACCEPTANCE {criterion}] PASS: {text}")


@pytest.fixture(scope="session")
def scenario():
    return load_scenario(default_scenario_path())


@pytest.fixture(scope="session")
def trained(scenario):
    t0 = time.monotonic()
    nets, results = train_networks(scenario)
    return nets, results, time.monotonic() - t0


def _count_kernel_calls(monkeypatch) -> list[tuple[int, int]]:
    """Record the horizon and row count of every kernel call from here on,
    wherever it is made: the plant, the warm starts, the solver rounds and
    any evaluation."""
    calls = []
    roll = actm.rollout_batch

    def counted(state, inputs, params, horizon, *args, **kwargs):
        result = roll(state, inputs, params, horizon, *args, **kwargs)
        calls.append((horizon, len(result[0])))
        return result

    monkeypatch.setattr(actm, "rollout_batch", counted)
    return calls


def _count_solver_rounds(monkeypatch) -> list[int]:
    """Record the row count of every solver round from here on."""
    rounds = []
    evaluate = parallel._MergedRollouts.__call__

    def counted(self, requests):
        answer = evaluate(self, requests)
        rounds.append(len(answer[0]))
        return answer

    monkeypatch.setattr(parallel._MergedRollouts, "__call__", counted)
    return rounds


def _count_scalar_model_calls(monkeypatch) -> Counter:
    """Count the ``step`` and ``rollout`` calls from here on, keyed by the
    module whose global was called."""
    calls = Counter()

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    for module in (actm, base_controllers, parallel, orchestrator, scenario_module):
        for name in ("step", "rollout"):
            if hasattr(module, name):
                key = f"{module.__name__}.{name}"
                monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
    return calls


@pytest.fixture(scope="session")
def compare_runs(scenario, trained):
    """The serial run of every control approach, the comparison's wall time,
    and the kernel calls ``(horizon, rows)``, the ``step`` and ``rollout``
    calls and the solver rounds' rows of the architecture's run."""
    nets, _, _ = trained
    t0 = time.monotonic()
    logs, calls, scalar_calls, rounds = {}, [], Counter(), []
    for key in CONTROLLER_KEYS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            if key == "architecture":
                calls = _count_kernel_calls(monkeypatch)
                scalar_calls = _count_scalar_model_calls(monkeypatch)
                rounds = _count_solver_rounds(monkeypatch)
            logs[key] = run_experiment(scenario, key, serial=True, nets=nets)
    return logs, time.monotonic() - t0, calls, scalar_calls, rounds


def test_criterion_1_actm_oracle_equivalence(scenario):
    """Flow examples match an independent evaluation to 1e-9; conservation
    holds to 1e-9 per step over a 180-step random-demand run; under 1 s."""
    t0 = time.monotonic()
    net = scenario.network
    state = NetworkState(n=(32.6, 36.2, 5.1, 25.3, 3.9, 0.0), q=(5.5, 9.6, 1.6))
    inp = ExogenousInput(4.0, (2.0, 0.8, 0.6))

    # documented worked examples
    _, flows, _ = step(state, inp, None, net)
    assert flows.e[1] == pytest.approx(7.5, abs=1e-9)
    _, flows, _ = step(state, inp, (0.5, 0.2, 0.4), net)
    assert flows.e[1] == pytest.approx(0.5, abs=1e-9)
    assert flows.o[1] == pytest.approx(8.0, abs=1e-9)
    assert flows.s[1] == pytest.approx(0.35 / 0.65 * 8.0, abs=1e-9)

    # random-state agreement with the independent re-implementation
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = tuple(rng.uniform(0, 80, size=6))
        q = tuple(rng.uniform(0, 20, size=3))
        st = NetworkState(n=n, q=q)
        d_main = rng.uniform(0, 8)
        ramps = tuple(rng.uniform(0, 3, size=3))
        mu = tuple(rng.uniform(0, 8, size=3))
        nxt, fl, _ = step(st, ExogenousInput(d_main, ramps), mu, net)
        ref = oracle_step(net, list(n), list(q), d_main,
                          dict(zip(net.onramp_cells, ramps)),
                          dict(zip(net.metered_cells, mu)), 0.8)
        assert fl.e == pytest.approx(ref["e"], abs=1e-9)
        assert fl.o == pytest.approx(ref["o"], abs=1e-9)
        assert fl.s == pytest.approx(ref["s"], abs=1e-9)
        assert nxt.n == pytest.approx(ref["n"], abs=1e-9)
        assert nxt.q == pytest.approx(ref["q"], abs=1e-9)

    # conservation over a 180-step random-demand run
    rng = np.random.default_rng(102)
    st = state
    entered = exited = 0.0
    steps = 180
    for _ in range(steps):
        d = ExogenousInput(rng.uniform(0, 8), tuple(rng.uniform(0, 3, size=3)))
        mu = tuple(rng.uniform(0, 8, size=3))
        st, fl, _ = step(st, d, mu, net)
        entered += fl.mainstream_in + sum(d.ramp_demands)
        exited += fl.o[-1] + sum(fl.s)
    balance = sum(state.n) + sum(state.q) + entered - exited - (sum(st.n) + sum(st.q))
    assert abs(balance) < 1e-9 * steps

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"model matches the independent oracle to 1e-9, conservation "
               f"residual {balance:.2e} over {steps} steps, {elapsed:.2f}s")


def test_criterion_2_alinea_unit_values():
    """Feedback-law fixed point, zero clamp, and the documented numeric value
    to 1e-6, on the scalar reference law and on the law a run applies: a
    one-step gain row of the kernel, on a one-ramp network of one 560 m
    lane, whose rates equal the reference's byte for byte."""
    assert alinea_step([0.7], (0.016,), [0.0335], 0.0335)[0] == 0.7

    assert alinea_step([0.0], (0.016,), [0.1], 0.0335)[0] == 0.0

    mu = alinea_step([0.5], (0.016,), [36.2 / 560.0], 0.0335)[0]
    assert mu == pytest.approx(0.499502, abs=1e-6)

    net = NetworkParams(
        cells=(CellParams(length=560.0, capacity_nbar=80.0, sat_mainline_obar=8.0,
                          sat_offramp_sbar=6.0, blend_alpha=0.6, has_onramp=True,
                          metered=True),),
        sample_cycle_s=20.0, rho_crit=0.0335,
    )
    rates, densities = [], []
    for mu_prev, n in ((0.7, 18.76), (0.0, 56.0), (0.5, 36.2)):
        state = NetworkState(n=(n,), q=(2.0,))
        _, plans, *_ = rollout_batch(state, (ExogenousInput(3.0, (1.0,)),), net, 1, 0.8,
                                 gains=np.array([[0.016]]), mu_prev=(mu_prev,))
        rho = metered_density(state, net)
        want = alinea_step((mu_prev,), (0.016,), rho, net.rho_crit)
        assert plans[0, 0].tobytes() == np.array(want).tobytes()
        rates.append(float(plans[0, 0, 0]))
        densities.extend(rho)
    assert densities == [0.0335, 0.1, 36.2 / 560.0]
    assert rates[:2] == [0.7, 0.0]
    assert rates[2] == pytest.approx(0.499502, abs=1e-6)
    _report(2, f"fixed point, clamp, and rate {mu:.6f} == 0.499502 within 1e-6, "
               f"on the scalar law and on a kernel gain row")


def test_criterion_3_training_oracle_and_fit(scenario, trained):
    """Closed-form gains match a 1e-4-resolution grid search on 20 audited
    samples; per-cell validation RMSE is at most 0.25x the target standard
    deviation; training finishes inside 60 s."""
    net = scenario.network
    rng = np.random.default_rng(103)
    audited = 0
    for cell_index in net.metered_cells:
        for _ in range(7):
            n = rng.uniform(0, 80)
            q = rng.uniform(0, 30)
            d = rng.uniform(0, 4)
            o_prev = rng.uniform(0, 8)
            theta, _ = optimal_gain_for_sample(net, cell_index, n, q, d, o_prev)
            ref = grid_search_gain(net, cell_index, n, q, d, o_prev)
            assert theta == pytest.approx(ref, abs=1.01e-4)
            audited += 1
    assert audited >= 20

    nets, results, train_elapsed = trained
    ratios = []
    for cell_index, result in sorted(results.items()):
        cell = net.cells[cell_index]
        ranges = GenerationRanges(
            n=(0.0, cell.capacity_nbar), q=(0.0, 30.0), d=(0.0, 4.0),
            o_prev=(0.0, cell.sat_mainline_obar),
        )
        gen_rng = np.random.default_rng([scenario.seed, cell_index])
        samples = generate_training_data(net, cell_index, scenario.ann.sample_count,
                                         ranges, gen_rng)
        assert len(samples) == 500
        target_std = float(np.std([s.theta for s in samples]))
        assert result.validation_rmse <= 0.25 * target_std
        ratios.append(result.validation_rmse / target_std)
    assert train_elapsed < 60.0
    _report(3, f"{audited} gain solutions match the grid oracle within 1e-4; "
               f"validation RMSE/std per cell {['%.3f' % r for r in ratios]} "
               f"(limit 0.25); training {train_elapsed:.1f}s")


def test_criterion_4_solver_correctness(scenario):
    """Quadratic minimizer within 1e-5, non-increasing best-so-far cost,
    warm-start dominance on 20 random instances, and the finite-difference
    gradient against a central-difference oracle at relative 1e-4."""
    net = scenario.network

    surrogate = StepContext(
        params=net, initial_state=NetworkState(n=(10.0,) * 6, q=(1.0,) * 3),
        demand_forecast=(ExogenousInput(1.0, (0.5, 0.5, 0.5)),), mu_prev=(0.5, 0.5, 0.5),
        gamma=0.8,
    )

    def dummy(dim, lo, hi):
        return MpcProblem(label="t", kind=CONVENTIONAL, horizon=dim // 3,
                          bounds_lo=(lo,) * dim, bounds_hi=(hi,) * dim)

    rng = np.random.default_rng(104)
    a = rng.uniform(-3, 3, size=6)
    m = rng.normal(size=(6, 6))
    qmat = m.T @ m + np.eye(6)
    fun = lambda x: float((x - a) @ qmat @ (x - a))
    cfg = optimizer(budget_s=None, max_iterations=300)
    res = solve_pointwise(fun, dummy(6, -10.0, 10.0), surrogate, [np.zeros(6)], cfg)
    gap = float(np.max(np.abs(np.asarray(res.best.decision) - a)))
    assert gap < 1e-5

    def random_problem(k):
        """A problem and a random context to solve it from."""
        kind = CONVENTIONAL if k % 2 == 0 else PARAMETERIZED
        horizon = int(rng.integers(1, 5))
        nr = 3
        lo, hi = ((0.0,) * (nr * horizon), (8.0,) * (nr * horizon)) \
            if kind == CONVENTIONAL else ((0.0,) * nr, (1.0,) * nr)
        problem = MpcProblem(label="MPC", kind=kind, horizon=horizon, bounds_lo=lo, bounds_hi=hi)
        context = StepContext(
            params=net,
            initial_state=NetworkState(
                n=tuple(rng.uniform(0, 60, size=6)), q=tuple(rng.uniform(0, 15, size=3))
            ),
            demand_forecast=(ExogenousInput(rng.uniform(0, 7),
                                            tuple(rng.uniform(0, 3, size=3))),),
            mu_prev=tuple(rng.uniform(0, 2, size=3)),
            gamma=0.8,
        )
        return problem, context

    dominated = 0
    for k in range(20):
        problem, context = random_problem(k)
        width = problem.bounds_hi[0]
        starts = [rng.uniform(0, width, size=problem.decision_dim)
                  for _ in range(int(rng.integers(1, 5)))]
        cfg = optimizer(budget_s=None, max_iterations=15)
        result = solve_budgeted(problem, context, starts, cfg)
        # the recorded costs, read off the solve of the same inputs under "all"
        every = solve_budgeted(problem, context, starts, replace(cfg, termination="all"))
        costs = [c.cost for c in every.iterates]
        trail_best = np.minimum.accumulate(costs)
        assert all(b <= c + 1e-15 for c, b in zip(trail_best, trail_best[1:]))
        assert result.best.cost == min(costs)
        for s in starts:
            assert result.best.cost <= objective(problem, context, s) + 1e-12
        dominated += 1
    assert dominated == 20

    problem, context = random_problem(0)
    fun2 = lambda x: objective(problem, context, x)
    lo = np.asarray(problem.bounds_lo)
    hi = np.asarray(problem.bounds_hi)
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(0.5, 7.5, size=problem.decision_dim)
        g_fwd = fd_gradient(fun2, x, fun2(x), _Bounds(lo, hi), 1e-6)
        g_ctr = central_difference(fun2, x, h=1e-6)
        scale = max(1e-6, float(np.max(np.abs(g_ctr))))
        worst = max(worst, float(np.max(np.abs(g_fwd - g_ctr))) / scale)
    assert worst < 1e-4
    _report(4, f"quadratic gap {gap:.2e} (limit 1e-5), best-so-far monotone, "
               f"20/20 instances dominate their starts, gradient mismatch "
               f"{worst:.2e} (limit 1e-4)")


def test_criterion_5_budget_compliance(scenario, trained):
    """A 2 s budget is respected up to one objective evaluation (10% slack);
    one full architecture step finishes far below the 20 s sampling cycle."""
    net = scenario.network
    eval_time = 0.05

    def slow(x):
        time.sleep(eval_time)
        return float(np.sum(np.sin(x * 37.0)) + 1e-6 * np.sum(x**2))

    problem = MpcProblem(label="slow", kind=CONVENTIONAL, horizon=1,
                         bounds_lo=(-10.0,) * 3, bounds_hi=(10.0,) * 3)
    context = StepContext(
        params=net, initial_state=NetworkState(n=(10.0,) * 6, q=(1.0,) * 3),
        demand_forecast=(ExogenousInput(1.0, (0.5, 0.5, 0.5)),), mu_prev=(0.5, 0.5, 0.5),
        gamma=0.8,
    )
    budget = 2.0
    t0 = time.monotonic()
    solve_pointwise(slow, problem, context, [np.zeros(3)],
                    optimizer(budget_s=budget, max_iterations=10_000))
    solve_elapsed = time.monotonic() - t0
    assert solve_elapsed <= (budget + eval_time) * 1.10

    nets, _, _ = trained
    arch = build_architecture(scenario, nets=nets, serial=False)
    state = scenario.initial_state
    measured = ExogenousInput(5.0, (1.5, 1.0, 0.8))
    t0 = time.monotonic()
    arch.control_step(state, measured, scenario.o_prev_init)
    step_elapsed = time.monotonic() - t0
    assert step_elapsed < net.sample_cycle_s
    _report(5, f"budgeted solve {solve_elapsed:.2f}s <= {(budget + eval_time) * 1.10:.2f}s; "
               f"full control step {step_elapsed:.2f}s << {net.sample_cycle_s:.0f}s cycle")


def test_criterion_6_selector_exactness(scenario, compare_runs):
    """The applied candidate attains the minimum evaluated cost at every one
    of the 180 steps, and adding a controller never worsens the selected
    cost at a fixed state."""
    logs = compare_runs[0]
    arch_log = logs["architecture"]
    assert len(arch_log.records) == scenario.steps
    for r in arch_log.records:
        costs = r.candidate_costs
        assert costs, "architecture records must carry evaluated costs"
        first_argmin = min(range(len(costs)), key=lambda i: (costs[i], i))
        assert r.winner == r.candidate_labels[first_argmin]
        assert costs[first_argmin] <= min(costs)

    def cmpc(label, horizon):
        return MpcProblem(label, CONVENTIONAL, horizon, (0.0,) * (3 * horizon),
                          (8.0,) * (3 * horizon))

    def mini_arch(controllers):
        from basepar.orchestrator import ArchitectureConfig, BaseParallelController

        config = ArchitectureConfig(
            params=scenario.network,
            cells=[ParallelCell(
                base=FeedbackController((0.016,) * 3, "ALINEA"),
                controllers=controllers,
            )],
            evaluation_horizon=3,
            gamma=scenario.gamma,
            optimizer=optimizer(budget_s=None, max_iterations=8),
        )
        return BaseParallelController(config, mu_init=(0.5, 0.2, 0.4))

    rng = np.random.default_rng(105)
    for _ in range(3):
        st = NetworkState(n=tuple(rng.uniform(0, 60, size=6)),
                          q=tuple(rng.uniform(0, 12, size=3)))
        measured = ExogenousInput(rng.uniform(0, 7), tuple(rng.uniform(0, 2.5, size=3)))
        small = mini_arch((cmpc("CMPC(1)", 3),))
        large = mini_arch((cmpc("CMPC(1)", 3), cmpc("CMPC(2)", 10)))
        _, ev_s = small.control_step(st, measured, (3.8, 3.2, 0.6))
        _, ev_l = large.control_step(st, measured, (3.8, 3.2, 0.6))
        assert ev_l.costs[ev_l.winner_index] <= ev_s.costs[ev_s.winner_index] + 1e-12
    _report(6, f"selector attains the minimum at all {len(arch_log.records)} steps; "
               f"superset monotonicity holds at 3 probed states")


def test_criterion_7_qualitative_ordering(compare_runs):
    """Average cost per vehicle: frozen-gain feedback >= gain network >= every
    online MPC variant; the architecture's total cost is within 0.5% of the
    best standalone controller; the whole comparison stays under 10 min.
    The architecture's wins on the shipped case are decided by the
    tie-break at 145 of its 180 serial steps, where every candidate's
    3-step cost lies within 4 ulps of the winner's
    (``test_serial_selections_are_decided_within_4_ulps``)."""
    logs, elapsed = compare_runs[:2]
    avg = {k: logs[k].summary.avg_cost_per_vehicle for k in logs}
    j = {k: logs[k].summary.j_total for k in logs}
    assert avg["alinea"] >= avg["ann"]
    for key in ("cmpc1", "cmpc2", "pmpc1", "pmpc2"):
        assert avg["ann"] >= avg[key], f"gain network must not beat {key}"
    standalone_best = min(j[k] for k in logs if k != "architecture")
    assert j["architecture"] <= 1.005 * standalone_best
    assert elapsed < 600.0
    _report(7, "avg cost/veh ordering "
               f"ALINEA {avg['alinea']:.1f} >= ANN {avg['ann']:.1f} >= "
               f"MPC {max(avg[k] for k in ('cmpc1', 'cmpc2', 'pmpc1', 'pmpc2')):.1f}; "
               f"architecture J {j['architecture']:.2f} <= "
               f"1.005 x {standalone_best:.2f}; comparison took {elapsed:.0f}s")


def test_criterion_8_serial_determinism(tmp_path):
    """Two serial runs with the same seed produce byte-identical logs."""
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main([
            "run", "--controller", "architecture", "--serial", "--seed", "7",
            "--steps", "12", "--out", str(out),
        ])
        assert code == 0
        payloads.append((out / "run_architecture.jsonl").read_bytes())
    assert payloads[0] == payloads[1]
    _report(8, f"two serial runs wrote identical logs ({len(payloads[0])} bytes)")


# The shipped serial runs, pinned: criterion 8 compares two runs of the same
# code, so only fixed values catch an edit that moves one bit.
GOLDEN_J_TOTAL = 178.5512061754435
# The serial end of the paper's claim: standalone CMPC(1), the best
# standalone approach, beats the architecture by 0.14% on the shipped seed,
# and CMPC(2) by 0.12%, so the strict ordering fails here and criterion 7
# states it only within 0.5%.
GOLDEN_CMPC1_J_TOTAL = 178.29910141282937
GOLDEN_CMPC2_J_TOTAL = 178.33197593622597
GOLDEN_LOG_SHA256 = {
    "alinea": "7b74a4945c40986b5b0a6e8008460fa3ed12f05b0b17a72913f9fbd2a701dd6c",
    "ann": "fdf83a640964f57d5f8546d488981882ecf52486c546b6c371c11053de3b81dd",
    "cmpc1": "bc7415291a2efadc502b8ffa2498f75104ae81861bcb53b1f6be1d5d01bf7711",
    "cmpc2": "89816e57e4753d08abb4c56523578a6a943b044abdec17b2c6ef0e3d937a9949",
    "pmpc1": "6977fd2843a22dd5c1bf6c5256fb0fac0bec9b9d0047e364928eb86b25564389",
    "pmpc2": "2c3413545ef1f32c08ad606942c154089ec5e7efac5ebbe0d75397ba41b7cf4f",
    "architecture": "35b772d48347020473a9a695b473471f2ef5e7d34f198e7b64221bf3c3350a1f",
}


def test_serial_architecture_run_is_pinned(compare_runs, tmp_path):
    """The 180-step serial architecture run keeps its exact J_total, and the
    serial run of every control approach keeps the bytes of its run log."""
    logs = compare_runs[0]
    assert logs["architecture"].summary.j_total == GOLDEN_J_TOTAL
    assert logs["cmpc1"].summary.j_total == GOLDEN_CMPC1_J_TOTAL
    assert logs["cmpc2"].summary.j_total == GOLDEN_CMPC2_J_TOTAL
    digests = {}
    for key, log in logs.items():
        path = tmp_path / f"run_{key}.jsonl"
        write_runlog(log, str(path))
        digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == GOLDEN_LOG_SHA256


def test_serial_selections_are_decided_within_4_ulps(compare_runs):
    """On the serial architecture run, count the steps whose winner's 3-step
    cost lies within 4 ulps of every other candidate's, and those where it
    lies within 4 ulps of at least one candidate from another source.  This
    records a measurement, pinned exactly; it sets no threshold."""
    log = compare_runs[0]["architecture"]
    other_source = sum(any(n and label != r.winner
                           for n, label in zip(near_winner(r), r.candidate_labels))
                       for r in log.records)
    assert (tie_steps(log), other_source, len(log.records)) == (145, 180, 180)


def test_standalone_cmpc_stage_costs_agree_while_their_rates_differ(compare_runs):
    """The shipped case is flat: over the first 90 serial steps, standalone
    CMPC(1)'s and CMPC(2)'s stage costs agree within 3e-15 h at every step,
    while the rates they apply differ at every step, by up to more than 2
    veh/cycle.  This records a measurement; the first larger gap is at step
    173."""
    logs = compare_runs[0]
    pairs = list(zip(logs["cmpc1"].records, logs["cmpc2"].records))[:90]
    assert len(pairs) == 90
    assert all(abs(a.cost_j - b.cost_j) <= 3e-15 for a, b in pairs)
    moved = [max(abs(x - y) for x, y in zip(a.applied, b.applied)) for a, b in pairs]
    assert min(moved) > 0 and max(moved) > 2.0


def test_serial_work_counters_are_pinned(scenario, trained, compare_runs, monkeypatch):
    """The serial architecture run makes an exact number of kernel calls,
    model steps and rows, over its first 20 steps and over all 180: one call
    per plant step, per step's warm starts and per solver round, and none
    to convert plans or evaluate candidates, so extra rounds show here, and
    the solver rounds alone show that the solver does the same work."""
    calls = _count_kernel_calls(monkeypatch)
    run_experiment(overridden(scenario, steps=20), "architecture", serial=True, nets=trained[0])
    assert len(calls) == 207
    assert sum(h for h, _ in calls) == 1862
    calls, rounds = compare_runs[2], compare_runs[4]
    assert len(calls) == 935
    assert sum(h for h, _ in calls) == 7583
    assert sum(rows for _, rows in calls) == 47527
    assert len(rounds) == 575


def test_serial_run_builds_each_problem_once(scenario, trained, monkeypatch):
    """A serial architecture run builds its four problems, and the solver's
    view of each box, once per run, not once per step."""
    built = Counter()

    def counting(key, fn):
        def counted(self, *args, **kwargs):
            built[key] += 1
            return fn(self, *args, **kwargs)
        return counted

    monkeypatch.setattr(MpcProblem, "__post_init__",
                        counting("MpcProblem", MpcProblem.__post_init__))
    monkeypatch.setattr(_Bounds, "__init__", counting("_Bounds", _Bounds.__init__))
    run_experiment(overridden(scenario, steps=20), "architecture", serial=True, nets=trained[0])
    assert built == Counter({"MpcProblem": 4, "_Bounds": 4})


def test_serial_controllers_start_from_the_base_and_their_previous_solution(
        scenario, trained, monkeypatch):
    """Over the first 20 serial architecture steps every online controller
    is solved from its base's warm start and, from its second step on, its
    previous best decision shifted one step, and from nothing else."""
    steps = []  # per step: the cells with their warm starts, then the solve
    run_cells, solve = orchestrator.run_parallel_cells, parallel._solve_jointly

    def cells_recorded(cells, *args, **kwargs):
        steps.append([cells])
        return run_cells(cells, *args, **kwargs)

    def solve_recorded(problems, starts, *args, **kwargs):
        results = solve(problems, starts, *args, **kwargs)
        steps[-1].append((problems, starts, results))
        return results

    monkeypatch.setattr(orchestrator, "run_parallel_cells", cells_recorded)
    monkeypatch.setattr(parallel, "_solve_jointly", solve_recorded)
    run_experiment(overridden(scenario, steps=20), "architecture", serial=True, nets=trained[0])
    assert len(steps) == 20
    previous = {}
    for cells, (problems, starts, results) in steps:
        warm = {p.label: w for cell_problems, w in cells for p in cell_problems}
        assert len(problems) == 4
        for problem, got, result in zip(problems, starts, results):
            want = [base_start_for(problem, warm[problem.label])]
            if problem.label in previous:
                decision = previous[problem.label]
                want.append(np.vstack([decision[1:], decision[-1:]]).ravel())
            assert [np.asarray(s).tobytes() for s in got] == [s.tobytes() for s in want]
            previous[problem.label] = np.array(result.best.decision).reshape(
                -1, problem.n_ramps)


def test_serial_architecture_steps_the_scalar_model_for_the_plant_only(compare_runs):
    """The kernel is the one prediction model: over a 180-step serial
    architecture run ``step``, one kernel row, is called only for the
    plant, once a step."""
    assert compare_runs[3] == Counter({"basepar.scenario.step": 180})


def test_serial_descents_strictly_decrease(scenario, trained, monkeypatch):
    """Over the first 20 serial architecture steps, every point a descent
    records costs strictly less than the one before it, its start first: a
    descent ends at its first line-search step that does not lower the
    cost instead of walking a plateau."""
    trails = []
    descent = parallel._descent

    def traced(x0, f0, g0, bounds, cfg, trail):
        assert [f for _, f, *_ in trail] == [f0]  # the start is recorded first
        trails.append(trail)
        return descent(x0, f0, g0, bounds, cfg, trail)

    monkeypatch.setattr(parallel, "_descent", traced)
    run_experiment(overridden(scenario, steps=20), "architecture", serial=True, nets=trained[0])
    trails = [[f for _, f, *_ in trail] for trail in trails]
    assert sum(len(trail) > 1 for trail in trails) > 20
    for trail in trails:
        assert all(b < a for a, b in zip(trail, trail[1:])), trail


# The budget-0 end of the paper's claim.  The first solver round runs
# whatever the deadline and is the whole solve, so these values do not
# depend on the host's speed.  Every standalone MPC applies its hold base's
# rates, the initial ones, at every step.
GOLDEN_BUDGET_ZERO_J_TOTAL = {
    "architecture": 518.7042776134633,
    "cmpc1": 798.7386348017402,
    "cmpc2": 798.7386348017402,
    "pmpc1": 798.7386348017402,
    "pmpc2": 798.7386348017402,
    "ann": 525.7692460129822,
    "alinea": 793.9090855545682,
}


def test_budget_zero_ordering_is_pinned(scenario, trained):
    """At a zero wall budget every approach keeps its exact J_total, and the
    architecture's is strictly below every standalone approach's."""
    nets = trained[0]
    j = {key: run_experiment(scenario, key, budget_override=0.0, nets=nets).summary.j_total
         for key in GOLDEN_BUDGET_ZERO_J_TOTAL}
    assert j == GOLDEN_BUDGET_ZERO_J_TOTAL
    assert all(j["architecture"] < j[key] for key in j if key != "architecture")


def test_seed_panel_gives_the_runs_it_names(scenario, compare_runs, trained):
    """The seed-panel helper's runs on the shipped seed are the serial
    comparison's and the pinned budget-0 runs, with their exits."""
    logs = compare_runs[0]
    got = list(panel([scenario.seed], ["cmpc1", "architecture"], [None, 0.0], trained[0]))
    assert [(r["approach"], r["seed"], r["budget"]) for r in got] == [
        ("cmpc1", scenario.seed, None), ("cmpc1", scenario.seed, 0.0),
        ("architecture", scenario.seed, None), ("architecture", scenario.seed, 0.0)]
    for r in got:
        if r["budget"] is None:
            assert r["j_total"] == logs[r["approach"]].summary.j_total
            assert r["n_total"] == logs[r["approach"]].summary.n_total
        else:
            assert r["j_total"] == GOLDEN_BUDGET_ZERO_J_TOTAL[r["approach"]]
            assert r["n_total"] > 0
