from dataclasses import replace

import numpy as np
import pytest
import yaml

from basepar import actm, scenario as scenario_module
from basepar.actm import ExogenousInput, rollout
from basepar.scenario import (
    CONTROLLER_LABELS,
    DemandProfile,
    NoiseModel,
    ScenarioError,
    default_scenario,
    default_scenario_path,
    emit_plot_data,
    load_scenario,
    perturb_demand,
    read_runlog,
    run_experiment,
    summarize,
    write_runlog,
)


class TestDefaultScenario:
    def test_shipped_file_matches_reference_parameters(self):
        cfg = load_scenario(default_scenario_path())
        net = cfg.network
        assert net.sample_cycle_s == 20.0
        assert net.rho_crit == 0.0335
        assert net.lanes == 1
        assert net.free_flow_mps == 28.0
        assert net.n_cells == 6
        for cell in net.cells:
            assert cell.length == 560.0
            assert cell.capacity_nbar == 80.0
            assert cell.sat_mainline_obar == 8.0
            assert cell.sat_offramp_sbar == 6.0
            assert cell.eta_idling == 0.3
            assert cell.xi == 0.4
        assert net.metered_cells == (1, 3, 4)
        assert [net.cells[i].blend_alpha for i in (1, 3, 4)] == [0.6, 0.8, 0.7]
        assert [net.cells[i].split_beta for i in (1, 3, 4)] == [0.35, 0.62, 0.43]
        assert [net.cells[i].eta_moving for i in (1, 3, 4)] == [0.8, 0.65, 0.8]

    def test_shipped_file_matches_initial_condition(self):
        cfg = load_scenario(default_scenario_path())
        assert cfg.initial_state.n == (32.6, 36.2, 5.1, 25.3, 3.9, 0.0)
        assert cfg.initial_state.q == (5.5, 9.6, 1.6)
        assert cfg.mu_prev_init == (0.5, 0.2, 0.4)
        assert cfg.o_prev_init == (3.8, 3.2, 0.6)
        assert cfg.steps == 180
        assert cfg.gamma == 0.8
        assert cfg.control.alinea_gain == 0.016
        assert cfg.control.evaluation_horizon == 3
        assert cfg.control.horizons == (3, 10)
        assert cfg.control.function_tolerance == 1e-3
        assert cfg.control.step_tolerance == 1e-7

    def test_file_and_builtin_agree(self):
        assert load_scenario(default_scenario_path()) == default_scenario()

    def test_missing_field_named_in_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("initial_state:\n  n: [1, 1, 1, 1, 1, 1]\n")
        with pytest.raises(ScenarioError, match="initial_state.q"):
            load_scenario(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("speling_mistake: 3\n")
        with pytest.raises(ScenarioError, match="speling_mistake"):
            load_scenario(path)

    def test_partial_file_fills_defaults(self, tmp_path):
        path = tmp_path / "partial.yaml"
        path.write_text("seed: 99\nsteps: 10\n")
        cfg = load_scenario(path)
        assert cfg.seed == 99 and cfg.steps == 10
        assert cfg.network == default_scenario().network

    def test_unsorted_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            DemandProfile(breakpoints=((10.0, 1.0), (0.0, 2.0)))

    def test_infinite_demand_value_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DemandProfile(breakpoints=((0.0, 1.0), (60.0, float("inf"))))

    @pytest.mark.parametrize("field", ["value", "time"])
    def test_nan_breakpoint_rejected(self, field):
        point = (0.0, float("nan")) if field == "value" else (float("nan"), 1.0)
        with pytest.raises(ValueError):
            DemandProfile(breakpoints=(point,))
        with pytest.raises(ValueError):
            DemandProfile(breakpoints=((0.0, 1.0), point))


N6 = "n: [1.0, 1.0, 1.0, 1.0, 1.0, 0.0]"
P = "{breakpoints: [[0, 1.0]]}"
RAMPS = f"onramps: {{2: {P}, 4: {P}, 5: {P}}}"
FLOWS = "o_prev: {2: 1.0, 4: 1.0, 5: 1.0}"
CELL = "length: 560.0, capacity_nbar: 80.0, sat_mainline_obar: 8.0, sat_offramp_sbar: 6.0"

# (scenario file, text the ScenarioError message must contain)
ERROR_CONTRACT = {
    "missing-q": (f"initial_state: {{{N6}}}", "initial_state.q"),
    "missing-o_prev": ("initial_flows: {mu_prev: {2: 0.5, 4: 0.2, 5: 0.4}}",
                       "initial_flows.o_prev"),
    "missing-mainstream": (f"demand: {{{RAMPS}}}", "demand.mainstream"),
    "missing-onramps": (f"demand: {{mainstream: {P}}}", "demand.onramps"),
    "missing-cell-entry": (f"initial_flows: {{mu_prev: {{2: 0.5, 4: 0.2}}, {FLOWS}}}",
                           "initial_flows.mu_prev"),
    "extra-cell-entry": (f"initial_state: {{{N6}, q: {{2: 1, 4: 1, 5: 1, 6: 1}}}}",
                         "initial_state.q"),
    "empty-cells": ("network: {cells: []}", "network.cells"),
    "non-mapping-cell": ("network: {cells: [3]}", "network.cells[0]"),
    "unknown-cell-key": (f"network: {{cells: [{{{CELL}, colour: 1}}]}}", "network.cells[0]"),
    "unsorted-breakpoints": (
        f"demand: {{mainstream: {{breakpoints: [[10, 1.0], [0, 2.0]]}}, {RAMPS}}}",
        "demand.mainstream"),
    "wrong-schema": ("schema: scenario/2", "schema"),
    "yaml-syntax": ("a: 1\nb: : 2", "line 2"),
}

# Inputs the scenario parser also rejects, naming the field.
ERROR_CONTRACT_STRICT = {
    "unknown-network": ("network: {lanez: 2}", "network.lanez"),
    "unknown-initial_state": (f"initial_state: {{{N6}, q: {{2: 1, 4: 1, 5: 1}}, step: 3}}",
                              "initial_state.step"),
    "unknown-initial_flows": (f"initial_flows: {{mu_prev: {{2: 1, 4: 1, 5: 1}}, {FLOWS}, mu: 1}}",
                              "initial_flows.mu"),
    "unknown-demand": (f"demand: {{mainstream: {P}, {RAMPS}, peak: 1}}", "demand.peak"),
    "unknown-noise": ("noise: {fractoin: 0.2}", "noise.fractoin"),
    "unknown-control": ("control: {budgett_s: 0.5}", "control.budgett_s"),
    "unknown-ann": ("ann: {sample_cont: 3}", "ann.sample_cont"),
    "extra-onramp": (f"demand: {{mainstream: {P}, onramps: {{2: {P}, 3: {P}, 4: {P}, 5: {P}}}}}",
                     "demand.onramps.3"),
    "unknown-profile-key": (
        f"demand: {{mainstream: {{breakpoints: [[0, 1.0]], shape: flat}}, {RAMPS}}}",
        "demand.mainstream.shape"),
    "noise-not-mapping": ("noise: [1]", "noise"),
    "control-not-mapping": ("control: [1]", "control"),
    "ann-not-mapping": ("ann: 3", "ann"),
    "metered-string": (f"network: {{cells: [{{{CELL}, has_onramp: true, metered: 'no'}}]}}",
                       "network.cells[0].metered"),
    "steps-float": ("steps: 10.7", "steps"),
    "seed-bool": ("seed: true", "seed"),
    "name-int": ("name: 5", "name"),
    "horizon-float": ("control: {horizons: [3, 10.5]}", "control.horizons[1]"),
    "noise-seed-float": ("noise: {seed: 1.5}", "noise.seed"),
    "nan-count": ("initial_state: {n: [.nan, 1, 1, 1, 1, 0], q: {2: 1, 4: 1, 5: 1}}",
                  "initial_state"),
    "nan-breakpoint": (f"demand: {{mainstream: {{breakpoints: [[0, .nan]]}}, {RAMPS}}}",
                       "demand.mainstream"),
    "nan-budget": ("control: {budget_s: .nan}", "control"),
    "negative-metering-upper": ("control: {metering_upper: -1.0}", "metering_upper"),
    "nan-gain-upper": ("control: {gain_upper: .nan}", "gain_upper"),
    "horizon-below-one": ("control: {horizons: [0, -3]}", "horizons"),
    "evaluation-horizon-zero": ("control: {evaluation_horizon: 0}", "evaluation_horizon"),
    "evaluation-horizon-above-horizons": ("control: {evaluation_horizon: 4}",
                                          "evaluation_horizon"),
    "huge-gamma": (f"gamma: {'9' * 400}", "gamma"),
    "huge-lanes": (f"network: {{lanes: {'9' * 400}}}", "network.lanes"),
    "negative-seed": ("seed: -1", "seed"),
    "negative-noise-seed": ("noise: {seed: -3}", "noise"),
    "negative-train-seed": ("ann: {train_seed: -2}", "train_seed"),
    "negative-mu_prev": ("initial_flows: {mu_prev: {2: -1.0, 4: 0.2, 5: 0.4}, "
                         "o_prev: {2: 3.8, 4: 3.2, 5: 0.6}}", "mu_prev_init"),
    "nan-mu_prev": ("initial_flows: {mu_prev: {2: .nan, 4: 0.2, 5: 0.4}, "
                    "o_prev: {2: 3.8, 4: 3.2, 5: 0.6}}", "mu_prev_init"),
    "negative-o_prev": ("initial_flows: {mu_prev: {2: 0.5, 4: 0.2, 5: 0.4}, "
                        "o_prev: {2: -5.0, 4: 3.2, 5: 0.6}}", "o_prev_init"),
    "nan-o_prev": ("initial_flows: {mu_prev: {2: 0.5, 4: 0.2, 5: 0.4}, "
                   "o_prev: {2: .nan, 4: 3.2, 5: 0.6}}", "o_prev_init"),
    "inf-gamma": ("gamma: .inf", "gamma"),
    "inf-sample-cycle": ("network: {sample_cycle_s: .inf}", "sample_cycle_s"),
    "inf-rho-crit": ("network: {rho_crit: .inf}", "rho_crit"),
    "inf-free-flow": ("network: {free_flow_mps: .inf}", "free_flow_mps"),
    "inf-onramp-breakpoint": (
        f"demand: {{mainstream: {P}, onramps: {{2: {{breakpoints: [[0, 1.0], [60, .inf]]}}, "
        f"4: {P}, 5: {P}}}}}", "demand.onramps.2"),
    "inf-cell-length": ("network: {cells: [{length: .inf, capacity_nbar: 80.0, "
                        "sat_mainline_obar: 8.0, sat_offramp_sbar: 6.0}]}", "network.cells[0]"),
}


@pytest.mark.parametrize(
    "text, field", [*ERROR_CONTRACT.values(), *ERROR_CONTRACT_STRICT.values()],
    ids=[*ERROR_CONTRACT, *ERROR_CONTRACT_STRICT],
)
def test_scenario_error_names_the_field(tmp_path, text, field):
    path = tmp_path / "bad.yaml"
    path.write_text(text + "\n")
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert field in str(exc.value)


def shipped_file() -> dict:
    with open(default_scenario_path(), encoding="utf-8") as fh:
        return yaml.safe_load(fh)


SETTINGS = [(section, name) for section in ("noise", "control", "ann")
            for name in shipped_file()[section]]


@pytest.mark.parametrize("section, name", SETTINGS, ids=[f"{s}.{n}" for s, n in SETTINGS])
def test_a_file_without_a_base_states_every_setting(tmp_path, monkeypatch, section, name):
    # the shipped file is read with no base: no control, ANN or noise
    # setting has a default to fall back on
    shipped, raw = default_scenario(), shipped_file()
    path = tmp_path / "copy.yaml"
    monkeypatch.setattr(scenario_module, "default_scenario_path", lambda: str(path))
    path.write_text(yaml.safe_dump(raw))
    assert default_scenario() == shipped
    del raw[section][name]
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ScenarioError) as exc:
        default_scenario()
    assert str(exc.value) == f"missing required field '{section}.{name}'"


class TestNoise:
    def test_zero_fraction_is_identity(self):
        rng = np.random.default_rng(0)
        d = np.array([3.0, 1.0, 0.5])
        out = perturb_demand(d, NoiseModel(fraction=0.0, seed=None), rng)
        np.testing.assert_array_equal(out, d)

    def test_bounded_and_unbiased(self):
        rng = np.random.default_rng(1)
        d = 2.0
        draws = perturb_demand(np.full(100_000, d), NoiseModel(fraction=0.10, seed=None), rng)
        assert np.all(draws >= d * 0.9 - 1e-12)
        assert np.all(draws <= d * 1.1 + 1e-12)
        assert abs(draws.mean() - d) < 0.005 * d

    def test_zero_demand_stays_zero(self):
        rng = np.random.default_rng(2)
        assert perturb_demand(0.0, NoiseModel(fraction=0.10, seed=None), rng) == 0.0

    def test_never_negative(self):
        rng = np.random.default_rng(3)
        draws = perturb_demand(np.full(1000, 0.001), NoiseModel(fraction=0.9999999e-1, seed=None), rng)
        assert np.all(draws >= 0.0)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(fraction=1.0, seed=None)


def zero_demand_scenario():
    base = default_scenario()
    flat = DemandProfile(breakpoints=((0.0, 0.0), (180.0, 0.0)))
    return type(base)(**{
        **base.__dict__,
        "mainstream_profile": flat,
        "ramp_profiles": (flat, flat, flat),
    })


class TestRunExperiment:
    def test_zero_demand_alinea_drains_network(self):
        cfg = zero_demand_scenario()
        log = run_experiment(cfg, "alinea")
        initial = sum(cfg.initial_state.n) + sum(cfg.initial_state.q)
        # every vehicle eventually exits, so total exits equal the initial load
        assert log.summary.n_total == pytest.approx(initial, abs=1e-6)
        # and the totals match an independent pass over the raw records
        assert log.summary.j_total == pytest.approx(
            sum(r.cost_tt - 0.8 * r.cost_td_h for r in log.records), abs=1e-9
        )

    def test_alinea_run_deterministic(self):
        cfg = default_scenario(seed=5)
        a = run_experiment(cfg, "alinea", serial=True, steps_override=40)
        b = run_experiment(cfg, "alinea", serial=True, steps_override=40)
        assert a.records == b.records

    def test_trajectory_deterministic_without_serial(self):
        cfg = default_scenario(seed=5)
        a = run_experiment(cfg, "alinea", steps_override=20)
        b = run_experiment(cfg, "alinea", steps_override=20)
        # wall-clock timings differ; the control trajectory must not
        assert [r.applied for r in a.records] == [r.applied for r in b.records]
        assert [r.n for r in a.records] == [r.n for r in b.records]

    def test_noise_stream_identical_across_controllers(self):
        cfg = default_scenario(seed=6)
        a = run_experiment(cfg, "alinea", steps_override=15)
        b = run_experiment(cfg, "cmpc1", serial=True, steps_override=15)
        for ra, rb in zip(a.records, b.records):
            assert ra.true_demand == rb.true_demand
            assert ra.measured_demand == rb.measured_demand

    def test_run_length_and_labels(self):
        cfg = default_scenario(seed=7)
        log = run_experiment(cfg, "alinea", steps_override=12)
        assert len(log.records) == 12
        assert log.controller == CONTROLLER_LABELS["alinea"]
        assert all(r.winner == "ALINEA" for r in log.records)

    def test_gamma_zero_cost_nonnegative(self):
        base = default_scenario(seed=8)
        cfg = type(base)(**{**base.__dict__, "gamma": 0.0})
        log = run_experiment(cfg, "alinea", steps_override=30)
        assert log.summary.j_total >= 0.0

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(default_scenario(), "prophet")

    def test_standalone_base_rolls_one_model_step_per_control_step(self, monkeypatch):
        # a standalone base applies only its first rate and nothing is
        # evaluated, so its warm start is a one-step kernel call, not one as
        # long as the evaluation horizon
        calls = []
        roll = actm.rollout_batch

        def counted(state, inputs, params, horizon, *args, **kwargs):
            if kwargs.get("gains") is not None:  # not the plant
                calls.append(horizon)
            return roll(state, inputs, params, horizon, *args, **kwargs)

        monkeypatch.setattr(actm, "rollout_batch", counted)
        run_experiment(default_scenario(seed=5), "alinea", serial=True, steps_override=7)
        assert calls == [1] * 7

    def test_standalone_mpc_reports_solver_stats(self):
        cfg = default_scenario(seed=9)
        log = run_experiment(cfg, "cmpc1", serial=True, steps_override=3)
        for r in log.records:
            assert r.winner == "CMPC(1)"
            assert len(r.solver_stats) == 1
            assert r.solver_stats[0][0] == "CMPC(1)"

    def test_noise_seed_override_decouples_from_scenario_seed(self):
        base = default_scenario(seed=21)
        pinned_a = type(base)(**{**base.__dict__, "noise": replace(base.noise, seed=555)})
        other = default_scenario(seed=22)
        pinned_b = type(other)(**{**other.__dict__, "noise": replace(other.noise, seed=555)})
        a = run_experiment(pinned_a, "alinea", serial=True, steps_override=15)
        b = run_experiment(pinned_b, "alinea", serial=True, steps_override=15)
        for ra, rb in zip(a.records, b.records):
            assert ra.measured_demand == rb.measured_demand
            assert ra.applied == rb.applied

    def test_train_seed_pins_networks_across_scenario_seeds(self):
        from basepar.scenario import train_networks

        def with_ann(cfg, **kw):
            return type(cfg)(**{**cfg.__dict__, "ann": type(cfg.ann)(**{
                **cfg.ann.__dict__, "sample_count": 60, "validation_count": 12, **kw,
            })})

        a = with_ann(default_scenario(seed=31), train_seed=777)
        b = with_ann(default_scenario(seed=32), train_seed=777)
        nets_a, _ = train_networks(a)
        nets_b, _ = train_networks(b)
        assert nets_a == nets_b
        c = with_ann(default_scenario(seed=31), train_seed=778)
        nets_c, _ = train_networks(c)
        assert nets_c != nets_a

    def test_architecture_run_records_winners(self):
        from basepar.scenario import train_networks

        cfg = default_scenario(seed=10)
        small = type(cfg.ann)(**{**cfg.ann.__dict__,
                                 "sample_count": 80, "validation_count": 16})
        cfg = type(cfg)(**{**cfg.__dict__, "ann": small})
        nets, _ = train_networks(cfg)
        log = run_experiment(cfg, "architecture", serial=True, nets=nets,
                             steps_override=6)
        assert log.summary.win_counts
        known = {"ALINEA", "ANN", "CMPC(1)", "CMPC(2)", "PMPC(1)", "PMPC(2)"}
        assert all(label in known for label, _ in log.summary.win_counts)
        for r in log.records:
            assert r.winner in r.candidate_labels
            assert len(r.candidate_labels) == 6  # two bases + four solved


class TestDefaultScenarioProperties:
    def test_queues_non_decreasing_without_metering(self):
        cfg = default_scenario()
        state = cfg.initial_state
        zero = [(0.0, 0.0, 0.0)]
        inputs = [
            ExogenousInput(*(lambda d: (d[0], tuple(d[1:])))(cfg.true_demand(k)))
            for k in range(40)
        ]
        res = rollout(state, inputs, zero, cfg.network, 40, cfg.gamma)
        for prev, nxt, inp in zip(res.states, res.states[1:], inputs):
            for j in range(3):
                if inp.ramp_demands[j] > 0:
                    assert nxt.q[j] >= prev.q[j] - 1e-12


class TestSummary:
    def test_single_step_summary(self):
        cfg = default_scenario(seed=11)
        log = run_experiment(cfg, "alinea", steps_override=1)
        r = log.records[0]
        assert log.summary.j_total == pytest.approx(r.cost_j)
        assert log.summary.n_total == pytest.approx(r.throughput)

    def test_metric_identity(self):
        cfg = default_scenario(seed=12)
        log = run_experiment(cfg, "alinea", steps_override=25)
        s = log.summary
        assert s.avg_cost_per_vehicle * s.n_total == pytest.approx(
            s.j_total * 3600.0, rel=1e-12
        )

    def test_independent_recomputation_matches(self):
        cfg = default_scenario(seed=13)
        log = run_experiment(cfg, "alinea", steps_override=25)
        j = sum(r.cost_j for r in log.records)
        n = sum(r.throughput for r in log.records)
        assert log.summary.j_total == pytest.approx(j, abs=1e-9)
        assert log.summary.n_total == pytest.approx(n, abs=1e-9)

    def test_empty_log_rejected(self):
        from basepar.scenario import RunLog

        log = RunLog("x", "y", 0, 20.0, (560.0,), 1, ())
        with pytest.raises(ValueError):
            summarize(log)


class TestPersistence:
    def test_runlog_round_trip(self, tmp_path):
        cfg = default_scenario(seed=14)
        log = run_experiment(cfg, "alinea", steps_override=8)
        path = tmp_path / "run.jsonl"
        write_runlog(log, path)
        back = read_runlog(path)
        assert back.records == log.records
        assert back.summary == log.summary
        assert back.controller == log.controller

    def test_identical_runs_identical_bytes(self, tmp_path):
        cfg = default_scenario(seed=15)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_runlog(run_experiment(cfg, "alinea", serial=True, steps_override=10), p1)
        write_runlog(run_experiment(cfg, "alinea", serial=True, steps_override=10), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_schema_checked(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other/1"}\n')
        with pytest.raises(ValueError):
            read_runlog(path)


class TestPlotData:
    @pytest.fixture
    def log(self):
        return run_experiment(default_scenario(seed=16), "alinea", steps_override=6)

    def test_demand_table_shape(self, tmp_path, log):
        paths = emit_plot_data(log, tmp_path)
        demand = (tmp_path / "demands.csv").read_text().splitlines()
        assert demand[0] == "step,t_s,source,demand_veh_per_step"
        assert len(demand) - 1 == 6 * 4  # steps x (mainstream + 3 ramps)

    def test_all_tables_written(self, tmp_path, log):
        paths = emit_plot_data(log, tmp_path)
        names = {p.split("/")[-1] for p in paths}
        assert names == {
            "demands.csv", "states.csv", "candidates.csv",
            "winners.csv", "cumulative_cost.csv",
        }

    def test_state_table_round_trips_counts(self, tmp_path, log):
        emit_plot_data(log, tmp_path)
        lines = (tmp_path / "states.csv").read_text().splitlines()[1:]
        by_step = {}
        for line in lines:
            step_s, cell_s, n_s, _, _ = line.split(",")
            by_step.setdefault(int(step_s), {})[int(cell_s)] = float(n_s)
        for r in log.records:
            for c, n in enumerate(r.n, start=1):
                assert by_step[r.step][c] == n  # full precision round trip
