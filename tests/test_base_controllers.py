import json
import math
from dataclasses import replace

import numpy as np
import pytest

from basepar.actm import ExogenousInput, NegativeRateError, NetworkState, TopologyError
from basepar.base_controllers import (
    FeedbackController,
    GenerationRanges,
    MlpParams,
    TrainConfig,
    TrainingDivergedError,
    TrainingSample,
    generate_training_data,
    load_mlp_params,
    mlp_forward,
    network_gains,
    optimal_gain_for_sample,
    save_mlp_params,
    train_mlp,
    warm_start_rollout,
)
from basepar.scenario import default_scenario

from oracles import grid_search_gain
from scalar_reference import alinea_step, metered_density, scalar_gain_rollout
from scalar_reference import step as scalar_step


@pytest.fixture
def net():
    return default_scenario().network


class TestAlinea:
    def test_hand_value(self):
        mu_prev = [0.5]
        mu = alinea_step(mu_prev, (0.016,), [36.2 / 560.0], 0.0335)
        assert mu[0] == pytest.approx(0.499502, abs=1e-6)
        # the law is pure: the caller's previous rates are untouched
        assert mu_prev == [0.5]

    def test_fixed_point_at_critical_density(self):
        mu = alinea_step([0.7], (0.016,), [0.0335], 0.0335)
        assert mu[0] == 0.7

    def test_clamped_at_zero(self):
        mu = alinea_step([0.0], (0.016,), [0.1], 0.0335)
        assert mu[0] == 0.0

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            theta = tuple(rng.uniform(0, 2, size=3))
            mu_prev = list(rng.uniform(0, 1, size=3))
            mu = alinea_step(mu_prev, theta, list(rng.uniform(0, 0.2, size=3)), 0.0335)
            assert all(m >= 0.0 for m in mu)

    def test_gain_scaling_preserves_increment_sign(self):
        rho, rho_crit = 0.05, 0.0335
        for scale in (0.5, 2.0, 10.0):
            mu_a = alinea_step([5.0], (0.016,), [rho], rho_crit)[0]
            mu_b = alinea_step([5.0], (0.016 * scale,), [rho], rho_crit)[0]
            # pre-clamp increments scale linearly; sign of the change agrees
            assert (mu_b - 5.0) == pytest.approx(scale * (mu_a - 5.0), rel=1e-12)
            assert math.copysign(1, mu_a - 5.0) == math.copysign(1, mu_b - 5.0)

    def test_mismatched_lengths_and_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            alinea_step([0.5, 0.5], (0.016,), [0.03, 0.03], 0.0335)
        with pytest.raises(ValueError):
            alinea_step([-0.1], (0.016,), [0.03], 0.0335)
        with pytest.raises(ValueError):
            alinea_step([0.5], (0.016,), [-0.03], 0.0335)

    @pytest.mark.parametrize("mu_prev, rho", [((math.nan, 0.5), (0.02, 0.02)),
                                              ((0.5, 0.5), (0.02, math.nan))])
    def test_nan_inputs_rejected(self, mu_prev, rho):
        with pytest.raises(ValueError):
            alinea_step(mu_prev, (0.01, 0.01), rho, 0.0335)

    @pytest.mark.parametrize("theta, rho", [(math.nan, 0.02), (math.inf, 0.0335),
                                            (-math.inf, 0.02)])
    def test_non_finite_gains_rejected(self, theta, rho):
        # the first two would give a NaN rate, the last a silent 0.0
        with pytest.raises(ValueError, match="gains"):
            alinea_step((0.5,), (theta,), (rho,), 0.0335)


class TestMlpForward:
    def zero_params(self):
        return MlpParams(
            hidden_weights=((0.0,) * 4,) * 3,
            hidden_bias=(0.0,) * 3,
            output_weights=(0.0,) * 3,
            output_bias=0.0,
            input_lo=(0.0,) * 4,
            input_hi=(1.0,) * 4,
        )

    def test_zero_network(self):
        p = self.zero_params()
        assert mlp_forward(p, (10.0, 2.0, 1.0, 3.0)) == 0.0

    def test_bias_only(self):
        p = MlpParams(
            hidden_weights=((0.0,) * 4,) * 3,
            hidden_bias=(0.0,) * 3,
            output_weights=(0.0,) * 3,
            output_bias=0.42,
            input_lo=(0.0,) * 4,
            input_hi=(1.0,) * 4,
        )
        assert mlp_forward(p, (5.0, 5.0, 5.0, 5.0)) == pytest.approx(0.42)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            mlp_forward(self.zero_params(), (math.nan, 0.0, 0.0, 0.0))

    def test_deterministic_and_continuous(self):
        rng = np.random.default_rng(5)
        p = MlpParams(
            hidden_weights=tuple(tuple(rng.normal(size=4)) for _ in range(3)),
            hidden_bias=tuple(rng.normal(size=3)),
            output_weights=tuple(rng.normal(size=3)),
            output_bias=0.1,
            input_lo=(0.0,) * 4,
            input_hi=(80.0, 30.0, 4.0, 8.0),
        )
        x = (20.0, 5.0, 1.0, 3.0)
        assert mlp_forward(p, x) == mlp_forward(p, x)
        base = mlp_forward(p, x)
        for eps in (1e-6, 1e-8):
            nudged = mlp_forward(p, (x[0] + eps, x[1], x[2], x[3]))
            assert abs(nudged - base) < 1e-3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MlpParams(
                hidden_weights=((0.0,) * 3,) * 3,
                hidden_bias=(0.0,) * 3,
                output_weights=(0.0,) * 3,
                output_bias=0.0,
                input_lo=(0.0,) * 4,
                input_hi=(1.0,) * 4,
            )
        with pytest.raises(ValueError):
            MlpParams(
                hidden_weights=((0.0,) * 4,) * 3,
                hidden_bias=(0.0,) * 3,
                output_weights=(0.0,) * 3,
                output_bias=0.0,
                input_lo=(0.0,) * 4,
                input_hi=(0.0,) * 4,  # zero span
            )


class TestParameterFile:
    def test_round_trip(self, tmp_path, net):
        rng = np.random.default_rng(9)
        nets = {}
        for cell in (2, 4, 5):
            nets[cell] = MlpParams(
                hidden_weights=tuple(tuple(rng.normal(size=4)) for _ in range(3)),
                hidden_bias=tuple(rng.normal(size=3)),
                output_weights=tuple(rng.normal(size=3)),
                output_bias=float(rng.normal()),
                input_lo=(0.0, 0.0, 0.0, 0.0),
                input_hi=(80.0, 30.0, 4.0, 8.0),
            )
        path = tmp_path / "nets.json"
        save_mlp_params(path, nets)
        loaded = load_mlp_params(path)
        assert loaded == nets

    def test_file_records_tanh(self, tmp_path):
        nets = {2: MlpParams(
            hidden_weights=((0.0,) * 4,) * 3, hidden_bias=(0.0,) * 3,
            output_weights=(0.0,) * 3, output_bias=0.0,
            input_lo=(0.0,) * 4, input_hi=(1.0,) * 4,
        )}
        path = tmp_path / "nets.json"
        save_mlp_params(path, nets)
        payload = json.loads(path.read_text())
        assert payload["cells"]["2"]["activation"] == "tanh"
        payload["cells"]["2"]["activation"] = "relu"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="relu"):
            load_mlp_params(path)

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/9", "cells": {}}')
        with pytest.raises(ValueError):
            load_mlp_params(path)


    @pytest.mark.parametrize("field, value, named", [
        ("hidden_weights", ["abcd"] * 3, "field 'hidden_weights' must be a list, got 'abcd'"),
        ("hidden_weights", [0.0] * 12, "field 'hidden_weights' must be a list, got 0.0"),
        ("hidden_bias", [0.0, True, 0.0], "field 'hidden_bias' must be a finite number"),
        ("output_weights", [0.0, None, 0.0], "field 'output_weights' must be a finite"),
        ("output_bias", [0.0], "field 'output_bias' must be a finite number"),
        ("output_bias", math.inf, "field 'output_bias' must be a finite number"),
        ("input_scale_lo", [0.0, 0.0, 0.0, "0"], "field 'input_scale_lo' must be a finite"),
        ("input_scale_hi", 10 ** 400, "field 'input_scale_hi' must be a list"),
        ("output_bias", 10 ** 400, "field 'output_bias' must be a finite number"),
        ("hidden_bias", [0.0], "cell 2: hidden bias and output weights must have 3"),
        ("hidden_weights", None, "cell 2: missing field 'hidden_weights'"),
    ], ids=["string-rows", "flat-rows", "bool", "null", "list-for-number", "inf",
            "string", "huge-integer-for-list", "huge-integer", "short", "missing"])
    def test_malformed_cell_names_cell_and_field(self, tmp_path, field, value, named):
        nets = {2: MlpParams(
            hidden_weights=((0.0,) * 4,) * 3, hidden_bias=(0.0,) * 3,
            output_weights=(0.0,) * 3, output_bias=0.0,
            input_lo=(0.0,) * 4, input_hi=(1.0,) * 4,
        )}
        path = tmp_path / "nets.json"
        save_mlp_params(path, nets)
        payload = json.loads(path.read_text())
        if value is None:
            del payload["cells"]["2"][field]
        else:
            payload["cells"]["2"][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="^cell 2") as raised:
            load_mlp_params(path)
        assert named in str(raised.value)

    @pytest.mark.parametrize("text", [
        "[1]", '"gain-net/1"', '{"schema": "gain-net/1", "shape": [4, 3, 1], "cells": [1]}',
    ], ids=["list", "string", "list-cells"])
    def test_malformed_payload_rejected(self, tmp_path, text):
        path = tmp_path / "nets.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_mlp_params(path)


class TestGainSolve:
    def test_zero_error_case_gives_zero_gain(self, net):
        # density exactly critical and inflow = outflow: nothing to correct
        cell_index = 1
        n = net.rho_crit * 560.0     # 18.76 veh
        o_prev = n * net.cells[cell_index].eta_moving  # balances the leaving flow
        theta, clipped = optimal_gain_for_sample(net, cell_index, n, 5.0, 1.0, o_prev)
        assert theta == 0.0
        assert not clipped

    def test_over_critical_gives_zero_gain(self, net):
        theta, _ = optimal_gain_for_sample(net, 1, 50.0, 5.0, 1.0, 3.0)
        assert theta == 0.0

    def test_matches_grid_search_on_audited_samples(self, net):
        rng = np.random.default_rng(21)
        for cell_index in (1, 3, 4):
            for _ in range(7):
                n = rng.uniform(0, 80)
                q = rng.uniform(0, 30)
                d = rng.uniform(0, 4)
                o_prev = rng.uniform(0, 8)
                theta, _ = optimal_gain_for_sample(net, cell_index, n, q, d, o_prev)
                ref = grid_search_gain(net, cell_index, n, q, d, o_prev)
                assert theta == pytest.approx(ref, abs=1.01e-4)

    def test_supply_capped_target_is_flagged(self, net):
        # almost nothing waiting at the ramp: the density target is out of
        # reach, the gain saturates the available supply and the sample is
        # marked as clipped
        theta, clipped = optimal_gain_for_sample(net, 1, 10.0, 0.0005, 0.0005, 0.0)
        assert clipped
        cap = 0.001
        delta = net.rho_crit - 10.0 / 560.0
        assert theta == pytest.approx(cap / delta, rel=1e-12)
        assert theta == pytest.approx(grid_search_gain(net, 1, 10.0, 0.0005, 0.0005, 0.0),
                                      abs=1.01e-4)

    def test_gain_bound_binding_is_flagged(self, net):
        # plenty of queued vehicles but the unit gain cannot admit enough
        theta, clipped = optimal_gain_for_sample(net, 1, 10.0, 20.0, 2.0, 0.0)
        assert theta == 1.0
        assert clipped

    def test_generated_dataset_shape(self, net):
        rng = np.random.default_rng(2)
        samples = generate_training_data(net, 1, count=50, rng=rng)
        assert len(samples) == 50
        assert all(0.0 <= s.theta <= 1.0 for s in samples)

    def test_unmetered_cell_rejected(self, net):
        with pytest.raises(ValueError):
            generate_training_data(net, 0, count=5)


class TestTraining:
    def test_constant_target_learned(self):
        samples = [
            TrainingSample(n=float(i), q=0.0, d=0.0, o_prev=0.0, theta=0.3, clipped=False)
            for i in range(40)
        ]
        ranges = GenerationRanges(n=(0.0, 40.0), q=(0.0, 1.0), d=(0.0, 1.0), o_prev=(0.0, 1.0))
        result = train_mlp(samples, ranges, TrainConfig(epochs=200, restarts=2, seed=1,
                                                        validation_count=8))
        assert result.validation_rmse < 1e-6

    def test_training_loss_non_increasing(self, net):
        rng = np.random.default_rng(4)
        ranges = GenerationRanges()
        samples = generate_training_data(net, 1, count=120, ranges=ranges, rng=rng)
        result = train_mlp(samples, ranges, TrainConfig(epochs=150, restarts=1, seed=0,
                                                        validation_count=20))
        losses = result.train_loss
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))

    def test_divergence_reported(self):
        samples = [
            TrainingSample(n=0.0, q=0.0, d=0.0, o_prev=0.0, theta=math.nan, clipped=False)
            for _ in range(10)
        ]
        ranges = GenerationRanges(n=(0.0, 1.0), q=(0.0, 1.0), d=(0.0, 1.0), o_prev=(0.0, 1.0))
        with pytest.raises(TrainingDivergedError):
            train_mlp(samples, ranges, TrainConfig(epochs=5, restarts=1, validation_count=2))

    def test_seed_deterministic(self, net):
        rng = np.random.default_rng(6)
        ranges = GenerationRanges()
        samples = generate_training_data(net, 1, count=80, ranges=ranges, rng=rng)
        cfg = TrainConfig(epochs=100, restarts=2, seed=11, validation_count=16)
        a = train_mlp(samples, ranges, cfg)
        b = train_mlp(samples, ranges, cfg)
        assert a.params == b.params
        assert a.validation_rmse == b.validation_rmse


MU_PREV = (0.5, 0.2, 0.4)


class TestWarmStartRollout:
    def controller(self, net):
        return FeedbackController(net, lambda *_: (0.016,) * 3, "ALINEA")

    def measured(self):
        return ExogenousInput(4.0, (1.0, 0.8, 0.6))

    def state(self):
        return NetworkState(n=(32.6, 36.2, 5.1, 25.3, 3.9, 0.0), q=(5.5, 9.6, 1.6))

    def test_single_step_equals_controller_output(self, net):
        mu_prev = [0.5, 0.2, 0.4]
        warm = warm_start_rollout(
            [self.controller(net)], mu_prev, self.state(), (self.measured(),), [1],
            (3.8, 3.2, 0.6),
        )[0]
        expected = alinea_step(MU_PREV, (0.016,) * 3, metered_density(self.state(), net),
                               net.rho_crit)
        assert warm.mu == (expected,)
        # the caller's previous rates are untouched
        assert mu_prev == [0.5, 0.2, 0.4]

    def test_explicit_rollout_is_elementwise_feedback(self, net):
        warm = warm_start_rollout(
            [self.controller(net)], MU_PREV, self.state(), (self.measured(),), [6],
            (3.8, 3.2, 0.6),
        )[0]
        # re-derive by hand: alternate the feedback law and the plant model
        state, mu = self.state(), MU_PREV
        for k in range(6):
            mu = alinea_step(mu, (0.016,) * 3, metered_density(state, net), net.rho_crit)
            assert warm.mu[k] == pytest.approx(mu, abs=1e-15)
            state, _, _ = scalar_step(state, self.measured(), mu, net)

    def test_zero_gain_rollout_constant(self, net):
        ctrl = FeedbackController(net, lambda *_: (0.0,) * 3, "hold")
        warm = warm_start_rollout(
            [ctrl], MU_PREV, self.state(), (self.measured(),), [5], (3.8, 3.2, 0.6)
        )[0]
        assert all(row == (0.5, 0.2, 0.4) for row in warm.mu)

    def test_length_covers_largest_horizon(self, net):
        warm = warm_start_rollout(
            [self.controller(net)], MU_PREV, self.state(), (self.measured(),),
            [max(3, 10)], (3.8, 3.2, 0.6),
        )[0]
        assert len(warm.mu) == 10
        assert len(warm.theta) == 10

    def test_implicit_rollout_gain_trail(self, net):
        nets = {
            i: MlpParams(
                hidden_weights=((0.0,) * 4,) * 3,
                hidden_bias=(0.0,) * 3,
                output_weights=(0.0,) * 3,
                output_bias=0.5,
                input_lo=(0.0,) * 4,
                input_hi=(80.0, 30.0, 4.0, 8.0),
            )
            for i in net.metered_cells
        }
        ctrl = FeedbackController(net, network_gains(net, nets, (0.0, 1.0)), "ANN")
        warm = warm_start_rollout(
            [ctrl], MU_PREV, self.state(), (self.measured(),), [4], (3.8, 3.2, 0.6)
        )[0]
        assert warm.theta is not None
        assert all(row == (0.5, 0.5, 0.5) for row in warm.theta)
        assert len(warm.mu) == 4

    def test_network_rollout_equals_the_scalar_loop_byte_for_byte(self, net):
        # the gain network on the kernel against the scalar loop of network
        # gains, feedback law, model step and upstream inflows: rates, gains
        # and cost byte for byte, from random states with random nonzero
        # weights; the step-0 inflows are the caller's, unlike any later ones
        rng = np.random.default_rng(43)
        lo, hi = GenerationRanges().as_bounds()
        clipped = moved = 0
        for trial in range(40):
            nets = {
                i: MlpParams(
                    hidden_weights=tuple(tuple(rng.normal(0.0, 2.0, size=4)) for _ in range(3)),
                    hidden_bias=tuple(rng.normal(0.0, 1.0, size=3)),
                    output_weights=tuple(rng.normal(0.0, 0.01, size=3)),
                    output_bias=float(rng.uniform(0.0, 0.04)),
                    input_lo=lo, input_hi=hi,
                )
                for i in net.metered_cells
            }
            gains = network_gains(net, nets, (0.0, 0.04))
            state = NetworkState(n=tuple(rng.uniform(0.0, 80.0, size=6)),
                                 q=tuple(rng.uniform(0.0, 15.0, size=3)))
            forecast = tuple(ExogenousInput(float(rng.uniform(0, 7)),
                                            tuple(rng.uniform(0, 3, size=3)))
                             for _ in range(int(rng.integers(1, 4))))
            mu_prev = tuple(rng.uniform(0.0, 3.0, size=3))
            o_prev = tuple(rng.uniform(0.0, 8.0, size=3))
            horizon = 1 + trial % 10
            warm = warm_start_rollout([FeedbackController(net, gains, "ANN")], mu_prev, state,
                                      forecast, [horizon], o_prev)[0]
            rates, trail, cost = scalar_gain_rollout(net, gains, mu_prev, state, forecast,
                                                     horizon, o_prev)
            assert np.array(warm.mu).tobytes() == np.array(rates).tobytes()
            assert np.array(warm.theta).tobytes() == np.array(trail).tobytes()
            assert np.float64(warm.total_cost).tobytes() == np.float64(cost).tobytes()
            # the caller's inflows reach the network at step 0
            other = scalar_gain_rollout(net, gains, mu_prev, state, forecast, 1,
                                        tuple(v + 1.0 for v in o_prev))[1]
            moved += other[0] != trail[0]
            clipped += sum(t in (0.0, 0.04) for row in trail for t in row)
        assert moved >= 30, moved
        assert clipped >= 20, clipped  # the clip is covered, not only the interior

    def test_nan_gains_raise_negative_rate_error(self, net):
        # a gain source that turns NaN at its third step: the rate it derives
        # is NaN there, which the model rejects
        calls = []

        def gains(*_):
            calls.append(1)
            return (0.016,) * 3 if len(calls) < 3 else (0.016, math.nan, 0.016)

        with pytest.raises(NegativeRateError):
            warm_start_rollout([FeedbackController(net, gains, "NaN")], MU_PREV, self.state(),
                               (self.measured(),), [5], (3.8, 3.2, 0.6))

    def test_bases_rolled_together_must_match_their_horizons_and_network(self, net):
        ctrl = FeedbackController(net, (0.016,) * 3, "ALINEA")
        args = (MU_PREV, self.state(), (self.measured(),))
        with pytest.raises(ValueError, match="one horizon"):
            warm_start_rollout([ctrl, ctrl], *args, [3], (3.8, 3.2, 0.6))
        with pytest.raises(ValueError, match="at least 1"):
            warm_start_rollout([ctrl, ctrl], *args, [3, 0], (3.8, 3.2, 0.6))
        other = FeedbackController(replace(net, rho_crit=2.0 * net.rho_crit), (0.016,) * 3, "B")
        with pytest.raises(ValueError, match="share their network"):
            warm_start_rollout([ctrl, other], *args, [3, 3], (3.8, 3.2, 0.6))
        with pytest.raises(TopologyError):
            FeedbackController(net, (0.016,) * 2, "short")
