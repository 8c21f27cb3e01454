import logging
import math
import time
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from basepar.actm import ExogenousInput, NetworkState, TopologyError
from basepar.base_controllers import FeedbackController, MlpParams, network_gains
from basepar.orchestrator import (
    ArchitectureConfig,
    BaseParallelController,
    EvaluationResult,
    ParallelCell,
    evaluate_candidates,
    select_best,
)
from basepar import actm, orchestrator, parallel
from basepar.parallel import (
    CONVENTIONAL,
    PARAMETERIZED,
    BudgetedResult,
    CandidateSequence,
    MpcProblem,
    StepContext,
    decision_to_metering,
    make_shift_warm_starts,
)
from basepar.scenario import build_architecture, default_scenario

from oracles import oracle_rollout_cost
from scalar_reference import alinea_step, metered_density
from scalar_reference import rollout as scalar_rollout
from shipped import optimizer

NET = default_scenario().network
STATE = NetworkState(n=(32.6, 36.2, 5.1, 25.3, 3.9, 0.0), q=(5.5, 9.6, 1.6))
MEASURED = ExogenousInput(5.0, (1.5, 1.0, 0.8))
O_PREV = (3.8, 3.2, 0.6)
MU_INIT = (0.5, 0.2, 0.4)


def alinea(label="ALINEA"):
    return FeedbackController((0.016,) * 3, label)


def mpc(label, kind, horizon):
    """Online controller ``label`` with the case study's box: rates in
    [0, 8] or gains in [0, 1]."""
    dim, upper = (3 * horizon, 8.0) if kind == CONVENTIONAL else (3, 1.0)
    return MpcProblem(label, kind, horizon, (0.0,) * dim, (upper,) * dim)


def make_arch(cells, evaluation_horizon=3, max_iterations=8):
    config = ArchitectureConfig(
        params=NET,
        cells=cells,
        evaluation_horizon=evaluation_horizon,
        gamma=0.8,
        optimizer=optimizer(budget_s=None, max_iterations=max_iterations),
    )
    return BaseParallelController(config, mu_init=MU_INIT)


def plan(*rows):
    return tuple(tuple(float(v) for v in row) for row in rows)


class TestSelectBest:
    def evaluation(self, costs):
        cands = tuple(
            CandidateSequence(metering=plan((0.1 * i, 0.0, 0.0)), source=f"c{i}", cost=c)
            for i, c in enumerate(costs)
        )
        return EvaluationResult(candidates=cands, costs=tuple(costs))

    def test_argmin(self):
        ev = self.evaluation([3.0, 1.0, 2.0])
        winner, applied = select_best(ev)
        assert winner == 1
        assert applied == ev.candidates[1].metering[0]

    def test_tie_breaks_to_lower_index(self):
        winner, _ = select_best(self.evaluation([1.0, 1.0]))
        assert winner == 0

    def test_constant_shift_invariance(self):
        base = [4.0, 2.5, 3.0, 2.5]
        w1, _ = select_best(self.evaluation(base))
        w2, _ = select_best(self.evaluation([c + 10.0 for c in base]))
        assert w1 == w2

    def test_all_infinite_falls_back(self, caplog):
        ev = self.evaluation([math.inf, math.inf, math.inf])
        with caplog.at_level(logging.WARNING):
            winner, applied = select_best(ev)
        assert winner == 0
        assert applied == ev.candidates[0].metering[0]
        assert any("falling back" in r.message for r in caplog.records)

    def test_margins_and_winner_recorded(self):
        ev = self.evaluation([3.0, 1.0, 2.0])
        select_best(ev)
        assert ev.winner_index == 1
        assert ev.margins == (2.0, 0.0, 1.0)


class TestEvaluateCandidates:
    def test_identical_candidates_identical_costs(self):
        cand = CandidateSequence(
            metering=plan((0.5, 0.2, 0.4), (0.5, 0.2, 0.4), (0.5, 0.2, 0.4)),
            source="a", cost=0.0,
        )
        twin = CandidateSequence(metering=cand.metering, source="b", cost=0.0)
        ev = evaluate_candidates([cand, twin], NET, STATE, (MEASURED,), 3, 0.8)
        assert ev.costs[0] == ev.costs[1]

    def test_single_step_horizon_is_stage_cost(self):
        cand = CandidateSequence(metering=plan((0.5, 0.2, 0.4)), source="a", cost=0.0)
        ev = evaluate_candidates([cand], NET, STATE, (MEASURED,), 1, 0.8)
        want = oracle_rollout_cost(NET, STATE, (MEASURED,), [(0.5, 0.2, 0.4)], 1, 0.8)
        assert ev.costs[0] == pytest.approx(want, abs=1e-12)

    def test_short_candidate_holds_last_value(self):
        short = CandidateSequence(metering=plan((1.0, 1.0, 1.0)), source="s", cost=0.0)
        long = CandidateSequence(
            metering=plan((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
            source="l", cost=0.0,
        )
        ev = evaluate_candidates([short, long], NET, STATE, (MEASURED,), 3, 0.8)
        assert ev.costs[0] == pytest.approx(ev.costs[1], abs=1e-15)

    def test_failing_candidate_gets_infinite_cost(self, caplog):
        bad = CandidateSequence(metering=plan((-1.0, 0.0, 0.0)), source="bad", cost=0.0)
        good = CandidateSequence(metering=plan((0.5, 0.2, 0.4)), source="good", cost=0.0)
        with caplog.at_level(logging.WARNING):
            ev = evaluate_candidates([bad, good], NET, STATE, (MEASURED,), 2, 0.8)
        assert math.isinf(ev.costs[0]) and math.isfinite(ev.costs[1])
        winner, _ = select_best(ev)
        assert winner == 1

    def test_wrong_ramp_count_raises(self):
        good = CandidateSequence(metering=plan((0.5, 0.2, 0.4)), source="good", cost=0.0)
        short = CandidateSequence(metering=plan((0.5, 0.2)), source="short", cost=0.0)
        with pytest.raises(TopologyError):
            evaluate_candidates([good, short], NET, STATE, (MEASURED,), 2, 0.8)

    def test_costs_equal_scalar_rollout_bit_for_bit(self):
        rng = np.random.default_rng(67)
        cands = [
            CandidateSequence(
                metering=plan(*rng.uniform(0, 8, size=(int(rng.integers(1, 6)), 3))),
                source=f"c{i}", cost=0.0,
            )
            for i in range(12)
        ]
        ev = evaluate_candidates(cands, NET, STATE, (MEASURED,), 3, 0.8)
        want = [scalar_rollout(STATE, (MEASURED,), c.metering, NET, 3, 0.8).total_cost
                for c in cands]
        assert list(ev.costs) == want

    def test_empty_candidate_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate_candidates([], NET, STATE, (MEASURED,), 3, 0.8)


class TestControlStep:
    def test_base_only_architecture_applies_base_output(self):
        arch = make_arch([ParallelCell(base=alinea())])
        record, _ = arch.control_step(STATE, MEASURED, O_PREV)
        expected = alinea_step(MU_INIT, (0.016,) * 3, metered_density(STATE, NET), NET.rho_crit)
        assert record.applied == pytest.approx(expected, abs=1e-15)
        assert record.winner == "ALINEA"

    def test_own_step_applies_the_cells_own_plan_without_evaluation(self):
        # a standalone base applies its rates, a standalone controller its
        # best plan, with no evaluation block; both commit what they apply
        base = make_arch([ParallelCell(base=alinea())], evaluation_horizon=1)
        record, evaluation = base.own_step(STATE, MEASURED, O_PREV)
        expected = alinea_step(MU_INIT, (0.016,) * 3, metered_density(STATE, NET), NET.rho_crit)
        assert evaluation is None
        assert record.applied == pytest.approx(expected, abs=1e-15)
        assert (record.winner, record.candidate_labels, record.solver_stats) == ("ALINEA", (), ())
        assert base.mu_prev == record.applied

        hold = FeedbackController((0.0,) * 3, "hold")
        arch = make_arch([ParallelCell(hold, (mpc("CMPC(1)", CONVENTIONAL, 3),))],
                         evaluation_horizon=1)
        record, evaluation = arch.own_step(STATE, MEASURED, O_PREV)
        best = np.array(arch.previous[arch.config.cells[0].controllers[0]])
        assert evaluation is None
        assert record.winner == "CMPC(1)" and record.candidate_labels == ("CMPC(1)",)
        assert record.applied == tuple(best[0]) == arch.mu_prev
        assert [stats[0] for stats in record.solver_stats] == ["CMPC(1)"]

    def test_all_infinite_applies_the_first_base(self, monkeypatch, caplog):
        # every evaluation rollout fails: the shipped architecture applies its
        # first cell's base candidate, ALINEA's rate
        scenario = default_scenario()
        scenario = replace(scenario, control=replace(scenario.control, max_iterations=2))
        nets = {
            i: MlpParams(hidden_weights=((0.0,) * 4,) * 3, hidden_bias=(0.0,) * 3,
                         output_weights=(0.0,) * 3, output_bias=0.5, input_lo=(0.0,) * 4,
                         input_hi=(80.0, 30.0, 4.0, 8.0))
            for i in NET.metered_cells
        }
        arch = build_architecture(scenario, nets=nets, serial=True)

        evaluation = orchestrator._evaluation

        def failing(candidates, costs):
            return evaluation(candidates, (math.inf,) * len(costs))

        monkeypatch.setattr(orchestrator, "_evaluation", failing)
        with caplog.at_level(logging.WARNING):
            record, evaluation = arch.control_step(STATE, MEASURED, O_PREV)
        assert record.candidate_labels[:2] == ("ALINEA", "ANN")
        assert len(record.candidate_labels) > 2 and all(map(math.isinf, evaluation.costs))
        assert record.winner == "ALINEA" and evaluation.winner_index == 0
        gains = (scenario.control.alinea_gain,) * 3
        alinea_rate = alinea_step(scenario.mu_prev_init, gains, metered_density(STATE, NET),
                                  NET.rho_crit)
        assert record.applied == alinea_rate
        assert any("falling back" in r.message for r in caplog.records)

    def test_identical_bases_tie_break_to_first(self):
        arch = make_arch([
            ParallelCell(base=alinea("BASE-A")),
            ParallelCell(base=alinea("BASE-B")),
        ])
        record, evaluation = arch.control_step(STATE, MEASURED, O_PREV)
        assert evaluation.costs[0] == evaluation.costs[1]
        assert record.winner == "BASE-A"

    def test_applied_equals_winner_first_element(self):
        arch = make_arch([
            ParallelCell(
                base=alinea(),
                controllers=(mpc("CMPC(1)", CONVENTIONAL, 3),),
            )
        ])
        record, evaluation = arch.control_step(STATE, MEASURED, O_PREV)
        winner_cand = evaluation.candidates[evaluation.winner_index]
        assert record.applied == winner_cand.metering[0]
        assert record.winner == winner_cand.source

    def test_selection_matches_brute_force_oracle(self):
        arch = make_arch([
            ParallelCell(
                base=alinea(),
                controllers=(mpc("CMPC(1)", CONVENTIONAL, 3),),
            )
        ])
        record, evaluation = arch.control_step(STATE, MEASURED, O_PREV)
        recomputed = [
            oracle_rollout_cost(NET, STATE, (MEASURED,), list(c.metering), 3, 0.8)
            for c in evaluation.candidates
        ]
        assert evaluation.costs == pytest.approx(recomputed, abs=1e-9)
        best = min(range(len(recomputed)), key=lambda i: (recomputed[i], i))
        assert evaluation.winner_index == best
        assert evaluation.costs[evaluation.winner_index] <= min(recomputed) + 1e-12

    def test_predicted_cost_matches_evaluation_for_matching_horizon(self):
        # prediction model == evaluation model and a shared forecast: the
        # horizon-3 controller's reported cost equals its evaluated cost
        arch = make_arch([
            ParallelCell(
                base=alinea(),
                controllers=(mpc("CMPC(1)", CONVENTIONAL, 3),),
            )
        ])
        _, evaluation = arch.control_step(STATE, MEASURED, O_PREV)
        for cand, eps in zip(evaluation.candidates, evaluation.costs):
            if cand.source == "CMPC(1)":
                assert eps == pytest.approx(cand.cost, abs=1e-9)

    def test_superset_monotonicity_at_fixed_states(self):
        rng = np.random.default_rng(53)
        for _ in range(4):
            state = NetworkState(
                n=tuple(rng.uniform(0, 60, size=6)), q=tuple(rng.uniform(0, 12, size=3))
            )
            measured = ExogenousInput(rng.uniform(0, 7), tuple(rng.uniform(0, 2.5, size=3)))
            small = make_arch([
                ParallelCell(
                    base=alinea(),
                    controllers=(mpc("CMPC(1)", CONVENTIONAL, 3),),
                )
            ])
            large = make_arch([
                ParallelCell(
                    base=alinea(),
                    controllers=(
                        mpc("CMPC(1)", CONVENTIONAL, 3),
                        mpc("CMPC(2)", CONVENTIONAL, 10),
                    ),
                )
            ])
            _, ev_small = small.control_step(state, measured, O_PREV)
            _, ev_large = large.control_step(state, measured, O_PREV)
            eps_small = ev_small.costs[ev_small.winner_index]
            eps_large = ev_large.costs[ev_large.winner_index]
            assert eps_large <= eps_small + 1e-12

    def test_histories_and_feedback_state_updated(self):
        arch = make_arch([
            ParallelCell(
                base=alinea(),
                controllers=(mpc("CMPC(1)", CONVENTIONAL, 3),),
            )
        ])
        record, _ = arch.control_step(STATE, MEASURED, O_PREV)
        assert arch.mu_prev == record.applied
        # the next step's base starts from the applied rates
        bases, *_ = arch.propose(STATE, MEASURED, O_PREV)
        expected = alinea_step(record.applied, (0.016,) * 3, metered_density(STATE, NET),
                               NET.rho_crit)
        assert bases[0].metering[0] == expected
        (cmpc1,) = arch.config.cells[0].controllers
        assert list(arch.previous) == [cmpc1] and cmpc1.label == "CMPC(1)"
        assert arch.previous[cmpc1].shape == (3, 3)

    def test_shared_base_keeps_architectures_apart(self):
        # one feedback law shared by two architectures stepped alternately
        # from different states: each gives the records it gives alone
        rng = np.random.default_rng(29)
        states = {
            side: [
                NetworkState(n=tuple(rng.uniform(0, 60, size=6)),
                             q=tuple(rng.uniform(0, 12, size=3)))
                for _ in range(3)
            ]
            for side in "ab"
        }

        def build(base):
            return make_arch([ParallelCell(
                base=base,
                controllers=(mpc("CMPC(1)", CONVENTIONAL, 3),),
            )])

        def records(arch, side, k):
            record, _ = arch.control_step(states[side][k], MEASURED, O_PREV)
            return record.applied, record.winner, record.candidate_costs

        shared = alinea()
        together = {"a": build(shared), "b": build(shared)}
        alone = {"a": build(alinea()), "b": build(alinea())}
        for k in range(3):
            for side in "ab":
                assert records(together[side], side, k) == records(alone[side], side, k)

    def test_serial_determinism(self):
        def build():
            return make_arch([
                ParallelCell(
                    base=alinea(),
                    controllers=(mpc("CMPC(1)", CONVENTIONAL, 3),),
                )
            ])

        r1, e1 = build().control_step(STATE, MEASURED, O_PREV)
        r2, e2 = build().control_step(STATE, MEASURED, O_PREV)
        assert r1.applied == r2.applied
        assert e1.costs == e2.costs

    def test_all_iterates_termination_expands_candidate_set(self):
        def build(termination):
            config = ArchitectureConfig(
                params=NET,
                cells=[ParallelCell(
                    base=alinea(),
                    controllers=(mpc("CMPC(1)", CONVENTIONAL, 3),),
                )],
                evaluation_horizon=3,
                gamma=0.8,
                optimizer=optimizer(budget_s=None, max_iterations=8,
                                    termination=termination),
            )
            return BaseParallelController(config, mu_init=MU_INIT)

        _, ev_best = build("best").control_step(STATE, MEASURED, O_PREV)
        record, ev_all = build("all").control_step(STATE, MEASURED, O_PREV)
        assert len(ev_best.candidates) == 2  # base + one solved candidate
        assert len(ev_all.candidates) > len(ev_best.candidates)
        # the selector is still exact over the enlarged set
        costs = ev_all.costs
        first = min(range(len(costs)), key=lambda i: (costs[i], i))
        assert ev_all.winner_index == first
        assert record.applied == ev_all.candidates[first].metering[0]

    def test_refined_evaluation_model_hook(self):
        slower = list(NET.cells)
        slower[1] = type(NET.cells[1])(**{
            **{f: getattr(NET.cells[1], f) for f in (
                "length", "capacity_nbar", "sat_mainline_obar", "sat_offramp_sbar",
                "split_beta", "blend_alpha", "eta_idling", "xi",
                "has_onramp", "has_offramp", "metered", "allow_beta_one",
            )},
            "eta_moving": 0.4,
        })
        from basepar.actm import NetworkParams

        refined = NetworkParams(
            cells=tuple(slower), sample_cycle_s=NET.sample_cycle_s,
            rho_crit=NET.rho_crit, lanes=NET.lanes, free_flow_mps=NET.free_flow_mps,
        )
        cand = CandidateSequence(metering=plan((0.5, 0.2, 0.4)), source="a", cost=0.0)
        default = evaluate_candidates([cand], NET, STATE, (MEASURED,), 3, 0.8)
        swapped = evaluate_candidates([cand], refined, STATE, (MEASURED,), 3, 0.8)
        assert default.costs != swapped.costs


class TestOnlineChange:
    """The architecture changes online when its config is replaced between
    steps: each step reads the cells, and each cell's warm-start length,
    from the config it is given, and keeps the previous solutions of the
    controllers that solved at it, each with the problem it solved."""

    NETS = {
        i: MlpParams(hidden_weights=((0.4, -0.3, 0.2, 0.1),) * 3, hidden_bias=(0.1, -0.2, 0.3),
                     output_weights=(0.01, -0.02, 0.015), output_bias=0.02,
                     input_lo=(0.0,) * 4, input_hi=(80.0, 30.0, 4.0, 8.0))
        for i in NET.metered_cells
    }

    def test_cells_and_controllers_added_and_eliminated_between_steps(self, monkeypatch):
        arch = build_architecture(default_scenario(), nets=self.NETS, serial=True)
        assert set(vars(arch)) == {"config", "mu_prev", "previous"}
        lengths = []
        warm_start = orchestrator.warm_start_rollout

        def recorded(bases, mu_prev, state, inputs, horizons, *args):
            lengths.append(tuple(horizons))
            return warm_start(bases, mu_prev, state, inputs, horizons, *args)

        monkeypatch.setattr(orchestrator, "warm_start_rollout", recorded)
        state, o_prev = STATE, O_PREV

        def step():
            nonlocal state, o_prev
            record, _ = arch.control_step(state, MEASURED, o_prev)
            state, flows, _ = actm.step(state, MEASURED, record.applied, NET, 0.8)
            o_prev = actm.upstream_inflows(flows, NET)
            return record

        step()
        assert lengths == [(10, 10)]
        alinea_cell, ann_cell = arch.config.cells
        solved = ("CMPC(1)", "CMPC(2)", "PMPC(1)", "PMPC(2)")

        # (a) a third cell whose base seeds no controller
        new = ParallelCell(FeedbackController((0.0,) * 3, "hold"))
        arch.config = replace(arch.config, cells=(alinea_cell, ann_cell, new))
        record = step()
        assert lengths[-1] == (10, 10, 3)
        assert record.candidate_labels == ("ALINEA", "ANN", "hold", *solved)
        assert tuple(arch.previous) == alinea_cell.controllers + ann_cell.controllers
        assert tuple(p.label for p in arch.previous) == solved

        # (b) CMPC(2), PMPC(1) and PMPC(2) eliminated: every base rolls the
        # 3 steps CMPC(1) needs, and only CMPC(1) keeps a previous solution;
        # the step is that of an architecture built afresh from the new
        # config, the previous rates and the previous solutions
        cmpc1 = alinea_cell.controllers[0]
        arch.config = replace(arch.config, cells=(
            replace(alinea_cell, controllers=(cmpc1,)), replace(ann_cell, controllers=()), new))
        fresh = BaseParallelController(arch.config, arch.mu_prev)
        fresh.previous = dict(arch.previous)
        want, _ = fresh.control_step(state, MEASURED, o_prev)
        record = step()
        assert lengths[-2:] == [(3, 3, 3)] * 2
        assert record.candidate_labels == ("ALINEA", "ANN", "hold", "CMPC(1)")
        assert replace(record, solver_stats=()) == replace(want, solver_stats=())
        assert [s[2:] for s in record.solver_stats] == [s[2:] for s in want.solver_stats]
        assert list(arch.previous) == [cmpc1]
        assert arch.previous[cmpc1].tobytes() == fresh.previous[cmpc1].tobytes()

        # (c) the config and its cells are not edited in place
        with pytest.raises(FrozenInstanceError):
            arch.config.cells = (alinea_cell,)
        with pytest.raises(FrozenInstanceError):
            arch.config.cells[0].controllers = ()
        with pytest.raises(FrozenInstanceError):
            new.base.gains = (0.016,) * 3
        assert isinstance(arch.config.cells, tuple)

        # (d) a replacement runs the config's checks before any step
        config = arch.config
        with pytest.raises(ValueError, match="labels must be unique"):
            arch.config = replace(config, cells=(
                *config.cells, ParallelCell(FeedbackController((0.016,) * 3, "ALINEA"))))
        assert arch.config is config

    def test_a_problem_replaced_under_its_label_starts_from_its_base(self):
        # CMPC(1) replaced by a horizon-5 problem that keeps the label: its
        # 3-step previous solution seeds nothing, and the step is that of an
        # architecture built afresh from the new config, the previous rates
        # and the other three controllers' previous solutions
        arch = build_architecture(default_scenario(), nets=self.NETS, serial=True)
        record, _ = arch.control_step(STATE, MEASURED, O_PREV)
        state, flows, _ = actm.step(STATE, MEASURED, record.applied, NET, 0.8)
        o_prev = actm.upstream_inflows(flows, NET)
        alinea_cell, ann_cell = arch.config.cells
        old, cmpc2 = alinea_cell.controllers
        new = mpc("CMPC(1)", CONVENTIONAL, 5)
        arch.config = replace(arch.config, cells=(
            replace(alinea_cell, controllers=(new, cmpc2)), ann_cell))
        mu_prev, previous = arch.mu_prev, dict(arch.previous)
        record, _ = arch.control_step(state, MEASURED, o_prev)

        fresh = BaseParallelController(arch.config, mu_prev)
        fresh.previous = {p: d for p, d in previous.items() if p != old}
        assert [p.label for p in fresh.previous] == ["CMPC(2)", "PMPC(1)", "PMPC(2)"]
        want, _ = fresh.control_step(state, MEASURED, o_prev)
        assert replace(record, solver_stats=()) == replace(want, solver_stats=())
        assert [s[2:] for s in record.solver_stats] == [s[2:] for s in want.solver_stats]
        assert list(arch.previous) == [new, cmpc2, *ann_cell.controllers]
        assert arch.previous[new].shape == (5, 3)

    def test_lists_given_to_the_config_are_held_as_tuples(self):
        cell = ParallelCell(alinea(), [mpc("CMPC(1)", CONVENTIONAL, 3)])
        arch = make_arch([cell])
        assert isinstance(cell.controllers, tuple) and isinstance(arch.config.cells, tuple)
        assert [f.name for f in fields(FeedbackController)] == ["gains", "label"]


class TestEvaluationFromTheRollouts:
    """The costs ``control_step`` reads off the rollouts that costed each
    candidate equal :func:`evaluate_candidates`'s fresh rollouts byte for
    byte, and its warnings too."""

    def build(self, cells, termination, budget_s):
        config = ArchitectureConfig(
            params=NET, cells=cells, evaluation_horizon=3, gamma=0.8,
            optimizer=optimizer(budget_s=budget_s, max_iterations=8,
                                termination=termination),
        )
        return BaseParallelController(config, mu_init=MU_INIT)

    def both_kinds(self, termination, budget_s):
        nets = {
            i: MlpParams(hidden_weights=((0.4, -0.3, 0.2, 0.1),) * 3, hidden_bias=(0.1, -0.2, 0.3),
                         output_weights=(0.01, -0.02, 0.015), output_bias=0.02,
                         input_lo=(0.0,) * 4, input_hi=(80.0, 30.0, 4.0, 8.0))
            for i in NET.metered_cells
        }
        return self.build([
            ParallelCell(FeedbackController((0.016,) * 3, "ALINEA"), (
                mpc("CMPC(1)", CONVENTIONAL, 3), mpc("CMPC(2)", CONVENTIONAL, 10))),
            ParallelCell(FeedbackController(network_gains(NET, nets, (0.0, 1.0)), "ANN"), (
                mpc("PMPC(1)", PARAMETERIZED, 3), mpc("PMPC(2)", PARAMETERIZED, 10))),
        ], termination, budget_s)

    @pytest.mark.parametrize("termination", ["best", "all"])
    @pytest.mark.parametrize("budget_s", [None, 0.0])
    def test_recorded_costs_equal_evaluate_candidates(self, termination, budget_s):
        # four closed-loop steps, so the shift starts come into play; each
        # solved candidate's plan is also its decision's, byte for byte
        rng = np.random.default_rng(163)
        arch = self.both_kinds(termination, budget_s)
        problems = {p.label: p for cell in arch.config.cells for p in cell.controllers}
        state, o_prev = STATE, O_PREV
        for _ in range(4):
            measured = ExogenousInput(rng.uniform(3.0, 6.0), tuple(rng.uniform(0.5, 1.5, size=3)))
            context = StepContext(NET, state, (measured,), arch.mu_prev, 0.8)
            record, evaluation = arch.control_step(state, measured, o_prev)
            want = evaluate_candidates(evaluation.candidates, NET, state, (measured,), 3, 0.8)
            assert np.array(evaluation.costs).tobytes() == np.array(want.costs).tobytes()
            assert record.candidate_costs == evaluation.costs
            for c in evaluation.candidates[2:]:
                plan = decision_to_metering(problems[c.source], context, c.decision)
                assert np.array(c.metering).tobytes() == np.array(plan).tobytes()
            if termination == "all" and budget_s is None:
                assert len(evaluation.candidates) > 6
            state, flows, _ = actm.step(state, measured, record.applied, NET, 0.8)
            o_prev = actm.upstream_inflows(flows, NET)

    def test_a_point_failing_past_the_evaluation_horizon_keeps_its_cost(
            self, monkeypatch, caplog):
        # two extra starts: a NaN rate at step 3 costs +inf over the
        # horizon 10 but is feasible over the evaluation horizon 3, a NaN
        # rate at step 0 fails within it; termination "all" keeps both
        late = np.full((10, 3), 0.5)
        late[3, 1] = math.nan
        early = np.full((10, 3), 0.5)
        early[0, 2] = math.nan
        solve = parallel._solve_jointly

        def with_extra_starts(problems, starts, *args, **kwargs):
            starts = [[*s, late.ravel(), early.ravel()] for s in starts]
            return solve(problems, starts, *args, **kwargs)

        monkeypatch.setattr(parallel, "_solve_jointly", with_extra_starts)
        arch = self.build([ParallelCell(alinea(), (mpc("CMPC(2)", CONVENTIONAL, 10),))],
                          "all", None)
        with caplog.at_level(logging.WARNING, logger="basepar.orchestrator"):
            _, evaluation = arch.control_step(STATE, MEASURED, O_PREV)
        got = [r.getMessage() for r in caplog.records if "evaluation rollout" in r.message]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="basepar.orchestrator"):
            want = evaluate_candidates(evaluation.candidates, NET, STATE, (MEASURED,), 3, 0.8)
        assert got == [r.getMessage() for r in caplog.records]
        assert got == ["evaluation rollout failed for candidate 'CMPC(2)'; excluding it"]
        assert np.array(evaluation.costs).tobytes() == np.array(want.costs).tobytes()
        plans = [np.array(c.metering) for c in evaluation.candidates]
        at_late = next(i for i, p in enumerate(plans) if p.tobytes() == late.tobytes())
        at_early = next(i for i, p in enumerate(plans) if p.tobytes() == early.tobytes())
        assert evaluation.candidates[at_late].cost == math.inf
        assert math.isfinite(evaluation.costs[at_late])
        assert evaluation.costs[at_early] == math.inf

    def test_previous_decision_is_the_last_committed(self):
        # over 180 committed steps, each controller holds one decision, the
        # last committed best, and its shift start is the one the list of
        # every committed decision gave: the newest shifted one step
        def shift_once(solution):
            rows = solution[1:]
            return np.vstack([rows, solution[-1:]]) if len(rows) else solution.copy()

        rng = np.random.default_rng(167)
        problems = (mpc("CMPC(1)", CONVENTIONAL, 3), mpc("PMPC(1)", PARAMETERIZED, 3))
        arch = self.build([ParallelCell(alinea(), problems)], "best", None)
        lists = {p.label: [] for p in problems}
        for _ in range(180):
            results = {}
            for p in problems:
                decision = tuple(rng.uniform(0.0, 8.0, size=p.decision_dim).tolist())
                best = CandidateSequence((), p.label, 0.0, decision)
                results[p.label] = BudgetedResult(best, (best,))
                lists[p.label].append(np.array(decision).reshape(-1, 3))
            arch.commit(MU_INIT, results)
            assert list(arch.previous) == list(problems)
            for p in problems:
                want = np.array(results[p.label].best.decision).reshape(-1, 3)
                assert arch.previous[p].tobytes() == want.tobytes()
                assert arch.previous[p].shape == want.shape
                got = make_shift_warm_starts(arch.previous[p])
                want = shift_once(lists[p.label][-1])
                assert got.tobytes() == want.tobytes()
                assert got.shape == want.shape


class TestDeadline:
    """Both cells' solves under one deadline, which a stub clock lets pass
    after a fixed number of solver rounds, while every solve still has a
    request pending."""

    ROUNDS = 1
    LABELS = ["CMPC(1)", "CMPC(2)", "PMPC(1)", "PMPC(2)"]

    def build(self, termination="best"):
        config = ArchitectureConfig(
            params=NET,
            cells=[
                ParallelCell(base=alinea("ALINEA-A"), controllers=(
                    mpc("CMPC(1)", CONVENTIONAL, 3),
                    mpc("CMPC(2)", CONVENTIONAL, 10),
                )),
                ParallelCell(base=alinea("ALINEA-B"), controllers=(
                    mpc("PMPC(1)", PARAMETERIZED, 3),
                    mpc("PMPC(2)", PARAMETERIZED, 10),
                )),
            ],
            evaluation_horizon=3,
            gamma=0.8,
            optimizer=optimizer(budget_s=60.0, max_iterations=1000,
                                termination=termination),
        )
        return BaseParallelController(config, mu_init=MU_INIT)

    def expire_after_rounds(self, monkeypatch, kernel_calls, rounds=ROUNDS):
        """The step's clock stands still through the starts round and
        ``rounds`` more, then passes every deadline, so the deadline check
        passes ``rounds`` times and then reports expiry; returns the list
        that receives the kernel call count each time the step's evaluator
        reports expiry."""
        now, admitted, at_expiry = [0.0], [], []
        until = parallel._until

        def held(evaluate, budget_s, t0=None):
            # the step's deadline: its budget, counted from its clock
            assert budget_s is not None and t0 is not None
            bounded = until(evaluate, budget_s, t0)

            def observed(requests):
                answer = bounded(requests)
                if answer is None:
                    at_expiry.append(len(kernel_calls))
                else:
                    admitted.append(len(requests))
                    if len(admitted) == 1 + rounds:
                        now[0] = math.inf
                return answer

            return observed

        monkeypatch.setattr(time, "monotonic", lambda: now[0])
        monkeypatch.setattr(parallel, "_until", held)
        return at_expiry

    def count_kernel_calls(self, monkeypatch):
        calls = []

        roll = actm.rollout_batch

        def counted(*args, **kwargs):
            calls.append(kwargs.get("gain_rows"))
            return roll(*args, **kwargs)

        monkeypatch.setattr(actm, "rollout_batch", counted)
        return calls

    def record_rounds(self, monkeypatch):
        """Returns the list that receives the labels of each solver round."""
        rounds = []
        evaluate = parallel._MergedRollouts.__call__

        def recorded(self, requests):
            rounds.append(sorted({self.problems[i].label for i, _ in requests}))
            return evaluate(self, requests)

        monkeypatch.setattr(parallel._MergedRollouts, "__call__", recorded)
        return rounds

    def assert_every_solve_pending_at_expiry(self, termination):
        """The round the deadline cuts off, admitted in a run of its own,
        holds a request of every solve."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            rounds = self.record_rounds(monkeypatch)
            self.expire_after_rounds(monkeypatch, [], rounds=self.ROUNDS + 1)
            self.build(termination).control_step(STATE, MEASURED, O_PREV)
        # the starts round, the admitted rounds, then the one cut off
        assert rounds[1 + self.ROUNDS:] == [self.LABELS]

    def test_every_solve_takes_part_in_every_round(self, monkeypatch):
        self.assert_every_solve_pending_at_expiry("best")
        rounds = self.record_rounds(monkeypatch)
        at_expiry = self.expire_after_rounds(monkeypatch, [])
        record, _ = self.build().control_step(STATE, MEASURED, O_PREV)
        assert len(at_expiry) == 1
        # the starts round, then every round the deadline admitted
        assert rounds == [self.LABELS] * (1 + self.ROUNDS)
        assert [stat[0] for stat in record.solver_stats] == self.LABELS

    def test_bounded_work_after_the_deadline(self, monkeypatch):
        self.assert_every_solve_pending_at_expiry("all")
        calls = self.count_kernel_calls(monkeypatch)
        at_expiry = self.expire_after_rounds(monkeypatch, calls)
        _, evaluation = self.build("all").control_step(STATE, MEASURED, O_PREV)
        assert len(at_expiry) == 1
        after = calls[at_expiry[0]:]
        # no kernel call: every iterate's plan and evaluation cost come from
        # the round that costed it
        assert after == []
        sources = {c.source for c in evaluation.candidates}
        assert {"PMPC(1)", "PMPC(2)"} <= sources

    def test_the_budget_covers_the_warm_starts(self, monkeypatch):
        """A clock that passes the budget inside the warm-start kernel call
        leaves a step its starts round alone: control_step and a standalone
        CMPC own_step each make one solver round and return their
        zero-budget result."""
        def architecture(budget_s):
            arch = self.build()
            optimizer_config = replace(arch.config.optimizer, budget_s=budget_s)
            arch.config = replace(arch.config, optimizer=optimizer_config)
            return arch.control_step

        def standalone(budget_s):
            hold = FeedbackController((0.0,) * 3, "hold")
            config = ArchitectureConfig(
                NET, [ParallelCell(hold, (mpc("CMPC(1)", CONVENTIONAL, 3),))], 1, 0.8,
                optimizer(budget_s=budget_s, max_iterations=1000))
            return BaseParallelController(config, MU_INIT).own_step

        budget = 60.0
        zero = [step(0.0)(STATE, MEASURED, O_PREV)[0] for step in (architecture, standalone)]
        now = [0.0]
        roll = actm.rollout_batch

        def passing(*args, **kwargs):
            now[0] = budget  # the first call of a step is its warm starts
            return roll(*args, **kwargs)

        monkeypatch.setattr(time, "monotonic", lambda: now[0])
        monkeypatch.setattr(actm, "rollout_batch", passing)
        rounds = self.record_rounds(monkeypatch)
        for step, want in zip((architecture, standalone), zero):
            now[0] = 0.0
            rounds.clear()
            record, _ = step(budget)(STATE, MEASURED, O_PREV)
            assert len(rounds) == 1  # the starts round alone
            assert replace(record, solver_stats=()) == replace(want, solver_stats=())
            assert [s[2:] for s in record.solver_stats] == [s[2:] for s in want.solver_stats]
            assert [s[2] for s in record.solver_stats] == [0] * len(record.solver_stats)


class TestConfigValidation:
    @pytest.mark.parametrize("name", ["metering_upper", "gain_upper"])
    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_negative_or_nan_upper_bound_rejected(self, name, value):
        # the upper end of a conventional controller's box is metering_upper,
        # that of a parameterized one gain_upper; the problem checks its box
        kind, dim = {"metering_upper": (CONVENTIONAL, 9), "gain_upper": (PARAMETERIZED, 3)}[name]
        with pytest.raises(ValueError, match="lower bounds must not exceed upper bounds"):
            MpcProblem("CMPC(1)", kind, 3, (0.0,) * dim, (value,) * dim)

    def test_evaluation_horizon_capped_by_min_horizon(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(
                params=NET,
                cells=[ParallelCell(
                    base=alinea(),
                    controllers=(mpc("CMPC(1)", CONVENTIONAL, 3),),
                )],
                evaluation_horizon=4,
                gamma=0.8,
                optimizer=optimizer(),
            )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(
                params=NET,
                cells=[
                    ParallelCell(base=alinea("X")),
                    ParallelCell(base=alinea("X")),
                ],
                evaluation_horizon=1,
                gamma=0.8,
                optimizer=optimizer(),
            )
