"""Where the span recorder hooks into basepar, and the per-layer metrics it
yields.

Every hook replaces a public function at the module global its caller reads
at call time (``basepar.parallel.objective`` is what ``solve_budgeted``
calls, ``basepar.orchestrator.evaluate_candidates`` is what
``control_step`` calls, and so on), so each call path passes exactly one
wrapper.
"""

from __future__ import annotations

import math
import statistics

from spans import Recorder

_SHORT = {"CMPC(1)": "cmpc1", "CMPC(2)": "cmpc2", "PMPC(1)": "pmpc1", "PMPC(2)": "pmpc2"}
CONTROLLERS = tuple(_SHORT.values())
CELLS = ("alinea", "ann")


def _problem_key(problem) -> str:
    return _SHORT.get(problem.label, problem.label or "unlabelled")


def install(recorder: Recorder) -> None:
    """Wrap basepar's public functions at their call sites."""
    from basepar import actm, base_controllers, orchestrator, parallel, scenario

    def span(owner, attr, name, attrs=None, after=None):
        recorder.patch(owner, attr, lambda fn: recorder.span(name, fn, attrs, after))

    def leaf(owner, attr, name, keys=None):
        recorder.patch(owner, attr, lambda fn: recorder.leaf(name, fn, keys))

    # actm: the model step and the rollout, wherever they are called from
    for module in (actm, parallel, base_controllers, scenario):
        leaf(module, "step", "actm.step")
    for module in (actm, parallel, orchestrator):
        leaf(module, "rollout", "actm.rollout")

    # parallel: solver, objective and plan conversion
    def objective_keys(args, value):
        keys = [f"parallel.objective.{_problem_key(args[0])}"]
        if not math.isfinite(value):
            keys.append("parallel.objective.inf")
        return keys

    leaf(parallel, "objective", "parallel.objective", objective_keys)
    leaf(parallel, "decision_to_metering", "parallel.decision_to_metering")
    span(parallel, "solve_budgeted", "parallel.solve_budgeted",
         attrs=lambda a, kw: {"key": _problem_key(a[0])})
    span(orchestrator, "run_parallel_cell", "parallel.run_parallel_cell",
         attrs=lambda a, kw: {"key": "alinea" if a[1].theta is None else "ann"})

    # orchestrator: one control step and its phases
    span(orchestrator.BaseParallelController, "control_step", "orchestrator.control_step")
    span(orchestrator, "evaluate_candidates", "orchestrator.evaluate_candidates",
         attrs=lambda a, kw: {"candidates": len(a[0])})

    def note_fallback(sp, result):
        sp.attrs["fallback"] = not any(math.isfinite(c) for c in sp.attrs.pop("costs"))

    span(orchestrator, "select_best", "orchestrator.select_best",
         attrs=lambda a, kw: {"costs": a[0].costs}, after=note_fallback)

    # base controllers
    span(orchestrator, "warm_start_rollout", "base_controllers.warm_start_rollout")
    leaf(base_controllers, "mlp_forward", "base_controllers.mlp_forward")
    span(scenario, "generate_training_data", "base_controllers.generate_training_data")

    def note_epochs(sp, result):
        sp.attrs["epochs"] = len(result.train_loss)

    span(scenario, "train_mlp", "base_controllers.train_mlp", after=note_epochs)

    # scenario: set-up, the closed loop and its log
    for attr in ("load_scenario", "build_architecture", "run_experiment", "write_runlog"):
        span(scenario, attr, f"scenario.{attr}")

    recorder.propagate_into_pools()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _union_length(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def p90(values):
    """The 90th percentile by the exclusive method; 0.0 without data."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def per_layer_metrics(spans: list[dict], budget_s) -> dict[str, float]:
    """Per-layer figures of one traced process: set-up, one closed-loop
    unit, then the retraining of the gain networks.

    ``budget_s`` is the control-step budget, None when there is no deadline.
    """
    children: dict[int, list[dict]] = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append(sp)

    def self_time(sp) -> float:
        kids = [(c["t0"], c["t1"]) for c in children.get(sp["id"], ())]
        return sp["t1"] - sp["t0"] - _union_length(kids, sp["t0"], sp["t1"]) - sp["covered"]

    leaves: dict[str, list] = {}
    for sp in spans:
        for key, (calls, secs) in sp["leaves"].items():
            entry = leaves.setdefault(key, [0, 0.0])
            entry[0] += calls
            entry[1] += secs

    def calls(key):
        return leaves.get(key, [0, 0.0])[0]

    def secs(key):
        return leaves.get(key, [0, 0.0])[1]

    def named(name, key=None):
        return [sp for sp in spans
                if sp["name"] == name and (key is None or sp["attrs"].get("key") == key)]

    def total(name, key=None):
        return sum(sp["t1"] - sp["t0"] for sp in named(name, key))

    roots = {sp["id"] for sp in spans if sp["parent"] is None}
    m: dict[str, float] = {}
    m["actm.step.calls"] = calls("actm.step")
    m["actm.step.self_s"] = secs("actm.step")
    m["actm.step.us_per_call"] = 1e6 * secs("actm.step") / calls("actm.step") if calls("actm.step") else 0.0
    m["actm.rollout.calls"] = calls("actm.rollout")
    m["actm.rollout.s"] = secs("actm.rollout")

    m["parallel.objective.calls"] = calls("parallel.objective")
    for c in CONTROLLERS:
        m[f"parallel.objective.{c}.calls"] = calls(f"parallel.objective.{c}")
    m["parallel.objective.inf"] = calls("parallel.objective.inf")
    for c in CONTROLLERS:
        m[f"parallel.solve_budgeted.{c}.s"] = total("parallel.solve_budgeted", c)
    for c in CELLS:
        m[f"parallel.run_parallel_cell.{c}.s"] = total("parallel.run_parallel_cell", c)
    m["parallel.decision_to_metering.s"] = secs("parallel.decision_to_metering")

    evals = named("orchestrator.evaluate_candidates")
    m["orchestrator.evaluate_candidates.s"] = total("orchestrator.evaluate_candidates")
    m["orchestrator.evaluate_candidates.candidates"] = (
        statistics.fmean(sp["attrs"]["candidates"] for sp in evals) if evals else 0.0
    )
    steps = named("orchestrator.control_step")
    post = []
    if budget_s is not None:
        for sp in steps:
            warm = [c for c in children.get(sp["id"], ())
                    if c["name"] == "base_controllers.warm_start_rollout"]
            if warm:
                deadline = max(c["t1"] for c in warm) + budget_s
                post.append(1e3 * (sp["t1"] - deadline))
    m["orchestrator.post_deadline_ms.p50"] = statistics.median(post) if post else 0.0
    m["orchestrator.post_deadline_ms.p90"] = p90(post)
    m["orchestrator.control_step.self_s"] = sum(self_time(sp) for sp in steps)
    m["orchestrator.select_best.fallbacks"] = sum(
        1 for sp in named("orchestrator.select_best") if sp["attrs"]["fallback"]
    )

    m["base_controllers.warm_start_rollout.s"] = total("base_controllers.warm_start_rollout")
    m["base_controllers.mlp_forward.calls"] = calls("base_controllers.mlp_forward")
    m["base_controllers.generate_training_data.s"] = total("base_controllers.generate_training_data")
    m["base_controllers.train_mlp.s"] = total("base_controllers.train_mlp")
    m["base_controllers.train_mlp.epochs"] = sum(
        sp["attrs"]["epochs"] for sp in named("base_controllers.train_mlp")
    )

    # set-up spans are roots; run_experiment builds its own architecture too
    m["scenario.load_scenario.s"] = sum(
        sp["t1"] - sp["t0"] for sp in named("scenario.load_scenario") if sp["id"] in roots)
    m["scenario.build_architecture.s"] = sum(
        sp["t1"] - sp["t0"] for sp in named("scenario.build_architecture") if sp["id"] in roots)
    m["scenario.run_experiment.self_s"] = sum(
        self_time(sp) for sp in named("scenario.run_experiment"))
    m["scenario.write_runlog.s"] = total("scenario.write_runlog")
    return m
