"""The benchmark's span recorder can hook every layer it names.

``perfbench/layers.py`` wraps basepar's functions at the module globals
their callers read at call time.  A global that an edit renames or removes
would otherwise only show in a traced benchmark run (``--trace 1``).
"""

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_layer_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    from spans import Recorder

    recorder = Recorder()
    try:
        layers.install(recorder)  # raises AttributeError on a missing global
        patched = list(recorder._undo)
    finally:
        recorder.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


# Hooked names that a serial architecture run never calls: each zeroes the
# per-layer metric it feeds.  A refactor that routes the run past one more
# hook adds its name here, knowingly.
NEVER_IN_A_RUN = {
    "parallel.objective", "parallel.decision_to_metering", "parallel.solve_budgeted",
    "orchestrator.run_parallel_cell", "orchestrator.evaluate_candidates",
    "actm.rollout", "parallel.rollout", "orchestrator.rollout",
    "actm.step", "parallel.step", "base_controllers.step",
    "ThreadPoolExecutor.submit",
}
# set-up that a run given its networks does not reach, and this test does
# not call
TRAINING_ONLY = {"scenario.generate_training_data", "scenario.train_mlp"}


def test_hooks_a_serial_run_never_reaches_are_pinned(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    from spans import Recorder

    from basepar import scenario
    from basepar.base_controllers import MlpParams

    recorder = Recorder()
    calls = {}

    def counted(name, fn):
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    try:
        layers.install(recorder)
        for owner, attr, _ in recorder._undo:
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(owner, attr, counted(name, getattr(owner, attr)))
        config = scenario.load_scenario(scenario.default_scenario_path())
        nets = {
            i: MlpParams(hidden_weights=((0.4, -0.3, 0.2, 0.1),) * 3,
                         hidden_bias=(0.1, -0.2, 0.3), output_weights=(0.01, -0.02, 0.015),
                         output_bias=0.02, input_lo=(0.0,) * 4,
                         input_hi=(80.0, 30.0, 4.0, 8.0))
            for i in config.network.metered_cells
        }
        log = scenario.run_experiment(config, "architecture", serial=True, nets=nets,
                                      steps_override=3)
        scenario.write_runlog(log, tmp_path / "run.jsonl")
    finally:
        recorder.uninstall()
    assert len(log.records) == 3
    assert calls["BaseParallelController.control_step"] == 3
    assert {name for name, n in calls.items() if n == 0} == NEVER_IN_A_RUN | TRAINING_ONLY
