"""One measured process of the basepar benchmark (started by ``run.py``).

Modes:

``prep``   train the gain networks of the shipped scenario at its shipped
           training seed, check the fit and save them.  The workloads load
           them during set-up, so no timed section ever includes training.
``setup``  set up a workload and exit (one ``setup_s`` sample).
``run``    set up a workload, run whole units of it until ``--seconds`` have
           passed (at least one), check every output, and write the result.
           With ``--spans`` the process is traced, and after its units it
           retrains the networks it loaded, traced too, so the training
           layers are measured and the cached networks are checked.

A unit is one 180-step closed-loop run of the full architecture on the
shipped scenario, plus writing its run log.  The loop is closed: each step
starts when the previous one has finished.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

# Budget per control step of the deadline workload, seconds.  Serially the
# solves of one step take 75 ms to 2 s (median about 200 ms), so at 0.1 s
# nearly every step runs into the deadline.  At 0.2 s, steps finished early
# whenever the host ran fast, and the workload was no longer time-bound.
DEADLINE_BUDGET_S = 0.1

WORKLOADS = {
    "closed-loop-serial": {"serial": True, "budget_s": None, "termination": None},
    "closed-loop-deadline": {"serial": False, "budget_s": DEADLINE_BUDGET_S,
                             "termination": "all"},
}

SOURCES = ("ALINEA", "ANN", "CMPC(1)", "CMPC(2)", "PMPC(1)", "PMPC(2)")
CONSERVATION_TOL = 1e-6   # vehicles per step; the model clamps at 1e-9 per cell
RATE_TOL = 1e-9           # veh/cycle; the plant caps ramp inflow at the rate exactly
RMSE_TO_STD_LIMIT = 0.25  # acceptance criterion 3


def _write_json(path, payload) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# the gain networks
# ---------------------------------------------------------------------------

def check_training(cfg, results) -> list[str]:
    """Criterion 3: each cell's validation RMSE is at most 0.25 times the
    standard deviation of its training targets, regenerated exactly as the
    acceptance test does."""
    import numpy as np

    from basepar.base_controllers import GenerationRanges, generate_training_data

    seed = cfg.ann.train_seed if cfg.ann.train_seed is not None else cfg.seed
    problems = []
    net = cfg.network
    for cell_index, result in sorted(results.items()):
        cell = net.cells[cell_index]
        ranges = GenerationRanges(n=(0.0, cell.capacity_nbar), q=(0.0, 30.0),
                                  d=(0.0, 4.0), o_prev=(0.0, cell.sat_mainline_obar))
        rng = np.random.default_rng([seed, cell_index])
        samples = generate_training_data(net, cell_index, cfg.ann.sample_count, ranges, rng)
        limit = RMSE_TO_STD_LIMIT * float(np.std([s.theta for s in samples]))
        rmse = result.validation_rmse
        if not (math.isfinite(rmse) and rmse <= limit):
            problems.append(f"cell {cell_index + 1}: validation RMSE {rmse} above {limit}")
    return problems


def prep(out_path: str) -> None:
    from basepar import scenario as sc
    from basepar.base_controllers import save_mlp_params

    cfg = sc.load_scenario(sc.default_scenario_path())
    nets, results = sc.train_networks(cfg)
    params_path = f"{out_path}.params.json"
    save_mlp_params(params_path, {i + 1: p for i, p in nets.items()})
    _write_json(out_path, {
        "params": os.path.basename(params_path),
        "val_rmse": {str(i + 1): r.validation_rmse for i, r in results.items()},
        "problems": check_training(cfg, results),
    })


# ---------------------------------------------------------------------------
# set-up and units
# ---------------------------------------------------------------------------

class Setup:
    """What a workload needs before its timed section: the shipped scenario,
    the prepared networks and the architecture."""

    def __init__(self, workload: str, nets_meta: str):
        from basepar import scenario as sc
        from basepar.base_controllers import load_mlp_params

        self.spec = spec = WORKLOADS[workload]
        # The scenario keeps its shipped seed: the loop is bistable in the
        # noise seed (see perfbench/README.md), so a seed-varied loop would
        # mix two regimes whose run times differ 2x.
        self.cfg = sc.load_scenario(sc.default_scenario_path())
        with open(nets_meta, encoding="utf-8") as fh:
            self.meta = json.load(fh)
        path = os.path.join(os.path.dirname(nets_meta), self.meta["params"])
        self.nets = {cell - 1: p for cell, p in load_mlp_params(path).items()}
        # built here so set-up time covers it; run_experiment builds its own
        # from the same arguments
        sc.build_architecture(self.cfg, self.nets, spec["serial"], spec["budget_s"],
                              spec["termination"])


def _time_calls(owner, attr, sink: list) -> None:
    """Append the wall time of every call of ``owner.attr`` to ``sink``."""
    fn = getattr(owner, attr)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(clock() - t0)

    setattr(owner, attr, timed)


def run_unit(setup: Setup, path: str) -> dict:
    from basepar import scenario as sc

    spec = setup.spec
    t0 = time.perf_counter()
    log = sc.run_experiment(setup.cfg, "architecture", serial=spec["serial"],
                            nets=setup.nets, budget_override=spec["budget_s"],
                            termination=spec["termination"])
    sc.write_runlog(log, path)
    return {"run_s": time.perf_counter() - t0, "j_total_h": log.summary.j_total,
            "runlog": path}


def check_runlog(path, metered_cells, metering_upper: float) -> tuple[list[str], int, int, dict]:
    """Check one run log; returns (violations, failed steps, steps, rate notes).

    Rates are checked against the control laws as the program states them.
    ALINEA, the gain network and PMPC set rates by the feedback law
    ``max(mu_prev + theta * (rho_crit - rho), 0)``, which is bounded below
    only; ``metering_upper`` is the box of the CMPC decision vector, as
    ``gain_upper`` is that of PMPC.  So every applied rate must be finite and
    at least 0, a CMPC winner's rates at most ``metering_upper``, and no
    metered ramp may admit more than its applied rate.  Rates above
    ``metering_upper`` from the feedback law are counted in the notes.
    """
    from basepar import scenario as sc

    log = sc.read_runlog(path)
    recs = log.records
    problems = []
    failed = 0
    above = [max(r.applied) for r in recs if max(r.applied) > metering_upper]
    notes = {"steps_above_metering_upper": len(above),
             "max_applied_rate": max(max(r.applied) for r in recs)}
    for a, b in zip(recs, recs[1:]):
        inflow = a.mainstream_in + sum(a.true_demand[1:])
        outflow = a.flow_o[-1] + sum(a.flow_s)
        before, after = sum(a.n) + sum(a.q), sum(b.n) + sum(b.q)
        if abs(before + inflow - outflow - after) > CONSERVATION_TOL:
            problems.append(f"step {a.step}: vehicles not conserved "
                            f"({before} + {inflow} - {outflow} != {after})")
    for r in recs:
        if any(not (math.isfinite(m) and m >= 0.0) for m in r.applied):
            problems.append(f"step {r.step}: applied rates {r.applied} not finite "
                            f"and nonnegative")
        if r.winner.startswith("CMPC") and max(r.applied) > metering_upper:
            problems.append(f"step {r.step}: {r.winner} applied {r.applied} above "
                            f"its bound {metering_upper}")
        for cell, m in zip(metered_cells, r.applied):
            if r.flow_e[cell] > m + RATE_TOL:
                problems.append(f"step {r.step}: ramp of cell {cell + 1} admitted "
                                f"{r.flow_e[cell]} above its rate {m}")
        finite = [c for c in r.candidate_costs if math.isfinite(c)]
        if finite and r.winner != r.candidate_labels[r.candidate_costs.index(min(finite))]:
            problems.append(f"step {r.step}: winner {r.winner} is not the cheapest "
                            f"candidate")
        missing = set(SOURCES) - set(r.candidate_labels)
        if missing:
            problems.append(f"step {r.step}: sources {sorted(missing)} missing "
                            f"among the candidates")
        # a non-finite stage cost, or every candidate excluded so that
        # select_best fell back, fails the step
        failed += (not math.isfinite(r.cost_j)
                   or not any(math.isfinite(c) for c in r.candidate_costs))
    if not math.isfinite(log.summary.j_total):
        problems.append(f"J_total is {log.summary.j_total}")
    return problems, failed, len(recs), notes


def run(args) -> None:
    recorder = None
    if args.spans:
        import layers
        from spans import Recorder

        recorder = Recorder()
        layers.install(recorder)

    setup = Setup(args.workload, args.nets)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        _write_json(args.result, result)
        return

    from basepar import orchestrator

    step_s: list[float] = []
    _time_calls(orchestrator.BaseParallelController, "control_step", step_s)
    units = []
    problems, failed, attempted = list(setup.meta["problems"]), 0, 0
    t_start = time.perf_counter()
    while True:
        try:
            units.append(run_unit(setup, os.path.join(args.out, f"runlog-{len(units)}.jsonl")))
        except Exception:
            # the step that raised failed, and the unit ends there
            problems.append(traceback.format_exc())
            failed += 1
            attempted += 1
            break
        if time.perf_counter() - t_start >= args.seconds:
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["step_s"] = step_s

    if recorder is not None:
        from basepar import scenario as sc

        nets, _ = sc.train_networks(setup.cfg)
        if nets != setup.nets:
            problems.append("retraining at the shipped seed did not reproduce "
                            "the loaded gain networks")
        recorder.uninstall()
        recorder.dump(args.spans)

    for unit in units:
        p, f, steps, notes = check_runlog(unit["runlog"], setup.cfg.network.metered_cells,
                                          setup.cfg.control.metering_upper)
        unit.update(notes)
        problems += p
        failed += f
        attempted += steps
        if setup.spec["serial"]:
            unit["runlog_sha256"] = _sha256(unit["runlog"])
    result.update(units=units, problems=problems, failed=failed, attempted=attempted,
                  val_rmse=setup.meta["val_rmse"])
    _write_json(args.result, result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prep", "setup", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--nets", help="metadata file written by 'prep'")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", help="directory for run logs")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--spans", help="record spans and write them here")
    parser.add_argument("--t0", type=float,
                        help="the parent's time.monotonic() just before starting this process")
    args = parser.parse_args(argv)
    if args.mode == "prep":
        prep(args.result)
    else:
        run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
