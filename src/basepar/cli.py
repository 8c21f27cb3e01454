"""Command-line entry point.

Subcommands: run a single control approach (or the full architecture),
compare all seven approaches on one seed, train the gain networks, emit
plot tables from a run log, and validate a scenario file.

Exit codes: 0 success, 1 runtime failure, 2 bad usage.  The default seed can
be set through the BASEPAR_SEED environment variable; the --seed flag wins.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import scenario as sc
from .base_controllers import save_mlp_params

ENV_SEED = "BASEPAR_SEED"


def _load(args) -> sc.ScenarioConfig:
    path = args.scenario if args.scenario else sc.default_scenario_path()
    cfg = sc.load_scenario(path)
    seed = args.seed
    if seed is None and os.environ.get(ENV_SEED):
        seed = int(os.environ[ENV_SEED])
    if seed is not None:
        cfg = sc.ScenarioConfig(**{**cfg.__dict__, "seed": seed})
    return cfg


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", metavar="PATH",
                     help="scenario file (default: the shipped scenario)")
    sub.add_argument("--seed", type=int, default=None,
                     help=f"override the scenario seed (or set {ENV_SEED})")
    sub.add_argument("--out", metavar="DIR", default="out",
                     help="output directory (default: out)")


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget-s", type=float, default=None,
                     help="wall-clock budget per control step, seconds")
    sub.add_argument("--ftol", type=float, default=None, help="function tolerance")
    sub.add_argument("--xtol", type=float, default=None, help="step tolerance")
    sub.add_argument("--termination", choices=["best", "all"], default=None,
                     help="candidate handling when the budget cuts a solve short")
    sub.add_argument("--serial", action="store_true",
                     help="deterministic mode: no deadline, solves run to the iteration cap")
    sub.add_argument("--steps", type=int, default=None,
                     help="override the scenario's run length")


def _apply_tolerances(cfg: sc.ScenarioConfig, args) -> sc.ScenarioConfig:
    if args.ftol is None and args.xtol is None:
        return cfg
    control = cfg.control
    updates = {}
    if args.ftol is not None:
        updates["function_tolerance"] = args.ftol
    if args.xtol is not None:
        updates["step_tolerance"] = args.xtol
    control = sc.ControlSettings(**{**control.__dict__, **updates})
    return sc.ScenarioConfig(**{**cfg.__dict__, "control": control})


def _cmd_run(args) -> int:
    cfg = _apply_tolerances(_load(args), args)
    log = sc.run_experiment(
        cfg, args.controller, serial=args.serial,
        budget_override=args.budget_s, termination=args.termination,
        steps_override=args.steps,
    )
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, f"run_{args.controller}.jsonl")
    sc.write_runlog(log, log_path)
    s = log.summary
    avg = "undefined" if s.avg_cost_per_vehicle is None else f"{s.avg_cost_per_vehicle:.2f}"
    print(f"controller:           {log.controller}")
    print(f"J_total [h]:          {s.j_total:.4f}")
    print(f"n_total [veh]:        {s.n_total:.2f}")
    print(f"avg cost/vehicle [s]: {avg}")
    print(f"log: {log_path}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _apply_tolerances(_load(args), args)
    os.makedirs(args.out, exist_ok=True)
    nets, _ = sc.train_networks(cfg)
    rows = []
    for key in sc.CONTROLLER_KEYS:
        log = sc.run_experiment(
            cfg, key, serial=args.serial, nets=nets,
            budget_override=args.budget_s, termination=args.termination,
            steps_override=args.steps,
        )
        sc.write_runlog(log, os.path.join(args.out, f"run_{key}.jsonl"))
        rows.append((key, log.summary))

    display = {"alinea": "Alinea"}  # table-style capitalization
    name_w = max(len(sc.CONTROLLER_LABELS[k]) for k, _ in rows) + 2
    header = f"{'control approach':<{name_w}} {'J_total [h]':>12} {'n_total [veh]':>14} {'avg cost/veh [s]':>17}"
    print(header)
    print("-" * len(header))
    csv_path = os.path.join(args.out, "comparison.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("control_approach,j_total_h,n_total_veh,avg_cost_per_vehicle_s\n")
        for key, s in rows:
            name = display.get(key, sc.CONTROLLER_LABELS[key])
            avg = "" if s.avg_cost_per_vehicle is None else f"{s.avg_cost_per_vehicle:.4f}"
            avg_disp = "undefined" if not avg else f"{s.avg_cost_per_vehicle:.2f}"
            print(f"{name:<{name_w}} {s.j_total:>12.4f} {s.n_total:>14.2f} {avg_disp:>17}")
            fh.write(f"{name},{s.j_total!r},{s.n_total!r},{avg}\n")
    print(f"table: {csv_path}")
    return 0


def _cmd_train_ann(args) -> int:
    cfg = _load(args)
    nets, results = sc.train_networks(cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "ann_params.json")
    save_mlp_params(path, {i + 1: p for i, p in nets.items()})
    for cell_index, res in sorted(results.items()):
        print(f"cell {cell_index + 1}: validation RMSE {res.validation_rmse:.5f} "
              f"({len(res.train_loss)} accepted epochs)")
    print(f"parameters: {path}")
    return 0


def _cmd_emit_plots(args) -> int:
    log = sc.read_runlog(args.runlog)
    for path in sc.emit_plot_data(log, args.out):
        print(path)
    return 0


def _cmd_validate(args) -> int:
    path = args.scenario if args.scenario else sc.default_scenario_path()
    cfg = sc.load_scenario(path)
    print(f"{path}: valid scenario '{cfg.name}' "
          f"({cfg.network.n_cells} cells, {cfg.steps} steps, seed {cfg.seed})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basepar",
        description="Budgeted base-parallel ramp-metering control on a cell-transmission highway model.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run one control approach in closed loop")
    p_run.add_argument("--controller", choices=list(sc.CONTROLLER_KEYS),
                       default="architecture",
                       help="control approach (default: architecture)")
    _add_common(p_run)
    _add_solver_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = subs.add_parser("compare",
                            help="run all seven control approaches on a shared seed")
    _add_common(p_cmp)
    _add_solver_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_train = subs.add_parser("train-ann", help="train the gain networks and save them")
    _add_common(p_train)
    p_train.set_defaults(func=_cmd_train_ann)

    p_plot = subs.add_parser("emit-plots", help="write CSV plot tables from a run log")
    p_plot.add_argument("runlog", help="run log written by 'run' or 'compare'")
    p_plot.add_argument("--out", metavar="DIR", default="out")
    p_plot.set_defaults(func=_cmd_emit_plots)

    p_val = subs.add_parser("validate-scenario", help="check a scenario file")
    p_val.add_argument("--scenario", metavar="PATH",
                       help="scenario file (default: the shipped scenario)")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (sc.ScenarioError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
