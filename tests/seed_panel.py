"""Closed-loop runs of the shipped scenario over a panel of demand-noise seeds.

For each seed and approach this prints one JSON object per line: the
approach, the seed, the budget (null for a run with no deadline, 0 for a
zero wall budget, whose first solver round is the whole solve), J_total,
n_total, the admitted share of mainstream demand and, for the architecture,
the tie count.  n_total counts the vehicles that exited the network, and
the admitted share is the admitted mainstream flow over the true mainstream
demand, so a run that refuses demand (fixed open rates admit about 79% of
it, at about 135.16 h) shows as a low share, not only as a low J.  The tie
count is the number of steps at which the winner's evaluation cost lies
within 4 ulps of every other candidate's (null for a standalone approach,
which evaluates no candidates).  ALINEA and ANN solve nothing, so their
result does not depend on the budget: each runs once per seed, and its row
repeats under every budget.

Every seed sees the same gain networks: trained once at the shipped seed,
or loaded from a ``gain-net/1`` file (``basepar train-ann`` writes one).
All approaches see the same noise for a given seed, so per-seed paired
differences compare them.  The package is imported from ``PYTHONPATH``, so
one panel can be run against two trees:

    PYTHONPATH=src python3 tests/seed_panel.py --seeds 20260810 0 1 2
    PYTHONPATH=src python3 tests/seed_panel.py --nets ann_params.json \\
        --approaches architecture cmpc1 --budgets none

Pytest does not collect this file.
"""

import argparse
import json
import sys

import numpy as np

from basepar.base_controllers import load_mlp_params
from basepar.scenario import (
    CONTROLLER_KEYS,
    default_scenario,
    overridden,
    run_experiment,
    train_networks,
)

BUDGETS = {"none": None, "0": 0.0}


SOLVES_NOTHING = ("alinea", "ann")


def near_winner(record) -> list[bool]:
    """Whether each candidate's evaluation cost lies within 4 ulps of the
    winner's."""
    w = record.candidate_costs[record.candidate_labels.index(record.winner)]
    return [abs(c - w) <= 4 * np.spacing(abs(w)) for c in record.candidate_costs]


def tie_steps(log) -> int:
    """The steps whose winner's evaluation cost lies within 4 ulps of every
    candidate's."""
    return sum(all(near_winner(r)) for r in log.records)


def panel(seeds, approaches, budgets, nets=None):
    """Yield one result per seed, approach and budget, seed by seed."""
    if nets is None:
        nets, _ = train_networks(default_scenario())
    for seed in seeds:
        scenario = default_scenario(seed)
        for approach in approaches:
            result = None
            for budget in budgets:
                if result is None or approach not in SOLVES_NOTHING:
                    run = overridden(scenario, serial=budget is None, budget_s=budget)
                    log = run_experiment(run, approach, nets=nets)
                    demand = sum(r.true_demand[0] for r in log.records)
                    result = {
                        "j_total": log.summary.j_total, "n_total": log.summary.n_total,
                        "admitted": sum(r.mainstream_in for r in log.records) / demand,
                        "ties": tie_steps(log) if approach == "architecture" else None}
                yield {"approach": approach, "seed": seed, "budget": budget, **result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[default_scenario().seed, *range(10)],
                        help="demand-noise seeds (default: the shipped seed and 0-9)")
    parser.add_argument("--approaches", nargs="+", choices=CONTROLLER_KEYS,
                        default=list(CONTROLLER_KEYS))
    parser.add_argument("--budgets", nargs="+", choices=list(BUDGETS), default=list(BUDGETS),
                        help="'none' for no deadline, '0' for a zero wall budget")
    parser.add_argument("--nets", default=None,
                        help="gain-net/1 file to load instead of training at the shipped seed")
    args = parser.parse_args(argv)
    # the file is keyed by 1-based cell numbers, the runs by cell index
    nets = None if args.nets is None else {
        cell - 1: p for cell, p in load_mlp_params(args.nets).items()}
    for result in panel(args.seeds, args.approaches, [BUDGETS[b] for b in args.budgets], nets):
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
