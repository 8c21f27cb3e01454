"""Closed-loop runs of the shipped scenario over a panel of demand-noise seeds.

For each seed and approach this prints one JSON object per line: the
approach, the seed, the budget (null for a serial run with no budget, 0 for
a zero wall budget, whose first solver round is the whole solve), J_total
and n_total.  n_total counts the vehicles that exited the network, so a run
that refuses demand (fixed open rates admit about 79% of it, at about
135.16 h) shows as a low n_total, not only as a low J.

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

from basepar.base_controllers import load_mlp_params
from basepar.scenario import CONTROLLER_KEYS, default_scenario, run_experiment, train_networks

BUDGETS = {"none": None, "0": 0.0}


def panel(seeds, approaches, budgets, nets=None):
    """Yield one result per seed, approach and budget, seed by seed."""
    if nets is None:
        nets, _ = train_networks(default_scenario())
    for seed in seeds:
        scenario = default_scenario(seed)
        for approach in approaches:
            for budget in budgets:
                summary = run_experiment(scenario, approach, serial=budget is None, nets=nets,
                                         budget_override=budget).summary
                yield {"approach": approach, "seed": seed, "budget": budget,
                       "j_total": summary.j_total, "n_total": summary.n_total}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[default_scenario().seed, *range(10)],
                        help="demand-noise seeds (default: the shipped seed and 0-9)")
    parser.add_argument("--approaches", nargs="+", choices=CONTROLLER_KEYS,
                        default=["architecture", "cmpc1", "cmpc2", "pmpc1", "pmpc2"])
    parser.add_argument("--budgets", nargs="+", choices=list(BUDGETS), default=list(BUDGETS),
                        help="'none' for a serial run, '0' for a zero wall budget")
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
