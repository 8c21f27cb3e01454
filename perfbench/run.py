"""basepar benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload closed-loop-serial --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of untraced processes;
with ``--trace 1`` it runs one untraced and one traced unit and reports the
per-layer metrics.  Every output is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--seed`` names the run; the inputs are the shipped scenario
whatever it is (see README.md).  Details (machine, per-unit figures, run-log
fingerprints) go to ``perfbench/out/<workload>-seed<seed>-trace<t>/report.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_PROBES = 9              # set-up-only processes per run, besides the measured one
# A worker runs units until its --seconds have passed, then finishes the unit
# it is on; this covers set-up, that last unit (up to about 80 s serially on a
# slow host) and, when traced, retraining the networks.
PROCESS_TIMEOUT_S = 170.0
PREP_TIMEOUT_S = 600.0


def declared_units(root: str, trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_digest(src: str) -> str:
    """sha256 over the program's source files (paths and contents)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__" and not d.endswith(".egg-info"))
        for name in sorted(filenames):
            if name.endswith((".py", ".yaml")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Runner:
    def __init__(self, root: str, out: str):
        self.out = out
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.count = 0

    def worker(self, mode: str, *extra: str, seconds: float = 0.0) -> dict:
        """Start one worker process, wait for it and return its result."""
        self.count += 1
        out = os.path.join(self.out, f"worker-{self.count}")
        os.makedirs(out)
        result = os.path.join(out, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--result", result,
               "--out", out, "--seconds", repr(seconds), *extra,
               "--t0", repr(time.monotonic())]
        proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr,
                              timeout=seconds + PROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)


def ensure_nets(runner: Runner, cache: str, digest: str) -> str:
    """Gain networks trained by the code under test at the shipped training
    seed, cached per program source and prep code; returns the metadata path."""
    os.makedirs(cache, exist_ok=True)
    with open(os.path.join(HERE, "worker.py"), "rb") as fh:
        key = hashlib.sha256(digest.encode() + fh.read()).hexdigest()
    meta = os.path.join(cache, f"nets-{key[:16]}.json")
    if not os.path.exists(meta):
        subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "prep", "--result", meta],
            env=runner.env, stdout=sys.stderr, timeout=PREP_TIMEOUT_S, check=True,
        )
    return meta


def end_to_end(setups, main) -> dict:
    units = main["units"]
    steps_ms = [1e3 * s for s in main["step_s"]]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(u["run_s"] for u in units),
        "step_p50_ms": statistics.median(steps_ms),
        "step_p90_ms": layers.p90(steps_ms),
        "j_total_h": statistics.median(u["j_total_h"] for u in units),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="basepar benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "basepar", "__init__.py")):
        print(f"error: no basepar sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    load_at_start = os.getloadavg()[0]
    out = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    runner = Runner(root, out)
    digest = source_digest(src)
    spec = WORKLOADS[args.workload]
    common = ["--workload", args.workload,
              "--nets", ensure_nets(runner, os.path.join(HERE, "out", "cache"), digest)]

    if args.trace == 0:
        setups = [runner.worker("setup", *common)["setup_s"] for _ in range(SETUP_PROBES)]
        runs = [runner.worker("run", *common, seconds=args.seconds)]
    else:
        # one unit each: untraced for the overhead baseline, then traced
        spans_path = os.path.join(out, "spans.jsonl")
        runs = [runner.worker("run", *common),
                runner.worker("run", *common, "--spans", spans_path)]
    for run in runs:
        if not run["units"]:
            print("error: no unit completed\n" + "\n".join(run["problems"]), file=sys.stderr)
            return 1

    if args.trace == 0:
        main_run = runs[0]
        metrics = end_to_end(setups + [main_run["setup_s"]], main_run)
        measured = main_run
    else:
        plain, traced = runs
        with open(spans_path, encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        metrics = layers.per_layer_metrics(spans, spec["budget_s"])
        plain_s, traced_s = plain["units"][0]["run_s"], traced["units"][0]["run_s"]
        metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
        metrics["actm.step.self_share"] = metrics["actm.step.self_s"] / traced_s
        measured = traced
        measured["problems"] = plain["problems"] + traced["problems"]
        measured["failed"] = plain["failed"] + traced["failed"]
        measured["attempted"] = plain["attempted"] + traced["attempted"]

    metric_units = declared_units(root, args.trace)
    if set(metric_units) != set(metrics):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json")

    import numpy

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "loadavg_1min_at_start": load_at_start,
            "commit": git_commit(root),
            "source_sha256": digest,
        },
        "deadline_budget_s": spec["budget_s"],
        "gain_network_val_rmse": measured["val_rmse"],
        "units": measured["units"],
        "problems": measured["problems"],
        "metrics": {k: {"value": v, "unit": metric_units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    for key, value in report["machine"].items():
        print(f"# {key}: {value}")
    print(f"# deadline_budget_s: {spec['budget_s']}")
    for unit in measured["units"]:
        if "runlog_sha256" in unit:
            print(f"# runlog sha256 (informational): {unit['runlog_sha256']}")
        print(f"# feedback-law rates above metering_upper (informational): "
              f"{unit['steps_above_metering_upper']} steps, max {unit['max_applied_rate']}")
    problems = measured["problems"]
    for problem in problems[:5]:
        print(f"# CHECK FAILED: {problem}")
    if len(problems) > 5:
        print(f"# ... {len(problems) - 5} more failed checks in report.json")
    for name, value in metrics.items():
        print(f"{name:48s} {value:>16.6g} {metric_units[name]}")

    correct = not measured["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": report["metrics"],
    }))
    # a failed check is reported through "correct"; the run itself completed
    return 0


if __name__ == "__main__":
    sys.exit(main())
