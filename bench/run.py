"""The adamsbar benchmark: one command, three workloads.

    python3 bench/run.py --workload hopf --seed 0 --seconds 35 --trace 0
    python3 bench/run.py                  # hopf, models and cells in turn

A run is a sequence of rounds.  Each round starts a fresh
single-threaded worker process (worker.py) on one input set of the
workload, which runs the set's jobs one after another (a closed loop
with one client) and checks every result.  Round r of seed s uses input
set (s + r) mod 12; rounds continue while the next one is expected to
end within --seconds, and there are at least three.

--trace 0 prints the end-to-end metrics:
  setup_s      process start until adamsbar is imported and the inputs
               are written (median over the rounds)
  wall_s       time to finish every job of a round (median)
  job_p50_s    per-job time, median over every job of every round
  job_p90_s    per-job time, 90th percentile over the same jobs
  peak_rss_mb  ru_maxrss of the worker process (median)
--trace 1 runs each input set twice, untraced then traced (tracer.py),
and prints the per-layer metrics of layers.json instead.

Every metric line names its unit, failed_share counts failed jobs over
jobs attempted, and the last line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when the run
completed, failures or not; a worker that cannot start (for instance
without src/adamsbar) stops the benchmark with exit code 1 and no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import SETS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s",
                    "job_p90_s": "s", "peak_rss_mb": "MB"}
MIN_ROUNDS = 3
WORKER_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def per_layer_units():
    with open(BENCH / "layers.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run_worker(workload, index, trace=False, record=False):
    """Run one round; returns the worker's result plus setup_s."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--set", str(index)]
    cmd += ["--trace"] * trace + ["--record"] * record
    # a fixed hash seed keeps set iteration order, hence the work done,
    # the same in every round
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise BenchError(f"worker {workload} set {index} failed "
                         f"(exit code {proc.returncode})")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def run_workload(workload, seed, seconds, trace):
    plain, traced = [], []
    t_begin = time.perf_counter()
    for r in range(SETS):
        index = (seed + r) % SETS
        plain.append(run_worker(workload, index))
        if trace:
            traced.append(run_worker(workload, index, trace=True))
        done = r + 1
        elapsed = time.perf_counter() - t_begin
        if done >= (1 if trace else MIN_ROUNDS) and \
                elapsed * (done + 1) / done > seconds:
            break
    jobs = [j for rnd in plain + traced for j in rnd["jobs"]]
    failures = [(j["id"], j["problem"]) for j in jobs if j["problem"]]
    summary = {"rounds": len(plain),
               "sets": [(seed + r) % SETS for r in range(len(plain))],
               "attempted": len(jobs), "failures": failures}
    if trace:
        metrics = _layer_metrics(plain, traced)
    else:
        metrics = _end_to_end(plain)
        times = [j["seconds"] for rnd in plain for j in rnd["jobs"]]
        summary["job_samples"] = len(times)
        summary["beyond_p90"] = sum(
            1 for t in times if t > metrics["job_p90_s"])
    return metrics, summary


def _end_to_end(rounds):
    times = [j["seconds"] for rnd in rounds for j in rnd["jobs"]]
    med = statistics.median
    return {
        "setup_s": med(r["setup_s"] for r in rounds),
        "wall_s": med(r["wall_s"] for r in rounds),
        "job_p50_s": med(times),
        "job_p90_s": statistics.quantiles(times, n=10,
                                          method="inclusive")[8],
        "peak_rss_mb": med(r["maxrss_kb"] for r in rounds) / 1024,
    }


def _layer_metrics(plain, traced):
    per_round = []
    for p, t in zip(plain, traced):
        m = dict(t["layers"])
        m["minimal.stage_iterations"] = t["stage_iterations"]
        m["cli.report_bytes"] = t["report_bytes"]
        m["trace.overhead_s"] = t["wall_s"] - p["wall_s"]
        m["trace.overhead_share"] = m["trace.overhead_s"] / p["wall_s"]
        per_round.append(m)
    return {name: statistics.median(m[name] for m in per_round)
            for name in per_layer_units()}


def print_report(workload, seed, metrics, summary, units):
    print(f"{workload}: seed {seed}, {summary['rounds']} rounds on input "
          f"sets {summary['sets']}")
    for name, value in metrics.items():
        note = ""
        if name in ("job_p50_s", "job_p90_s"):
            note = f"  (n={summary['job_samples']} jobs"
            note += f", {summary['beyond_p90']} beyond p90)" \
                if name == "job_p90_s" else ")"
        print(f"  {name:32s} {value:.6g} {units[name]}{note}")
    failed = len(summary["failures"])
    print(f"  {'failed_share':32s} {failed / summary['attempted']:.6g} "
          f"share  ({failed} of {summary['attempted']} jobs)")
    for jid, problem in summary["failures"][:10]:
        print(f"  FAILED {jid}: {problem}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            metrics, summary = run_workload(name, args.seed, args.seconds,
                                            bool(args.trace))
            print_report(name, args.seed, metrics, summary, units)
            prefix = f"{name}." if len(names) > 1 else ""
            out["metrics"].update(
                {prefix + k: {"value": v, "unit": units[k]}
                 for k, v in metrics.items()})
            out["attempted"] += summary["attempted"]
            out["failed"] += len(summary["failures"])
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    out["correct"] = out["failed"] == 0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
