"""Measure the baseline of every workload and write perfbench/baseline.json.

    python3 perfbench/baseline.py [--seeds 10] [--seconds S]

S defaults to ``run_seconds`` of BENCHMARK.json.  It makes two sets of
runs; in each, every workload runs ``run.py --trace 0`` once per seed (seeds
1..N).  For each set it records the median and quartiles of every end-to-end
metric and their spread (quartile distance over median), and the second
set's median over the first's.  Then ``run.py --trace 1`` runs twice per
workload on the default seed; it records the per-layer metrics and checks
that every exact count is identical between the two traced runs.  It takes
about forty minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS, make_jobs

OUT = os.path.join(run.HERE, "baseline.json")


def invoke(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    seeds = list(range(1, args.seeds + 1))
    doc = {"python": platform.python_version(), "machine": platform.machine(),
           "cpus": os.cpu_count(), "seconds": args.seconds, "seeds": seeds,
           "job_s_tail": {"percentile": run.TAIL_PERCENTILE,
                          "of": "median-of-passes time of each job in the list"},
           "workloads": {}}
    sets = []
    for k in (1, 2):
        runs = {}
        for workload in WORKLOADS:
            runs[workload] = []
            for seed in seeds:
                runs[workload].append(invoke(workload, seed, args.seconds, 0))
                print(f"set {k} {workload} seed {seed} done", flush=True)
        sets.append(runs)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in WORKLOADS:
        e2e = {}
        for name, bound in bounds.items():
            first, second = (summarize([r["metrics"][name]["value"]
                                        for r in runs[workload]])
                             for runs in sets)
            e2e[name] = {"bound": bound, "first": first, "second": second,
                         "second_over_first": second["median"] / first["median"]}
        traced = [invoke(workload, DEFAULT_SEED, args.seconds, 1) for _ in (0, 1)]
        layer = {n: m["value"] for n, m in traced[0]["metrics"].items()}
        unstable = [n for n in layer if not n.endswith("self_s")
                    and n != "trace_overhead"
                    and traced[1]["metrics"][n]["value"] != layer[n]]
        if unstable:
            raise SystemExit(f"{workload}: exact counts differ: {unstable}")
        jobs = make_jobs(workload, DEFAULT_SEED)
        doc["workloads"][workload] = {
            "jobs_at_default_seed": sorted(j.label for j in jobs),
            "jobs_per_pass": len(jobs),
            "end_to_end": e2e,
            "per_layer_default_seed": layer,
        }
        for name, s in e2e.items():
            print(f"{workload:8s} {name:12s} spread {s['first']['spread']:.3f} "
                  f"{s['second']['spread']:.3f}  second/first "
                  f"{s['second_over_first']:.3f}  bound {s['bound']}", flush=True)
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
