"""Benchmark of the sodlab CLI: seeded job lists, end-to-end and layer metrics.

    python3 perfbench/run.py --workload faces|windows|roots --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``src/sodlab`` and, for
its correctness check, ``tests/oracles.py``).  The load is a closed loop with
one client: each pass is one fresh worker interpreter that runs the whole job
list in sequence through ``sodlab.cli.main``.

``--trace 0`` runs untraced passes, each after a set-up probe, for S seconds
and prints the end-to-end metrics.  ``--trace 1`` runs untraced and traced
passes, alternately, for S seconds and prints the per-layer metrics.  Every
run checks the outputs: exit codes, pinned report digests, identical bytes on every pass,
preset verdicts and brute-force face signatures.  The last line of standard
output is one JSON object; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

from tracing import COUNTERS, SPAN_NAMES
from worker import reference, scaled
from workloads import DEFAULT_SEED, WORKLOADS, Job, make_jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
PINS = os.path.join(HERE, "pins.json")

SETUP_PROBES = 9          # at least; one more runs before every pass
MIN_PASSES = 3
TAIL_PERCENTILE = 80      # job_s_tail: 80th percentile of the jobs' times
ORACLE_POINTS = 3         # face signatures checked per oracle job
WORKER_TIMEOUT_S = 100

# Functions each workload must call; every wrapped function is expected on
# at least one workload, so a rename cannot silently drop a layer's numbers.
EXPECTED_CALLS = {
    "faces": ("cli.main", "report.run_job", "report.render",
              "partition.partition_region", "partition.signature_of",
              "zonotope.face_signature_at", "zonotope.min_radius",
              "linprog.forced_tight", "linprog.lp_optimize",
              "linprog.feasible_point", "reps.construct_rep",
              "reps.has_t_stable_point", "rootdata.build_group",
              "zonotope.supporting_lambda", "rootdata.levi"),
    "windows": ("sod.enumerate_sod", "sod.certify_nccr",
                "partition.cell_members", "partition.window_box",
                "zonotope.member", "zonotope.member_eps",
                "zonotope.realizable_face_patterns", "zonotope.is_generic",
                "zonotope.is_weakly_generic", "linprog.strict_feasible",
                "linprog.enumerate_lattice", "reps.find_destabilizer",
                "reps.weight_signs",
                "rootdata.LeviDatum.invariant_vectors"),
    "roots": ("rootdata.LeviDatum.invariant_vectors",
              "characters.sym_power_character", "characters.hom_block_dims",
              "characters.irr_character", "characters.weyl_dim",
              "reps.find_destabilizer"),
}

END_TO_END_UNITS = {"wall_s": "s", "job_s_p50": "s", "job_s_tail": "s",
                    "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    units["linprog.enumerate_lattice.accept_ratio"] = "ratio"
    units["trace_overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Worker processes.
# ---------------------------------------------------------------------------

def _worker(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT)


def _finish(proc: subprocess.Popen, what: str) -> None:
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{what} exceeded {WORKER_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise RuntimeError(f"{what} exited {proc.returncode}: {err.strip()[-2000:]}")


def setup_probe(jobs_path: str) -> float:
    """Fresh interpreter to ready: import, parse and build every config;
    in reference seconds (see worker.py)."""
    ref_before = reference()
    start = time.perf_counter()
    proc = _worker(["setup", jobs_path])
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    _finish(proc, "set-up probe")
    if line.strip() != "ready":
        raise RuntimeError("set-up probe did not report ready")
    return scaled(ready, ref_before, reference())


def run_pass(jobs_path: str, work: str, spans: str | None = None) -> dict:
    result_path = os.path.join(work, "pass.json")
    args = ["pass", jobs_path, result_path]
    if spans is not None:
        args += ["--trace", spans]
    _finish(_worker(args), "traced pass" if spans else "pass")
    with open(result_path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Correctness checks.
# ---------------------------------------------------------------------------

def check_pass(jobs: list[Job], result: dict, pins: dict, fails: list[str]) -> None:
    for job, rec in zip(jobs, result["jobs"]):
        if rec["error"] is not None:
            fails.append(f"{job.label}: raised\n{rec['error']}")
        elif rec["code"] != job.expect_code:
            fails.append(f"{job.label}: exit {rec['code']}, expected {job.expect_code}"
                         f" {rec['stderr'].strip()}")
        elif rec["sha256"] is None:
            fails.append(f"{job.label}: no report written")
        elif job.key in pins and (pins[job.key]["code"], pins[job.key]["sha256"]) \
                != (rec["code"], rec["sha256"]):
            fails.append(f"{job.label}: report digest differs from the pinned one")


def check_repeats(jobs: list[Job], passes: list[dict], fails: list[str]) -> None:
    """Every pass, traced or not, must write the same report bytes."""
    for i, job in enumerate(jobs):
        digests = {p["jobs"][i]["sha256"] for p in passes}
        if len(digests) != 1:
            fails.append(f"{job.label}: report bytes differ between passes")


def _d0_certificate(report: dict) -> dict | None:
    for entry in report.get("nccr", ()):
        if entry["component_index"] == 0:
            return entry["certificate"]
    return None


def check_presets(jobs: list[Job], reports: list[dict], fails: list[str]) -> None:
    from sodlab.sod import preset
    for job, report in zip(jobs, reports):
        if job.preset is None or report is None:
            continue
        family, *params = job.preset
        if family == "toric":
            expected = preset("toric", weights=list(params[0])).expected
        else:
            expected = preset(family, n=params[0], h=params[1]).expected
        cert = _d0_certificate(report)
        if cert is None:
            fails.append(f"{job.label}: no d0 certificate")
            continue
        for key in ("verdict", "prazno_empty"):
            if key in expected and cert[key] != expected[key]:
                fails.append(f"{job.label}: {key}={cert[key]}, preset expects "
                             f"{expected[key]}")


def check_oracle(jobs: list[Job], reports: list[dict], seed: int,
                 fails: list[str]) -> int:
    """Compare sampled face signatures with the brute-force oracle."""
    from fractions import Fraction
    from oracles import brute_force_signature, signature_to_value_counts
    from sodlab.linalg import vec, vsub
    from sodlab.report import parse_config
    from sodlab.reps import construct_rep
    from sodlab.rootdata import build_group
    rng = random.Random(f"oracle:{seed}")
    checked = 0
    for job, report in zip(jobs, reports):
        if not job.oracle or report is None:
            continue
        cfg = parse_config(job.config)
        datum = build_group(cfg.group)
        rep = construct_rep(datum, cfg.representation)
        nu = cfg.nu if cfg.nu is not None else (Fraction(0),) * datum.rank
        shift = vsub(vec(nu), datum.rho_bar)
        points = [(tuple(m), cell["signature"])
                  for cell in report["partition"]["cells"]
                  for m in cell["members_in_box"]]
        for chi, sig in rng.sample(points, min(ORACLE_POINTS, len(points))):
            oracle = brute_force_signature(rep, shift, vec(chi),
                                           central=datum.central_directions)
            if sig["trivial"]:
                ok = oracle == "trivial"
            else:
                plus, minus = signature_to_value_counts(
                    rep, SimpleNamespace(s_plus=sig["s_plus"], s_minus=sig["s_minus"]))
                ok = oracle == (Fraction(sig["r"]), plus, minus)
            checked += 1
            if not ok:
                fails.append(f"{job.label}: signature at {list(chi)} differs from "
                             f"the brute-force oracle")
    return checked


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def job_times(passes: list[dict]) -> list[float]:
    """Each job's median time over the passes, in reference seconds (see
    worker.py)."""
    return [statistics.median(p["jobs"][i]["secs"] for p in passes)
            for i in range(len(passes[0]["jobs"]))]


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    times = job_times(passes)
    tail = statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    values = {
        "wall_s": sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    units = per_layer_units()
    values = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = traced[0]["trace"]["calls"][name]
        values[f"{name}.self_s"] = statistics.median(
            t["trace"]["self_s"][name] * t["scale"] for t in traced)
    counts = traced[0]["trace"]["counts"]
    values.update(counts)
    tested = counts["linprog.enumerate_lattice.points_tested"]
    values["linprog.enumerate_lattice.accept_ratio"] = (
        counts["linprog.enumerate_lattice.points_accepted"] / tested if tested else 0.0)
    values["trace_overhead"] = sum(job_times(traced)) / sum(job_times(untraced))
    return {k: _metric(values[k], units[k]) for k in units}


def code_digest(jobs: list[Job]) -> str:
    """Digest of the program, the benchmark and the job list."""
    h = hashlib.sha256()
    files = glob.glob(os.path.join(ROOT, "src", "sodlab", "*.py")) + \
        glob.glob(os.path.join(HERE, "*.py"))
    for path in sorted(files):
        with open(path, "rb") as f:
            h.update(path[len(ROOT):].encode() + b"\0" + f.read())
    h.update(" ".join(job.key for job in jobs).encode())
    return h.hexdigest()


def check_counts(workload: str, seed: int, jobs: list[Job], traced: list[dict],
                 fails: list[str]) -> None:
    """Exact counts repeat between the traced passes of this run and the
    last traced run of the same code and job list in this checkout."""
    counts = [{"calls": t["trace"]["calls"], "counts": t["trace"]["counts"]}
              for t in traced]
    if any(c != counts[0] for c in counts[1:]):
        fails.append("exact counts differ between traced passes")
    missing = [n for n in EXPECTED_CALLS.get(workload, ())
               if counts[0]["calls"][n] == 0]
    if missing:
        fails.append(f"wrapped functions recorded no calls on {workload}: "
                     + ", ".join(missing))
    path = os.path.join(OUT_DIR, f"counts-{workload}-{seed}.json")
    record = {"code": code_digest(jobs), "counts": counts[0]}
    try:
        with open(path) as f:
            previous = json.load(f)
    except (OSError, ValueError):
        previous = None
    if previous is not None and previous.get("code") == record["code"] \
            and previous["counts"] != record["counts"]:
        fails.append(f"exact counts differ from the previous traced run ({path})")
    with open(path, "w") as f:
        json.dump(record, f, sort_keys=True)


# ---------------------------------------------------------------------------
# A run.
# ---------------------------------------------------------------------------

def write_jobs(jobs: list[Job], work: str) -> str:
    entries = []
    for i, job in enumerate(jobs):
        cfg = os.path.join(work, f"job{i:02d}.json")
        with open(cfg, "w") as f:
            json.dump(job.config, f)
        entries.append({"sub": job.sub, "config": cfg,
                        "out": os.path.join(work, f"job{i:02d}.out")})
    path = os.path.join(work, "jobs.json")
    with open(path, "w") as f:
        json.dump(entries, f)
    return path


def read_reports(jobs_path: str) -> list[dict | None]:
    """The last pass's reports; None where a failed job left none."""
    with open(jobs_path) as f:
        entries = json.load(f)
    reports = []
    for e in entries:
        try:
            with open(e["out"]) as f:
                reports.append(json.load(f))
        except (OSError, ValueError):
            reports.append(None)
    return reports


def bench(jobs: list[Job], workload: str, seed: int, seconds: float,
          trace: bool, pins: dict) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    fails: list[str] = []
    try:
        jobs_path = write_jobs(jobs, work)
        if trace:
            # alternate, so that drifting machine load falls on both sides
            untraced, traced = [], []
            start = time.perf_counter()
            while len(traced) < 2 or time.perf_counter() - start < seconds:
                untraced.append(run_pass(jobs_path, work))
                traced.append(run_pass(jobs_path, work, os.path.join(
                    OUT_DIR, f"spans-{workload}-{seed}-{len(traced)}.jsonl")))
            passes = untraced + traced
        else:
            setups, passes = [], []
            start = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
                setups.append(setup_probe(jobs_path))
                passes.append(run_pass(jobs_path, work))
            while len(setups) < SETUP_PROBES:
                setups.append(setup_probe(jobs_path))
        for p in passes:
            check_pass(jobs, p, pins, fails)
        check_repeats(jobs, passes, fails)
        reports = read_reports(jobs_path)
        check_presets(jobs, reports, fails)
        oracle_checked = check_oracle(jobs, reports, seed, fails)
        if trace:
            check_counts(workload, seed, jobs, traced, fails)
            metrics = per_layer(untraced, traced)
        else:
            metrics = end_to_end(passes, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(jobs) * len(passes)
    return {"correct": not fails, "attempted": attempted,
            "failed": min(len(fails), attempted), "metrics": metrics,
            "messages": fails, "passes": len(passes),
            "oracle_checked": oracle_checked}


def use_checkout() -> str | None:
    """Put the checkout's ``src`` and ``tests`` first on the import path;
    return the first file the benchmark needs that is missing."""
    for needed in (("src", "sodlab", "cli.py"), ("tests", "oracles.py")):
        if not os.path.isfile(os.path.join(ROOT, *needed)):
            return os.path.join(*needed)
    for sub in ("tests", "src"):
        path = os.path.join(ROOT, sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    return None


def load_pins() -> dict:
    with open(PINS) as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = use_checkout()
    if missing:
        sys.stderr.write(f"perfbench: {missing} not found; run from the root "
                         "of a sodlab source checkout\n")
        return 2

    jobs = make_jobs(args.workload, args.seed)
    out = bench(jobs, args.workload, args.seed, args.seconds, bool(args.trace),
                load_pins())
    for message in out["messages"]:
        print(f"FAIL {message}")
    print(f"{args.workload} seed={args.seed}: {len(jobs)} jobs x {out['passes']} "
          f"passes, {out['oracle_checked']} oracle signatures, "
          f"failed_ratio={out['failed'] / out['attempted']:.4g}")
    for name, m in out["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
