"""Recompute perfbench/pins.json: exit code and report sha256 of every job of
every workload at the default seed, keyed by the job's content key.

    python3 perfbench/pin.py

Run it only when report bytes change on purpose; the pins are the
benchmark's correctness gate.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS, make_jobs


def main() -> int:
    pins = {}
    for workload in WORKLOADS:
        jobs = make_jobs(workload, DEFAULT_SEED)
        work = os.path.join(run.ROOT, ".perfbench_work", f"pin-{workload}")
        os.makedirs(work, exist_ok=True)
        try:
            result = run.run_pass(run.write_jobs(jobs, work), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for job, rec in zip(jobs, result["jobs"]):
            if rec["code"] != job.expect_code or rec["sha256"] is None:
                sys.stderr.write(f"{job.label}: exit {rec['code']} "
                                 f"{rec['error'] or rec['stderr']}\n")
                return 1
            pins[job.key] = {"label": job.label, "code": rec["code"],
                             "sha256": rec["sha256"]}
    with open(run.PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"pinned {len(pins)} jobs in {run.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
