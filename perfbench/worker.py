"""One fresh interpreter of the benchmark: a set-up probe or a pass.

    python3 perfbench/worker.py setup <jobs.json>
    python3 perfbench/worker.py pass <jobs.json> <result.json> [--trace SPANS]

``jobs.json`` lists ``{"sub", "config", "out"}`` entries (paths to files the
parent wrote).  ``setup`` imports sodlab and parses every config and builds
its group, representation and profile, then prints ``ready``.  ``pass`` runs
the jobs in sequence through ``sodlab.cli.main`` and writes per-job times,
exit codes and report digests, the pass's factor from raw to reference
seconds and the peak resident set.
With ``--trace`` the layer functions are wrapped first (see tracing.py) and
the spans are written to SPANS.

Job times are given in reference seconds.  The machine this benchmark was
built on switches between speeds about 1.7x apart every few seconds, in a
proportion that drifts over minutes, and wall and CPU time both follow it.
So a fixed exact-arithmetic loop (``reference``) is timed before every job
and after the last, and each job's time is scaled by ``REF_SECONDS`` over
the mean of the two reference times beside it: the time the job would take
at the speed at which the loop takes ``REF_SECONDS``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

REF_SECONDS = 0.010


def reference() -> float:
    """Seconds taken by a fixed loop of Fraction arithmetic, the kind of
    work sodlab does; about 6-12 ms on the 2-vCPU machine it was built on."""
    start = time.perf_counter()
    x, s = Fraction(1, 3), Fraction(0)
    for i in range(1, 1500):
        s += x * Fraction(i, i + 1)
        if s.denominator > 10**12:
            s = Fraction(s.numerator % 97, 1 + s.denominator % 89)
    return time.perf_counter() - start


def scaled(secs: float, ref_before: float, ref_after: float) -> float:
    """``secs`` in reference seconds (see the module docstring)."""
    return secs * 2 * REF_SECONDS / (ref_before + ref_after)


def setup(jobs: list[dict]) -> None:
    import sodlab  # noqa: F401  (the import is part of set-up)
    from sodlab.partition import HALF_OPEN_MODE, STANDARD, make_profile
    from sodlab.reps import construct_rep
    from sodlab.report import parse_config
    from sodlab.rootdata import build_group
    for job in jobs:
        with open(job["config"]) as f:
            cfg = parse_config(json.load(f))
        datum = build_group(cfg.group)
        construct_rep(datum, cfg.representation)
        make_profile(datum, cfg.nu,
                     STANDARD if cfg.mode == "standard" else HALF_OPEN_MODE)
    print("ready", flush=True)


def run_pass(jobs: list[dict], result_path: str, spans_path: str | None) -> None:
    from sodlab import cli
    tracer = None
    if spans_path is not None:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    records = []
    refs = [reference()]
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        argv = [job["sub"], "--config", job["config"], "--out", job["out"]]
        error = None
        stderr = io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception:  # a job that raises is a failed job, not a crash
            code = None
            error = traceback.format_exc(limit=3)
        records.append({"raw_s": clock() - t0, "code": code, "error": error,
                        "stderr": stderr.getvalue()[-500:]})
        refs.append(reference())
    for i, (job, rec) in enumerate(zip(jobs, records)):
        rec["secs"] = scaled(rec["raw_s"], refs[i], refs[i + 1])
        try:
            with open(job["out"], "rb") as f:
                rec["sha256"] = hashlib.sha256(f.read()).hexdigest()
        except OSError:
            rec["sha256"] = None
    scale = sum(rec["secs"] for rec in records) / sum(rec["raw_s"] for rec in records)
    result = {"scale": scale, "jobs": records,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(spans_path)
        result["trace"] = tracer.summary()
    with open(result_path, "w") as f:
        json.dump(result, f)


def main(argv: list[str]) -> int:
    mode, jobs_path = argv[0], argv[1]
    with open(jobs_path) as f:
        jobs = json.load(f)
    if mode == "setup":
        setup(jobs)
        return 0
    spans = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    run_pass(jobs, argv[2], spans)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
