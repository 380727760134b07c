"""Smoke test of the benchmark harness on a tiny seeded job list.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Job, destabilized_weights, make_jobs, _weights  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def tiny_jobs():
    rng = random.Random("smoke")
    pfaffian = {"group": "Sp(2)", "representation": [{"kind": "vector_power", "h": 3}],
                "box_radius": 1, "mode": "quasi_symmetric",
                "genericity_assertion": True, "epsilon": ["0"], "r_max": "3"}
    return [
        Job("partition", {"group": "Torus(2)", "box_radius": 1,
                          "representation": _weights([((1, 0), 1), ((-1, 0), 1),
                                                      ((0, 1), 1), ((0, -1), 1)])},
            oracle=True),
        Job("nccr", pfaffian, preset=("pfaffian", 1, 3)),
        Job("analyze", {"group": "GL(2)",
                        "representation": [{"kind": "vector_power", "h": 1}]}),
        Job("nccr", {"group": "Torus(2)", "box_radius": 1,
                     "representation": _weights(destabilized_weights(rng))},
            expect_code=3),
    ]


@pytest.fixture(scope="module", autouse=True)
def checkout():
    assert run.use_checkout() is None


def test_end_to_end_metrics_emitted_with_units():
    out = run.bench(tiny_jobs(), "smoke", 1, 0, False, {})
    assert out["correct"], out["messages"]
    assert out["attempted"] == 4 * run.MIN_PASSES and out["failed"] == 0
    assert out["oracle_checked"] == run.ORACLE_POINTS
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


def test_per_layer_metrics_emitted_with_units():
    out = run.bench(tiny_jobs(), "smoke", 1, 0, True, {})
    assert out["correct"], out["messages"]
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    assert out["metrics"]["cli.main.calls"]["value"] == 4
    assert out["metrics"]["sod.certify_nccr.calls"]["value"] > 0


def test_wrong_pinned_digest_is_a_failure():
    jobs = tiny_jobs()
    pins = {jobs[2].key: {"code": 0, "sha256": "0" * 64}}
    out = run.bench(jobs, "smoke", 1, 0, False, pins)
    assert not out["correct"]
    assert out["failed"] == run.MIN_PASSES  # the job fails on every pass
    assert all("pinned" in m for m in out["messages"])


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(run.per_layer_units())
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.END_TO_END_UNITS)
    # every wrapped function is expected to be called on some workload
    expected = {n for names in run.EXPECTED_CALLS.values() for n in names}
    assert expected == set(tracing.SPAN_NAMES)


def test_default_seed_jobs_are_all_pinned():
    pins = run.load_pins()
    for workload in run.WORKLOADS:
        for job in make_jobs(workload, run.DEFAULT_SEED):
            assert job.key in pins, job.label


def test_seed_chooses_variants_of_equal_size():
    for workload in run.WORKLOADS:
        a, b = make_jobs(workload, 1), make_jobs(workload, 2)
        assert a == make_jobs(workload, 1)
        assert len(a) == len(b) and a != b
        assert sorted(j.sub for j in a) == sorted(j.sub for j in b)


def test_missing_wrap_target_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "linprog", ("no_such_function",))
    with pytest.raises(tracing.WrapError, match="no_such_function"):
        tracing.Tracer().install()
