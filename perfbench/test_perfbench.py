"""The benchmark's own checks: determinism, seeded strata, metric names.

    python3 -m pytest perfbench/test_perfbench.py

The determinism test runs every workload twice under the tracer (about
a minute on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_results_and_counts(workload, tmp_path):
    deadline = time.perf_counter() + run.RUN_LIMIT_S
    args = ["--workload", workload, "--seed", "7", "--spans"]
    first, _ = run.spawn(args + [str(tmp_path / "a.bin")], deadline)
    second, _ = run.spawn(args + [str(tmp_path / "b.bin")], deadline)
    assert first["failures"] == [] and second["failures"] == []
    assert first["digests"] == second["digests"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    assert {k: first["per_layer"][k] for k in counts} == \
           {k: second["per_layer"][k] for k in counts}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_changes_instances_keeps_strata(workload):
    a = workloads.make_jobs(workload, 1)
    b = workloads.make_jobs(workload, 2)
    assert {j.stratum for j in a} == {j.stratum for j in b}
    assert {j.label for j in a} != {j.label for j in b}
    assert [j.label for j in a] == [j.label for j in workloads.make_jobs(workload, 1)]
    assert len({j.label for j in a}) == len(a)


def test_metric_names_match_benchmark_json():
    produced = set(tracer.Tracer().metrics()) | {"trace.overhead_s"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_predictions_name_real_metrics_and_workloads():
    doc = json.loads((HERE / "predictions.json").read_text())
    layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for row in doc["layer_predictions"]:
        assert set(row["metrics"]) <= layer
        assert set(row["moves"]) <= end_to_end
        assert set(row["on"]) | set(row["no_change_on"]) <= set(workloads.WORKLOADS)
    pool = {j.label for w in workloads.WORKLOADS for s in range(20)
            for j in workloads.make_jobs(w, s)}
    assert not pool & {" ".join(case["argv"]) if "argv" in case else case["criterion"]
                       for case in doc["out_of_pool"]}


def test_checks_catch_wrong_answers():
    job = workloads.tower_job("Klein4", 2)
    assert workloads.check(job, 0, {"order": 4 ** 5, "degree": 16}) is None
    assert workloads.check(job, 0, {"order": 4 ** 4, "degree": 16}) is not None
    assert workloads.check(job, 1, None) == "exit code 1"
    assert workloads.check(job, 0, {"order": 4 ** 5}).startswith("malformed result")
    ball = workloads.ball_job(3, 2, "Sym(3)", "edge")
    assert workloads.check(ball, 0, {"order": 128, "enumerated": 128}) is None


def test_speed_units_count_each_stretch_at_its_sample_speed():
    # samples (start, duration): reference loop 1 ms at t=1, 2 ms (slow) at t=2
    samples = [(1.0, 0.001), (2.0, 0.002)]
    starts = [s for s, _ in samples]
    secs, units = speed.units(0.5, 3.0, samples, starts)
    assert secs == pytest.approx(3.0 - 0.5 - 0.003)
    assert units == pytest.approx(0.5 / 0.001 + 0.999 / 0.002 + 0.998 / 0.002)
    # no sample inside: the nearest one sets the speed
    assert speed.units(2.5, 2.6, samples, starts)[1] == pytest.approx(0.1 / 0.002)
    assert speed.units(0.0, 0.1, samples, starts)[1] == pytest.approx(0.1 / 0.001)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "towers",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
