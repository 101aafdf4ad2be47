"""treeperm benchmark: seeded job batches, timed end to end and per layer.

    python3 perfbench/run.py --workload towers --seed 1 --seconds 30 --trace 0

Run from the repository root (it imports treeperm from ./src).  One run
is one client driving fresh single-threaded worker processes
(perfbench/worker.py), one after another, closed-loop; workloads never
run side by side.

--trace 0  fresh workers run the workload's seeded batch one after
           another until --seconds have passed (at least three).  Each
           worker counts every job in units of a fixed reference loop
           sampled on its own thread (see perfbench/speed.py).  A job's
           time is its median units over the workers times
           speed.REFERENCE_S: the seconds the job takes at the speed
           where the reference loop takes that long, which is the fast
           speed of a 2-vCPU Intel Xeon VM under Python 3.11.  Within
           one run a shared host's vCPU speed can change 2x, and whole runs can
           find no fast stretch at all, so no speed measured in the run
           serves as the scale.  wall_s is the sum of the per-job
           times, job_p50_ms their median; setup_s is the median over
           the workers, in the same seconds; peak_rss_mb the median
           over the workers.
--trace 1  one untraced worker and one worker under the outside
           tracer (perfbench/tracer.py).  Reports the per-layer
           metrics, which are plain seconds and counts, and
           trace.overhead_s, the difference of the two workers' batch
           times in the seconds above.

Every job is checked by perfbench/workloads.py; repeated workers must
also reproduce each job's result digest.  Human-readable lines come
first; the last stdout line is the JSON result.  A full record with
provenance goes to perfbench/out/.  Metric names and units are read
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
MIN_REPS = 3
RUN_LIMIT_S = 170.0   # every run must end within 180 s

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import workloads  # noqa: E402


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; (its report, wall time seen from here)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded the run time limit") from exc
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), elapsed


def provenance(workload: str, seed: int, jobs: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "git_commit": git_commit(), "src_sha256": src_digest(),
            "workload": workload, "seed": seed, "jobs_per_run": jobs}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reproduce_failures(reports: list[dict], jobs: list[workloads.Job]) -> list[dict]:
    """Jobs whose result digest differs between workers of one run."""
    out = []
    for i, job in enumerate(jobs):
        if len({r["digests"][i] for r in reports}) > 1:
            out.append({"job": job.label, "reason": "result differs between workers"})
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "treeperm" / "__init__.py").is_file():
        print(f"error: no treeperm sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    jobs = workloads.make_jobs(args.workload, args.seed)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    t_run = time.perf_counter()
    deadline = t_run + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.bin"
            plain, _ = spawn(common, deadline)
            traced, _ = spawn(common + ["--spans", str(spans)], deadline)
            reports = [plain, traced]
            values = dict(traced["per_layer"])
            values["trace.overhead_s"] = speed.REFERENCE_S * (
                sum(traced["units"]) - sum(plain["units"]))
            wanted = spec["per_layer"]
        else:
            reports = []
            while True:
                report, took = spawn(common, deadline)
                reports.append(report)
                if (len(reports) >= MIN_REPS
                        and time.perf_counter() - t_run + took > args.seconds):
                    break
            per_job = [speed.REFERENCE_S * statistics.median(r["units"][i] for r in reports)
                       for i in range(len(jobs))]
            values = {
                "wall_s": sum(per_job),
                "job_p50_ms": 1000 * statistics.median(per_job),
                "setup_s": speed.REFERENCE_S * statistics.median(r["setup_units"]
                                                                 for r in reports),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
            }
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [f for r in reports for f in r["failures"]] + reproduce_failures(reports, jobs)
    attempted = len(jobs) * len(reports)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "provenance": provenance(args.workload, args.seed, len(jobs)),
        "workers": len(reports),
        "run_s": time.perf_counter() - t_run,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "metrics": metrics,
        "jobs": [j.as_dict() for j in jobs],
        "reports": reports,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    prov = record["provenance"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} workers={len(reports)} "
          f"jobs_per_run={len(jobs)} python={prov['python']} nproc={prov['nproc']} "
          f"cpu={prov['cpu']!r} commit={prov['git_commit']} src={prov['src_sha256']}")
    for key, m in metrics.items():
        note = f"  (median over {len(jobs)} jobs)" if key == "job_p50_ms" else ""
        print(f"{key:32s} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"{'fail_ratio':32s} {record['fail_ratio']:>14.6g} failed/attempted "
          f"({len(failures)}/{attempted})")
    for f in failures[:20]:
        print(f"FAILED {f['job']}: {f['reason']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
