"""One benchmark worker: a fresh single-threaded process that runs one batch.

    python3 perfbench/worker.py --workload towers --seed 1 [--spans FILE]

Set-up is `import treeperm` plus generating the job list; it is timed
from the first statement of this file.  Jobs then run closed-loop, one
after another: CLI jobs through `treeperm.cli.main(argv)` with stdout
and stderr captured, so the JSON envelope is part of the timed call,
and criterion jobs as `criterion_NN(caps, seed)`.  Each job is checked
outside the timed call, and the heap is collected before each job.
With `--spans` the outside tracer is installed after set-up, per-layer
metrics are added to the report and the spans are written to that
file.  The report is one JSON line on stdout.

From its first statement the worker samples the speed of its vCPU
(perfbench/speed.py) and reports every job and its set-up in units of
the reference loop as well as in seconds.
"""

import time

T_START = time.perf_counter()

import speed  # noqa: E402

speed.start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def run_job(job: workloads.Job, seed: int, cli, acceptance,
            caps) -> tuple[float, float, str, str | None]:
    """(start, end, result digest, failure reason or None)."""
    if job.criterion:
        fn = getattr(acceptance, job.criterion)
        t0 = time.perf_counter()
        try:
            res = fn(caps, seed)
        except Exception as exc:  # the criterion's own guard failed: count it, keep going
            return t0, time.perf_counter(), "", f"uncaught {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        return (t0, t1, digest({"ok": res.ok, "detail": res.detail}),
                workloads.check(job, 0, None, ok=res.ok))
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv)
    except Exception as exc:  # an uncaught exception is a failed job, not a dead worker
        return t0, time.perf_counter(), "", f"uncaught {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    doc = None
    try:
        doc = json.loads(out.getvalue())
    except json.JSONDecodeError:
        pass
    result = doc.get("result") if isinstance(doc, dict) else None
    if isinstance(doc, dict):
        doc.pop("wall_time_ms", None)
    reason = workloads.check(job, code, result)
    if reason and err.getvalue():
        reason += f" ({err.getvalue().strip()[:200]})"
    return t0, t1, digest(doc), reason


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    from treeperm import acceptance, cli
    from treeperm.config import DEFAULT_CAPS
    jobs = workloads.make_jobs(args.workload, args.seed)
    intervals = [(T_START, time.perf_counter())]

    tracer = None
    if args.spans:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()
    digests, failures = [], []
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job_id = i
        gc.collect()  # each job starts from a collected heap, whatever ran before it
        t0, t1, result, reason = run_job(job, args.seed, cli, acceptance, DEFAULT_CAPS)
        intervals.append((t0, t1))
        digests.append(result)
        if reason:
            failures.append({"job": job.label, "reason": reason})
    speed.stop()
    samples = speed.SAMPLES
    starts = [start for start, _ in samples]
    (setup_s, setup_units), *timed = [speed.units(a, b, samples, starts) for a, b in intervals]
    report = {
        "setup_s": setup_s,
        "setup_units": setup_units,
        "latencies": [secs for secs, _ in timed],
        "units": [units for _, units in timed],
        "digests": digests,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        report["per_layer"] = tracer.metrics()
        report["spans"] = tracer.span_count()
        tracer.dump(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
