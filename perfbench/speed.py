"""Speed sampling: job time in units of a fixed reference loop.

A vCPU of a shared host can run at two speeds about 2x apart, switching
every 0.3-5 s, which no estimator over whole jobs removes.  `start` runs
a fixed reference loop (pure Python, about 0.1 ms) from a SIGALRM
handler every 10 ms, on the same thread as the jobs.  `units` counts
each stretch of an interval between two samples in reference loops at
the speed the closing sample measured, and leaves handler time out.
run.py turns units into seconds at a fixed reference speed.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.01
# The reference loop's time at the reference speed: the fast speed of a
# 2-vCPU Intel Xeon VM under Python 3.11.  Change it with the loop.
REFERENCE_S = 80e-6
_P = tuple((5 * i + 3) % 16 for i in range(16))
_Q = tuple((7 * i + 1) % 16 for i in range(16))
SAMPLES: list[tuple[float, float]] = []   # (start, duration) of each reference loop


def reference() -> tuple:
    """Fixed work in the idiom of the jobs: tuple permutations composed."""
    x = _P
    for _ in range(100):
        x = tuple(_Q[i] for i in x)
    return x


def _sample(signum, frame) -> None:
    t0 = time.perf_counter()
    reference()
    SAMPLES.append((t0, time.perf_counter() - t0))


def start() -> None:
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def units(a: float, b: float, samples: list[tuple[float, float]],
          starts: list[float]) -> tuple[float, float]:
    """(seconds, reference-loop units) spent in [a, b] outside the sampler.

    `starts` are the samples' start times.  The stretch before each
    sample counts at that sample's speed, the stretch after the last
    one at the last one's; an interval with no sample inside takes the
    speed of the sample nearest to it."""
    i, j = bisect.bisect_left(starts, a), bisect.bisect_left(starts, b)
    if i == j:
        k = min(range(max(0, i - 1), min(len(samples), i + 1)),
                key=lambda k: abs(starts[k] - a))
        return b - a, (b - a) / samples[k][1]
    t, secs, total = a, 0.0, 0.0
    for start, dur in samples[i:j]:
        secs += start - t
        total += (start - t) / dur
        t = start + dur
    tail = max(0.0, b - t)
    return secs + tail, total + tail / samples[j - 1][1]
