"""Closed loop with one client, a per-op deadline and end-to-end metrics.

A workload yields rounds of ops.  Every round has the same mix of input
classes, so a run that stops at a round boundary measures the same mix
whatever the seed; the seed only changes the inputs inside each class.

Times are normalised to a reference CPU speed.  The host this benchmark
was built on changes speed by up to 2x within a minute (identical
``verify --all`` runs took 0.30 to 0.74 s), which would swamp any change
to the program.  So the loop runs a fixed calibration kernel (exact
rational elimination, the arithmetic k3cert spends its time in) every
20 ms or so, and each op's time is scaled by REFERENCE_KERNEL_S over the
mean kernel time measured within a second of it.  The kernel lives here, not in
the program, so a change to the program moves the normalised times
exactly as it moves the raw ones.  Raw times are kept alongside.
"""

from __future__ import annotations

import bisect
import os
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter


class Overrun(BaseException):
    """Raised by the deadline timer.  A BaseException, so that no
    ``except Exception`` in the program under test swallows it."""


REFERENCE_KERNEL_S = 2.0e-3   # kernel time that defines the reference speed
CALIBRATE_EVERY_S = 0.02
BRACKET_SAMPLES = 20
WINDOW_S = 1.0
_KERNEL_MATRIX = [[(3 * i + 5 * j) % 13 - 6 + 11 * (i == j) for j in range(9)] for i in range(9)]


def kernel():
    """Fraction elimination on a fixed 9x9 integer matrix."""
    a = [[Fraction(x) for x in row] for row in _KERNEL_MATRIX]
    n = len(a)
    for k in range(n):
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return a[-1][-1]


class Calibrator:
    """Kernel timings along the run, to turn raw seconds into seconds at
    the reference speed."""

    def __init__(self):
        self.points = []     # (midpoint, kernel seconds)
        self.last = -1.0

    def sample(self):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.points.append(((t0 + t1) / 2, t1 - t0))
        self.last = t1

    def maybe_sample(self):
        if perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.sample()

    def bracket(self):
        """Samples after a long op (and so before the next one): its time
        can only be scaled by kernel times measured next to it."""
        for _ in range(BRACKET_SAMPLES):
            self.sample()

    def factor(self, t0, t1):
        """REFERENCE_KERNEL_S / mean kernel time within a second of
        [t0, t1], widened to at least ten samples.  The host slows this
        process down in slices of about a millisecond, so a single kernel
        time is either fast or slow; only a mean estimates the share of
        time the process got."""
        pts = self.points
        lo = bisect.bisect_left(pts, (t0 - WINDOW_S,))
        hi = bisect.bisect_right(pts, (t1 + WINDOW_S, float("inf")))
        while hi - lo < 10 and (lo > 0 or hi < len(pts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(pts))
        return REFERENCE_KERNEL_S / statistics.fmean(k for _, k in pts[lo:hi])


@dataclass
class Op:
    cls: str            # input class, for failure tallies
    run: object         # () -> result; the only timed part
    check: object       # result -> bool, called right after the op, untimed


@dataclass
class Sample:
    cls: str
    raw: float          # wall seconds as measured
    seconds: float      # at the reference speed
    failure: str        # "" when the op returned and its output checked out


class Loop:
    """Runs ops one after another under a SIGALRM deadline, checks each
    output right after its op (outside the timing) and drops it."""

    def __init__(self, deadline_s, tracer=None):
        self.deadline_s = deadline_s
        self.tracer = tracer
        self.cal = Calibrator()
        self.wrong = []          # (class, result) of ops that returned a wrong answer
        self._armed = False

    def _on_alarm(self, signum, frame):
        if self._armed:
            self._armed = False
            if self.tracer is not None:
                self.tracer.mark_overrun()
            raise Overrun()

    def run(self, rounds, seconds):
        """Run whole rounds until about ``seconds`` of op time (at the
        reference speed) is spent: stop at the round boundary nearest to
        it.  ``rounds`` is an iterable of op lists, consumed lazily;
        returns (samples, number of rounds)."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        timed, used, busy = [], 0, 0.0
        try:
            for rnd in rounds:
                used += 1
                for op in rnd:
                    if timed and timed[-1][2] - timed[-1][1] >= CALIBRATE_EVERY_S:
                        self.cal.bracket()
                    else:
                        self.cal.maybe_sample()
                    t0, t1, failure = self._one(op, len(timed))
                    timed.append((op.cls, t0, t1, failure))
                    busy += self._seconds(t0, t1, failure)
                if busy + 0.5 * busy / used >= seconds:
                    break
            self.cal.bracket()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        samples = [Sample(cls, t1 - t0, self._seconds(t0, t1, failure), failure)
                   for cls, t0, t1, failure in timed]
        return samples, used

    def _seconds(self, t0, t1, failure):
        """An overrun costs the deadline, whatever the speed; everything
        else is scaled to the reference speed."""
        if failure == "overrun":
            return self.deadline_s
        return (t1 - t0) * self.cal.factor(t0, t1)

    def _one(self, op, op_id):
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(op_id)
        result, failure = None, ""
        t0 = perf_counter()
        try:
            try:
                self._armed = True
                signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
                result = op.run()
            finally:
                self._armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Overrun:
            failure = "overrun"
        except Exception as exc:  # any raise is a failed op, by class name
            failure = type(exc).__name__
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_op(failure == "overrun")
        if not failure and not op.check(result):
            failure = "wrong-answer"
            self.wrong.append((op.cls, result))
        return t0, t1, failure


def failure_counts(samples):
    """{(class, reason): count} of the failed ops."""
    out = {}
    for s in samples:
        if s.failure:
            out[(s.cls, s.failure)] = out.get((s.cls, s.failure), 0) + 1
    return out


def tail(latencies):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    i = n - 11 if n > 10 else n - 1  # with ten samples or fewer: the maximum
    return xs[i], 100.0 * (i + 1) / n, n


def summarize(samples, deadline_s):
    ok = sum(1 for s in samples if not s.failure)
    busy = sum(s.seconds for s in samples)
    # a failed op counts at the deadline (at least) in the latencies
    lat = [max(s.seconds, deadline_s) if s.failure else s.seconds for s in samples]
    raw_busy = sum(s.raw for s in samples)
    t_val, t_pct, n = tail(lat)
    return {
        "throughput_ops_s": ok / busy,
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * t_val,
        "tail_percentile": t_pct,
        "samples": n,
        "failed_ratio": (len(samples) - ok) / len(samples),
        "raw_throughput_ops_s": ok / raw_busy,
        "speed_factor": busy / raw_busy,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(code, repeats, root):
    """Median time (raw, and at the reference speed) of a fresh
    interpreter running ``code`` against the checkout's ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cal = Calibrator()
    spans = []
    for _ in range(repeats):
        for _ in range(3):
            cal.sample()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True)
        spans.append((t0, perf_counter()))
    for _ in range(3):
        cal.sample()
    raw = [t1 - t0 for t0, t1 in spans]
    return (statistics.median(raw),
            statistics.median((t1 - t0) * cal.factor(t0, t1) for t0, t1 in spans))
