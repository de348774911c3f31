"""A frozen probe of the machine's speed that the benchmark's times are
expressed against.

The machine the benchmark runs on is shared: its speed moves by 20-60%
over seconds and minutes, for every process alike.  While a timed job runs,
a timer interrupts it every INTERVAL_S seconds and runs one probe, a fixed
piece of exact Gaussian elimination in pure Python over F_3 (the same kind
of work as the program's).  The job's time, less the time spent in probes,
is then scaled by REF_S over the mean CPU time of the probes taken during
it:

    normalised = (job seconds - probe seconds) * REF_S / mean(probe CPU seconds)

that is, the time the job would take on a machine where one probe takes
REF_S seconds.  The probes sample the speed of the very seconds the job
ran in, so a slow spell stretches both alike.  A probe is timed by the CPU
clock of the main thread, so in a job that runs a thread pool the time a
probe waits for the interpreter lock does not count.  The probe does not
import the program, and it must not change: every time the benchmark
reports is measured against it.
"""

from __future__ import annotations

import gc
import signal
import time

# seconds between probes while a job runs
INTERVAL_S = 0.1
# a fixed scale: about the CPU seconds of one probe, run on its own, on the
# machine the bounds were set on (2-core x86_64 Xeon, CPython 3.11.7)
REF_S = 0.0025


class F3:
    """An element of F_3, with the operator methods the program's own use."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 3

    def __sub__(self, o):
        return F3(self.v - o.v)

    def __mul__(self, o):
        return F3(self.v * o.v)

    def __truediv__(self, o):
        return F3(self.v * o.v)  # every unit of F_3 is its own inverse

    def __bool__(self):
        return self.v != 0


def rank(rows) -> int:
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def matrix(n, seed):
    """An n x n matrix over F_3 from a fixed linear congruence."""
    x, out = seed, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(F3((x >> 16) % 7))
        out.append(row)
    return out


PROBE = matrix(16, 1)
PROBE_RANK = 16


def probe() -> float:
    """CPU seconds of one probe, run with the cyclic collector off so the
    program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        rank(PROBE)
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times jobs against the probes taken while they run."""

    def __init__(self):
        if rank(PROBE) != PROBE_RANK:
            raise RuntimeError("the probe's rank is %d, not %d: the reference "
                               "work misbehaves" % (rank(PROBE), PROBE_RANK))
        self.probes = []  # (wall start, wall seconds, CPU seconds)
        self.take()

    def take(self):
        t0 = time.perf_counter()
        cpu = probe()
        self.probes.append((t0, time.perf_counter() - t0, cpu))

    def _on_alarm(self, signum, frame):
        self.take()

    def time(self, job):
        """Run job() under the probe timer; return its result, its wall
        seconds less the probes', and its normalised seconds."""
        n0 = len(self.probes)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            out = job()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        during = [p for p in self.probes[n0:] if p[0] < t1]
        net = (t1 - t0) - sum(p[1] for p in during)
        # a job shorter than the interval is scaled by the last probe before it
        cpu = [p[2] for p in during] or [self.probes[n0 - 1][2]]
        return out, net, net * REF_S / (sum(cpu) / len(cpu))

    def speed(self) -> float:
        """Mean CPU seconds of every probe so far over REF_S."""
        return sum(p[2] for p in self.probes) / len(self.probes) / REF_S
