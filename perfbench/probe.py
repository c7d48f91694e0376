"""A speed probe that corrects timings for host contention.

The benchmark runs on a few virtual CPUs of a shared host. How fast
the same Python code runs there changes by up to twofold from moment
to moment and from minute to minute, with what the host's other
tenants run; a timing taken at one time of day cannot be compared with
one taken at another. Taking each request at its fastest repeat does
not help when a whole run falls in a slow stretch.

``SpeedProbe`` runs a fixed kernel of the benchmark's own (no program
code, so no change to the program moves it) on a background thread,
every ``PERIOD`` seconds while the workload runs, and times it. Its
*speed* at a moment is ``PROBE_REF_S`` divided by the kernel's time
then: 1.0 when the host runs it as fast as the reference host did
uncontended, about 0.5 in a slow stretch. Since the probes start at
moments spread evenly over an interval, the mean speed of the probes
in it is the host's mean speed over it, and

    corrected time = measured time * mean probe speed

is the time the work would have taken at the reference speed. Each
corrected time is reported in seconds at the reference speed; every
run measures both sides of a comparison the same way.

The process is pinned to one CPU first (``pin_to_one_cpu``) so that the
probe sees the CPU the work runs on. The kernel's ~0.13 ms is short of
the interpreter's 5 ms switch interval, so a probe, once it holds the
GIL, runs to its end and times the host, not the workload's threads.
"""

from __future__ import annotations

import os
import threading
import time

# Seconds one kernel() call takes uncontended on the reference host
# (2-vCPU Intel Xeon VM, CPython 3.11): the minimum of 2,000 calls.
PROBE_REF_S = 130e-6
PERIOD = 0.01


def kernel(n: int = 400) -> int:
    """Fixed interpreter work: integer arithmetic and a small dict of
    tuple keys, like the program's own inner loops."""
    table: dict[tuple[int, int], int] = {}
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 97, x % 89)
        table[key] = table.get(key, 0) + i
    return len(table)


def pin_to_one_cpu() -> None:
    """Restrict this process (and the processes it starts) to the CPU
    it is running on, which the scheduler chose as the least busy one.
    Does nothing where the platform does not allow it."""
    try:
        allowed = os.sched_getaffinity(0)
    except (AttributeError, OSError):
        return
    cpu = min(allowed)
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            # Field 39 is the CPU the process last ran on; the command
            # name (field 2) may hold spaces, so count from its end.
            current = int(fh.read().rsplit(")", 1)[1].split()[36])
        if current in allowed:
            cpu = current
    except (OSError, IndexError, ValueError):
        pass
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass


class SpeedProbe:
    """Times ``kernel()`` every ``PERIOD`` seconds on a daemon thread,
    from entering the context to leaving it."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self) -> None:
        perf = time.perf_counter
        while not self._stop.wait(PERIOD):
            start = perf()
            kernel()
            self.samples.append((start, perf() - start))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, start: float, end: float) -> float:
        """The host's mean speed over ``[start, end]``: the mean of
        ``PROBE_REF_S / probe time`` over the probes begun in it."""
        inside = [PROBE_REF_S / dt for t, dt in self.samples if start <= t <= end]
        if not inside:
            raise RuntimeError(f"no speed probe ran in {end - start:.3f} s")
        return sum(inside) / len(inside)
