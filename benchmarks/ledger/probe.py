"""Host-speed probe: how fast the CPUs a workload runs on are right now.

On a shared host a CPU slows down whenever a neighbour's work lands on
the same physical core, often by half again, in phases of a second or
so whose share drifts over minutes.  Every timing the benchmark takes
moves with it: medians of ten runs of one commit spread by a third.
So while a workload runs, one probe process per CPU the workload is
pinned to, pinned to that CPU too, repeatedly sleeps ``PERIOD_S`` and
then times a fixed pure-Python kernel in its own CPU time (so time
spent preempted does not count).  :func:`slowdown` turns the kernel
times inside a rep's window into the host's slowdown during that rep;
dividing the rep's times by it gives the ``norm_*`` metrics and
``setup_s``, the times the rep would have taken on an uncontended core
of the reference host.

The probes cost each CPU about 0.6 ms in every 20 ms (3%) of its time,
in every rep alike.  Run as a script, this module is the probe process:
``python probe.py CPU OUT``; it exits when its parent does.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

#: Sleep between two kernel timings, in seconds.
PERIOD_S = 0.02

#: CPU time of one kernel run on an uncontended core of the reference
#: host (a 2-vCPU Xeon VM, Python 3.11).
REFERENCE_S = 0.00058

#: The workloads slow down more than the kernel does: their rep times
#: grow as the kernel's slowdown to this power.  Log-log fits of rep
#: time against kernel slowdown on the reference host, over reps a few
#: seconds apart, gave 1.1 to 1.4 per workload; with 1.25 the medians
#: of ten runs of every workload spread by 6% at most, against 11%
#: for plain division.
SENSITIVITY = 1.25


def kernel() -> int:
    """A fixed mix of dict, integer and branch work, the interpreter's
    staple in the timing model and the trace generator.

    Its working set stays in the L1 cache.  Kernels that scatter reads
    over tens of megabytes tracked the workloads' slowdown better over
    a minute or two, but over an hour their own time drifted threefold
    while the workloads' drifted by half.
    """
    table: Dict[int, int] = {}
    odd = 0
    for i in range(3000):
        key = i & 255
        value = table.get(key, 0) + (i ^ (i >> 3))
        table[key] = value & 0xFFFF
        odd += value & 1
    return odd


def _probe(cpu: int, out: str) -> None:
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    kernel()
    with open(out, "w", encoding="utf-8") as fh:
        while os.getppid() == parent:
            time.sleep(PERIOD_S)
            start = time.monotonic()
            cpu_before = time.thread_time()
            kernel()
            fh.write(f"{start!r} {time.thread_time() - cpu_before!r}\n")
            fh.flush()


class HostProbe:
    """One probe process per CPU in ``cpus`` while the context is open."""

    def __init__(self, cpus: Sequence[int], work_dir: str):
        self.paths = [os.path.join(work_dir, f"probe-{cpu}.txt") for cpu in cpus]
        self._procs: List[subprocess.Popen] = []
        try:
            for cpu, path in zip(cpus, self.paths):
                self._procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu), path],
                    stdin=subprocess.DEVNULL,
                ))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop every probe and wait for it to end."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self._procs:
            proc.wait()
        self._procs = []

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def samples(self) -> List[Tuple[float, float]]:
        """``(monotonic start, kernel CPU seconds)`` of every probe run."""
        out = []
        for path in self.paths:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    fields = line.split()
                    if len(fields) == 2:  # the last line may be cut short
                        out.append((float(fields[0]), float(fields[1])))
        return out


def slowdown(samples: List[Tuple[float, float]], start: float, end: float) -> float:
    """How many times longer the host made work in ``[start, end]`` take.

    The kernel's mean time over the runs started in the window (the
    whole run's mean when none did), over :data:`REFERENCE_S`, raised
    to :data:`SENSITIVITY`.
    """
    inside = [cost for ts, cost in samples if start <= ts <= end]
    mean = statistics.fmean(inside or [cost for _, cost in samples])
    return (mean / REFERENCE_S) ** SENSITIVITY


if __name__ == "__main__":
    _probe(int(sys.argv[1]), sys.argv[2])
