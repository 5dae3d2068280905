"""Reference loop that measures host speed while a timed child runs.

    python3 speed.py CPU COUNTER_FILE

On a shared host the speed of a vCPU drifts by up to 1.6x for seconds to
minutes at a time, so raw CPU and wall times of the same code spread too far
to gate on. This process pins itself to the vCPU the timed children are
pinned to, so the two time-share that vCPU and see the same host speed. It
runs at a lower priority than the child, so the child keeps most of the vCPU,
and it runs a fixed loop and publishes how many iterations it has done and how much
CPU time they took. A child's CPU time, times the loop's iterations per CPU
second over the child's lifetime divided by ``NOMINAL_RATE``, is the child's
CPU time at a fixed nominal host speed.

The loop spends about a quarter of its time in bytecode over dicts and ints
and the rest in numpy sorts, small and large. Pure bytecode slows about twice
as much as numpy sorts when the host is busy, and the audit sits in between:
a loop of bytecode alone over-corrects, one of sorts alone under-corrects.

The counters live in a small shared file as three unsigned 64-bit integers,
a sequence number followed by ``(iterations, cpu_ns)``. The sequence is odd
while a write is in progress, so a reader retries until it sees the same even
sequence on both sides of its read.
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SEQUENCE = struct.Struct("<Q")
COUNTERS = struct.Struct("<QQ")
SIZE = SEQUENCE.size + COUNTERS.size
# Iterations per CPU second of the loop, time-shared with a run of the audit,
# on the 2-vCPU Intel Xeon host the benchmark was tuned on; it only scales
# the reported times.
NOMINAL_RATE = 400.0
LOOP_NICE = 10


def _loop(cpu: int, path: str) -> None:
    os.sched_setaffinity(0, {cpu})
    # At nice 10 the scheduler gives the loop about a tenth of the vCPU while
    # a child is runnable, in slices spread over the child's lifetime.
    os.nice(LOOP_NICE)
    parent = os.getppid()
    rng = np.random.default_rng(0)
    small = rng.random(2000)
    values = rng.random(5000)
    keys = rng.integers(0, 50, 5000)
    with open(path, "r+b") as f, mmap.mmap(f.fileno(), SIZE) as shared:
        seq = done = 0
        # exits if the benchmark dies without stopping it (e.g. SIGKILL)
        while os.getppid() == parent:
            counts: dict[int, int] = {}
            for i in range(3000):
                counts[i % 97] = counts.get(i % 97, 0) + i
            for _ in range(20):
                np.cumsum(small[np.argsort(small)])
            np.cumsum(values[np.lexsort((values, keys))])
            np.unique(keys)
            done += 1
            cpu_ns = time.process_time_ns()
            SEQUENCE.pack_into(shared, 0, seq + 1)
            COUNTERS.pack_into(shared, SEQUENCE.size, done, cpu_ns)
            seq += 2
            SEQUENCE.pack_into(shared, 0, seq)


class Speedometer:
    """The reference loop as a child process pinned to ``cpu``; use as a
    context manager so the process is stopped and reaped on every exit."""

    def __init__(self, cpu: int, path: Path):
        self.cpu = cpu
        self.path = path
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> "Speedometer":
        self.path.write_bytes(bytes(SIZE))
        with self.path.open("rb") as f:
            self._shared = mmap.mmap(f.fileno(), SIZE, access=mmap.ACCESS_READ)
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(self.cpu), str(self.path)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            )
            # wait until the loop has published a first reading
            while self.read()[0] == 0:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"reference loop exited {self.proc.returncode}")
                time.sleep(0.01)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
        self._shared.close()

    def read(self) -> tuple[int, int]:
        """(iterations, cpu_ns) of the loop so far, from a consistent write."""
        while True:
            (seq,) = SEQUENCE.unpack_from(self._shared, 0)
            done, cpu_ns = COUNTERS.unpack_from(self._shared, SEQUENCE.size)
            if seq % 2 == 0 and SEQUENCE.unpack_from(self._shared, 0)[0] == seq:
                return done, cpu_ns


def speed_factor(before: tuple[int, int], after: tuple[int, int]) -> float | None:
    """Host speed over an interval relative to nominal (below 1.0 = slower),
    from two ``Speedometer.read`` results; ``None`` if the loop got no CPU
    time in between."""
    iterations = after[0] - before[0]
    cpu_s = (after[1] - before[1]) / 1e9
    if iterations <= 0 or cpu_s <= 0:
        return None
    return iterations / cpu_s / NOMINAL_RATE


if __name__ == "__main__":
    _loop(int(sys.argv[1]), sys.argv[2])
