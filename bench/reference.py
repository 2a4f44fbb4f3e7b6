"""Host-speed reference: fixed work that belongs to the benchmark.

The speed of a shared host drifts: a fixed loop's time differs by about
10% between one-second windows, and phases of one to several minutes run
up to 30% slower. The drift shows as CPU time, not as waiting, so neither
CPU clocks nor longer runs remove it. The benchmark therefore times this
fixed work next to its ops and scales the reported times to a nominal
host speed.

Two references, each shaped like the ops it scales:

- :func:`isolated_kernel` runs :func:`reference_kernel` in the benchmark
  process, right after a full garbage collection and with the previous
  op's objects out of reach (in-process workloads). The kernel creates no
  long-lived objects, so after the collection no full collection runs
  during it, and its collections scan only its own young objects: the
  number of objects the library keeps alive does not change its cost.
  What it still shares with the library is the allocator's arenas and the
  CPU caches. A long-lived helper process, tried instead, tracked the
  ops' drift worse than no scaling at all unless pinned to the ops' CPU,
  and pinned it still tracked worse than this.
- :func:`spawn_reference` starts a fresh interpreter that imports numpy and
  runs the kernel, timed from spawn to exit (``cli-specs``, whose ops are
  themselves fresh interpreters). It shares nothing with the library.

Run as ``python3 bench/reference.py --once`` it is the spawned reference.

:func:`run_child` runs every child process the benchmark times.
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
import threading
import time
from pathlib import Path

# Kernel runs in one spawned reference.
SPAWN_KERNELS = 3
# A child still running after this long is killed (runs must end in 180 s).
CHILD_TIMEOUT_S = 170


def run_child(argv: list[str], **popen_kwargs) -> subprocess.CompletedProcess:
    """Run a child to its exit; kill it if it runs past CHILD_TIMEOUT_S.

    ``subprocess.run(timeout=...)`` waits by polling, with sleeps that grow
    to 50 ms, so a child's measured wall time is rounded up to the next
    poll: spawned references read 0.165, 0.217 or 0.266 s and nothing in
    between. Here the wait blocks in waitpid and returns when the child
    exits, and a timer thread kills a child that overruns.
    """
    proc = subprocess.Popen(argv, **popen_kwargs)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def reference_kernel() -> None:
    """Fixed work shaped like the library's hot path.

    Per-point trig sums in Python, a small array built from them and one
    Gram-Schmidt step with numpy dot products and a norm.
    """
    import numpy as np

    for i in range(1000):
        t = 0.004 * i
        rows = [[a * w**j * math.sin(w * t + j * 0.5 * math.pi)
                 for a, w in ((1.0, 1.0), (0.7, 2.0), (0.5, 3.0))] for j in (1, 2)]
        vecs = np.array(rows)
        vecs[1] -= (vecs[1] @ vecs[0]) / (vecs[0] @ vecs[0]) * vecs[0]
        np.linalg.norm(vecs[1])


def isolated_kernel() -> float:
    """Seconds one kernel run takes, after a full garbage collection."""
    gc.collect()
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def spawn_reference() -> float:
    """Wall time of a fresh interpreter that imports numpy and runs the kernel."""
    t0 = time.perf_counter()
    run_child([sys.executable, str(Path(__file__).resolve()), "--once"]).check_returncode()
    return time.perf_counter() - t0


if __name__ == "__main__":
    if sys.argv[1:] != ["--once"]:
        sys.exit("usage: reference.py --once")
    for _ in range(SPAWN_KERNELS):
        reference_kernel()
