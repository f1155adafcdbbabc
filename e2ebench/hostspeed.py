"""Host-speed calibration of a run's timings.

The benchmark gets a few cores of a shared host whose speed drifts by up
to twice over minutes, and moves by tens of percent from one second to
the next: CPU time stretches with wall time, so the code itself runs
slower, not waits longer.  A fixed pure-Python loop slows with it.  The
loop is the benchmark's own code and calls nothing of the program, so a
change to the program cannot move it.

:class:`Sampler` runs this file as a child process for the whole timed
run: every :data:`INTERVAL` seconds it times one pass of the loop in
CPU time (so waiting for a core does not count) and prints it.  The run
scales its timings by ``REFERENCE_S / median pass``: the times it
reports are those of a host on which one pass takes :data:`REFERENCE_S`
CPU seconds.  The unscaled times and the factor are printed above the
result line.

Usage: ``python3 e2ebench/hostspeed.py`` prints pass times until killed.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import threading
import time

#: CPU seconds of one pass on the reference host.
REFERENCE_S = 0.01

#: Iterations of one pass (10-20 ms of CPU on a 2-vCPU Linux VM).
ITERATIONS = 30_000

#: Seconds the sampler sleeps between passes (it takes under a tenth
#: of one core).
INTERVAL = 0.2


def one_pass() -> float:
    """CPU seconds of one pass of the loop: dict updates, tuple appends
    and integer arithmetic, the operations the simulator's Python spends
    its time on.  The collector is off, so heap size cannot move it."""
    gc.disable()
    try:
        started = time.thread_time()
        table: dict[int, int] = {}
        rows: list[tuple[int, int]] = []
        acc = 0
        for i in range(ITERATIONS):
            key = (i * 2654435761) & 0x3FFF
            table[key] = table.get(key, 0) + (acc & 7)
            rows.append((key, acc))
            acc = (acc * 31 + key) & 0xFFFFF
            if len(rows) > 4096:
                rows.clear()
        return time.thread_time() - started
    finally:
        gc.enable()


class Sampler:
    """This file as a child process, timing passes while the run lasts."""

    def __init__(self) -> None:
        self.passes: list[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdout=subprocess.PIPE, text=True
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.passes.append(float(line))

    def stop(self) -> None:
        """End the child and wait for it."""
        self.proc.terminate()
        self.proc.wait()
        self._reader.join()

    def factor(self) -> float:
        """Multiply a time by this to get the reference host's time."""
        return REFERENCE_S / statistics.median(self.passes)

    def note(self) -> str:
        return (
            f"host speed: median pass {statistics.median(self.passes):.5f} CPU s "
            f"over {len(self.passes)} passes, timings scaled by {self.factor():.4f}"
        )


def main() -> None:
    try:
        while True:
            print(one_pass(), flush=True)
            time.sleep(INTERVAL)
    except (BrokenPipeError, KeyboardInterrupt):
        pass


if __name__ == "__main__":
    main()
