"""Process-tree accounting over ``/proc`` (Linux).

A workload's cost is the cost of every process it starts: the report
child, the study child and its forked pool workers, the balancer, its
replicas and their workers.  This module finds those processes by
parent pid, sums their CPU, samples their peak resident memory
(``VmHWM``) while they live, and checks that none outlives teardown.

The benchmark process makes itself a child subreaper
(:func:`become_subreaper`): a process whose parent exits first (a pool
worker of a replica that was killed, a replica of a balancer that was)
is re-parented to the benchmark instead of to init, so it stays in the
tree that :func:`descendants` walks and :func:`reap_leftovers` kills
and waits for.
"""

from __future__ import annotations

import ctypes
import os
import signal
import threading
import time

_CLK_TCK = os.sysconf("SC_CLK_TCK")


#: ``prctl`` option that makes the caller the reaper of its orphans.
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Re-parent every orphan below this process to it (Linux 3.4+)."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


#: Processes the benchmark keeps for its whole run (the host-speed
#: sampler): tree walks leave them out, so a workload's teardown waits
#: for none of them and its memory sum does not count them.
SPARED: set[int] = set()


def _state(pid: int) -> tuple[str, int, float] | None:
    """``(state, ppid, user+system CPU seconds)`` of *pid*, or None if
    gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    # The command name may contain spaces and parentheses: the fields
    # that follow start after the last ')'.
    fields = data[data.rindex(b")") + 2:].split()
    cpu = (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return fields[0].decode(), int(fields[1]), cpu


def descendants(root: int) -> list[int]:
    """Every live process below *root* (children, grandchildren, ...)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            state = _state(int(name))
            if state is not None:
                children.setdefault(state[1], []).append(int(name))
    found: list[int] = []
    stack = [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child in SPARED:
                continue
            found.append(child)
            stack.append(child)
    return found


def cpu_seconds(pids: list[int]) -> float:
    """Summed user+system CPU of the live processes in *pids*."""
    return sum(state[2] for state in map(_state, pids) if state is not None)


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of *pid* in MiB; 0 if gone."""
    return _status_kb(pid, "VmHWM:") / 1024.0


def rss_mb(pid: int) -> float:
    """Current resident set (``VmRSS``) of *pid* in MiB; 0 if gone."""
    return _status_kb(pid, "VmRSS:") / 1024.0


class PeakSampler:
    """Background sampler of ``VmHWM`` over a process tree.

    ``VmHWM`` only grows, so the last sample of each process is its
    peak up to that moment; the result is the sum over every process
    seen below *root* while sampling ran (a final sample is taken on
    exit, and a process may :meth:`report` its own exact peak).
    """

    def __init__(self, root: int, interval: float = 0.2) -> None:
        self.root = root
        self.interval = interval
        self._peaks: dict[int, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        for pid in descendants(self.root):
            peak = hwm_mb(pid)
            if peak > self._peaks.get(pid, 0.0):
                self._peaks[pid] = peak

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval)

    def __enter__(self) -> "PeakSampler":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def report(self, pid: int, peak_mb: float) -> None:
        """Fold in a peak a process measured itself before exiting."""
        self._peaks[pid] = max(self._peaks.get(pid, 0.0), peak_mb)

    def total_mb(self) -> float:
        return sum(self._peaks.values())


def _reap_exited_children() -> None:
    """Collect the exit status of this process's children that have
    ended (adopted orphans no ``Popen`` waits for)."""
    me = os.getpid()
    for pid in descendants(me):
        state = _state(pid)
        if state is not None and state[0] == "Z" and state[1] == me:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass


def reap_leftovers(grace: float = 5.0) -> list[int]:
    """Wait up to *grace* seconds for this process's descendants to
    exit, SIGKILL whatever remains, and wait until every one has ended;
    returns the pids that had to be killed."""
    deadline = time.monotonic() + grace
    killed: list[int] = []
    while True:
        _reap_exited_children()
        left = descendants(os.getpid())
        if not left:
            return killed
        if time.monotonic() >= deadline:
            for pid in left:
                if pid not in killed:
                    killed.append(pid)
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
        time.sleep(0.05)
