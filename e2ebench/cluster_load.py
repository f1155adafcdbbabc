"""The ``cluster_mixed`` workload: ``repro balance`` under a closed loop.

Two client threads in this process each send requests one after the
other through :class:`repro.service.client.ServiceClient`.  Nine in ten
repeat one of a few warmed specs (memo or cache reads, so the HTTP hops
dominate); every tenth carries a fresh seed (a simulation, a cache write
and memo growth).  Every response is compared bit for bit with a
reference simulated in this process before the timed phase.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import proctree

#: Replicas behind the balancer, and worker processes per replica.
REPLICAS = 2
WORKERS = 1
#: Client threads of the closed loop.
CLIENTS = 2
#: Requests per client between round-time samples.
ROUND = 50
#: Every FRESH_EVERY-th request of a client carries a fresh seed.
FRESH_EVERY = 10
#: Fresh specs simulated in advance per measured second.  The fresh
#: share of the mix stays 1 in 10 up to ten times this rate in req/s.
FRESH_PER_SECOND = 100

_JOB = {"length": 1_000, "warmup": 200}
_READ_GRID = [
    {"benchmark": b, "machine": m, "scheme": s, **_JOB}
    for b in ("compress", "li")
    for m in ("PI4", "PI8")
    for s in ("sequential", "collapsing_buffer")
]
_FRESH = {"benchmark": "compress", "machine": "PI8", "scheme": "collapsing_buffer", **_JOB}


def request_specs(seed: int, seconds: float) -> tuple[list[dict], list[dict]]:
    """The warmed read specs and the fresh-seed specs of one run, all
    drawn from *seed* (fresh seeds never repeat a read seed)."""
    rng = random.Random(seed)
    read_seed = rng.randrange(2**30)
    reads = [dict(spec, seed=read_seed) for spec in _READ_GRID]
    fresh_seeds = rng.sample(range(2**30, 2**31 - 1), int(FRESH_PER_SECOND * seconds))
    return reads, [dict(_FRESH, seed=s) for s in fresh_seeds]


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _get_json(port: int, path: str) -> tuple[int, dict | None]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2.0)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


class Cluster:
    """One ``repro balance`` process tree on a free port."""

    def __init__(self, env: dict, log: Path, trace_dir: Path | None = None) -> None:
        self.port = _free_port()
        command = [
            sys.executable, "-m", "repro", "balance",
            "--port", str(self.port),
            "--replicas", str(REPLICAS),
            "--workers", str(WORKERS),
            "--quiet",
        ]
        if trace_dir is not None:
            command += ["--trace", str(trace_dir)]
        self._log = log.open("ab")
        self.proc = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL, stderr=self._log
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"balance exited with {self.proc.returncode}")
            try:
                if _get_json(self.port, "/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("balance not ready in time")

    def replica_ports(self) -> list[int]:
        _status, payload = _get_json(self.port, "/metrics")
        return [int(r["address"].rsplit(":", 1)[1]) for r in payload["replicas"]]

    def replica_counts(self) -> dict[str, float]:
        """Summed result-cache and memo counters of the replicas."""
        totals = dict.fromkeys(
            (
                "cache.hits",
                "cache.misses",
                "cache.stores",
                "experiments.memo_entries",
                "experiments.memo_hits",
                "experiments.memo_misses",
            ),
            0.0,
        )
        for port in self.replica_ports():
            _status, payload = _get_json(port, "/metrics")
            cache = payload["result_cache"]
            counters = payload["service"]["counters"]
            totals["cache.hits"] += cache["hits"]
            totals["cache.misses"] += cache["misses"]
            totals["cache.stores"] += cache["stores"]
            totals["experiments.memo_entries"] += payload["memo"]["size"]
            totals["experiments.memo_hits"] += counters.get("service.jobs_memo", 0)
            totals["experiments.memo_misses"] += counters.get("service.jobs_admitted", 0)
        return totals

    def tree(self) -> list[int]:
        return [self.proc.pid, *proctree.descendants(self.proc.pid)]

    def stop(self) -> list[int]:
        """SIGTERM the balancer (it drains and stops its replicas), wait,
        and return the pids that outlived teardown (killed)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(15.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(5.0)
        self._log.close()
        return proctree.reap_leftovers()


@dataclass
class Sample:
    latency: float
    fresh: bool
    disposition: str


@dataclass
class LoadResult:
    samples: list[Sample] = field(default_factory=list)
    rounds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    fresh_exhausted: bool = False


def _check(client, spec: dict, expected: dict) -> tuple[float, str, bool]:
    started = time.perf_counter()
    record = client.run_job(spec, wait=30.0)
    latency = time.perf_counter() - started
    return latency, record.get("disposition", ""), record.get("result") == expected


def warm(port: int, reads: list[tuple[dict, dict]]) -> int:
    """Run each read spec once; returns the number of bad answers."""
    from repro.service.client import ServiceClient, ServiceError

    bad = 0
    with ServiceClient("127.0.0.1", port) as client:
        for spec, expected in reads:
            try:
                bad += not _check(client, spec, expected)[2]
            except ServiceError:
                bad += 1
    return bad


def closed_loop(
    port: int,
    reads: list[tuple[dict, dict]],
    fresh: list[tuple[dict, dict]],
    seconds: float,
) -> LoadResult:
    """:data:`CLIENTS` threads, each sending its next request when the
    previous one has been answered, for *seconds*."""
    from repro.service.client import ServiceClient, ServiceError

    pool = deque(fresh)
    lock = threading.Lock()
    result = LoadResult()
    stop_at = time.monotonic() + seconds

    def client_loop(offset: int) -> None:
        samples: list[Sample] = []
        rounds: list[float] = []
        failed = attempted = 0
        exhausted = False
        with ServiceClient("127.0.0.1", port) as client:
            index = 0
            round_started = time.perf_counter()
            while time.monotonic() < stop_at:
                is_fresh = index % FRESH_EVERY == FRESH_EVERY - 1
                if is_fresh:
                    with lock:
                        job = pool.popleft() if pool else None
                    if job is None:
                        exhausted = True
                        break
                else:
                    job = reads[(index + offset) % len(reads)]
                index += 1
                attempted += 1
                try:
                    latency, disposition, ok = _check(client, *job)
                except ServiceError:
                    failed += 1
                    continue
                failed += not ok
                samples.append(Sample(latency, is_fresh, disposition))
                if index % ROUND == 0:
                    now = time.perf_counter()
                    rounds.append(now - round_started)
                    round_started = now
        with lock:
            result.samples.extend(samples)
            result.rounds.extend(rounds)
            result.attempted += attempted
            result.failed += failed
            result.fresh_exhausted |= exhausted

    threads = [
        threading.Thread(target=client_loop, args=(i * 3,), daemon=True)
        for i in range(CLIENTS)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 120.0)
    result.elapsed = time.monotonic() - started
    return result
