"""End-to-end benchmark of the paper pipeline, the study engine and the
cluster, with a per-layer self-time ledger.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload report_warm --seed 0 --seconds 10 --trace 0

Workloads (``e2ebench/README.md`` says why each exists):

* ``report_warm`` -- all nine paper artifacts in a fresh process over
  the result cache a cold report filled (the fill is untimed set-up);
* ``study_sweep`` -- ``study_spec.json`` through ``run_study`` on two
  forked workers, empty cache and output directory;
* ``cluster_mixed`` -- ``repro balance`` (2 replicas x 1 worker) under a
  closed loop of 2 client threads, 9 in 10 requests warmed reads and 1
  in 10 fresh-seed simulations.

With ``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric, its times scaled to a reference host speed
(``hostspeed.py``); with ``--trace 1`` the workload also runs once traced
and the object carries every per-layer metric instead.  ``correct`` is
false, and ``failed`` counts, every operation whose output disagrees
with the digests pinned for its seed (``pinned.json``), with the other
units of the run, or with an in-process reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cluster_load
import hostspeed
import layers
import proctree

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".e2ebench_work"
PINNED = HERE / "pinned.json"
STUDY_SPEC = HERE / "study_spec.json"

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_rps": "1/s",
}

#: End-to-end metrics that are times, scaled by the host-speed factor
#: (``hostspeed.py``), and rates, divided by it.
TIMES = ("setup_s", "wall_s", "cpu_s", "latency_p50_ms", "latency_p99_ms")
RATES = ("throughput_rps",)

#: Import-only processes timed per run for the set-up median
#: (report/study), SETUP_BATCH of them before each timed unit and the
#: rest after the last: one varies by about 20 % from the next, and the
#: host's speed drifts over tens of seconds, so the samples are many
#: and spread over the run.  Cluster start-ups per run, half before
#: the timed phase, one serving it, the rest after.
SETUP_SAMPLES = 24
SETUP_BATCH = 6
CLUSTER_SETUPS = 5

#: The report split across the two parallel processes that fill the
#: result cache for ``report_warm`` (table3/table4 store nothing).
FILL_GROUPS = (("fig03", "table2", "fig09", "fig10", "fig11", "fig12"), ("fig13",))

#: Forked workers of the study's supervised sweep.
STUDY_PROCESSES = 2

CHILD_TIMEOUT = 170.0

#: Seconds after which a run gives up: it kills what it started and
#: exits without a result, inside the 180 s a run may take.
RUN_DEADLINE = 150


class ChildFailed(RuntimeError):
    pass


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_text(sections: dict[str, str]) -> str:
    """The sections joined as ``repro report`` joins them."""
    return ("\n\n" + "=" * 72 + "\n\n").join(sections.values())


class Bench:
    """State of one benchmark run: inputs, scratch space, and the
    correctness tally every operation reports into."""

    def __init__(self, seed: int | None, seconds: float, traced: bool) -> None:
        self.pinned = json.loads(PINNED.read_text())
        self.seed = self.pinned["seed"] if seed is None else seed
        self.seconds = seconds
        self.traced = traced
        self.work = WORK / f"run-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._dirs = 0
        self.expected = dict(self.pinned["digests"].get(str(self.seed), {}))

    # -- scratch and environment ------------------------------------------

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.work / f"{stem}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def env(self, cache: Path, trace_dir: Path | None = None) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        env["REPRO_CACHE_DIR"] = str(cache)
        if trace_dir is not None:
            env["REPRO_TRACE"] = "1"
            env["REPRO_TRACE_DIR"] = str(trace_dir)
        return env

    # -- correctness ---------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")

    def check_digest(self, kind: str, digest: str) -> None:
        """Against the digest ``pinned.json`` holds for this seed; for a
        seed it does not hold, against the run's first unit.  After an
        intended change of program output, ``pin.py`` re-pins."""
        expected = self.expected.setdefault(kind, digest)
        self.check(digest == expected, f"{kind} digest is {digest}, expected {expected}")

    # -- fresh processes -----------------------------------------------------

    def child(self, args: list[str], cache: Path, trace: bool = False) -> dict:
        """Run ``child.py`` to completion over result cache *cache*;
        returns its JSON plus the process tree's set-up time, CPU and
        summed peak memory (and, traced, the span directory)."""
        trace_dir = self.fresh_dir("trace") if trace else None
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        spawned = time.time()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args, "--trace", str(int(trace))],
            env=self.env(cache, trace_dir),
            stdout=subprocess.PIPE,
            text=True,
        )
        with proctree.PeakSampler(os.getpid()) as sampler:
            try:
                out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise ChildFailed(f"child {args[0]} timed out") from None
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            raise ChildFailed(f"child {args[0]} exited with {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        sampler.report(proc.pid, result["hwm_mb"])
        result["pid"] = proc.pid
        result["trace_dir"] = trace_dir
        result["setup"] = result["ready"] - spawned
        result["cpu"] = (after.ru_utime - before.ru_utime) + (
            after.ru_stime - before.ru_stime
        )
        result["peak_mb"] = sampler.total_mb()
        return result

    def measure(self, once, kind: str, min_units: int = 1) -> dict:
        """Untraced: repeat *once* for the run's seconds of unit time,
        and at least *min_units* times, interleaved with at least
        :data:`SETUP_SAMPLES` import-only processes, and report the
        end-to-end metrics.  Traced: one untraced and one traced unit,
        reported as the ledger."""
        if self.traced:
            return traced_ledger(once(), once(trace=True))
        cache = self.fresh_dir("cache")

        def setup_samples(count: int) -> list[float]:
            return [self.child(["setup", kind], cache)["setup"] for _ in range(count)]

        units: list[dict] = []
        setups: list[float] = []
        unit_seconds = 0.0
        while len(units) < min_units or unit_seconds < self.seconds:
            setups += setup_samples(SETUP_BATCH)
            started = time.monotonic()
            units.append(once())
            unit_seconds += time.monotonic() - started
        setups += setup_samples(SETUP_SAMPLES - len(setups))
        return end_to_end(self, units, setups)


# -- metrics -------------------------------------------------------------------


def end_to_end(bench: Bench, units: list[dict], setups: list[float]) -> dict:
    """End-to-end metrics of a report or study workload; one *unit* is
    one timed report or study run (a user's wait)."""
    walls = [u["wall"] for u in units]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(u["cpu"] for u in units),
        "peak_rss_mb": statistics.median(u["peak_mb"] for u in units),
        "success_rate": 1.0 - bench.failed / bench.attempted,
        "latency_p50_ms": 1000.0 * statistics.median(walls),
        "latency_p99_ms": 1000.0 * max(walls),
        "throughput_rps": len(walls) / sum(walls),
    }


def scaled(values: dict, factor: float) -> dict:
    """*values* with times multiplied and rates divided by *factor*."""
    out = dict(values)
    for name in TIMES:
        out[name] = values[name] * factor
    for name in RATES:
        out[name] = values[name] / factor
    return out


def traced_ledger(untraced: dict, traced: dict) -> dict:
    from repro.telemetry import timeline

    return layers.ledger(
        timeline.load_dir(traced["trace_dir"]),
        measuring_pid=traced["pid"],
        traced_wall=traced["wall"],
        untraced_wall=untraced["wall"],
        counts=traced["counts"],
        workers=STUDY_PROCESSES,
    )


# -- report workloads --------------------------------------------------------------


def report_args(bench: Bench, names: tuple[str, ...] = ()) -> list[str]:
    args = ["report", "--seed", str(bench.seed)]
    return args + (["--names", ",".join(names)] if names else [])


def report_digest(unit: dict) -> str:
    return _digest(report_text(unit["sections"]))


def _check_report(bench: Bench, unit: dict) -> None:
    bench.check_digest("report", report_digest(unit))


def _fill(bench: Bench, cache: Path) -> dict[str, str]:
    """Fill *cache* with a cold report split over two parallel
    processes; returns the sections they rendered."""
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *report_args(bench, group)],
            env=bench.env(cache),
            stdout=subprocess.PIPE,
            text=True,
        )
        for group in FILL_GROUPS
    ]
    sections: dict[str, str] = {}
    for proc in procs:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise ChildFailed(f"cache fill exited with {proc.returncode}")
        sections.update(json.loads(out.strip().splitlines()[-1])["sections"])
    return sections


def report_warm(bench: Bench) -> dict:
    cache = bench.fresh_dir("cache")
    cold = _fill(bench, cache)

    def once(trace: bool = False) -> dict:
        unit = bench.child(report_args(bench), cache, trace)
        _check_report(bench, unit)
        for name, text in cold.items():
            bench.check(unit["sections"][name] == text, f"warm {name} != cold {name}")
        return unit

    # One 20 s warm report follows the host's speed swings closely
    # (quartile spread 0.28 over ten runs); two units halve that.
    return bench.measure(once, "report", min_units=2)


# -- study workload --------------------------------------------------------------


def study_args(bench: Bench) -> list[str]:
    return [
        "study",
        "--seed", str(bench.seed),
        "--spec", str(STUDY_SPEC),
        "--out", str(bench.fresh_dir("study")),
        "--processes", str(STUDY_PROCESSES),
    ]


def study_sweep(bench: Bench) -> dict:
    def once(trace: bool = False) -> dict:
        unit = bench.child(study_args(bench), bench.fresh_dir("cache"), trace)
        bench.check(
            unit["statuses"] == {"ok": unit["jobs"]},
            f"study job outcomes {unit['statuses']}",
        )
        bench.check_digest("study", unit["report_sha256"])
        return unit

    return bench.measure(once, "study")


# -- cluster workload ------------------------------------------------------------


def cluster_mixed(bench: Bench) -> dict:
    # References are simulated in this process with the result cache
    # off, so no fresh seed reaches the cluster's cache before its
    # request does.
    from repro.service.loadgen import _reference_results

    os.environ["REPRO_CACHE"] = "0"
    reads, fresh = cluster_load.request_specs(bench.seed, bench.seconds)
    reads = list(zip(reads, _reference_results(reads)))
    fresh = list(zip(fresh, _reference_results(fresh)))
    log = bench.work / "balance.log"

    def start(trace_dir: Path | None = None) -> tuple[cluster_load.Cluster, float]:
        """Spawn, wait until every replica is ready, warm; returns the
        cluster and its set-up seconds."""
        started = time.perf_counter()
        env = bench.env(bench.fresh_dir("cache"), trace_dir)
        cluster = cluster_load.Cluster(env, log, trace_dir)
        try:
            cluster.wait_ready()
            bad = cluster_load.warm(cluster.port, reads)
        except BaseException:
            cluster.stop()
            raise
        bench.attempted += len(reads)
        bench.failed += bad
        return cluster, time.perf_counter() - started

    def stop(cluster: cluster_load.Cluster) -> None:
        leftovers = cluster.stop()
        bench.check(not leftovers, f"processes left after teardown: {leftovers}")

    def measure(trace_dir: Path | None = None, setups: list[float] | None = None) -> dict:
        cluster, setup = start(trace_dir)
        if setups is not None:
            setups.append(setup)
        try:
            with proctree.PeakSampler(cluster.proc.pid) as sampler:
                counts_before = cluster.replica_counts()
                tree = cluster.tree()
                cpu_before = proctree.cpu_seconds(tree)
                if trace_dir is not None:
                    _trace_this_process(trace_dir)
                started = time.time()
                load = cluster_load.closed_loop(cluster.port, reads, list(fresh), bench.seconds)
                cpu = proctree.cpu_seconds(tree) - cpu_before
                counts_after = cluster.replica_counts()
                replica_rss = sum(proctree.rss_mb(pid) for pid in cluster.tree()[1:])
            peak = sampler.total_mb() + proctree.hwm_mb(cluster.proc.pid)
        finally:
            stop(cluster)
        bench.attempted += load.attempted
        bench.failed += load.failed
        if load.fresh_exhausted:
            bench.notes.append("fresh-seed pool ran out before the timed phase ended")
        counts = {k: counts_after[k] - counts_before[k] for k in counts_after}
        counts["experiments.memo_entries"] = counts_after["experiments.memo_entries"]
        return {
            "load": load,
            "cpu": cpu,
            "peak": peak,
            "started": started,
            "counts": counts,
            "replica_rss": replica_rss,
            "trace_dir": trace_dir,
        }

    if bench.traced:
        return _cluster_ledger(bench, measure(), measure(bench.fresh_dir("trace")))

    def setup_only() -> float:
        cluster, setup = start()
        stop(cluster)
        return setup

    setups = [setup_only() for _ in range(CLUSTER_SETUPS // 2)]
    run = measure(setups=setups)
    setups += [setup_only() for _ in range(CLUSTER_SETUPS - len(setups))]
    from repro.service.loadgen import _percentile

    load = run["load"]
    latencies = sorted(s.latency for s in load.samples)
    bench.notes.append(
        f"cluster_mixed: {len(latencies)} requests "
        f"({sum(s.fresh for s in load.samples)} fresh) in {load.elapsed:.2f}s, "
        f"{len(load.rounds)} rounds of {cluster_load.ROUND}"
    )
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(load.rounds),
        "cpu_s": run["cpu"] / max(1, len(load.rounds)),
        "peak_rss_mb": run["peak"],
        "success_rate": 1.0 - bench.failed / bench.attempted,
        "latency_p50_ms": 1000.0 * _percentile(latencies, 0.5),
        "latency_p99_ms": 1000.0 * _percentile(latencies, 0.99),
        "throughput_rps": len(latencies) / load.elapsed,
    }


def _trace_this_process(trace_dir: Path) -> None:
    """Trace the client side too, so server spans join its requests."""
    from repro.telemetry import trace

    os.environ["REPRO_TRACE"] = "1"
    os.environ["REPRO_TRACE_DIR"] = str(trace_dir)
    trace.reload()


def _cluster_ledger(bench: Bench, untraced: dict, traced: dict) -> dict:
    from repro.service.loadgen import _percentile
    from repro.telemetry import timeline

    load = traced["load"]
    spans = timeline.load_dir(traced["trace_dir"])
    # The timed phase's requests: traces rooted in a client.request
    # (replica readiness probes and the warm phase fall away).
    trace_ids = {
        s.trace_id
        for s in spans
        if s.name == "client.request" and s.start >= traced["started"]
    }
    spans = [s for s in spans if s.trace_id in trace_ids]
    samples = sorted(load.samples, key=lambda s: s.latency)
    p50 = samples[int(0.5 * (len(samples) - 1) + 0.5)]
    p99 = samples[int(0.99 * (len(samples) - 1) + 0.5)]
    counts = dict(traced["counts"])
    counts.update(
        {
            "replica.rss_mb": traced["replica_rss"],
            "cluster.read_ms.p50": 1000.0
            * _percentile([s.latency for s in samples if not s.fresh], 0.5),
            "cluster.fresh_ms.p50": 1000.0
            * _percentile([s.latency for s in samples if s.fresh], 0.5),
            "cluster.p50_hit": float(p50.disposition != "new"),
            "cluster.p99_fresh": float(p99.fresh and p99.disposition == "new"),
        }
    )
    return layers.ledger(
        spans,
        measuring_pid=os.getpid(),
        traced_wall=sum(s.latency for s in samples),
        # Untraced time for as many requests as the traced phase served.
        untraced_wall=len(samples)
        * statistics.fmean(s.latency for s in untraced["load"].samples),
        counts=counts,
        busy_window=load.elapsed,
        workers=cluster_load.REPLICAS * cluster_load.WORKERS,
    )


#: The workloads ``BENCHMARK.json`` names.
WORKLOADS = {
    "report_warm": report_warm,
    "study_sweep": study_sweep,
    "cluster_mixed": cluster_mixed,
}


def _abort(signum: int, _frame) -> None:
    raise SystemExit(f"e2ebench: stopped by {signal.Signals(signum).name}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: pinned.json's seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2ebench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    # Nothing this run started may outlive it: orphans stay in its tree,
    # and a signal, the deadline or an error still runs the teardown.
    proctree.become_subreaper()
    for signum in (signal.SIGTERM, signal.SIGHUP, signal.SIGALRM):
        signal.signal(signum, _abort)
    signal.alarm(RUN_DEADLINE)
    bench = Bench(args.seed, args.seconds, bool(args.trace))
    speed = None
    try:
        if not args.trace:
            speed = hostspeed.Sampler()
            proctree.SPARED.add(speed.proc.pid)
        values = WORKLOADS[args.workload](bench)
    finally:
        signal.alarm(0)
        for signum in (signal.SIGTERM, signal.SIGHUP):
            signal.signal(signum, signal.SIG_IGN)
        if speed is not None:
            speed.stop()
            proctree.SPARED.discard(speed.proc.pid)
        proctree.reap_leftovers()
        shutil.rmtree(bench.work, ignore_errors=True)
    if args.trace:
        units = {name: unit for name, (unit, _better) in layers.PER_LAYER.items()}
    else:
        units = END_TO_END
        bench.notes.append("unscaled: " + json.dumps({k: values[k] for k in TIMES + RATES}))
        bench.notes.append(speed.note())
        values = scaled(values, speed.factor())
    for note in bench.notes:
        print(note)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
