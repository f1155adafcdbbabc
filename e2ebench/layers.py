"""Layer wrappers and the per-layer self-time ledger.

The benchmark does not edit the program to time it.  In a traced run,
:func:`install` replaces each layer's public functions with a wrapper
that opens a :func:`repro.telemetry.trace.span` around the call, and
rebinds the wrapper in *every* ``repro`` module that imported the
function by name (``from repro.compiler import pad_all`` binds
``pad_all`` in the importing module too).  Installation happens before
any pool forks, so workers inherit the wrappers.

:func:`ledger` turns the spans of a traced run (these wrappers' spans
plus the ones the program emits itself: ``sim.run``, ``sim.kernel``,
``sim.cache``, ``study.run``, ``batch.job`` and the service spans) into
the per-layer metrics named in ``BENCHMARK.json``.  Self time per span
name comes from :func:`repro.telemetry.timeline.critical_path`.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys

#: Span name -> the ``(module, function)`` pairs it wraps.
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "workloads.gen": (("repro.workloads.suite", "load_workload"),),
    "workloads.trace": (("repro.workloads.trace", "generate_trace"),),
    "compiler.clone_cfg": (("repro.program.program", "clone_cfg"),),
    "compiler.profile": (("repro.compiler.profile", "collect_profile"),),
    "compiler.reorder": (("repro.compiler.layout_opt", "reorder_program"),),
    "compiler.pad": (
        ("repro.compiler.padding", "pad_all"),
        ("repro.compiler.padding", "pad_trace"),
    ),
    "compiler.schedule": (
        ("repro.compiler.scheduler", "schedule_program"),
        ("repro.compiler.superblock", "form_superblocks"),
    ),
    "sim.eir": (("repro.sim.eir", "measure_eir"),),
    "sim.kernel.compile": (("repro.sim.kernel", "compile_trace"),),
    "sim.kernel.replay": (("repro.sim.kernel", "run_compiled"),),
    "cache.load": (("repro.sim.cache", "load"),),
    "cache.store": (("repro.sim.cache", "store"),),
    "study.expand": (("repro.study.spec", "expand"),),
    "study.analysis": (
        ("repro.study.analysis", "build_report"),
        ("repro.study.analysis", "render_markdown"),
        ("repro.study.analysis", "render_csv"),
        ("repro.study.analysis", "render_tornado"),
    ),
}

#: Kernel counters whose per-run deltas ride on ``sim.kernel.replay``.
_KERNEL_COUNTERS = ("plans_compiled", "plan_replays", "tapes_recorded", "tape_replays")


def _attributes(name: str, args: tuple, result, before: dict | None) -> dict:
    """Counts a wrapper records on its span (read where the work runs)."""
    if name == "workloads.trace":
        return {"insns": len(result.instructions)}
    if name == "cache.load":
        return {"hit": result is not None}
    if name == "sim.kernel.replay":
        from repro.sim import kernel

        counts = {k: kernel.stats[k] - before[k] for k in _KERNEL_COUNTERS}
        counts["insns"] = len(args[0].trace.instructions)
        return counts
    return {}


def _wrap(name: str, original):
    from repro.sim import kernel
    from repro.telemetry import trace

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with trace.span(name) as handle:
            before = dict(kernel.stats) if name == "sim.kernel.replay" else None
            result = original(*args, **kwargs)
            if handle.span is not None:
                handle.set(**_attributes(name, args, result, before))
            return result

    wrapper.e2ebench_layer = name
    # lru_cache'd targets (load_workload) keep their cache controls.
    for attribute in ("cache_info", "cache_clear"):
        if hasattr(original, attribute):
            setattr(wrapper, attribute, getattr(original, attribute))
    return wrapper


def _import_all() -> None:
    """Import every ``repro`` module so each by-name binding exists
    before rebinding (``__main__`` would run the CLI)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _targets():
    """``(span name, original function)`` for every wrapped target; the
    original stays reachable through an installed wrapper's
    ``__wrapped__``."""
    for name, targets in TARGETS.items():
        for module_name, attribute in targets:
            function = getattr(importlib.import_module(module_name), attribute)
            if hasattr(function, "e2ebench_layer"):
                function = function.__wrapped__
            yield name, function


def install() -> int:
    """Wrap every target and rebind it in every ``repro`` module;
    returns the number of bindings replaced.  Idempotent."""
    _import_all()
    wrappers = {id(function): _wrap(name, function) for name, function in _targets()}
    rebound = 0
    for module in _repro_modules():
        for attribute, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attribute, wrapper)
                rebound += 1
    return rebound


def unwrapped_bindings() -> list[str]:
    """``module.attribute`` names still bound to an unwrapped target."""
    originals = {id(function) for _name, function in _targets()}
    return sorted(
        f"{module.__name__}.{attribute}"
        for module in _repro_modules()
        for attribute, value in vars(module).items()
        if id(value) in originals
    )


# -- counts read from the program's own counters ---------------------------

#: The memo LRUs of :mod:`repro.experiments.common`.
MEMO_FUNCTIONS = (
    "variant_program",
    "_reorder_cached",
    "variant_trace",
    "sim_stats",
    "telemetry_sim_stats",
    "eir_stats",
)


def process_counts() -> dict[str, float]:
    """Result-cache and memo counters of this process."""
    from repro.experiments import common
    from repro.sim import cache

    infos = [getattr(common, name).cache_info() for name in MEMO_FUNCTIONS]
    return {
        "cache.hits": cache.stats.hits,
        "cache.misses": cache.stats.misses,
        "cache.stores": cache.stats.stores,
        "experiments.memo_entries": sum(info.currsize for info in infos),
        "experiments.memo_hits": sum(info.hits for info in infos),
        "experiments.memo_misses": sum(info.misses for info in infos),
    }


# -- the ledger ----------------------------------------------------------------

#: Per-layer metric -> (unit, better).  Every traced run reports all of
#: them; a layer a workload does not exercise reads 0.
PER_LAYER: dict[str, tuple[str, str]] = {
    "workloads.gen_s": ("s", "lower"),
    "workloads.trace_s": ("s", "lower"),
    "workloads.trace_insns": ("count", "lower"),
    "compiler.clone_cfg_s": ("s", "lower"),
    "compiler.clone_cfg_calls": ("count", "lower"),
    "compiler.reorder_s": ("s", "lower"),
    "compiler.profile_s": ("s", "lower"),
    "compiler.pad_s": ("s", "lower"),
    "compiler.schedule_s": ("s", "lower"),
    "sim.kernel_compile_s": ("s", "lower"),
    "sim.kernel_replay_s": ("s", "lower"),
    "sim.kernel_runs": ("count", "higher"),
    "sim.kernel_insn_per_s": ("1/s", "higher"),
    "sim.kernel_plan_hit_ratio": ("ratio", "higher"),
    "sim.run_self_s": ("s", "lower"),
    "sim.interp_runs": ("count", "lower"),
    "sim.interp_s": ("s", "lower"),
    "sim.decline.direction-predictor": ("count", "lower"),
    "sim.decline.return-stack": ("count", "lower"),
    "sim.decline.scheme": ("count", "lower"),
    "sim.decline.other": ("count", "lower"),
    "sim.eir_s": ("s", "lower"),
    "sim.eir_calls": ("count", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.stores": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.load_s": ("s", "lower"),
    "cache.store_s": ("s", "lower"),
    "cache.self_s": ("s", "lower"),
    "experiments.memo_entries": ("count", "lower"),
    "experiments.memo_hits": ("count", "higher"),
    "experiments.memo_misses": ("count", "lower"),
    "supervisor.jobs": ("count", "lower"),
    "supervisor.retries": ("count", "lower"),
    "supervisor.busy_frac": ("ratio", "higher"),
    "supervisor.parent_s": ("s", "lower"),
    "study.expand_s": ("s", "lower"),
    "study.analysis_s": ("s", "lower"),
    "balancer.self_s.p50": ("s", "lower"),
    "balancer.attempts_per_request": ("count", "lower"),
    "server.http_self_s.p50": ("s", "lower"),
    "scheduler.queue_s.p50": ("s", "lower"),
    "scheduler.queue_s.p99": ("s", "lower"),
    "worker.hop_s.p50": ("s", "lower"),
    "replica.rss_mb": ("MB", "lower"),
    "cluster.read_ms.p50": ("ms", "lower"),
    "cluster.fresh_ms.p50": ("ms", "lower"),
    "cluster.p50_hit": ("count", "higher"),
    "cluster.p99_fresh": ("count", "higher"),
    "unattributed_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: Self-time metrics: metric -> the (renamed) span names it sums.
_SELF_TIME = {
    "workloads.gen_s": ("workloads.gen",),
    "workloads.trace_s": ("workloads.trace",),
    "compiler.clone_cfg_s": ("compiler.clone_cfg",),
    "compiler.reorder_s": ("compiler.reorder",),
    "compiler.profile_s": ("compiler.profile",),
    "compiler.pad_s": ("compiler.pad",),
    "compiler.schedule_s": ("compiler.schedule",),
    "sim.kernel_compile_s": ("sim.kernel.compile",),
    "sim.kernel_replay_s": ("sim.kernel.replay", "sim.kernel"),
    "sim.run_self_s": ("sim.run[kernel]",),
    "sim.interp_s": ("sim.run[interp]",),
    "sim.eir_s": ("sim.eir",),
    "cache.load_s": ("cache.load",),
    "cache.store_s": ("cache.store",),
    "cache.self_s": ("sim.cache",),
    "supervisor.parent_s": ("study.run",),
    "study.expand_s": ("study.expand",),
    "study.analysis_s": ("study.analysis",),
}

_DECLINES = ("direction-predictor", "return-stack")


def _split_sim_runs(spans) -> None:
    """Rename ``sim.run`` by engine so self time splits kernel/interp."""
    for span in spans:
        if span.name == "sim.run":
            kernel = span.attributes.get("kernel")
            span.name = "sim.run[kernel]" if kernel else "sim.run[interp]"


def _self_by_name(spans) -> dict[str, dict]:
    from repro.telemetry import timeline

    return {row["name"]: row for row in timeline.critical_path(spans, top=10**6)}


def _per_request_self(spans, *names: str) -> list[float]:
    """Self time of the spans called *names*, summed per trace: one
    sample a traced request that holds any of them."""
    from repro.telemetry import timeline

    samples = []
    for bucket in timeline.group_traces(spans).values():
        rows = _self_by_name(bucket)
        if any(name in rows for name in names):
            samples.append(sum(rows[n]["self"] for n in names if n in rows))
    return samples


def ledger(
    spans,
    *,
    measuring_pid: int,
    traced_wall: float,
    untraced_wall: float,
    counts: dict[str, float],
    busy_window: float | None = None,
    workers: int = 1,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run's spans.

    *counts* supplies what spans do not carry (cache and memo counters,
    cluster request classes, replica memory).  *traced_wall* is the
    measuring process's traced time; ``unattributed_s`` is the part of
    it outside every root span that process recorded.  Worker busy
    time is taken over *busy_window* x *workers* (default: the
    ``study.run`` span).
    """
    from repro.service.loadgen import _percentile as percentile

    _split_sim_runs(spans)
    rows = _self_by_name(spans)

    def count(name: str) -> int:
        return rows[name]["count"] if name in rows else 0

    def named(name: str) -> list:
        return [span for span in spans if span.name == name]

    metrics = {metric: 0.0 for metric in PER_LAYER}
    for metric, names in _SELF_TIME.items():
        metrics[metric] = sum(rows[n]["self"] for n in names if n in rows)

    metrics["workloads.trace_insns"] = sum(
        s.attributes.get("insns", 0) for s in named("workloads.trace")
    )
    metrics["compiler.clone_cfg_calls"] = count("compiler.clone_cfg")

    metrics["sim.kernel_runs"] = count("sim.kernel")
    kernel_s = metrics["sim.kernel_compile_s"] + metrics["sim.kernel_replay_s"]
    kernel_insns = sum(
        s.attributes.get("instructions", 0) for s in named("sim.run[kernel]")
    )
    if kernel_s:
        metrics["sim.kernel_insn_per_s"] = kernel_insns / kernel_s
    replays = named("sim.kernel.replay")
    compiled = sum(s.attributes.get("plans_compiled", 0) for s in replays)
    replayed = sum(s.attributes.get("plan_replays", 0) for s in replays)
    if compiled + replayed:
        metrics["sim.kernel_plan_hit_ratio"] = replayed / (compiled + replayed)

    interp = named("sim.run[interp]")
    metrics["sim.interp_runs"] = len(interp)
    for span in interp:
        reason = str(span.attributes.get("kernel_decline", ""))
        if reason in _DECLINES:
            metrics[f"sim.decline.{reason}"] += 1
        elif reason.startswith("scheme:"):
            metrics["sim.decline.scheme"] += 1
        else:
            metrics["sim.decline.other"] += 1
    metrics["sim.eir_calls"] = count("sim.eir")

    metrics.update(counts)
    lookups = metrics["cache.hits"] + metrics["cache.misses"]
    if lookups:
        metrics["cache.hit_ratio"] = metrics["cache.hits"] / lookups

    jobs = named("batch.job")
    metrics["supervisor.jobs"] = len(jobs)
    metrics["supervisor.retries"] = sum(
        1 for s in jobs if int(s.attributes.get("attempt", 1)) > 1
    )
    if busy_window is None:
        busy_window = sum(s.duration for s in named("study.run"))
    if busy_window:
        metrics["supervisor.busy_frac"] = sum(s.duration for s in jobs) / (
            busy_window * workers
        )

    if count("balance.request"):
        metrics["balancer.attempts_per_request"] = count("balance.try") / count(
            "balance.request"
        )
        metrics["balancer.self_s.p50"] = percentile(
            _per_request_self(spans, "balance.request", "balance.try"), 0.5
        )
        metrics["server.http_self_s.p50"] = percentile(
            _per_request_self(spans, "service.request"), 0.5
        )
    waits = [s.duration for s in named("pool.queue_wait")]
    metrics["scheduler.queue_s.p50"] = percentile(waits, 0.5)
    metrics["scheduler.queue_s.p99"] = percentile(waits, 0.99)
    job_seconds = {s.trace_id: s.duration for s in jobs}
    metrics["worker.hop_s.p50"] = percentile(
        [
            s.duration - job_seconds[s.trace_id]
            for s in named("service.job")
            if s.trace_id in job_seconds
        ],
        0.5,
    )

    roots = [s for s in spans if s.pid == measuring_pid and not s.parent_id]
    metrics["unattributed_s"] = traced_wall - sum(s.duration for s in roots)
    metrics["trace.wall_s"] = traced_wall
    if untraced_wall:
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {name: float(metrics[name]) for name in PER_LAYER}
