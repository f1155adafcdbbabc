"""Self-tests of the benchmark: wrapper coverage, the ledger's
arithmetic, process-tree accounting and the metric catalogue.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import multiprocessing
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import proctree  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def installed():
    layers.install()


def test_every_binding_is_wrapped():
    assert layers.unwrapped_bindings() == []


def test_by_name_imports_are_rebound():
    from repro.experiments import common, table4_nop_padding

    assert table4_nop_padding.pad_all.e2ebench_layer == "compiler.pad"
    assert common.generate_trace.e2ebench_layer == "workloads.trace"
    assert common.load_workload.e2ebench_layer == "workloads.gen"
    # study.engine imports measure_eir inside its job function, so the
    # source module's binding is the one that must be wrapped.
    from repro.sim import eir

    assert eir.measure_eir.e2ebench_layer == "sim.eir"


def test_a_stray_binding_is_reported():
    from repro.experiments import common
    from repro.program import program

    common._stray = program.clone_cfg.__wrapped__
    try:
        assert layers.unwrapped_bindings() == ["repro.experiments.common._stray"]
    finally:
        del common._stray


def _report_unwrapped(queue) -> None:
    queue.put(layers.unwrapped_bindings())


def test_forked_workers_inherit_the_wrappers():
    context = multiprocessing.get_context("fork")
    queue = context.SimpleQueue()
    worker = context.Process(target=_report_unwrapped, args=(queue,))
    worker.start()
    assert queue.get() == []
    worker.join()


def test_wrappers_nest_spans(monkeypatch):
    from repro.compiler import pad_all
    from repro.telemetry import trace
    from repro.workloads.suite import load_workload

    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
    trace.reload()
    trace.recorder.clear()
    try:
        pad_all(load_workload("compress").program, 4)
        spans = {span.name: span for span in trace.recorder.spans()}
    finally:
        monkeypatch.undo()
        trace.reload()
    assert spans["compiler.clone_cfg"].parent_id == spans["compiler.pad"].span_id
    assert spans["workloads.gen"].parent_id is None


def _span(name, span_id, parent, start, duration, pid=1, **attributes):
    from repro.telemetry.trace import Span

    return Span(
        name=name,
        trace_id="t" * 32,
        span_id=span_id,
        parent_id=parent,
        start=start,
        duration=duration,
        attributes=attributes,
        pid=pid,
    )


def test_ledger_self_times_add_up_to_the_wall():
    spans = [
        _span("sim.cache", "a", None, 0.0, 1.0),
        _span("sim.run", "b", "a", 0.1, 0.6, kernel=True, instructions=600),
        _span("sim.kernel", "c", "b", 0.1, 0.5),
        _span("sim.run", "d", None, 1.0, 0.5, kernel=False, kernel_decline="return-stack"),
    ]
    metrics = layers.ledger(
        spans,
        measuring_pid=1,
        traced_wall=2.0,
        untraced_wall=1.6,
        counts={"cache.hits": 3, "cache.misses": 1},
    )
    assert metrics["cache.self_s"] == pytest.approx(0.4)
    assert metrics["sim.run_self_s"] == pytest.approx(0.1)
    assert metrics["sim.kernel_replay_s"] == pytest.approx(0.5)
    assert metrics["sim.kernel_insn_per_s"] == pytest.approx(1200.0)
    assert metrics["sim.interp_s"] == pytest.approx(0.5)
    assert metrics["sim.decline.return-stack"] == 1
    assert metrics["cache.hit_ratio"] == pytest.approx(0.75)
    assert metrics["unattributed_s"] == pytest.approx(0.5)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.25)
    assert set(metrics) == set(layers.PER_LAYER)


def test_process_tree_accounting_and_reaping():
    import os

    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        time.sleep(0.2)
        assert sleeper.pid in proctree.descendants(os.getpid())
        assert proctree.hwm_mb(sleeper.pid) > 0
        assert proctree.reap_leftovers(grace=0.1) == [sleeper.pid]
    finally:
        sleeper.kill()
        sleeper.wait()
    assert proctree.descendants(os.getpid()) == []


def test_orphans_are_adopted_and_reaped():
    import os

    proctree.become_subreaper()
    # The child starts a grandchild and exits before it: the grandchild
    # is re-parented to this process, not to init.
    script = (
        "import subprocess, sys\n"
        "sleeper = [sys.executable, '-c', 'import time; time.sleep(60)']\n"
        "quiet = subprocess.DEVNULL\n"
        "print(subprocess.Popen(sleeper, stdout=quiet, stderr=quiet).pid)\n"
    )
    spawner = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    orphan = int(spawner.stdout)
    assert orphan in proctree.descendants(os.getpid())
    assert proctree.reap_leftovers(grace=0.1) == [orphan]
    assert not os.path.exists(f"/proc/{orphan}")


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: tuple(value) for name, value in layers.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_times_and_rates_scale_with_host_speed():
    assert {run.END_TO_END[name] for name in run.TIMES} == {"s", "ms"}
    assert {run.END_TO_END[name] for name in run.RATES} == {"1/s"}
    values = dict.fromkeys(run.END_TO_END, 2.0)
    out = run.scaled(values, 0.5)
    assert out["wall_s"] == out["latency_p99_ms"] == 1.0
    assert out["throughput_rps"] == 4.0
    assert out["peak_rss_mb"] == out["success_rate"] == 2.0


def test_default_and_held_out_seeds_are_pinned():
    pinned = json.loads((HERE / "pinned.json").read_text())
    for seed in (pinned["seed"], 7):
        assert set(pinned["digests"][str(seed)]) == {"report", "study"}


def test_pinned_seed_checks_against_its_digest():
    bench = run.Bench(seed=None, seconds=0.0, traced=False)
    bench.check_digest("study", bench.pinned["digests"]["0"]["study"])
    bench.check_digest("study", "0" * 64)
    assert (bench.attempted, bench.failed) == (2, 1)


def test_unpinned_seed_checks_units_against_the_first():
    bench = run.Bench(seed=10**6, seconds=0.0, traced=False)
    for digest in ("a", "a", "b"):
        bench.check_digest("report", digest)
    assert (bench.attempted, bench.failed) == (3, 1)


def test_no_sources_means_no_result(tmp_path):
    (tmp_path / "e2ebench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "e2ebench" / path.name).write_text(path.read_text())
    for name in ("pinned.json", "study_spec.json"):
        (tmp_path / "e2ebench" / name).write_text((HERE / name).read_text())
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "study_sweep", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
