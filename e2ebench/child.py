"""One fresh process of a report or study workload.

``run.py`` starts this script so every timed unit pays what a user's
fresh ``repro report`` / ``repro ablate run`` pays: interpreter start,
imports, and empty in-process memos.  It prints one JSON line:

* ``ready`` -- epoch seconds when the imports finished (the parent
  subtracts its spawn time to get set-up time);
* ``wall`` -- seconds of the timed call, and its outputs (rendered
  report sections, or the study's ``report.json`` digest and job
  outcomes);
* with ``--trace 1``, the process's cache and memo counters;
* ``hwm_mb`` -- the process's own peak resident memory at exit.

Usage::

    child.py setup {report,study}
    child.py report --seed N [--names fig03,table2] [--trace 0|1]
    child.py study --seed N --spec FILE --out DIR [--processes 2] [--trace 0|1]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import proctree

#: Trace lengths of the report workloads: a tenth of the defaults of
#: ``repro.experiments.common.ExperimentConfig``, so a cold report fits
#: the benchmark's time budget while every artifact is still computed.
REPORT_LENGTHS = {
    "trace_length": 2_000,
    "eir_length": 3_000,
    "stats_length": 8_000,
    "warmup": 400,
}


def _report(args: argparse.Namespace) -> dict:
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.report import EXPERIMENTS, render, run_experiments

    ready = time.time()
    counts = None
    if args.trace:
        from layers import install

        install()
    names = args.names.split(",") if args.names else list(EXPERIMENTS)
    config = ExperimentConfig(seed=args.seed, **REPORT_LENGTHS)
    started = time.perf_counter()
    results = run_experiments(names, config)
    wall = time.perf_counter() - started
    if args.trace:
        from layers import process_counts

        counts = process_counts()
    return {
        "ready": ready,
        "wall": wall,
        "sections": {r.experiment: render(r) for r in results},
        "counts": counts,
    }


def _study(args: argparse.Namespace) -> dict:
    import dataclasses
    import hashlib
    from pathlib import Path

    from repro.study.engine import REPORT_JSON, run_study
    from repro.study.spec import spec_from_json

    ready = time.time()
    if args.trace:
        from layers import install

        install()
    spec = spec_from_json(Path(args.spec).read_text())
    spec = dataclasses.replace(spec, seed=args.seed)
    started = time.perf_counter()
    outcome = run_study(spec, args.out, processes=args.processes)
    wall = time.perf_counter() - started
    statuses: dict[str, int] = {}
    for job in outcome.supervised.outcomes:
        statuses[job.status] = statuses.get(job.status, 0) + 1
    counts = None
    if args.trace:
        from layers import process_counts

        counts = process_counts()
    return {
        "ready": ready,
        "wall": wall,
        "report_sha256": hashlib.sha256(
            (Path(args.out) / REPORT_JSON).read_bytes()
        ).hexdigest(),
        "jobs": len(outcome.supervised.outcomes),
        "statuses": statuses,
        "counts": counts,
    }


def _setup(args: argparse.Namespace) -> dict:
    if args.kind == "report":
        import repro.experiments.report  # noqa: F401
    else:
        import repro.study.engine  # noqa: F401
        import repro.study.spec  # noqa: F401
    return {"ready": time.time()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("kind", choices=("report", "study"))
    setup.set_defaults(func=_setup)
    report = sub.add_parser("report")
    report.add_argument("--names", default="")
    report.set_defaults(func=_report)
    study = sub.add_parser("study")
    study.add_argument("--spec", required=True)
    study.add_argument("--out", required=True)
    study.add_argument("--processes", type=int, default=2)
    study.set_defaults(func=_study)
    for mode in (setup, report, study):
        mode.add_argument("--trace", type=int, default=0)
    for timed in (report, study):
        timed.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    result = args.func(args)
    result["hwm_mb"] = proctree.hwm_mb(os.getpid())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
