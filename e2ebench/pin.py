"""Pin the output digests the benchmark's correctness gate checks.

Usage (from the repository root)::

    python3 e2ebench/pin.py            # re-pin every seed pinned.json holds
    python3 e2ebench/pin.py 7 12       # pin these seeds (added if new)

Each seed runs one cold report and one study in fresh processes over
empty caches, as the workloads run them, and its digests are merged
into ``pinned.json``.  Re-pin only after an intended change of the
program's output.
"""

from __future__ import annotations

import json
import shutil
import sys

import proctree
import run


def digests(seed: int) -> dict[str, str]:
    bench = run.Bench(seed, 0.0, traced=False)
    try:
        report = bench.child(run.report_args(bench), bench.fresh_dir("cache"))
        study = bench.child(run.study_args(bench), bench.fresh_dir("cache"))
    finally:
        proctree.reap_leftovers()
        shutil.rmtree(bench.work, ignore_errors=True)
    return {"report": run.report_digest(report), "study": study["report_sha256"]}


def main(argv: list[str]) -> int:
    proctree.become_subreaper()
    seeds = [int(arg) for arg in argv] or [
        int(seed) for seed in json.loads(run.PINNED.read_text())["digests"]
    ]
    for seed in seeds:
        pinned = digests(seed)
        # Re-read before each write, so pin runs on disjoint seeds merge.
        data = json.loads(run.PINNED.read_text())
        data["digests"][str(seed)] = pinned
        data["digests"] = dict(sorted(data["digests"].items(), key=lambda kv: int(kv[0])))
        run.PINNED.write_text(json.dumps(data, indent=2) + "\n")
        print(seed, pinned, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
