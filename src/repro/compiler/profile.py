"""Edge profiling for profile-driven code reordering.

The paper generates profile statistics from five training inputs per
benchmark and holds out a sixth input for the processor simulations
(Section 4).  Here each profiling input is a behaviour-model seed; the
profiler walks the CFG at basic-block granularity (far cheaper than full
instruction traces) counting block executions and *layout successor*
transitions — the edges trace selection cares about:

* COND: taken / fall-through edge per the behaviour model;
* JUMP / FALLTHROUGH: the single static successor;
* CALL: the edge goes to the *return continuation* (the callee lives in
  another function and is laid out separately);
* RET: no layout edge (the successor is call-site dependent).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro.program.basic_block import TermKind
from repro.program.program import Program
from repro.workloads.behavior import BehaviorModel
from repro.workloads.trace import PROFILING_SEEDS


@dataclass(slots=True)
class EdgeProfile:
    """Execution counts gathered over the profiling inputs."""

    block_counts: Counter = field(default_factory=Counter)
    edge_counts: Counter = field(default_factory=Counter)

    def successors_by_weight(self, block_id: int) -> list[tuple[int, int]]:
        """(successor, count) pairs of *block_id*, heaviest first."""
        out = [
            (dst, count)
            for (src, dst), count in self.edge_counts.items()
            if src == block_id
        ]
        out.sort(key=lambda pair: -pair[1])
        return out

    def hottest_successor(self, block_id: int) -> int:
        """Most frequent layout successor of *block_id* (-1 if none)."""
        best, best_count = -1, 0
        for (src, dst), count in self.edge_counts.items():
            if src == block_id and count > best_count:
                best, best_count = dst, count
        return best

    def hottest_predecessor(self, block_id: int) -> int:
        """Most frequent layout predecessor of *block_id* (-1 if none)."""
        best, best_count = -1, 0
        for (src, dst), count in self.edge_counts.items():
            if dst == block_id and count > best_count:
                best, best_count = src, count
        return best


def collect_profile(
    program: Program,
    behavior: BehaviorModel,
    seeds: tuple[int, ...] = PROFILING_SEEDS,
    max_transitions: int = 60_000,
) -> EdgeProfile:
    """Profile *program* over the given behaviour seeds.

    Each seed contributes up to *max_transitions* block transitions
    (restarting the program when it halts), mirroring the paper's
    multiple-training-input methodology.

    The walk reads a row table built once per call instead of the CFG:
    per block its terminator kind, successors, branch behaviour and flip
    state, plus the integer keys ``src * n + dst`` of its two layout
    edges.  A COND row draws :meth:`BranchBehavior.decide` exactly as
    :meth:`BehaviorModel.decide_successor` would (one ``rng.random()``
    per execution).  Both counters come out in first-seen order, which
    :func:`select_traces` relies on to break ties.

    Raises:
        KeyError: a conditional block's branch key has no behaviour.
    """
    cfg = program.cfg
    entry = cfg.entry_block_id
    branches = behavior.branches
    n = len(cfg.blocks)
    rows = []
    for block in cfg.blocks:
        kind = block.term_kind
        branch = None
        if kind is TermKind.COND:
            branch = branches.get(block.branch_key)
            if branch is None:
                raise KeyError(f"no behaviour for branch key {block.branch_key}")
        base = block.block_id * n
        rows.append(
            (
                kind,
                block.fall_id,
                block.taken_id,
                branch,
                block.flipped,
                base + block.fall_id,
                base + block.taken_id,
            )
        )
    COND, FALLTHROUGH, JUMP, CALL = (
        TermKind.COND,
        TermKind.FALLTHROUGH,
        TermKind.JUMP,
        TermKind.CALL,
    )
    counts = [0] * n
    first_seen: list[int] = []
    edges: dict[int, int] = {}
    edge_count = edges.get
    for seed in seeds:
        rng = random.Random(seed)
        behavior.reset()
        call_stack: list[int] = []
        current = entry
        for _ in range(max_transitions):
            kind, fall, taken, branch, flipped, fall_edge, taken_edge = rows[current]
            if not counts[current]:
                first_seen.append(current)
            counts[current] += 1
            if kind is COND:
                if branch.decide(rng) != flipped:
                    edges[taken_edge] = edge_count(taken_edge, 0) + 1
                    current = taken
                else:
                    edges[fall_edge] = edge_count(fall_edge, 0) + 1
                    current = fall
            elif kind is FALLTHROUGH:
                edges[fall_edge] = edge_count(fall_edge, 0) + 1
                current = fall
            elif kind is JUMP:
                edges[taken_edge] = edge_count(taken_edge, 0) + 1
                current = taken
            elif kind is CALL:
                # Layout edge to the return continuation; execution enters
                # the callee.
                edges[fall_edge] = edge_count(fall_edge, 0) + 1
                call_stack.append(fall)
                current = taken
            else:  # RET
                current = call_stack.pop() if call_stack else entry
    return EdgeProfile(
        block_counts=Counter({block_id: counts[block_id] for block_id in first_seen}),
        edge_counts=Counter({divmod(key, n): count for key, count in edges.items()}),
    )
