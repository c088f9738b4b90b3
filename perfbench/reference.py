"""Host speed, measured with a fixed reference task.

The benchmark is meant for shared virtual machines, whose speed drifts
over minutes: on a 4-vCPU VM the 10-second medians of one query mix
ranged from 7.7 to 15.7 ms within five minutes, and the time of a fixed
pure-Python task moved with them (1.27 to 2.11 ms). No run length averages
that out. So on the workloads whose time follows it (``host_adjusted``
in workloads.py) the benchmark times a fixed task of its own between the
operations it measures, in the same process, and reports every time
metric in reference seconds:

    reference seconds = wall seconds × REF_S / mean(reference task time)

that is, the time the operation would take on a host where the task
takes ``REF_S``. The mean is over the phase (set-up, or the timed loop):
the host's speed changes within a second, between states about 1.6x
apart, so no one task run or window of runs matches the operation next
to it, but the task runs after every operation, for a fixed share of
its time, so over a phase its runs see the same mix of host states as
the operations do. A slower program still reads slower; a slower host does
not. The reference task is part of the benchmark, not of the program, so
a change to the program cannot move it. The wall times are reported
beside the reference ones. The other workloads report wall seconds.
"""
from __future__ import annotations

import random
import statistics
from collections import deque
from time import perf_counter
from typing import Dict, List, Optional

# The reference task's time on the VM the bounds were set on (Intel Xeon,
# 4 vCPUs, Python 3.11), so reference seconds read close to wall seconds
# there.
REF_S = 1.0e-3
# Share of each phase's measured time spent on the reference task, at
# least one task per measured operation.
REF_SHARE = 0.15
# The task: breadth-first search over a fixed random graph, the same mix
# of interpreter, dict and set work as the program's local graph code.
REF_NODES, REF_EDGES, REF_SEED = 1500, 4500, 12345


def _graph() -> Dict[int, List[int]]:
    rng = random.Random(REF_SEED)
    adj: Dict[int, set] = {v: set() for v in range(REF_NODES)}
    for v in range(1, REF_NODES):  # a random tree keeps it connected
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    m = REF_NODES - 1
    while m < REF_EDGES:
        a, b = rng.randrange(REF_NODES), rng.randrange(REF_NODES)
        if a != b and b not in adj[a]:
            adj[a].add(b)
            adj[b].add(a)
            m += 1
    return {v: sorted(ns) for v, ns in adj.items()}


class Reference:
    """Times the reference task in step with the measured operations.

    Each measured operation is reported with ``after(phase, seconds)``;
    the task then runs until it has taken ``REF_SHARE`` of the phase's
    measured time. ``scale(phase)`` is the factor from the phase's wall
    seconds to reference seconds. When the reference is off, nothing
    runs after the operations and every scale is 1.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.adj = _graph()
        self.expect = len(self.adj)
        self.busy: Dict[str, float] = {}
        self.spent: Dict[str, float] = {}
        self.times: Dict[str, List[float]] = {}

    def task(self) -> None:
        adj, dist = self.adj, {0: 0}
        todo = deque([0])
        while todo:
            v = todo.popleft()
            d = dist[v] + 1
            for u in adj[v]:
                if u not in dist:
                    dist[u] = d
                    todo.append(u)
        if len(dist) != self.expect:
            raise RuntimeError("reference task reached too few nodes")

    def after(self, phase: str, seconds: float) -> None:
        if not self.enabled:
            return
        self.busy[phase] = self.busy.get(phase, 0.0) + seconds
        times = self.times.setdefault(phase, [])
        goal = REF_SHARE * self.busy[phase]
        while True:
            t0 = perf_counter()
            self.task()
            times.append(perf_counter() - t0)
            self.spent[phase] = self.spent.get(phase, 0.0) + times[-1]
            if self.spent[phase] >= goal:
                return

    def mean(self, phase: str) -> Optional[float]:
        """Mean task time over the phase, or None when the reference is off."""
        return statistics.fmean(self.times[phase]) if self.enabled else None

    def scale(self, phase: str) -> float:
        return REF_S / self.mean(phase) if self.enabled else 1.0
