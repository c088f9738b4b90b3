"""CNM agglomerative modularity clustering (Clauset–Newman–Moore [17])
adapted to community search per the paper's §6.1: merge greedily until
one community remains; among all intermediate communities containing
every query node, return the one with the largest *density modularity*.

Heap-based ΔQ selection with lazy invalidation; community stats
(members, internal edges l, degree sum d) are maintained under merges so
DM evaluation is O(1) per candidate community.
"""
from __future__ import annotations

import heapq
from typing import Dict, Iterable, Optional, Set

from ..core.modularity import density_modularity
from ..graphs.local import LocalGraph

# largest component of Q clustered; a larger one returns None
MAX_NODES = 50_000


def cnm(g: LocalGraph, queries: Iterable[int]) -> Optional[Set[int]]:
    found = g.query_component(queries)
    if found is None:
        return None
    qs, comp = found
    if len(comp) > MAX_NODES:
        return None
    sub = g.subgraph(comp)
    m = g.m  # modularity/DM normalization uses the full graph
    if m == 0:
        return comp
    deg = g.degrees()

    # community state: id -> members / cross-edge counts / l / d
    members: Dict[int, Set[int]] = {v: {v} for v in sub.adj}
    e: Dict[int, Dict[int, int]] = {
        v: {u: 1 for u in nbrs} for v, nbrs in sub.adj.items()
    }
    l_int: Dict[int, int] = {v: 0 for v in sub.adj}
    d_sum: Dict[int, int] = {v: deg[v] for v in sub.adj}
    alive: Dict[int, int] = {v: 0 for v in sub.adj}  # version stamps

    def dq(i: int, j: int) -> float:
        # CNM ΔQ = 2(e_ij/2m − (d_i d_j)/(2m)²) with e_ij in edge units
        return 2.0 * (e[i][j] / (2.0 * m) - (d_sum[i] * d_sum[j]) / (4.0 * m * m))

    heap = []
    for i in e:
        for j in e[i]:
            if i < j:
                heap.append((-dq(i, j), i, j, alive[i], alive[j]))
    heapq.heapify(heap)

    qset = set(qs)
    best: Optional[Set[int]] = None
    best_dm = float("-inf")

    def consider(cid: int) -> None:
        nonlocal best, best_dm
        if qset <= members[cid]:
            s = density_modularity(l_int[cid], d_sum[cid], len(members[cid]), m)
            if s > best_dm:
                best_dm, best = s, set(members[cid])

    for v in list(members):
        consider(v)

    n_comms = len(members)
    while n_comms > 1 and heap:
        negdq, i, j, vi, vj = heapq.heappop(heap)
        if i not in members or j not in members or alive[i] != vi or alive[j] != vj:
            continue
        # merge j into i (larger into the survivor by swapping)
        if len(members[j]) > len(members[i]):
            i, j = j, i
        cross = e[i].get(j, 0)
        members[i] |= members.pop(j)
        l_int[i] = l_int[i] + l_int.pop(j) + cross
        d_sum[i] = d_sum[i] + d_sum.pop(j)
        alive[i] += 1
        for k2, w in e.pop(j).items():
            if k2 == i:
                continue
            e[i][k2] = e[i].get(k2, 0) + w
            ek = e[k2]
            ek[i] = ek.get(i, 0) + w
            ek.pop(j, None)
        e[i].pop(j, None)
        alive.pop(j, None)
        n_comms -= 1
        consider(i)
        for k2 in e[i]:
            a, b = (i, k2) if i < k2 else (k2, i)
            heapq.heappush(heap, (-dq(a, b), a, b, alive[a], alive[b]))
    return best
