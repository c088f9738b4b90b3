"""Luo–Wang–Promislow local modularity community search (icwi2008,
refs [45, 46]).

Local modularity M(S) = l_S / x_S — internal over external edge count.
Greedy: addition phase (add the boundary node with the most connections
into S whenever it improves M), then deletion phase (drop non-query
nodes whose removal improves M while keeping S connected); repeat until
a fixpoint. The DMCS paper reports this objective prefers very large
communities (M → ∞ as the external boundary empties) — our
implementation reproduces exactly that behaviour.
"""
from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from ..graphs.local import LocalGraph

# addition/deletion rounds run at most; the greedy stops earlier at a fixpoint
MAX_ROUNDS = 50


def _local_modularity(l_s: int, ext: int) -> float:
    if ext == 0:
        return float("inf")
    return l_s / ext


def icwi2008(g: LocalGraph, queries: Iterable[int]) -> Optional[Set[int]]:
    found = g.query_component(queries)
    if found is None:
        return None
    qs, _ = found
    S: Set[int] = set(qs)
    # k_in[v] = edges from v into S, for all v in S or on the boundary
    k_in: Dict[int, int] = {}
    l_s = 0
    ext = 0

    def recount() -> None:
        nonlocal l_s, ext, k_in
        k_in = {}
        l_s = 0
        ext = 0
        for v in S:
            for u in g.adj[v]:
                if u in S:
                    l_s += 1
                else:
                    ext += 1
                    k_in[u] = k_in.get(u, 0) + 1
        l_s //= 2

    recount()
    qset = set(qs)
    for _ in range(MAX_ROUNDS):
        changed = False
        # ---- addition phase: best-connected boundary node first
        while True:
            if not k_in:
                break
            v = max(k_in, key=lambda u: (k_in[u], u))
            kv = k_in[v]
            new_l = l_s + kv
            new_ext = ext - kv + (len(g.adj[v]) - kv)
            if _local_modularity(new_l, new_ext) > _local_modularity(l_s, ext):
                S.add(v)
                recount()
                changed = True
            else:
                break
        # ---- deletion phase
        for v in sorted(S - qset):
            if v not in S:
                continue
            kv = sum(1 for u in g.adj[v] if u in S)
            new_l = l_s - kv
            new_ext = ext - (len(g.adj[v]) - kv) + kv
            if _local_modularity(new_l, new_ext) > _local_modularity(l_s, ext):
                trial = S - {v}
                sub = g.subgraph(trial)
                if trial and sub.is_connected() and qset <= trial:
                    S = trial
                    recount()
                    changed = True
        if not changed:
            break
    return S
