"""Densest clique-percolation community search (Yuan et al. [62]).

The community is the k-clique percolation community containing the
query node for the *largest* feasible k: maximal cliques (Bron–Kerbosch)
of size >= k are adjacent when they share >= k-1 nodes; a community is
the union of a percolation-connected set of cliques. Exponential in the
worst case, so guarded by a node budget — the paper likewise reports
clique only on the small graphs (returns None over budget).
"""
from __future__ import annotations

from collections import deque
from typing import FrozenSet, Iterable, List, Optional, Set

from ..graphs.local import LocalGraph

# largest component of Q searched; a larger one returns None
MAX_NODES = 3000
# maximal cliques enumerated before giving up (returns None, like MAX_NODES)
MAX_CLIQUES = 200_000


def clique_cs(g: LocalGraph, queries: Iterable[int]) -> Optional[Set[int]]:
    found = g.query_component(queries)
    if found is None:
        return None
    qs, comp = found
    if len(comp) > MAX_NODES:
        return None  # over budget (paper: no result within time limit)
    sub = g.subgraph(comp)
    cliques: List[FrozenSet[int]] = []
    for c in sub.maximal_cliques():
        cliques.append(c)
        if len(cliques) > MAX_CLIQUES:
            return None
    k_hi = max((len(c) for c in cliques), default=0)
    for k in range(k_hi, 1, -1):
        ks = [c for c in cliques if len(c) >= k]
        seeds = [i for i, c in enumerate(ks) if any(q in c for q in qs)]
        if not seeds:
            continue
        # percolation BFS over cliques sharing >= k-1 nodes
        seen = {seeds[0]}
        dq = deque([seeds[0]])
        while dq:
            i = dq.popleft()
            for j in range(len(ks)):
                if j not in seen and len(ks[i] & ks[j]) >= k - 1:
                    seen.add(j)
                    dq.append(j)
        members: Set[int] = set()
        for i in seen:
            members |= ks[i]
        if all(q in members for q in qs):
            return members
    return None
