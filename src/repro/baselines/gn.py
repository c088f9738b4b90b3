"""Girvan–Newman divisive clustering [28] adapted to community search:
iteratively delete the max-edge-betweenness edge; every time the
component containing all query nodes changes, score it with density
modularity; return the best-scoring intermediate community (paper §6.1).

Θ(|V||E|²) with full betweenness recomputation per deletion — the paper
itself reports GN timing out on Polblogs, so a node budget returns None
(timeout marker) on anything beyond small graphs.
"""
from __future__ import annotations

from typing import Iterable, Optional, Set

from ..core.modularity import dm_of
from ..graphs.local import LocalGraph

# largest component of Q split; a larger one returns None. It cuts
# Polblogs (about 1.2K nodes), where the paper's GN also ran out of time.
MAX_NODES = 400


def gn(g: LocalGraph, queries: Iterable[int]) -> Optional[Set[int]]:
    found = g.query_component(queries)
    if found is None:
        return None
    qs, comp = found
    if len(comp) > MAX_NODES:
        return None
    sub = g.subgraph(comp)
    qset = set(qs)
    best = set(comp)
    best_dm = dm_of(g, comp)
    while sub.m > 0:
        bet = sub.edge_betweenness()
        u, v = max(bet, key=lambda e2: (bet[e2], e2))
        sub.remove_edge(u, v)
        cur = sub.connected_component(qs[0])
        if not qset <= cur:
            break  # query nodes split — no further community contains Q
        s = dm_of(g, cur)
        if s > best_dm:
            best_dm, best = s, set(cur)
    return best
