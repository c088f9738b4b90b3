"""k-truss community search baselines.

* ``kt``        — Huang et al. [32]: connected k-truss containing the
  (single) query node, default k=4. Connectivity is node-connectivity of
  the truss edge set (superset of triangle-connectivity; DESIGN.md §6).
* ``hightruss`` — highest-order truss containing the query node.
* ``huang2015`` — Huang et al. [34] closest-truss-community *basic*
  algorithm: the maximal-k truss component containing all Q, then
  greedily delete the node farthest from Q (restoring the truss
  property after each deletion) while Q stays connected; return the
  smallest-query-distance subgraph seen.
"""
from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from ..graphs.local import LocalGraph
from ..graphs.localops import truss_numbers


def kt(
    g: LocalGraph,
    queries: Iterable[int],
    k: int = 4,
    truss: Dict[Tuple[int, int], int] | None = None,
) -> Optional[Set[int]]:
    qs = g.query_nodes(queries)
    if qs is None:
        return None
    truss = truss if truss is not None else truss_numbers(g)
    # the component of qs[0] over the edges with truss number >= k,
    # without copying them into a graph
    comp = g.component_where(
        qs[0], lambda v, u: truss[(v, u) if v < u else (u, v)] >= k)
    # a lone qs[0] has no such edge, so it is not in the k-truss
    if len(comp) == 1 or any(q not in comp for q in qs):
        return None
    return comp


def hightruss(
    g: LocalGraph,
    queries: Iterable[int],
    truss: Dict[Tuple[int, int], int] | None = None,
) -> Optional[Set[int]]:
    qs = g.query_nodes(queries)
    if qs is None:
        return None
    truss = truss if truss is not None else truss_numbers(g)
    k_hi = max(truss.values(), default=2)
    for k in range(k_hi, 2, -1):
        res = kt(g, qs, k=k, truss=truss)
        if res is not None:
            return res
    found = g.query_component(qs)
    return None if found is None else found[1]


def _enforce_truss(sub: LocalGraph, k: int) -> None:
    """Iteratively drop edges with support < k-2 (in place)."""
    while True:
        weak = [
            (u, v) for u, v in sub.edges() if len(sub.adj[u] & sub.adj[v]) < k - 2
        ]
        if not weak:
            return
        for u, v in weak:
            sub.remove_edge(u, v)


def huang2015(
    g: LocalGraph,
    queries: Iterable[int],
    truss: Dict[Tuple[int, int], int] | None = None,
) -> Optional[Set[int]]:
    qs = g.query_nodes(queries)
    if qs is None:
        return None
    truss = truss if truss is not None else truss_numbers(g)
    k_hi = max(truss.values(), default=2)
    base: Optional[Set[int]] = None
    k_star = 2
    for k in range(k_hi, 1, -1):
        base = kt(g, qs, k=k, truss=truss) if k > 2 else None
        if base is not None:
            k_star = k
            break
    if base is None:
        found = g.query_component(qs)
        if found is None:
            return None
        base = found[1]
    sub = g.subgraph(base)
    qset = set(qs)
    best = set(sub.adj)
    dist = sub.bfs_dist(qs)
    best_ecc = max(dist.values())
    while True:
        far = max(dist.values())
        if far == 0:
            break
        # delete one farthest node (largest id for determinism)
        u = max(v for v, d in dist.items() if d == far)
        sub.remove_node(u)
        _enforce_truss(sub, k_star)
        comp = sub.connected_component(qs[0]) if qs[0] in sub else set()
        # every intermediate must stay a connected k-truss containing Q;
        # once enforcing the truss isolates a query node, stop.
        if any(q not in comp for q in qset) or len(comp) <= len(qset):
            break
        if len(comp) < sub.n:
            sub = sub.subgraph(comp)
        dist = sub.bfs_dist(qs)
        ecc = max(dist.values())
        # strict improvement: keep the *largest* subgraph achieving each
        # better query distance (the closest-community objective), rather
        # than shrinking all the way to the query's neighbourhood
        if ecc < best_ecc:
            best_ecc = ecc
            best = set(sub.adj)
    return best
