"""Driver-side core, truss and triangle decompositions.

The experiment harness, the jobs and the baselines build their
per-dataset index (core / truss numbers) with these on the local graph,
so per-query search is pure driver work. ``k_core`` and ``edge_support``
are also the references the Spark ops in ``kcore`` and ``triangles`` are
checked against.
"""
from __future__ import annotations

import heapq
from typing import Dict, List, Set, Tuple

from .local import LocalGraph


def core_numbers(g: LocalGraph) -> Dict[int, int]:
    """Batagelj–Zaveršnik O(|E|) core decomposition."""
    if g.n == 0:
        return {}
    deg = {v: len(nbrs) for v, nbrs in g.adj.items()}
    order = sorted(deg, key=deg.get)
    pos = {v: i for i, v in enumerate(order)}
    bin_start: Dict[int, int] = {}
    for i, v in enumerate(order):
        bin_start.setdefault(deg[v], i)
    core = dict(deg)
    for v in order:
        for u in g.adj[v]:
            if core[u] > core[v]:
                # move u to the front of its bin, then shrink its degree
                du = core[u]
                pu, pw = pos[u], bin_start[du]
                w = order[pw]
                order[pu], order[pw] = w, u
                pos[u], pos[w] = pw, pu
                bin_start[du] += 1
                bin_start.setdefault(du - 1, pw)
                core[u] -= 1
    return core


def k_core(g: LocalGraph, k: int) -> LocalGraph:
    """Maximal subgraph with min degree >= k."""
    core = core_numbers(g)
    return g.subgraph([v for v, c in core.items() if c >= k])


def edge_support(g: LocalGraph) -> Dict[Tuple[int, int], int]:
    """Triangles per canonical edge (u < v)."""
    return {
        (u, v): len(g.adj[u] & g.adj[v]) for u, v in g.edges()
    }


def truss_numbers(g: LocalGraph) -> Dict[Tuple[int, int], int]:
    """Truss number per canonical edge via support peeling (min-heap)."""
    sup = edge_support(g)
    if not sup:
        return {}
    h = g.copy()
    heap = [(s, e) for e, s in sup.items()]
    heapq.heapify(heap)
    truss: Dict[Tuple[int, int], int] = {}
    k = 2
    alive = dict(sup)
    while heap:
        s, (u, v) = heapq.heappop(heap)
        if (u, v) not in alive or alive[(u, v)] != s:
            continue  # stale heap entry
        k = max(k, s + 2)
        truss[(u, v)] = k
        # remove edge; decrement support of edges closing a triangle with it
        common = h.adj[u] & h.adj[v]
        h.remove_edge(u, v)
        del alive[(u, v)]
        for w in common:
            for e in ((min(u, w), max(u, w)), (min(v, w), max(v, w))):
                if e in alive:
                    alive[e] -= 1
                    heapq.heappush(heap, (alive[e], e))
    return truss


def k_truss(g: LocalGraph, k: int) -> LocalGraph:
    """Subgraph of edges with truss number >= k (no isolated nodes)."""
    t = truss_numbers(g)
    keep = [e for e, tk in t.items() if tk >= k]
    return LocalGraph.from_edges(keep)


def node_truss_numbers(g: LocalGraph) -> Dict[int, int]:
    """Max truss over incident edges; nodes with no edges get 2."""
    t = truss_numbers(g)
    out = {v: 2 for v in g.adj}
    for (u, v), tk in t.items():
        if tk > out[u]:
            out[u] = tk
        if tk > out[v]:
            out[v] = tk
    return out
