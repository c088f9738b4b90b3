"""Non-articulation Cancellation Algorithm (paper §5.4).

Removable nodes = non-articulation, non-query nodes of the current
subgraph S. Best node = max density modularity gain Λ; ties removed
farthest-first ("keep the node that is closely located to the query
nodes"), then by larger id.

The paper finds the removable set with a Tarjan DFS-tree pass after
every removal, O(|V|+|E|) each, and names that pass as NCA's
bottleneck. Only the argmax over the removable set is needed, so this
implementation scores every non-query node of S and walks the
candidates in descending (score, dist, id) order. It removes the first
one whose removal leaves S connected (``stays_connected``). S is
connected at every step, so that node is the argmax over the
non-articulation nodes: the same choice, without the full articulation
set.

``PeelState`` keeps the incumbent (Algorithm 1's best S) as a prefix of
its removal log and rebuilds it once at the end.

``scorer="ratio"`` gives the NCA-DR variant ((a)+(d), Figure 14).
``time_budget`` (seconds) bounds the loop: on expiry the best incumbent
found so far is returned.
"""
from __future__ import annotations

import time
from collections import deque
from typing import Dict, Iterable, Optional, Set

import numpy as np

from ..graphs.local import LocalGraph
from .modularity import dm_gain
from .peel import PeelState


def stays_connected(adj: Dict[int, Set[int]], members: Set[int], u: int) -> bool:
    """Whether ``members - {u}`` is connected, given that ``members`` is.

    A multi-source BFS from u's neighbours in ``members`` (skipping u)
    labels each node with the neighbour that reached it; labels are
    merged (union-find) where two frontiers meet. Every component of
    ``members - {u}`` holds a neighbour of u, so the set stays connected
    exactly when one label remains; the search stops as soon as it does.
    """
    roots = [w for w in adj[u] if w in members]
    if len(roots) <= 1:
        return True
    parent = list(range(len(roots)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    groups = len(roots)
    label = {w: i for i, w in enumerate(roots)}
    label[u] = -1
    frontier = deque(roots)
    while frontier:
        v = frontier.popleft()
        lv = label[v]
        for w in adj[v]:
            lw = label.get(w)
            if lw is None:
                if w in members:
                    label[w] = lv
                    frontier.append(w)
            elif lw != lv and lw >= 0:
                a, b = find(lv), find(lw)
                if a != b:
                    parent[a] = b
                    groups -= 1
                    if groups == 1:
                        return True
    return False


def nca(
    g: LocalGraph,
    queries: Iterable[int],
    *,
    scorer: str = "dmg",
    measure: str = "dm",
    time_budget: float | None = None,
) -> Optional[Set[int]]:
    found = g.query_component(queries)
    if found is None:
        return None
    qs, comp = found
    dist = g.bfs_dist(qs)
    state = PeelState(g, comp, measure)
    # Dense positions over the component, sorted by id, so the key
    # (score, dist, id) becomes (score, dist·n + position).
    nodes = sorted(comp)
    n = len(nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    deg = np.array([state.deg[v] for v in nodes], dtype=np.float64)
    k = np.array([state.k[v] for v in nodes], dtype=np.float64)
    tie = np.array([dist.get(v, 0) for v in nodes], dtype=np.int64) * n + np.arange(n)
    removable = np.ones(n, dtype=bool)
    removable[[pos[q] for q in qs]] = False

    t0 = time.monotonic()
    while True:
        if time_budget is not None and time.monotonic() - t0 > time_budget:
            break
        if scorer == "dmg":
            # Λ over the whole vector; exact integers in float64
            key = dm_gain(k, state.d, deg, state.m)
        else:  # NCA-DR: Θ = density_ratio(deg, k)
            key = np.where(k > 0, deg / np.where(k > 0, k, 1.0), np.inf)
        key[~removable] = -np.inf
        while (top := key.max()) > -np.inf:
            ties = np.flatnonzero(key == top)
            u = int(ties[np.argmax(tie[ties])])
            if stays_connected(g.adj, state.S, nodes[u]):
                break
            key[u] = -np.inf  # an articulation point of S: try the next best
        else:
            break  # every candidate left is an articulation point
        removable[u] = False
        k[[pos[w] for w in state.remove(nodes[u])]] -= 1
    return state.best()


def nca_dr(g: LocalGraph, queries: Iterable[int], **kw) -> Optional[Set[int]]:
    """NCA with the density-ratio scorer ((a)+(d) in Figure 3/14)."""
    return nca(g, queries, scorer="ratio", **kw)
