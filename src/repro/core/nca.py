"""Non-articulation Cancellation Algorithm (paper §5.4).

Removable nodes = non-articulation, non-query nodes of the current
subgraph S. Best node = max density modularity gain Λ; ties removed
farthest-first ("keep the node that is closely located to the query
nodes"), then by larger id.

The paper finds the removable set with a Tarjan DFS-tree pass after
every removal, O(|V|+|E|) each, and names that pass as NCA's
bottleneck. Only the argmax over the removable set is needed, so this
implementation scores every non-query node of S and walks the
candidates in descending (score, dist, id) order (``best_removable``).
It removes the first one whose removal leaves S connected
(``stays_connected``). S is connected at every step, so that node is
the argmax over the non-articulation nodes: the same choice, without
the full articulation set.

``PeelState`` keeps the incumbent (Algorithm 1's best S) as a prefix of
its removal log and rebuilds it once at the end. NCA works on CSR
positions (``LocalGraph.csr``): Λ/Θ are vectors over ``PeelState``'s
shared ``k`` and the CSR degrees, and ``stays_connected`` reads the
alive mask.

``scorer="ratio"`` gives the NCA-DR variant ((a)+(d), Figure 14).
``time_budget`` (seconds) bounds the loop: on expiry the best incumbent
found so far is returned.
"""
from __future__ import annotations

import time
from collections import deque
from typing import Iterable, Optional, Set

import numpy as np

from ..graphs.local import CSR, LocalGraph
from .modularity import dm_gain
from .peel import PeelState


def stays_connected(csr: CSR, alive: bytearray, u: int) -> bool:
    """Whether S - {u} is connected, given that S is; S is the positions
    set in ``alive`` and ``u`` one of them.

    A multi-source BFS from u's neighbours in S (skipping u) labels each
    node with the neighbour that reached it; labels are merged
    (union-find) where two frontiers meet. Every component of S - {u}
    holds a neighbour of u, so the set stays connected exactly when one
    label remains; the search stops as soon as it does.
    """
    ptr, nbr = csr.py_indptr, csr.py_indices
    roots = [w for w in nbr[ptr[u]:ptr[u + 1]] if alive[w]]
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
        for w in nbr[ptr[v]:ptr[v + 1]]:
            lw = label.get(w)
            if lw is None:
                if alive[w]:
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


def best_removable(csr: CSR, alive: bytearray, key: np.ndarray, tie: np.ndarray) -> Optional[int]:
    """The position of largest (``key``, ``tie``), with key > -inf, whose
    removal leaves S (``alive``, connected) connected, or None; a rejected
    candidate (an articulation point of S) gets key -inf in place."""
    while (top := key.max()) > -np.inf:
        ties = np.flatnonzero(key == top)
        u = int(ties[np.argmax(tie[ties])])
        if stays_connected(csr, alive, u):
            return u
        key[u] = -np.inf
    return None


def nca(
    g: LocalGraph,
    queries: Iterable[int],
    *,
    scorer: str = "dmg",
    measure: str = "dm",
    time_budget: float | None = None,
) -> Optional[Set[int]]:
    found = g.query_bfs(queries)
    if found is None:
        return None
    qs, order, bounds = found
    csr = g.csr()
    qpos = csr.positions(qs)
    if len(qs) > 1:  # distances from the nearest query node
        order, bounds = csr.bfs(qpos)
    state = PeelState(g, csr.ids[order], measure)
    n = csr.n
    # Positions are in id order, so the key (score, dist, id) becomes
    # (score, dist·n + position).
    tie = csr.levels(order, bounds) * n + np.arange(n)
    k, deg, alive = state.k_array(), csr.deg, state.S.array()

    t0 = time.monotonic()
    while True:
        if time_budget is not None and time.monotonic() - t0 > time_budget:
            break
        if scorer == "dmg":
            # Λ over the whole vector; exact integers in float64
            key = dm_gain(k, state.d, deg, state.m)
        else:  # NCA-DR: Θ = density_ratio(deg, k)
            key = np.where(k > 0, deg / np.where(k > 0, k, 1), np.inf)
        key[~alive] = -np.inf
        key[qpos] = -np.inf
        if (u := best_removable(csr, state.S.mask, key, tie)) is None:
            break  # every candidate left is an articulation point
        state.remove(u)
    return state.best()


def nca_dr(g: LocalGraph, queries: Iterable[int], **kw) -> Optional[Set[int]]:
    """NCA with the density-ratio scorer ((a)+(d) in Figure 3/14)."""
    return nca(g, queries, scorer="ratio", **kw)
