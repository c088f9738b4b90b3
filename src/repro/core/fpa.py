"""Fast Peeling Algorithm (paper §5.5-§5.7, Algorithm 2).

Removable nodes = current farthest BFS layer from the query seed (safe:
every surviving node keeps a shortest path through strictly lower
layers, so removing any subset of the farthest layer cannot disconnect
the rest). Best node = max density ratio Θ (stable: only neighbours of a
removed node need updates — maintained with a lazy-deletion heap).

Variants:
* ``scorer="dmg"``  → FPA-DMG (Figure 14): density-modularity gain Λ,
  unstable, recomputed over the whole candidate layer each removal.
* ``measure``       → which goodness function picks the incumbent
  ("dm" | "cm" | "gmd", Figure 12).
* ``prune=True``    → §5.7 layer-based pruning: score every distance-prefix
  subgraph in one pass (``prefix_scores``), jump to the best prefix, then
  peel inward from its outermost layer. Off by default: the paper's own
  §6.2.4 reports pruned FPA as less effective, and its headline Figure 8
  accuracy is only consistent with the un-pruned variant; Figure 13 is
  reproduced by jobs/e13_pruning.py with both settings.

The layer peelers only choose and remove nodes: ``PeelState`` keeps the
incumbent (Algorithm 1's best S) as a prefix of its removal log, and
every path returns ``state.best()``. They work on CSR positions
(``LocalGraph.csr``) and read ``PeelState``'s flat arrays; positions are
in id order, so every tie breaks as it would on ids. For |Q| = 1 one
CSR BFS from q gives both the component and the layers.
"""
from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Set

import numpy as np

from ..graphs.local import LocalGraph
from .modularity import density_ratio, dm_gain, scores_of
from .peel import PeelState
from .steiner import steiner_connector


def _peel_layer_ratio(state: PeelState, layer: List[int]) -> None:
    """Drain one layer in max-Θ order with a lazy-deletion heap."""
    k, deg = state.k, state.deg
    heap = [(-density_ratio(deg[v], k[v]), k[v], v) for v in layer]
    heapq.heapify(heap)
    cand = set(layer)
    while cand:
        negt, kv, u = heapq.heappop(heap)
        if u not in cand or k[u] != kv:
            continue  # stale entry
        cand.discard(u)
        for w in state.remove(u):
            if w in cand:
                heapq.heappush(heap, (-density_ratio(deg[w], k[w]), k[w], w))


def _peel_layer_dmg(state: PeelState, layer: List[int]) -> None:
    """Drain one layer in max-Λ order; Λ is unstable (Lemma 4) so it is
    recomputed over all remaining candidates each removal."""
    k, deg = state.k, state.deg
    cand = set(layer)
    while cand:
        u = max(cand, key=lambda v: (dm_gain(k[v], state.d, deg[v], state.m), v))
        cand.discard(u)
        state.remove(u)


def prefix_scores(g: LocalGraph, order: np.ndarray, bounds: np.ndarray, measure: str) -> np.ndarray:
    """``measure`` of each prefix P_i = ``order[:bounds[i + 1]]`` of a BFS
    over a whole component, bit-equal to ``PeelState.score`` on P_i: an
    edge enters with the higher level of its two ends."""
    csr = g.csr()
    lev = csr.levels(order, bounds)
    enter = np.maximum(lev[np.repeat(order, csr.deg[order])], lev[csr.neighbours(order)])
    l = np.cumsum(np.bincount(enter, minlength=len(bounds) - 1)) // 2  # both directions
    d = np.cumsum(csr.deg[order])[bounds[1:] - 1]
    return scores_of(measure, l, d, bounds[1:], g.m)


def fpa(
    g: LocalGraph,
    queries: Iterable[int],
    *,
    prune: bool = False,
    scorer: str = "ratio",
    measure: str = "dm",
) -> Optional[Set[int]]:
    """Run FPA; returns the community node set, or None when the query
    nodes are not in one connected component."""
    found = g.query_bfs(queries)
    if found is None:
        return None
    qs, order, bounds = found  # BFS from qs[0]: its order is the component
    csr = g.csr()
    if len(qs) > 1:
        seed = steiner_connector(g, qs)  # connected ⊇ Q
        # the seed is inside the component, so its BFS covers the same nodes
        order, bounds = csr.bfs(csr.positions(seed))
    if prune:
        # §5.7: start the peel from the best prefix (the smallest i among
        # ties). The distant layers are never peeled node by node, and the
        # search space shrinks to that prefix, which is why the paper
        # reports slightly lower effectiveness than un-pruned FPA (Fig. 13).
        i_star = int(np.argmax(prefix_scores(g, order, bounds, measure)))
        order, bounds = order[: bounds[i_star + 1]], bounds[: i_star + 2]
    layers = [x.tolist() for x in np.split(order, bounds[1:-1])]
    state = PeelState(g, csr.ids[order], measure)

    peel = _peel_layer_ratio if scorer == "ratio" else _peel_layer_dmg
    for layer in reversed(layers[1:]):
        peel(state, layer)
    return state.best()
