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
* ``prune=True``    → §5.7 layer-based pruning: score the distance-prefix
  subgraphs coarsely, jump to the best prefix, then peel inward from its
  outermost layer. Off by default: the paper's own §6.2.4 reports pruned
  FPA as less effective, and its headline Figure 8 accuracy is only
  consistent with the un-pruned variant; Figure 13 is reproduced by
  jobs/e13_pruning.py with both settings.

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
from .modularity import density_ratio, dm_gain
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
    layers = [x.tolist() for x in np.split(order, bounds[1:-1])]
    state = PeelState(g, csr.ids[order], measure)

    if prune:
        # §5.7 — score each distance-prefix S_i = {v : dist(v) <= i} by
        # bulk-removing whole layers (cheap, O(|V|) total), jump to the
        # best prefix, then run the fine-grained peel inward from that
        # prefix's outermost layer. The speedup comes from never peeling
        # the distant layers node-by-node; the search space shrinks to
        # the chosen prefix, which is why the paper reports slightly
        # lower effectiveness than un-pruned FPA (Figure 13).
        scores = {len(layers) - 1: state.score(measure)}
        for i in range(len(layers) - 1, 0, -1):
            for v in layers[i]:
                state.remove(v)
            scores[i - 1] = state.score(measure)
        i_star = max(scores, key=lambda i: (scores[i], -i))
        layers = layers[: i_star + 1]
        state = PeelState(g, csr.ids[order[: bounds[i_star + 1]]], measure)

    peel = _peel_layer_ratio if scorer == "ratio" else _peel_layer_dmg
    for layer in reversed(layers[1:]):
        peel(state, layer)
    return state.best()
