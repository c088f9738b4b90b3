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
every path returns ``state.best()``.
"""
from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Set

from ..graphs.local import LocalGraph
from .modularity import density_ratio, dm_gain
from .peel import PeelState
from .steiner import steiner_connector


def _peel_layer_ratio(state: PeelState, layer: List[int]) -> None:
    """Drain one layer in max-Θ order with a lazy-deletion heap."""
    heap = [(-density_ratio(state.deg[v], state.k[v]), state.k[v], v) for v in layer]
    heapq.heapify(heap)
    cand = set(layer)
    while cand:
        negt, kv, u = heapq.heappop(heap)
        if u not in cand or state.k[u] != kv:
            continue  # stale entry
        cand.discard(u)
        for w in state.remove(u):
            if w in cand:
                heapq.heappush(
                    heap, (-density_ratio(state.deg[w], state.k[w]), state.k[w], w)
                )


def _peel_layer_dmg(state: PeelState, layer: List[int]) -> None:
    """Drain one layer in max-Λ order; Λ is unstable (Lemma 4) so it is
    recomputed over all remaining candidates each removal."""
    cand = set(layer)
    while cand:
        u = max(cand, key=lambda v: (dm_gain(state.k[v], state.d, state.deg[v], state.m), v))
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
    found = g.query_component(queries)
    if found is None:
        return None
    qs, comp = found
    seed = steiner_connector(g, qs)  # connected ⊇ Q (singleton {q} if |Q|=1)
    layers = g.bfs_layers(seed)  # the seed is inside comp, so are its layers
    state = PeelState(g, comp, measure)

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
        state = PeelState(g, set().union(*layers), measure)

    peel = _peel_layer_ratio if scorer == "ratio" else _peel_layer_dmg
    for layer in reversed(layers[1:]):
        peel(state, layer)
    return state.best()
