"""Wu et al. [58] query-biased density community search (wu2015).

Greedy node deletion maximizing query-biased density
``rho(S) = l_S / sum_{v in S} pi_v`` with node weights growing with
query distance, ``pi_v = ETA^{-dist(v,Q)}`` (ETA = 0.5, the paper's
setting) — a distance-decayed stand-in for [58]'s random-walk proximity
(DESIGN.md §6). Each step deletes the non-query, non-articulation node
with the worst local contribution ``k_{v,S} / pi_v`` (a ``PeelState``
peel with NCA's ``RemovalQueue``, its classes the query distances and
its exact keys -k·2^(max dist - dist): no articulation pass, no float
score); the incumbent is the intermediate subgraph with the best rho.
Reproduces the behaviour the DMCS paper leans on: results hug the query
node and degrade when q is off-centre.
"""
from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

import numpy as np

from ..core.nca import Key, RemovalQueue
from ..core.peel import PeelState
from ..graphs.local import LocalGraph

# Every pi is a power of two, so sum(pi) is exact in any summation order
# while below 2^53 (BFS depth <= 36 at max_nodes): rho is order-free.
ETA = 0.5


def wu_key(top: int) -> Key:
    """-k/pi = -k·2^-dist for classes ``dist`` ≤ ``top``, scaled by 2^top
    to the integer -k·2^(top - dist)."""
    return (lambda t: 0), (lambda t, k: -(k << (top - t)))


def wu2015_queue(
    g: LocalGraph, queries: Iterable[int], max_nodes: int = 50_000
) -> Optional[Tuple[PeelState, RemovalQueue, np.ndarray, float]]:
    """wu2015's start: the ``PeelState`` over the component of Q, its
    ``RemovalQueue`` in query-distance classes, pi per position and its
    sum over S; None where Q has no connected community or it exceeds
    ``max_nodes``."""
    found = g.query_bfs(queries)
    if found is None:
        return None
    qs, order, bounds = found
    if len(order) > max_nodes:
        return None
    csr = g.csr()
    qpos = csr.positions(qs)
    lev = csr.levels(order, bounds)  # from qs[0], over the component
    if len(qs) > 1:  # distances from the nearest query node
        order, bounds = csr.bfs(qpos)
    state = PeelState(g, csr.ids[order])
    n, dist = csr.n, csr.levels(order, bounds)
    pi = ETA ** -dist
    # min (k/pi, -pi, id) is max (-(k/pi), dist, -position): pi grows with dist
    tie = dist * n + (n - 1 - np.arange(n))
    queue = RemovalQueue(state, qpos, dist, tie, lev, wu_key(int(dist.max())))
    return state, queue, pi, pi[order].sum()


def wu2015(
    g: LocalGraph,
    queries: Iterable[int],
    max_nodes: int = 50_000,
) -> Optional[Set[int]]:
    found = wu2015_queue(g, queries, max_nodes)
    if found is None:
        return None
    state, queue, pi, w = found
    best_t, best_rho = 0, state.l / w
    while (u := queue.best()) is not None:
        queue.remove(u)
        w -= pi[u]
        if (rho := state.l / w) >= best_rho:  # a tie keeps the later S
            best_t, best_rho = len(state.order), rho
    return state.members(best_t)
