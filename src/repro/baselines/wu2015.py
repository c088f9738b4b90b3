"""Wu et al. [58] query-biased density community search (wu2015).

Greedy node deletion maximizing query-biased density
``rho(S) = l_S / sum_{v in S} pi_v`` with node weights growing with
query distance, ``pi_v = ETA^{-dist(v,Q)}`` (ETA = 0.5, the paper's
setting) — a distance-decayed stand-in for [58]'s random-walk proximity
(DESIGN.md §6). Each step deletes the non-query, non-articulation node
with the worst local contribution ``k_{v,S} / pi_v`` (a ``PeelState``
peel with NCA's ``RemovalQueue``, its classes the query distances and
its exact keys -k·2^(max dist - dist): no articulation pass, no float
score); the incumbent is the intermediate subgraph with the best rho,
compared exactly: pi_v = 2^dist is a Python int and rho is compared by
cross-multiplication, so no BFS depth overflows it.
Reproduces the behaviour the DMCS paper leans on: results hug the query
node and degrade when q is off-centre.
"""
from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

from ..core.nca import Key, RemovalQueue, query_start
from ..core.peel import PeelState
from ..graphs.local import LocalGraph

# pi_v = ETA^-dist; at ETA = 0.5 that is 2^dist, kept as an exact int
ETA = 0.5
# largest component of Q peeled; a larger one returns None
MAX_NODES = 50_000


def wu_key(top: int) -> Key:
    """-k/pi = -k·2^-dist for classes ``dist`` ≤ ``top``, scaled by 2^top
    to the integer -k·2^(top - dist)."""
    return (lambda t: 0), (lambda t, k: -(k << (top - t)))


def wu2015_queue(
    g: LocalGraph, queries: Iterable[int]
) -> Optional[Tuple[PeelState, RemovalQueue, List[int], int]]:
    """wu2015's start: the ``PeelState`` over the component of Q, its
    ``RemovalQueue`` in query-distance classes, the query distance per
    position and the sum of pi = 2^dist over S; None where Q has no
    connected community or it exceeds ``MAX_NODES``."""
    found = query_start(g, queries, "dm")
    if found is None:
        return None
    state, qpos, lev, dist = found
    if state.S.size > MAX_NODES:
        return None
    n = state.csr.n
    # min (k/pi, -pi, id) is max (-(k/pi), dist, -position): pi grows with dist
    tie = dist * n + (n - 1 - np.arange(n))
    queue = RemovalQueue(state, qpos, dist, tie, lev, wu_key(int(dist.max())))
    return state, queue, dist.tolist(), sum(1 << d for d in dist[state.S.array()].tolist())


def wu2015(g: LocalGraph, queries: Iterable[int]) -> Optional[Set[int]]:
    found = wu2015_queue(g, queries)
    if found is None:
        return None
    state, queue, dist, w = found
    best_t, best_l, best_w = 0, state.l, w  # the best rho = best_l / best_w
    while (u := queue.best()) is not None:
        queue.remove(u)
        w -= 1 << dist[u]
        if state.l * best_w >= best_l * w:  # rho >= the best; a tie keeps the later S
            best_t, best_l, best_w = len(state.order), state.l, w
    return state.members(best_t)
