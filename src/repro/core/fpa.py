"""Fast Peeling Algorithm (paper §5.5-§5.7, Algorithm 2).

Removable nodes = current farthest BFS layer from the query seed (safe:
every surviving node keeps a shortest path through strictly lower
layers, so removing any subset of the farthest layer cannot disconnect
the rest). Best node = max density ratio Θ (stable: only neighbours of a
removed node need updates — maintained with a lazy-deletion heap).

Variants:
* ``scorer="dmg"``  → FPA-DMG (Figure 14): density-modularity gain Λ,
  unstable (Lemma 4), so a layer is drained by NCA's ``RemovalQueue``,
  whose class tops carry exact integer keys, over a ``PeelState`` of P_j.
* ``measure``       → which goodness function picks the incumbent
  ("dm" | "cm" | "gmd", Figure 12).
* ``prune=True``    → §5.7 layer-based pruning: score every distance-prefix
  subgraph in one pass (``prefix_scores``), jump to the best prefix, then
  peel inward from its outermost layer. Off by default: the paper's own
  §6.2.4 reports pruned FPA as less effective, and its headline Figure 8
  accuracy is only consistent with the un-pruned variant; Figure 13 is
  reproduced by jobs/e13_pruning.py with both settings.

**Layers are independent.** Algorithm 2 drains layer L, then L−1, and so
on. Layer j is always drained from S = P_j (layers 0..j: the farther ones
are gone) and only its own nodes leave, so Θ, Λ and k_{v,S} of its nodes
depend on P_j and on which of them have left, not on how the other
layers were peeled. Its removal order, and the sets it visits (P_j minus
each prefix of that order), are therefore fixed, and every P_i is
visited. So the layers are peeled inner-first (j = 1, 2, ...), each from
k_v = e(v, P_j), and the answer is the best set visited, a tie going to
the smaller set: the set Algorithm 2's outer-first peel returns.

**Exact layer skipping.** The order lets a layer be skipped without
changing the answer. LB is the best score visited so far: that of every
boundary P_i (``prefix_scores``) and of every set of the inner layers.
Every set that layer j still visits is I ∪ T with I = P_{j−1} and T ⊆ U,
the layer's nodes still in S, so its DM is at most
``dm_upper_bound`` (DESIGN.md §6):

    UB = max over t ≥ 1 of (N₀ + the sum of the t largest w_v) / (|I| + t),
    N₀ = l_I − d_I²/4m,   w_v = e(v,I) + e(v,U)/2 − (2·d_I·d_v + d_v²)/4m.

A layer is bounded when it starts and again each time the count of its
remaining nodes halves (while two or more are left), and its rest is
dropped once UB is below LB by more than a rounding margin. CM and GMD have no bound (UB = +∞), so
every layer is peeled in full for them.

The peel works on CSR positions (``LocalGraph.csr``); positions are in
id order, so every tie breaks as it would on ids. For |Q| = 1 one CSR
BFS from q gives both the component and the layers.
"""
from __future__ import annotations

import heapq
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..graphs.local import CSR, LocalGraph
from .modularity import scores_of
from .nca import RemovalQueue, dmg_key
from .peel import PeelState, best_prefix
from .steiner import steiner_connector

# The rest of a layer is dropped only when UB < LB − SKIP_MARGIN·max(|LB|, 1),
# so float rounding in UB cannot drop a set that ties LB: ties go to the
# smaller set, which may be the dropped one. The floor of 1 keeps a margin
# when LB is 0 (the DM of a whole connected graph).
SKIP_MARGIN = 1e-9


def _prefix_counts(csr: CSR, order: np.ndarray, bounds: np.ndarray):
    """From a BFS (``order``, ``bounds``) over a whole component: l(P_i) and
    d(P_i) of every prefix P_i (an edge enters the prefixes with the higher
    level of its two ends), and for each CSR entry of the rows ``order``,
    row after row, its row and the levels of its two ends."""
    lev = csr.levels(order, bounds)
    deg = csr.deg[order]
    rows = np.repeat(order, deg)
    own, nbr = lev[rows], lev[csr.neighbours(order)]
    l = np.cumsum(np.bincount(np.maximum(own, nbr), minlength=len(bounds) - 1)) // 2  # both directions
    d = np.cumsum(deg)[bounds[1:] - 1]
    return l, d, rows, own, nbr


def prefix_scores(g: LocalGraph, order: np.ndarray, bounds: np.ndarray, measure: str) -> np.ndarray:
    """``measure`` of each prefix P_i = ``order[:bounds[i + 1]]`` of a BFS
    over a whole component, bit-equal to ``PeelState.score`` on P_i."""
    l, d, _, _, _ = _prefix_counts(g.csr(), order, bounds)
    return scores_of(measure, l, d, bounds[1:], g.m)


def dm_upper_bound(l_in: int, d_in: int, n_in: int, m: int,
                   k: np.ndarray, e_in: np.ndarray, deg: np.ndarray) -> float:
    """An upper bound on DM(I ∪ T) over every non-empty T ⊆ U.

    ``l_in``, ``d_in`` and ``n_in`` are l_I, d_I and |I|; ``k``, ``e_in``
    and ``deg`` hold, for each node v of U, e(v, I ∪ U), e(v, I) and d_v.
    The bound is the maximum over t of (N₀ + the t largest w_v) / (|I| + t)
    with N₀ = l_I − d_I²/4m and w_v = e(v,I) + e(v,U)/2 − (2 d_I d_v + d_v²)/4m.
    """
    m4 = 4.0 * m
    w = (k + e_in) / 2 - (2 * d_in * deg + deg * deg) / m4
    top = np.cumsum(np.sort(w)[::-1])
    return float(np.max((l_in - d_in * d_in / m4 + top) / np.arange(n_in + 1, n_in + len(w) + 1)))


class _Layers:
    """The layers of one BFS around the seed, each peeled from S = P_j,
    and the best set they visit.

    ``top`` is the last layer to peel: the farthest one, or i* when pruned.
    ``k`` holds e(v, P_j) for every node v of layer j ≤ ``top``, and
    ``e_in`` holds e(v, P_{j−1}); a layer's peel lowers k for the layer's
    own nodes only. ``left`` marks the nodes of the layer being peeled that
    are still in S. ``logs[j]`` holds layer j's removals and the k each had
    when it left. FPA-DMG drains a layer through its own ``PeelState`` of
    P_j instead, whose k, alive mask and removal log stand in for these.
    The incumbent ``best`` is (score, size, j, t): P_j minus the first t
    removals of layer j.
    """

    def __init__(self, g: LocalGraph, order: np.ndarray, bounds: np.ndarray,
                 scorer: str, measure: str, prune: bool) -> None:
        self.g = g
        self.csr = csr = g.csr()
        self.m, self.order, self.bounds = g.m, order, bounds
        self.scorer, self.measure = scorer, measure
        l, d, rows, own, nbr = _prefix_counts(csr, order, bounds)
        self.l, self.d = l.tolist(), d.tolist()
        scores = scores_of(measure, l, d, bounds[1:], g.m)
        i = int(np.argmax(scores))  # every P_i is visited; the smallest i among ties
        self.best = (float(scores[i]), int(bounds[i + 1]), i, 0)
        # §5.7: pruned FPA starts from the best prefix P_{i*}. The distant
        # layers are never peeled node by node, and the search space
        # shrinks to that prefix, which is why the paper reports slightly
        # lower effectiveness than un-pruned FPA (Fig. 13).
        self.top = i if prune else len(bounds) - 2
        inner = slice(0, self.d[self.top])  # the CSR entries of the rows of P_top
        rows, own, nbr = rows[inner], own[inner], nbr[inner]
        self.k = array("q", np.bincount(rows[nbr <= own], minlength=csr.n).tobytes())
        self.e_in = np.bincount(rows[nbr < own], minlength=csr.n)
        self.left = bytearray(csr.n)
        self.logs: Dict[int, Tuple[List[int], List[int]]] = {}

    def peel(self, j: int) -> int:
        """Peel layer j from S = P_j until it is empty or the bound rules
        out every set left in it; returns the number of removals."""
        layer = self.order[self.bounds[j]:self.bounds[j + 1]]
        if self.scorer == "ratio":
            left, k = np.frombuffer(self.left, dtype=np.bool_), np.frombuffer(self.k, dtype=np.int64)
            left[layer] = True
            log, logk = [], []
            drain = self._drain_ratio(layer.tolist(), log, logk)
        else:
            # Max Λ in degree classes, a tie going to the larger position.
            # No node of the farthest layer has a child in S = P_j, so the
            # queue never searches, parks or re-levels, and best() always
            # returns one of the layer's remaining nodes.
            csr = self.csr
            state = PeelState(self.g, csr.ids[self.order[: self.bounds[j + 1]]], self.measure)
            queue = RemovalQueue(state, self.order[: self.bounds[j]], csr.deg, np.arange(csr.n),
                                 csr.levels(self.order, self.bounds), dmg_key(self.m))
            left, k, log, logk = state.S.array(), state.k_array(), state.order, state.removed_k
            drain = (queue.remove(queue.best()) for _ in layer)
        self.logs[j] = (log, logk)
        lb = self.best[0]  # the best of every P_i and of the inner layers' sets
        floor = lb - SKIP_MARGIN * max(abs(lb), 1.0)
        # Bound the layer when `check` of its nodes are left: at its start,
        # then each time the count halves. With one node left, every set
        # still to come is the current S (already visited) or P_{j−1}.
        remaining = check = len(layer)
        while remaining:
            if remaining == check and check > 1:
                if self._bound(j, layer, left, k) < floor:
                    break
                check //= 2
            next(drain)
            remaining -= 1
        self._offer(j)
        if self.scorer == "ratio":
            left[layer] = False  # the next layer's drain marks only its own nodes
        return len(log)

    def _drain_ratio(self, nodes: List[int], log: List[int], logk: List[int]) -> Iterator[None]:
        """Remove the layer's nodes in max-Θ order (ties: smaller k, then
        smaller position) with a lazy-deletion heap, logging each with the
        k it had. k ≥ e(v, P_{j−1}) ≥ 1, so Θ = d_v / k is finite."""
        k, deg, left = self.k, self.csr.py_deg, self.left
        ptr, nbrs = self.csr.py_indptr, self.csr.py_indices
        heap = [(-deg[v] / k[v], k[v], v) for v in nodes]
        heapq.heapify(heap)
        while heap:
            _, ku, u = heapq.heappop(heap)
            if not left[u] or k[u] != ku:
                continue  # stale entry
            left[u] = 0
            for w in nbrs[ptr[u]:ptr[u + 1]]:
                if left[w]:
                    k[w] -= 1
                    heapq.heappush(heap, (-deg[w] / k[w], k[w], w))
            log.append(u)
            logk.append(ku)
            yield

    def _offer(self, j: int) -> None:
        """Score the sets layer j visited and keep the best. P_j itself
        (t = 0) cannot displace the incumbent, which already holds the
        best prefix score with the smallest prefix among ties."""
        log, logk = self.logs[j]
        size = int(self.bounds[j + 1])
        t, score = best_prefix(self.measure, (self.l[j], self.d[j], size), self.m,
                               self.csr.deg, log, logk)
        n = size - t
        if score > self.best[0] or (score == self.best[0] and n < self.best[1]):
            self.best = (score, n, j, t)

    def _bound(self, j: int, layer: np.ndarray, left: np.ndarray, k: np.ndarray) -> float:
        """UB on the score of every set layer j has left to visit; ``left``
        marks the nodes in S and ``k`` holds their k."""
        if self.measure != "dm":
            return float("inf")
        rem = layer[left[layer]]
        return dm_upper_bound(self.l[j - 1], self.d[j - 1], int(self.bounds[j]), self.m,
                              k[rem], self.e_in[rem], self.csr.deg[rem])

    def members(self) -> Set[int]:
        """The incumbent's node ids."""
        _, _, j, t = self.best
        mask = np.zeros(self.csr.n, dtype=bool)
        mask[self.order[: self.bounds[j + 1]]] = True
        if t:
            mask[self.logs[j][0][:t]] = False
        return set(self.csr.ids[mask].tolist())


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
    layers = _Layers(g, order, bounds, scorer, measure, prune)
    for j in range(1, layers.top + 1):
        layers.peel(j)
    return layers.members()
