"""Non-articulation Cancellation Algorithm (paper §5.4).

Removable nodes = non-articulation, non-query nodes of the current
subgraph S. Best node = max density modularity gain Λ; ties removed
farthest-first ("keep the node that is closely located to the query
nodes"), then by larger id.

The paper finds the removable set with a Tarjan DFS-tree pass after
every removal, O(|V|+|E|) each, and names that pass as NCA's
bottleneck. Only the best removable node is needed, and
:class:`RemovalQueue` finds it without rescoring S or searching it:

* **Queue.** Λ_v = d_v(2d_S − d_v) − 4|E|·k_{v,S} and Θ_v = d_v/k_{v,S}
  depend on v only through its degree and k_{v,S}, and fall as k_{v,S}
  grows. So within one degree class the best node has the least
  k_{v,S}, then the largest (dist, id). Each class keeps a lazy heap on
  that order (k only falls, as in Batagelj–Zaveršnik's core peel), and
  a step scores only the top of each class with the vector form of the
  score. Those keys are the values a rescore of all S would give, so
  every tie breaks as it would there.
* **Certificate.** ``lev`` is the BFS level from the first query node
  inside S and ``pc[w]`` counts w's neighbours in S one level down.
  Removing u keeps S connected when no neighbour one level below u has
  u as its only parent (``pc == 1``). Both are kept decrementally after
  each removal: a node left with no parent moves one level down, as in
  the decremental BFS tree of Even & Shiloach (JACM 1981).
* **Articulation cache.** A candidate whose removal would cut S is
  parked. Say v cuts S, and u ≠ v leaves with S − u connected: v still
  cuts S − u unless {u} was a whole component of S − v, that is, u's
  one neighbour in S was v. So a parked node returns to its queue only
  when its one pendant neighbour leaves.
* **Fallback.** ``stays_connected``, a search over S − u, decides what
  neither the certificate nor the cache does.

S is connected at every step, so the node removed is the argmax over
the non-articulation nodes, as in the paper, without the articulation
set. ``PeelState`` keeps the incumbent (Algorithm 1's best S) as a
prefix of its removal log and rebuilds it once at the end. Everything
is on CSR positions (``LocalGraph.csr``); wu2015 runs the same queue
with BFS-distance classes.

``scorer="ratio"`` gives the NCA-DR variant ((a)+(d), Figure 14).
``time_budget`` (seconds) bounds the loop: on expiry the best incumbent
found so far is returned.
"""
from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Callable, Iterable, List, Optional, Set, Tuple

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


class RemovalQueue:
    """The removable nodes of a connected ``PeelState`` S, best first.

    ``fixed`` are the positions never removed (Q); ``fixed[0]`` roots the
    BFS levels ``lev`` (levels from it over S, -1 elsewhere). Candidates
    are grouped by their ``cls`` value, which must not change, and each
    class is ordered by (k_{v,S}, then the largest ``tie``); ``tie`` is
    distinct per position. :meth:`best` takes a score of the k of each
    class top, in the order of the class values :attr:`cval`; the score
    must fall as k grows within a class.
    """

    __slots__ = ("state", "n", "cid", "cval", "heaps", "byrank", "rank",
                 "topk", "toprank", "empty", "parked", "lev", "pc")

    def __init__(self, state: PeelState, fixed: np.ndarray, cls: np.ndarray,
                 tie: np.ndarray, lev: np.ndarray) -> None:
        self.state = state
        csr, n = state.csr, state.csr.n
        self.n = n
        alive = state.S.array()
        movable = alive.copy()
        movable[fixed] = False
        self.parked = bytearray(n)
        # a heap entry is k·n + rank, rank 0 being the largest tie
        byrank = np.argsort(-tie, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[byrank] = np.arange(n)
        self.byrank, self.rank = byrank.tolist(), rank.tolist()
        cand = np.flatnonzero(movable)
        self.cval, cid = np.unique(cls[cand], return_inverse=True)
        full = np.full(n, -1, dtype=np.int64)  # -1: never a candidate
        full[cand] = cid
        self.cid = full.tolist()
        ent = state.k_array()[cand] * n + rank[cand]
        srt = np.lexsort((ent, cid))  # a sorted list is a heap
        cuts = np.searchsorted(cid[srt], np.arange(1, len(self.cval)))
        self.heaps: List[List[int]] = [h.tolist() for h in np.split(ent[srt], cuts)] if cand.size else []
        top = np.array([h[0] for h in self.heaps], dtype=np.int64)
        self.topk, self.toprank = top // n, top % n
        self.empty = np.zeros(len(self.heaps), dtype=bool)
        self.lev = lev.tolist()
        # pc[w]: w's neighbours in S one level down (0 outside S)
        rows = np.flatnonzero(alive)
        own = np.repeat(rows, csr.deg[rows])
        nb = csr.neighbours(rows)
        up = alive[nb] & (lev[nb] == lev[own] - 1)
        self.pc = np.bincount(own[up], minlength=n).tolist()

    def best(self, score: Callable[[np.ndarray], np.ndarray]) -> Optional[int]:
        """The best candidate whose removal leaves S connected, or None;
        ``score(k)`` keys the class tops. Candidates found to cut S are
        parked on the way."""
        state = self.state
        while self.heaps:
            key = score(self.topk)
            key[self.empty] = -np.inf
            c = int(key.argmax())
            if key[c] == -np.inf:
                return None
            ties = np.flatnonzero(key == key[c])
            if len(ties) > 1:
                c = int(ties[self.toprank[ties].argmin()])
            u = self.byrank[int(self.toprank[c])]
            if self.certified(u) or stays_connected(state.csr, state.S.mask, u):
                return u
            self.parked[u] = 1
            self._retop(c)
        return None

    def certified(self, u: int) -> bool:
        """Whether every neighbour of u one level down has a parent in S
        other than u, which proves S - {u} connected."""
        csr, alive, lev, pc = self.state.csr, self.state.S.mask, self.lev, self.pc
        ptr = csr.py_indptr
        below = lev[u] + 1
        for w in csr.py_indices[ptr[u]:ptr[u + 1]]:
            if alive[w] and lev[w] == below and pc[w] == 1:
                return False
        return True

    def remove(self, u: int) -> None:
        """Remove ``u``, a node :meth:`best` returned, from S."""
        changed = self.state.remove(u)
        k, n, cid, heaps = self.state.k, self.n, self.cid, self.heaps
        parked, rank = self.parked, self.rank
        if len(changed) == 1 and parked[changed[0]]:
            parked[changed[0]] = 0  # u was its pendant neighbour
        for w in changed:
            if (c := cid[w]) >= 0 and not parked[w]:
                e = k[w] * n + rank[w]
                heapq.heappush(heaps[c], e)
                if heaps[c][0] == e:
                    self.topk[c], self.toprank[c], self.empty[c] = k[w], rank[w], False
        self._retop(cid[u])
        self._relevel(u, changed)

    def _retop(self, c: int) -> None:
        """Drop the entries of removed and parked nodes from the top of
        class ``c``'s heap. A node's newest entry holds its least k and
        leaves the heap only when the node does, so the older entries
        below it never surface while it is a candidate."""
        h, n = self.heaps[c], self.n
        alive, parked, byrank = self.state.S.mask, self.parked, self.byrank
        while h:
            v = byrank[h[0] % n]
            if alive[v] and not parked[v]:
                self.topk[c], self.toprank[c] = divmod(h[0], n)
                return
            heapq.heappop(h)
        self.empty[c] = True

    def _relevel(self, u: int, changed: List[int]) -> None:
        """Repair ``lev`` and ``pc`` after u left: a node with no parent
        left moves one level down, until every node has one. A level
        of |S| or more means u cut S."""
        csr, alive, lev, pc = self.state.csr, self.state.S.mask, self.lev, self.pc
        ptr, nbr = csr.py_indptr, csr.py_indices
        size = self.state.S.size
        below = lev[u] + 1
        orphans = []
        for w in changed:
            if lev[w] == below:
                pc[w] -= 1
                if not pc[w]:
                    orphans.append(w)
        while orphans:
            w = orphans.pop()
            old = lev[w]
            if old + 1 >= size:
                raise ValueError(f"removing position {u} disconnected S")
            lev[w] = old + 1
            count = 0
            for x in nbr[ptr[w]:ptr[w + 1]]:
                if alive[x]:
                    if lev[x] == old:
                        count += 1
                    elif lev[x] == old + 1:  # w was one of x's parents
                        pc[x] -= 1
                        if not pc[x]:
                            orphans.append(x)
            pc[w] = count
            if not count:
                orphans.append(w)


def nca_queue(
    g: LocalGraph, queries: Iterable[int], scorer: str = "dmg", measure: str = "dm"
) -> Optional[Tuple[PeelState, RemovalQueue, Callable[[np.ndarray], np.ndarray]]]:
    """NCA's start: the ``PeelState`` over the component of Q, its
    ``RemovalQueue`` in degree classes and the score of the class tops;
    None where Q has no connected community."""
    found = g.query_bfs(queries)
    if found is None:
        return None
    qs, order, bounds = found
    csr = g.csr()
    qpos = csr.positions(qs)
    lev = csr.levels(order, bounds)  # from qs[0], over the component
    if len(qs) > 1:  # distances from the nearest query node
        order, bounds = csr.bfs(qpos)
    state = PeelState(g, csr.ids[order], measure)
    # Positions are in id order, so the key (score, dist, id) becomes
    # (score, dist·n + position).
    tie = csr.levels(order, bounds) * csr.n + np.arange(csr.n)
    queue = RemovalQueue(state, qpos, csr.deg, tie, lev)
    deg = queue.cval
    if scorer == "dmg":  # Λ: exact integers in float64
        return state, queue, lambda k: dm_gain(k, state.d, deg, state.m)
    # NCA-DR: Θ = density_ratio(deg, k)
    return state, queue, lambda k: np.where(k > 0, deg / np.where(k > 0, k, 1), np.inf)


def nca(
    g: LocalGraph,
    queries: Iterable[int],
    *,
    scorer: str = "dmg",
    measure: str = "dm",
    time_budget: float | None = None,
) -> Optional[Set[int]]:
    found = nca_queue(g, queries, scorer, measure)
    if found is None:
        return None
    state, queue, score = found
    t0 = time.monotonic()
    while True:
        if time_budget is not None and time.monotonic() - t0 > time_budget:
            break
        if (u := queue.best(score)) is None:
            break  # every candidate left is an articulation point
        queue.remove(u)
    return state.best()


def nca_dr(g: LocalGraph, queries: Iterable[int], **kw) -> Optional[Set[int]]:
    """NCA with the density-ratio scorer ((a)+(d) in Figure 3/14)."""
    return nca(g, queries, scorer="ratio", **kw)
