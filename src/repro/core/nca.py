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
  a step compares only the top of each class.
* **Key.** Each class top c has an exact integer key
  ``slope_c·d_S + icpt_c`` that orders the tops as (score, then the
  larger tie) does: the score part is an integer that orders the tops
  as the float score does (Λ itself; ⌊d·D²/k⌋ for Θ), times n, plus
  n − 1 − rank, rank 0 being the largest tie. Two distinct fractions
  d/k, d'/k' with k, k' < D differ by at least 1/(k·k') > 1/D², so
  their scaled floors differ, and equal ones (2/1, 4/2) have equal
  floors. ``icpt_c`` changes only where the top of c does, so a step is
  one multiply-add and one argmax over the classes, and keys never tie.
  The keys are int64 while their bound fits, Python ints otherwise.
* **Search.** ``lev`` is the BFS level from the first query node inside
  S and ``pc[w]`` counts w's neighbours in S one level down; both are
  kept decrementally after each removal (a node left with no parent
  moves one level down, as in the decremental BFS tree of Even &
  Shiloach, JACM 1981). u's *critical* children are its neighbours in S
  one level below with ``pc == 1``. A node is *safe* if it is at level
  ≤ lev[u] other than u, or at level lev[u]+1 and not critical: each
  reaches the root in S − u by parent steps, which only go down a level
  and so never meet u, the second kind through a parent other than u.
  :meth:`RemovalQueue.removable` searches S − u from each critical child
  until it meets a safe node or a node an earlier search connected to
  one. S − u is connected exactly when every search succeeds: any node
  x of S − u walks its parent chain towards the root, and if the chain
  meets u, the node before u is a child of u, safe or critical, reached
  from x without u; conversely, a search that runs out has found a
  component of S − u without the root, which proves that u cuts S.
  Such a u is parked. Say v cuts S, and u ≠ v leaves with S − u
  connected: v still cuts S − u unless {u} was a whole component of
  S − v, that is, u's one neighbour in S was v. So a parked node
  returns to its queue only when its one pendant neighbour leaves.

S is connected at every step, so the node removed is the argmax over
the non-articulation nodes, as in the paper, without the articulation
set. ``PeelState`` keeps the incumbent (Algorithm 1's best S) as a
prefix of its removal log and rebuilds it once at the end. Everything
is on CSR positions (``LocalGraph.csr``); wu2015 runs the same start
(:func:`query_start`) and queue with BFS-distance classes, and FPA-DMG
drains each of its layers with the queue.

``scorer="ratio"`` gives the NCA-DR variant ((a)+(d), Figure 14). NCA
peels until no candidate is left. It has no time budget: the paper needs
one for its Tarjan pass per removal, but with the queue the slowest
Figure 11 query (n = 20K) takes 0.31 s on a 4-core VM, and a budget
would only make the answer depend on the host's speed.
"""
from __future__ import annotations

import heapq
from typing import Callable, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..graphs.local import LocalGraph
from .peel import PeelState

# (slope, base): the exact score of a class top with class value v and
# k_{v,S} = k is slope(v)·d_S + base(v, k), both integers.
Key = Tuple[Callable[[int], int], Callable[[int, int], int]]


def dmg_key(m: int) -> Key:
    """Λ = 2·d_v·d_S − d_v² − 4m·k_{v,S}, an integer already."""
    return (lambda d: 2 * d), (lambda d, k: -d * d - 4 * m * k)


def ratio_key(dmax: int) -> Key:
    """Θ = d_v/k_{v,S} as ⌊d_v·D²/k⌋ with D = dmax + 1 > k, and Θ = ∞
    (k = 0) as D³, above every finite value."""
    D = dmax + 1
    return (lambda d: 0), (lambda d, k: d * D * D // k if k else D ** 3)


def key_dtype(bound: int):
    """int64 while every key fits in it, those of empty classes (between
    -3·bound and -bound) too; Python ints (object) otherwise."""
    return np.int64 if 3 * bound < 2 ** 63 else object


class RemovalQueue:
    """The removable nodes of a connected ``PeelState`` S, best first.

    ``fixed`` are the positions never removed (Q); ``fixed[0]`` roots the
    BFS levels ``lev`` (levels from it over S, -1 elsewhere). Candidates
    are grouped by their ``cls`` value, which must not change, and each
    class is ordered by (k_{v,S}, then the largest ``tie``); ``tie`` is
    distinct per position. ``key`` scores a class top from its class
    value and k; the score must fall as k grows within a class.
    Candidates confined to the farthest level of S (FPA-DMG's layers)
    have no child in S, so no removal searches and ``lev`` need not be
    rooted at one node: the seed's multi-source BFS levels serve.
    """

    __slots__ = ("state", "n", "cid", "value", "base", "heaps", "byrank", "rank",
                 "toprank", "slope", "icpt", "key", "bound", "parked", "lev", "pc")

    def __init__(self, state: PeelState, fixed: np.ndarray, cls: np.ndarray,
                 tie: np.ndarray, lev: np.ndarray, key: Key) -> None:
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
        cval, cid = np.unique(cls[cand], return_inverse=True)
        full = np.full(n, -1, dtype=np.int64)  # -1: never a candidate
        full[cand] = cid
        self.cid = full.tolist()
        kc = state.k_array()[cand]
        ent = kc * n + rank[cand]
        srt = np.lexsort((ent, cid))  # a sorted list is a heap
        cuts = np.searchsorted(cid[srt], np.arange(1, len(cval)))
        self.heaps: List[List[int]] = [h.tolist() for h in np.split(ent[srt], cuts)] if cand.size else []
        # |key| < bound: slope·d_S only falls and base is monotone in k,
        # which only falls, from at most max k to at least 0
        slope, self.base = key
        self.value = vals = cval.tolist()
        kmax = int(kc.max()) if cand.size else 0
        self.bound = n * (1 + max((abs(slope(v)) * state.d for v in vals), default=0)
                          + max((abs(self.base(v, k)) for v in vals for k in (0, kmax)), default=0))
        dtype = key_dtype(self.bound)
        self.slope = np.array([slope(v) * n for v in vals], dtype=dtype)
        self.icpt = np.zeros(len(vals), dtype=dtype)
        self.key = np.zeros(len(vals), dtype=dtype)
        self.toprank = [0] * len(vals)
        for c, h in enumerate(self.heaps):
            self._top(c, h[0])
        self.lev = lev.tolist()
        # pc[w]: w's neighbours in S one level down (0 outside S)
        rows = np.flatnonzero(alive)
        own = np.repeat(rows, csr.deg[rows])
        nb = csr.neighbours(rows)
        up = alive[nb] & (lev[nb] == lev[own] - 1)
        self.pc = np.bincount(own[up], minlength=n).tolist()

    def best(self) -> Optional[int]:
        """The best candidate whose removal leaves S connected, or None.
        Candidates found to cut S are parked on the way."""
        key = self.key
        while len(key):
            np.multiply(self.slope, self.state.d, out=key)
            key += self.icpt
            c = int(key.argmax())
            if key[c] <= -self.bound:  # every class is empty
                return None
            u = self.byrank[self.toprank[c]]
            if self.removable(u):
                return u
            self.parked[u] = 1
            self._retop(c)
        return None

    def critical(self, u: int) -> List[int]:
        """u's neighbours in S one level down with u as their only parent."""
        csr, alive, lev, pc = self.state.csr, self.state.S.mask, self.lev, self.pc
        ptr = csr.py_indptr
        below = lev[u] + 1
        return [w for w in csr.py_indices[ptr[u]:ptr[u + 1]]
                if alive[w] and lev[w] == below and pc[w] == 1]

    def removable(self, u: int) -> bool:
        """Whether S - {u} is connected, for u in S other than the root:
        a search from each critical child of u reaches a safe node
        (module docstring)."""
        crit = self.critical(u)
        critical = set(crit)
        safe: Set[int] = set()  # connected to a safe node in S - u
        for w in crit:
            if w not in safe:
                seen = self._reach(u, w, critical, safe)
                if seen is None:
                    return False  # w's component of S - u misses the root
                safe |= seen
        return True

    def _reach(self, u: int, w: int, critical: Set[int], safe: Set[int]) -> Optional[Set[int]]:
        """Search S - u from w, a critical child of u: the nodes visited
        before a safe node or one of ``safe`` was met, or None if the
        search ran out."""
        csr, alive, lev = self.state.csr, self.state.S.mask, self.lev
        ptr, nbr = csr.py_indptr, csr.py_indices
        below = lev[u] + 1
        seen = {u, w}  # u first, so that no search enters it
        frontier = [w]
        for x in frontier:  # grows as it is walked: a BFS
            for y in nbr[ptr[x]:ptr[x + 1]]:
                if y in seen or not alive[y]:
                    continue
                if lev[y] < below or (lev[y] == below and y not in critical) or y in safe:
                    return seen
                seen.add(y)
                frontier.append(y)
        return None

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
                    self._top(c, e)
        self._retop(cid[u])
        self._relevel(u, changed)

    def _top(self, c: int, e: int) -> None:
        """Make the heap entry ``e`` the top of class ``c`` and key it."""
        k, r = divmod(e, self.n)
        self.toprank[c] = r
        self.icpt[c] = self.base(self.value[c], k) * self.n + (self.n - 1 - r)

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
                self._top(c, h[0])
                return
            heapq.heappop(h)
        self.icpt[c] = -2 * self.bound  # below every key, whatever d_S

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


def query_start(
    g: LocalGraph, queries: Iterable[int], measure: str
) -> Optional[Tuple[PeelState, np.ndarray, np.ndarray, np.ndarray]]:
    """The start of a connected peel of the component of Q, shared by NCA
    and wu2015: its ``PeelState``, Q's positions, the BFS levels from the
    first query node (``RemovalQueue``'s ``lev``) and the distance of
    every position from the nearest query node (-1 outside the
    component); None where Q has no connected community."""
    found = g.query_bfs(queries)
    if found is None:
        return None
    qs, order, bounds = found
    csr = g.csr()
    qpos = csr.positions(qs)
    lev = csr.levels(order, bounds)  # from qs[0], over the component
    if len(qs) > 1:  # distances from the nearest query node
        order, bounds = csr.bfs(qpos)
    return PeelState(g, csr.ids[order], measure), qpos, lev, csr.levels(order, bounds)


def nca_queue(
    g: LocalGraph, queries: Iterable[int], scorer: str = "dmg", measure: str = "dm"
) -> Optional[Tuple[PeelState, RemovalQueue]]:
    """NCA's start: the ``PeelState`` over the component of Q and its
    ``RemovalQueue`` in degree classes, keyed by Λ or Θ; None where Q
    has no connected community."""
    found = query_start(g, queries, measure)
    if found is None:
        return None
    state, qpos, lev, dist = found
    csr = state.csr
    # Positions are in id order, so the key (score, dist, id) becomes
    # (score, dist·n + position).
    tie = dist * csr.n + np.arange(csr.n)
    key = dmg_key(g.m) if scorer == "dmg" else ratio_key(int(csr.deg.max()))
    return state, RemovalQueue(state, qpos, csr.deg, tie, lev, key)


def nca(
    g: LocalGraph, queries: Iterable[int], *, scorer: str = "dmg", measure: str = "dm"
) -> Optional[Set[int]]:
    found = nca_queue(g, queries, scorer, measure)
    if found is None:
        return None
    state, queue = found
    while (u := queue.best()) is not None:  # None: every candidate left cuts S
        queue.remove(u)
    return state.best()
