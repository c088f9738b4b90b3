"""Sequential graph kernel used by the peeling algorithms.

The DMCS algorithms (NCA/FPA) remove one node at a time — an inherently
sequential loop. Every algorithm and baseline runs on this graph, global
phase (components, BFS layers, degrees) included; ``repro.graphs.localops``
builds the core/truss indices on it. The Spark ``Graph`` can be collected
into one with :meth:`repro.graphs.graph.Graph.to_local`.

``LocalGraph`` is an undirected simple graph over integer node ids. It is
stored as a dynamic adjacency (dict of sets), which the mutating
baselines edit, and read through a cached, read-only CSR view
(:class:`CSR`, from :meth:`LocalGraph.csr`): node ids sorted into dense
positions 0..n-1, ``indptr``/``indices`` arrays and degrees. The view is
built on first use and dropped by every mutation. The peel kernel
(``repro.core.peel``) keeps S, ``k_{v,S}`` and its removal log as flat
arrays over these positions. The graph hosts the classic sequential
primitives the paper relies on:

* level-synchronous numpy BFS over the CSR: multi-source distances and
  layers, components, the component of a query set,
* Tarjan articulation points / bridges (DFS-tree, iterative — no Python
  recursion-limit issues on large graphs),
* Brandes betweenness (edge and node) for the GN baseline / case study,
* Bron–Kerbosch maximal cliques (pivoting) for the clique baseline,
* Stoer–Wagner global min cut for the exact k-ECC baseline,
* power-iteration eigenvector centrality for the case study.
"""
from __future__ import annotations

from array import array
from collections import deque
from itertools import chain
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple,
)

import numpy as np


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` over the pairs (s, l)."""
    offsets = np.cumsum(lens) - lens  # where each range starts in the output
    return np.repeat(starts - offsets, lens) + np.arange(int(lens.sum()))


def _shared(typecode: str, values: np.ndarray, dtype) -> Tuple[array, np.ndarray]:
    """``values`` as an ``array.array`` and a read-only numpy view of the
    same buffer: the first indexes fast from a Python loop, the second
    serves the vectorised passes."""
    buf = array(typecode)
    buf.frombytes(np.ascontiguousarray(values, dtype=dtype).tobytes())
    view = np.frombuffer(buf, dtype=dtype)
    view.flags.writeable = False
    return buf, view


class CSR:
    """Read-only compressed sparse row view of a :class:`LocalGraph`.

    Position ``i`` (0..n-1) holds node ``ids[i]``; ids are sorted, so
    position order is id order. The neighbour positions of ``i`` are
    ``indices[indptr[i]:indptr[i + 1]]`` and its degree is ``deg[i]``.
    ``py_indptr``, ``py_indices`` and ``py_deg`` are the same buffers as
    ``array.array`` objects, for Python loops. When the ids are already
    0..n-1 (``identity``), a node's position is its id.
    """

    __slots__ = ("ids", "identity", "indptr", "indices", "deg",
                 "py_indptr", "py_indices", "py_deg")

    def __init__(self, adj: Dict[int, Set[int]]) -> None:
        keys = sorted(adj)
        n = len(keys)
        self.ids = np.array(keys, dtype=np.int64)
        self.identity = n == 0 or (keys[0] == 0 and keys[-1] == n - 1)
        rows = list(map(adj.__getitem__, keys))
        deg = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        nbrs = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(deg.sum()))
        if not self.identity:
            nbrs = np.searchsorted(self.ids, nbrs)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        self.py_indptr, self.indptr = _shared("q", indptr, np.int64)
        self.py_indices, self.indices = _shared("i", nbrs, np.int32)
        self.py_deg, self.deg = _shared("q", deg, np.int64)

    @property
    def n(self) -> int:
        return len(self.ids)

    def positions(self, nodes: Iterable[int]) -> np.ndarray:
        """Positions of the node ids ``nodes``; KeyError on an unknown id."""
        arr = (nodes if isinstance(nodes, np.ndarray)
               else np.fromiter(nodes, dtype=np.int64)).astype(np.int64, copy=False)
        if self.identity:
            pos = arr
            bad = (pos < 0) | (pos >= self.n)
        else:  # n >= 1 here: an empty graph is the identity
            pos = np.minimum(np.searchsorted(self.ids, arr), self.n - 1)
            bad = self.ids[pos] != arr
        if bad.any():
            raise KeyError(f"nodes not in graph: {arr[bad][:5].tolist()}")
        return pos

    def neighbours(self, rows: np.ndarray) -> np.ndarray:
        """The neighbour positions of ``rows``, row after row."""
        return self.indices[_ranges(self.indptr[rows], self.deg[rows])]

    def bfs(self, sources: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Level-synchronous BFS from the positions ``sources``.

        Returns ``(order, bounds)``: the reached positions level by level,
        level ``i`` being ``order[bounds[i]:bounds[i + 1]]``, sorted within
        each level. ``bounds`` has one entry more than there are levels.
        """
        seen = np.zeros(self.n, dtype=bool)
        frontier = np.unique(np.asarray(sources, dtype=np.int64))
        levels: List[np.ndarray] = []
        while frontier.size:
            seen[frontier] = True
            levels.append(frontier)
            # a mask dedupes and sorts the next level without a sort
            fresh = np.zeros(self.n, dtype=bool)
            fresh[self.neighbours(frontier)] = True
            fresh[seen] = False
            frontier = np.flatnonzero(fresh)
        bounds = np.zeros(len(levels) + 1, dtype=np.int64)
        bounds[1:] = np.cumsum([len(x) for x in levels], dtype=np.int64)
        order = np.concatenate(levels) if levels else np.zeros(0, dtype=np.int64)
        return order, bounds

    def levels(self, order: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """BFS level of every position from a :meth:`bfs` result; -1 if unreached."""
        lev = np.full(self.n, -1, dtype=np.int64)
        lev[order] = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        return lev


class LocalGraph:
    """Undirected simple graph with dynamic adjacency.

    Self-loops are dropped and parallel edges are collapsed at
    construction, matching the canonicalization of the Spark ``Graph``.
    """

    __slots__ = ("adj", "m", "_csr")

    def __init__(self) -> None:
        self.adj: Dict[int, Set[int]] = {}
        self.m: int = 0  # number of undirected edges
        self._csr: Optional[CSR] = None

    # ---------------------------------------------------------- construction
    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[int, int]], nodes: Iterable[int] = ()
    ) -> "LocalGraph":
        g = cls()
        for v in nodes:
            g.add_node(int(v))
        for u, v in edges:
            g.add_edge(int(u), int(v))
        return g

    @classmethod
    def from_arrays(
        cls, src: np.ndarray, dst: np.ndarray, nodes: Iterable[int] = ()
    ) -> "LocalGraph":
        return cls.from_edges(zip(src.tolist(), dst.tolist()), nodes)

    def copy(self) -> "LocalGraph":
        g = LocalGraph()
        g.adj = {v: set(nbrs) for v, nbrs in self.adj.items()}
        g.m = self.m
        return g

    # ------------------------------------------------------------- mutation
    # Every change drops the CSR view; the next read rebuilds it.
    def add_node(self, v: int) -> None:
        if v not in self.adj:
            self.adj[v] = set()
            self._csr = None

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            return
        self.add_node(u)
        self.add_node(v)
        if v not in self.adj[u]:
            self.adj[u].add(v)
            self.adj[v].add(u)
            self.m += 1
            self._csr = None

    def remove_edge(self, u: int, v: int) -> None:
        if v in self.adj.get(u, ()):
            self.adj[u].discard(v)
            self.adj[v].discard(u)
            self.m -= 1
            self._csr = None

    def remove_node(self, v: int) -> None:
        if v not in self.adj:
            return
        for u in self.adj.pop(v):
            self.adj[u].discard(v)
            self.m -= 1
        self._csr = None

    def csr(self) -> CSR:
        """The read-only CSR view, built on first use after a mutation."""
        if self._csr is None:
            self._csr = CSR(self.adj)
        return self._csr

    # -------------------------------------------------------------- queries
    @property
    def n(self) -> int:
        return len(self.adj)

    def __contains__(self, v: int) -> bool:
        return v in self.adj

    def nodes(self) -> List[int]:
        return list(self.adj)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Canonical (u < v) edge iterator."""
        for u, nbrs in self.adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> Dict[int, int]:
        return {v: len(nbrs) for v, nbrs in self.adj.items()}

    def subgraph(self, nodes: Iterable[int]) -> "LocalGraph":
        keep = set(nodes)
        g = LocalGraph()
        for v in keep:
            if v in self.adj:
                g.add_node(v)
        for v in g.adj:
            for u in self.adj[v]:
                if u in keep:
                    g.add_edge(v, u)
        return g

    def internal_edges(self, nodes: Iterable[int]) -> int:
        """Number of edges of this graph with both endpoints in ``nodes``."""
        keep = set(nodes)
        cnt = 0
        for v in keep:
            if v in self.adj:
                for u in self.adj[v]:
                    if u in keep and u > v:
                        cnt += 1
        return cnt

    # ------------------------------------------------------------ traversal
    def _bfs(self, sources: Iterable[int]) -> Tuple[np.ndarray, np.ndarray]:
        """CSR BFS from the sources that are in the graph."""
        csr = self.csr()
        return csr.bfs(csr.positions([s for s in sources if s in self.adj]))

    def bfs_dist(self, sources: Iterable[int]) -> Dict[int, int]:
        """Shortest unweighted distance from the nearest source.

        Unreachable nodes are absent from the result.
        """
        order, bounds = self._bfs(sources)
        csr = self.csr()
        return dict(zip(csr.ids[order].tolist(), csr.levels(order, bounds)[order].tolist()))

    def bfs_layers(self, sources: Iterable[int]) -> List[List[int]]:
        """Nodes grouped by BFS distance; ``layers[i]`` is distance ``i``,
        sorted by id."""
        order, bounds = self._bfs(sources)
        ids = self.csr().ids[order].tolist()
        return [ids[a:b] for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]

    def connected_component(self, seed: int) -> Set[int]:
        order, _ = self._bfs([seed])
        return set(self.csr().ids[order].tolist())

    def component_where(self, seed: int, keep: Callable[[int, int], bool]) -> Set[int]:
        """Nodes reachable from ``seed`` along edges (v, u) with ``keep(v, u)``:
        the component of ``seed`` in a filtered graph, without copying it."""
        comp = {seed}
        stack = [seed]
        while stack:
            v = stack.pop()
            for u in self.adj[v]:
                if u not in comp and keep(v, u):
                    comp.add(u)
                    stack.append(u)
        return comp

    def query_nodes(self, queries: Iterable[int]) -> Optional[List[int]]:
        """Sorted distinct query nodes; None when Q is empty or names a
        node not in the graph."""
        qs = sorted(set(int(q) for q in queries))
        if not qs or any(q not in self.adj for q in qs):
            return None
        return qs

    def query_bfs(
        self, queries: Iterable[int]
    ) -> Optional[Tuple[List[int], np.ndarray, np.ndarray]]:
        """Sorted distinct query nodes and the CSR BFS (``order``,
        ``bounds``, as :meth:`CSR.bfs`) from the smallest of them, whose
        ``order`` is the component holding Q.

        None when :meth:`query_nodes` rejects Q or Q spans more than one
        component: no connected community contains such a Q.
        """
        qs = self.query_nodes(queries)
        if qs is None:
            return None
        csr = self.csr()
        order, bounds = csr.bfs(csr.positions(qs[:1]))
        if len(qs) > 1:
            seen = np.zeros(csr.n, dtype=bool)
            seen[order] = True
            if not seen[csr.positions(qs)].all():
                return None
        return qs, order, bounds

    def query_component(
        self, queries: Iterable[int]
    ) -> Optional[Tuple[List[int], Set[int]]]:
        """Sorted distinct query nodes and the component holding them all;
        None where :meth:`query_bfs` is."""
        found = self.query_bfs(queries)
        if found is None:
            return None
        qs, order, _ = found
        return qs, set(self.csr().ids[order].tolist())

    def connected_components(self) -> List[Set[int]]:
        seen: Set[int] = set()
        comps: List[Set[int]] = []
        for v in self.adj:
            if v not in seen:
                c = self.connected_component(v)
                seen |= c
                comps.append(c)
        return comps

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return len(self.connected_component(next(iter(self.adj)))) == self.n

    # ----------------------------------------------- articulation / bridges
    def articulation_points(self) -> Set[int]:
        """Articulation nodes via iterative Tarjan DFS-tree (paper §5.2.1)."""
        return self._low_link()[0]

    def bridges(self) -> List[Tuple[int, int]]:
        """Bridge edges, from the same DFS low-link pass."""
        return self._low_link()[1]

    def _low_link(self) -> Tuple[Set[int], List[Tuple[int, int]]]:
        """(articulation points, bridges) from one iterative Tarjan DFS.

        The graph is simple, so a tree edge's parent is the one neighbour
        whose back edge does not count toward ``low``.
        """
        disc: Dict[int, int] = {}
        low: Dict[int, int] = {}
        parent: Dict[int, int] = {}
        aps: Set[int] = set()
        bridges: List[Tuple[int, int]] = []
        timer = 0
        for root in self.adj:
            if root in disc:
                continue
            root_children = 0
            # stack of (node, iterator over neighbors)
            disc[root] = low[root] = timer
            timer += 1
            stack: List[Tuple[int, Iterator[int]]] = [(root, iter(self.adj[root]))]
            while stack:
                v, it = stack[-1]
                advanced = False
                for u in it:
                    if u not in disc:
                        parent[u] = v
                        if v == root:
                            root_children += 1
                        disc[u] = low[u] = timer
                        timer += 1
                        stack.append((u, iter(self.adj[u])))
                        advanced = True
                        break
                    elif u != parent.get(v):
                        if disc[u] < low[v]:
                            low[v] = disc[u]
                if not advanced:
                    stack.pop()
                    p = parent.get(v)
                    if p is not None:
                        if low[v] < low[p]:
                            low[p] = low[v]
                        if p != root and low[v] >= disc[p]:
                            aps.add(p)
                        if low[v] > disc[p]:
                            bridges.append((min(p, v), max(p, v)))
            if root_children >= 2:
                aps.add(root)
        return aps, bridges

    # ----------------------------------------------------------- centrality
    def edge_betweenness(self) -> Dict[Tuple[int, int], float]:
        """Brandes edge betweenness (unnormalized, undirected halves summed).

        Used by the GN divisive baseline. O(|V||E|).
        """
        bet: Dict[Tuple[int, int], float] = {e: 0.0 for e in self.edges()}
        for s in self.adj:
            stack, preds, sigma, dist = self._brandes_sssp(s)
            delta = {v: 0.0 for v in sigma}
            while stack:
                w = stack.pop()
                for v in preds[w]:
                    c = sigma[v] / sigma[w] * (1.0 + delta[w])
                    e = (v, w) if v < w else (w, v)
                    bet[e] += c
                    delta[v] += c
        # each unordered pair counted from both endpoints
        return {e: b / 2.0 for e, b in bet.items()}

    def node_betweenness(self) -> Dict[int, float]:
        """Brandes node betweenness (unnormalized)."""
        bet = {v: 0.0 for v in self.adj}
        for s in self.adj:
            stack, preds, sigma, dist = self._brandes_sssp(s)
            delta = {v: 0.0 for v in sigma}
            while stack:
                w = stack.pop()
                for v in preds[w]:
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
                if w != s:
                    bet[w] += delta[w]
        return {v: b / 2.0 for v, b in bet.items()}

    def _brandes_sssp(self, s: int):
        stack: List[int] = []
        preds: Dict[int, List[int]] = {v: [] for v in self.adj}
        sigma: Dict[int, float] = {v: 0.0 for v in self.adj}
        dist: Dict[int, int] = {}
        sigma[s] = 1.0
        dist[s] = 0
        q: deque[int] = deque([s])
        while q:
            v = q.popleft()
            stack.append(v)
            for u in self.adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    q.append(u)
                if dist[u] == dist[v] + 1:
                    sigma[u] += sigma[v]
                    preds[u].append(v)
        return stack, preds, sigma, dist

    def eigenvector_centrality(
        self, max_iter: int = 200, tol: float = 1e-8
    ) -> Dict[int, float]:
        """Power-iteration eigenvector centrality (case study §6.3.2)."""
        nodes = sorted(self.adj)
        idx = {v: i for i, v in enumerate(nodes)}
        x = np.full(len(nodes), 1.0 / max(1, len(nodes)))
        for _ in range(max_iter):
            nxt = np.zeros_like(x)
            for v in nodes:
                i = idx[v]
                for u in self.adj[v]:
                    nxt[idx[u]] += x[i]
            norm = np.linalg.norm(nxt)
            if norm == 0:
                break
            nxt /= norm
            if np.abs(nxt - x).sum() < tol:
                x = nxt
                break
            x = nxt
        return {v: float(x[idx[v]]) for v in nodes}

    # -------------------------------------------------------------- cliques
    def maximal_cliques(self) -> Iterator[FrozenSet[int]]:
        """Bron–Kerbosch with pivoting (iterative), yields maximal cliques."""
        adj = self.adj
        # stack frames: (R, P, X)
        stack: List[Tuple[Set[int], Set[int], Set[int]]] = [
            (set(), set(adj), set())
        ]
        while stack:
            r, p, x = stack.pop()
            if not p and not x:
                if r:
                    yield frozenset(r)
                continue
            # pivot u maximizing |P ∩ N(u)|
            pivot = max(p | x, key=lambda u: len(p & adj[u]))
            for v in list(p - adj[pivot]):
                stack.append((r | {v}, p & adj[v], x & adj[v]))
                p.discard(v)
                x.add(v)
        return

    # -------------------------------------------------------------- min cut
    def stoer_wagner(self) -> Tuple[float, Set[int]]:
        """Global min cut of a connected graph (unit edge weights).

        Returns ``(cut_weight, one_side)``. O(|V|³) dict implementation —
        used only for exact k-ECC on small graphs.
        """
        if self.n < 2:
            raise ValueError("min cut needs at least 2 nodes")
        # contractible weighted graph: node -> {nbr: weight}
        w: Dict[int, Dict[int, float]] = {
            v: {u: 1.0 for u in nbrs} for v, nbrs in self.adj.items()
        }
        merged: Dict[int, Set[int]] = {v: {v} for v in self.adj}
        best = (float("inf"), set())
        while len(w) > 1:
            # maximum adjacency (minimum cut phase)
            a = next(iter(w))
            in_a = {a}
            weights = dict(w[a])
            order = [a]
            while len(in_a) < len(w):
                z = max((v for v in w if v not in in_a), key=lambda v: weights.get(v, 0.0))
                in_a.add(z)
                order.append(z)
                for u, wt in w[z].items():
                    if u not in in_a:
                        weights[u] = weights.get(u, 0.0) + wt
            t = order[-1]
            s = order[-2]
            cut_of_phase = sum(w[t].values())
            if cut_of_phase < best[0]:
                best = (cut_of_phase, set(merged[t]))
            # merge t into s
            for u, wt in w[t].items():
                if u == s:
                    continue
                w[s][u] = w[s].get(u, 0.0) + wt
                w[u][s] = w[u].get(s, 0.0) + wt
                del w[u][t]
            w[s].pop(t, None)
            del w[t]
            merged[s] |= merged[t]
            del merged[t]
        return best
