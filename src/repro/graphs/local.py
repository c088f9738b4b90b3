"""Sequential graph kernel used by the peeling algorithms.

The DMCS algorithms (NCA/FPA) remove one node at a time — an inherently
sequential loop. Every algorithm and baseline runs on this graph, global
phase (components, BFS layers, degrees) included; ``repro.graphs.localops``
builds the core/truss indices on it. The Spark ``Graph`` can be collected
into one with :meth:`repro.graphs.graph.Graph.to_local`.

``LocalGraph`` is an undirected simple graph over integer node ids with a
dynamic adjacency (dict of sets). It hosts the classic sequential
primitives the paper relies on:

* Tarjan articulation points / bridges (DFS-tree, iterative — no Python
  recursion-limit issues on large graphs),
* multi-source BFS distances and layers,
* Brandes betweenness (edge and node) for the GN baseline / case study,
* Bron–Kerbosch maximal cliques (pivoting) for the clique baseline,
* Stoer–Wagner global min cut for the exact k-ECC baseline,
* power-iteration eigenvector centrality for the case study.
"""
from __future__ import annotations

from collections import deque
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

import numpy as np


class LocalGraph:
    """Undirected simple graph with dynamic adjacency.

    Self-loops are dropped and parallel edges are collapsed at
    construction, matching the canonicalization of the Spark ``Graph``.
    """

    __slots__ = ("adj", "m")

    def __init__(self) -> None:
        self.adj: Dict[int, Set[int]] = {}
        self.m: int = 0  # number of undirected edges

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
    def add_node(self, v: int) -> None:
        self.adj.setdefault(v, set())

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            return
        self.add_node(u)
        self.add_node(v)
        if v not in self.adj[u]:
            self.adj[u].add(v)
            self.adj[v].add(u)
            self.m += 1

    def remove_edge(self, u: int, v: int) -> None:
        if v in self.adj.get(u, ()):
            self.adj[u].discard(v)
            self.adj[v].discard(u)
            self.m -= 1

    def remove_node(self, v: int) -> None:
        for u in list(self.adj.get(v, ())):
            self.adj[u].discard(v)
            self.m -= 1
        self.adj.pop(v, None)

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
    def bfs_dist(self, sources: Iterable[int]) -> Dict[int, int]:
        """Shortest unweighted distance from the nearest source.

        Unreachable nodes are absent from the result.
        """
        dist: Dict[int, int] = {}
        q: deque[int] = deque()
        for s in sources:
            if s in self.adj and s not in dist:
                dist[s] = 0
                q.append(s)
        while q:
            v = q.popleft()
            d = dist[v] + 1
            for u in self.adj[v]:
                if u not in dist:
                    dist[u] = d
                    q.append(u)
        return dist

    def bfs_layers(self, sources: Iterable[int]) -> List[List[int]]:
        """Nodes grouped by BFS distance; ``layers[i]`` is distance ``i``."""
        dist = self.bfs_dist(sources)
        if not dist:
            return []
        layers: List[List[int]] = [[] for _ in range(max(dist.values()) + 1)]
        for v, d in dist.items():
            layers[d].append(v)
        return layers

    def connected_component(self, seed: int) -> Set[int]:
        return set(self.bfs_dist([seed]))

    def query_nodes(self, queries: Iterable[int]) -> Optional[List[int]]:
        """Sorted distinct query nodes; None when Q is empty or names a
        node not in the graph."""
        qs = sorted(set(int(q) for q in queries))
        if not qs or any(q not in self.adj for q in qs):
            return None
        return qs

    def query_component(
        self, queries: Iterable[int]
    ) -> Optional[Tuple[List[int], Set[int]]]:
        """Sorted distinct query nodes and the component holding them all.

        None when :meth:`query_nodes` rejects Q or Q spans more than one
        component: no connected community contains such a Q.
        """
        qs = self.query_nodes(queries)
        if qs is None:
            return None
        comp = self.connected_component(qs[0])
        if any(q not in comp for q in qs):
            return None
        return qs, comp

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
        disc: Dict[int, int] = {}
        low: Dict[int, int] = {}
        parent: Dict[int, int] = {}
        aps: Set[int] = set()
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
            if root_children >= 2:
                aps.add(root)
        return aps

    def bridges(self) -> List[Tuple[int, int]]:
        """Bridge edges via the same iterative DFS low-link computation."""
        disc: Dict[int, int] = {}
        low: Dict[int, int] = {}
        parent: Dict[int, int] = {}
        out: List[Tuple[int, int]] = []
        timer = 0
        for root in self.adj:
            if root in disc:
                continue
            disc[root] = low[root] = timer
            timer += 1
            stack: List[Tuple[int, Iterator[int]]] = [(root, iter(self.adj[root]))]
            # a parallel-edge-free graph: skip exactly one tree-parent visit
            skipped: Set[int] = set()
            while stack:
                v, it = stack[-1]
                advanced = False
                for u in it:
                    if u == parent.get(v) and v not in skipped:
                        skipped.add(v)
                        continue
                    if u not in disc:
                        parent[u] = v
                        disc[u] = low[u] = timer
                        timer += 1
                        stack.append((u, iter(self.adj[u])))
                        advanced = True
                        break
                    if disc[u] < low[v]:
                        low[v] = disc[u]
                if not advanced:
                    stack.pop()
                    p = parent.get(v)
                    if p is not None:
                        if low[v] < low[p]:
                            low[p] = low[v]
                        if low[v] > disc[p]:
                            out.append((min(p, v), max(p, v)))
        return out

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
