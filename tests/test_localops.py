"""Sequential decomposition mirrors vs networkx references."""
import heapq

import networkx as nx
import pytest

from repro.gendata.classic import karate, ring_of_cliques
from repro.graphs import localops
from repro.graphs.kecc import kecc, kecc_exact, kecc_superset
from repro.graphs.local import LocalGraph

from .util import GNP_CASES, random_local_graph, to_nx


class TestCoreNumbers:
    @pytest.mark.parametrize("n,p,seed", GNP_CASES)
    def test_vs_networkx(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        assert localops.core_numbers(g) == nx.core_number(to_nx(g))

    def test_karate(self):
        g, _ = karate()
        assert localops.core_numbers(g) == nx.core_number(to_nx(g))

    def test_k_core_subgraph(self):
        g, _ = karate()
        ours = sorted(localops.k_core(g, 3).adj)
        assert ours == sorted(nx.k_core(to_nx(g), 3).nodes())

    def test_clique_core(self):
        g = random_local_graph(6, 1.1, 0)  # complete K6
        assert set(localops.core_numbers(g).values()) == {5}


class TestTrussNumbers:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_k_truss_vs_networkx_karate(self, k):
        g, _ = karate()
        ours = sorted(localops.k_truss(g, k).edges())
        theirs = sorted(
            (min(u, v), max(u, v)) for u, v in nx.k_truss(to_nx(g), k).edges()
        )
        assert ours == theirs

    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:5])
    @pytest.mark.parametrize("k", [3, 4])
    def test_k_truss_vs_networkx_random(self, n, p, seed, k):
        g = random_local_graph(n, p, seed)
        ours = sorted(localops.k_truss(g, k).edges())
        theirs = sorted(
            (min(u, v), max(u, v)) for u, v in nx.k_truss(to_nx(g), k).edges()
        )
        assert ours == theirs

    def test_truss_of_clique(self):
        g = random_local_graph(6, 1.1, 0)  # K6: every edge in 4 triangles
        assert set(localops.truss_numbers(g).values()) == {6}

    @pytest.mark.parametrize(
        "case", ["karate"] + GNP_CASES,
        ids=lambda c: "-".join(map(str, c)) if isinstance(c, tuple) else c,
    )
    def test_node_truss_numbers_vs_networkx(self, case):
        """Each node's largest k over the k-trusses its edges belong to;
        2 for a node with no edges."""
        g = karate()[0] if case == "karate" else random_local_graph(*case)
        G = to_nx(g)
        want = {v: 2 for v in G}
        k = 3
        while True:
            sub = nx.k_truss(G, k)
            if not sub.number_of_edges():
                break
            for v in sub:
                want[v] = k
            k += 1
        assert localops.node_truss_numbers(g) == want

    def test_ring_of_cliques_truss(self):
        g, _ = ring_of_cliques(4, 5)
        t = localops.truss_numbers(g)
        # intra-clique edges reach truss 5; bridges have truss 2
        assert max(t.values()) == 5 and min(t.values()) == 2


def support_reference(g):
    """Triangles per canonical edge, by set intersection."""
    return {(u, v): len(g.adj[u] & g.adj[v]) for u, v in g.edges()}


def truss_reference(g):
    """Truss numbers by the sequential support peel: a min-heap of
    (support, edge), one edge removed at a time, each removal
    decrementing the edges of its triangles."""
    alive = support_reference(g)
    h = g.copy()
    heap = [(s, e) for e, s in alive.items()]
    heapq.heapify(heap)
    truss, k = {}, 2
    while heap:
        s, (u, v) = heapq.heappop(heap)
        if alive.get((u, v)) != s:
            continue  # stale heap entry
        k = max(k, s + 2)
        truss[(u, v)] = k
        common = h.adj[u] & h.adj[v]
        h.remove_edge(u, v)
        del alive[(u, v)]
        for w in common:
            for e in ((min(u, w), max(u, w)), (min(v, w), max(v, w))):
                if e in alive:
                    alive[e] -= 1
                    heapq.heappush(heap, (alive[e], e))
    return truss


def node_truss_reference(g):
    out = {v: 2 for v in g.adj}
    for (u, v), k in truss_reference(g).items():
        out[u], out[v] = max(out[u], k), max(out[v], k)
    return out


def _relabelled(n, p, seed):
    """A G(n, p) graph with ids 10v + 3 and two isolated nodes."""
    g = random_local_graph(n, p, seed)
    return LocalGraph.from_edges(
        [(10 * u + 3, 10 * v + 3) for u, v in g.edges()],
        nodes=[10 * v + 3 for v in g.adj] + [-8, 10 * n + 7])


def _band(n, j):
    """Edges (i, i + d) for d <= j: every j + 1 consecutive nodes are a clique."""
    return LocalGraph.from_edges((i, i + d) for i in range(n) for d in range(1, j + 1))


def _broken_bipyramid(rim):
    """Hubs 0 and 1 joined to every node of the path 2..rim+1. Every edge
    but the four spokes at the path's ends lies in two triangles, yet all
    fall at level 3: removing the end spokes leaves the next rim edge and
    spokes in at most one triangle, and so on along the path, one round
    per step."""
    path = range(2, rim + 2)
    return LocalGraph.from_edges(
        [(h, v) for h in (0, 1) for v in path] + [(v, v + 1) for v in path[:-1]])


KERNEL_CASES = {
    "karate": lambda: karate()[0],
    **{f"gnp-{n}-{p}-{s}": (lambda n=n, p=p, s=s: random_local_graph(n, p, s))
       for n, p, s in GNP_CASES},
    "ring_of_cliques": lambda: ring_of_cliques(4, 5)[0],
    "ids-10v+3": lambda: _relabelled(30, 0.2, 3),
    "edgeless": lambda: LocalGraph.from_edges([], nodes=[4, 1, 9]),
    "empty": LocalGraph,
    "band-3": lambda: _band(40, 3),
    "band-4": lambda: _band(40, 4),
    "cascade": lambda: _broken_bipyramid(40),
}


class TestTrussKernel:
    """The CSR triangle pass and level peel against the sequential peel."""

    @pytest.mark.parametrize("case", list(KERNEL_CASES))
    def test_vs_reference(self, case):
        g = KERNEL_CASES[case]()
        assert localops.truss_numbers(g) == truss_reference(g)
        assert localops.node_truss_numbers(g) == node_truss_reference(g)
        assert localops.edge_support(g) == support_reference(g)

    @pytest.mark.parametrize("case", list(KERNEL_CASES))
    def test_triangles(self, case):
        """One row per triangle, each of three edges spanning three nodes."""
        g = KERNEL_CASES[case]()
        p, q, tri = localops._triangles(g.csr())
        assert len(tri) == sum(nx.triangles(to_nx(g)).values()) / 3
        corners = {frozenset(p[t].tolist() + q[t].tolist()) for t in tri}
        assert len(corners) == len(tri) and all(len(c) == 3 for c in corners)

    def test_cascade(self):
        g = _broken_bipyramid(40)
        assert max(localops.edge_support(g).values()) == 2
        assert set(localops.truss_numbers(g).values()) == {3}

    def test_empty_and_edgeless(self):
        assert localops.truss_numbers(LocalGraph()) == {}
        assert localops.node_truss_numbers(LocalGraph()) == {}
        g = LocalGraph.from_edges([], nodes=[4, 1, 9])
        assert localops.truss_numbers(g) == localops.edge_support(g) == {}
        assert localops.node_truss_numbers(g) == {1: 2, 4: 2, 9: 2}

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("case", ["karate", "gnp-25-0.3-5", "band-4"])
    def test_small_chunks(self, monkeypatch, chunk, case):
        """Chunk boundaries, including edges with more candidates than
        a chunk holds, change nothing."""
        g = KERNEL_CASES[case]()
        monkeypatch.setattr(localops, "_CHUNK", chunk)
        assert localops.truss_numbers(g) == truss_reference(g)
        assert localops.edge_support(g) == support_reference(g)

    def test_many_chunks(self):
        """K60 has C(60, 3) = 34220 candidate pairs, more than one chunk."""
        g = random_local_graph(60, 1.1, 0)
        assert 60 * 59 * 58 // 6 > localops._CHUNK
        assert set(localops.truss_numbers(g).values()) == {60}
        assert set(localops.edge_support(g).values()) == {58}
        assert len(localops._triangles(g.csr())[2]) == 60 * 59 * 58 // 6


class TestKECC:
    @pytest.mark.parametrize("n,p,seed", [(12, 0.35, 1), (16, 0.3, 2), (20, 0.25, 3)])
    def test_exact_vs_networkx_k2(self, n, p, seed):
        # for k=2 the induced-subgraph and pairwise-connectivity
        # definitions of k-edge-connected components coincide
        g = random_local_graph(n, p, seed)
        ours = sorted(sorted(c) for c in kecc_exact(g, 2) if len(c) > 1)
        theirs = sorted(
            sorted(c) for c in nx.k_edge_components(to_nx(g), 2) if len(c) > 1
        )
        assert ours == theirs

    @pytest.mark.parametrize("n,p,seed", [(12, 0.35, 1), (16, 0.3, 2), (20, 0.25, 3)])
    @pytest.mark.parametrize("k", [3, 4])
    def test_exact_induced_subgraph_property(self, n, p, seed, k):
        """For k>=3 networkx computes pairwise-connectivity classes — a
        different (coarser) notion than Chang et al.'s induced-subgraph
        k-ECCs. Check the induced-subgraph definition directly instead:
        every component's induced subgraph has edge connectivity >= k,
        and each is contained in one of networkx's (coarser) classes."""
        g = random_local_graph(n, p, seed)
        G = to_nx(g)
        classes = [set(c) for c in nx.k_edge_components(G, k)]
        for c in kecc_exact(g, k):
            if len(c) > 1:
                assert nx.edge_connectivity(G.subgraph(c)) >= k
                assert any(c <= cls for cls in classes)

    def test_superset_contains_exact(self):
        g = random_local_graph(30, 0.2, 5)
        exact = [c for c in kecc_exact(g, 3) if len(c) > 1]
        sup = kecc_superset(g, 3)
        for c in exact:
            assert any(c <= s for s in sup), "heuristic must be a superset"

    def test_dispatch_by_size(self):
        g = random_local_graph(20, 0.3, 6)
        assert sorted(map(sorted, kecc(g, 2, exact_limit=100))) == sorted(
            map(sorted, kecc_exact(g, 2))
        )

    def test_two_triangles_with_bridge(self):
        from repro.graphs.local import LocalGraph

        g = LocalGraph.from_edges(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
        )
        comps = sorted(sorted(c) for c in kecc_exact(g, 2) if len(c) > 1)
        assert comps == [[0, 1, 2], [3, 4, 5]]
