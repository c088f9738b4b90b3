"""LocalGraph kernel: construction, mutation, traversal, and the classic
sequential primitives — all cross-checked against networkx references."""
import networkx as nx
import pytest

from repro.gendata.classic import karate, ring_of_cliques
from repro.graphs.local import LocalGraph

from .util import GNP_CASES, random_local_graph, to_nx


class TestConstruction:
    def test_empty(self):
        g = LocalGraph()
        assert g.n == 0 and g.m == 0
        assert g.is_connected()  # vacuous

    def test_self_loop_dropped(self):
        g = LocalGraph.from_edges([(1, 1), (1, 2)])
        assert g.m == 1 and g.n == 2

    def test_parallel_collapsed(self):
        g = LocalGraph.from_edges([(1, 2), (2, 1), (1, 2)])
        assert g.m == 1

    def test_isolated_nodes_kept(self):
        g = LocalGraph.from_edges([(1, 2)], nodes=[5, 6])
        assert g.n == 4 and g.m == 1

    def test_copy_independent(self):
        g = LocalGraph.from_edges([(1, 2), (2, 3)])
        h = g.copy()
        h.remove_node(2)
        assert g.m == 2 and h.m == 0

    def test_edges_canonical(self):
        g = LocalGraph.from_edges([(3, 1), (2, 4)])
        assert sorted(g.edges()) == [(1, 3), (2, 4)]


class TestMutation:
    def test_remove_edge(self):
        g = LocalGraph.from_edges([(1, 2), (2, 3)])
        g.remove_edge(1, 2)
        assert g.m == 1 and 2 in g.adj
        g.remove_edge(1, 2)  # idempotent
        assert g.m == 1

    def test_remove_node_updates_m(self):
        g = LocalGraph.from_edges([(1, 2), (1, 3), (2, 3)])
        g.remove_node(1)
        assert g.m == 1 and g.n == 2

    def test_degree_tracking(self):
        g = LocalGraph.from_edges([(1, 2), (1, 3)])
        assert g.degree(1) == 2
        g.remove_edge(1, 2)
        assert g.degree(1) == 1
        assert g.degrees() == {1: 1, 2: 0, 3: 1}


class TestTraversal:
    def test_bfs_path(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert g.bfs_dist([0]) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_bfs_multi_source(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert g.bfs_dist([0, 3]) == {0: 0, 3: 0, 1: 1, 2: 1}

    def test_bfs_unreachable_absent(self):
        g = LocalGraph.from_edges([(0, 1), (2, 3)])
        assert 2 not in g.bfs_dist([0])

    def test_bfs_layers(self):
        g = LocalGraph.from_edges([(0, 1), (0, 2), (1, 3)])
        layers = g.bfs_layers([0])
        assert layers[0] == [0] and sorted(layers[1]) == [1, 2] and layers[2] == [3]

    @pytest.mark.parametrize("n,p,seed", GNP_CASES)
    def test_bfs_vs_networkx(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        G = to_nx(g)
        src = 0
        assert g.bfs_dist([src]) == nx.single_source_shortest_path_length(G, src)

    @pytest.mark.parametrize("n,p,seed", GNP_CASES)
    def test_components_vs_networkx(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        ours = sorted(sorted(c) for c in g.connected_components())
        theirs = sorted(sorted(c) for c in nx.connected_components(to_nx(g)))
        assert ours == theirs


class TestArticulation:
    def test_path_graph(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert g.articulation_points() == {1, 2}

    def test_cycle_has_none(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        assert g.articulation_points() == set()

    def test_star_center(self):
        g = LocalGraph.from_edges([(0, i) for i in range(1, 6)])
        assert g.articulation_points() == {0}

    @pytest.mark.parametrize("n,p,seed", GNP_CASES)
    def test_vs_networkx(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        assert g.articulation_points() == set(nx.articulation_points(to_nx(g)))

    def test_karate_vs_networkx(self):
        g, _ = karate()
        assert g.articulation_points() == set(nx.articulation_points(to_nx(g)))

    def test_ring_of_cliques_bridge_endpoints(self):
        g, _ = ring_of_cliques(5, 4)
        # ring keeps everything biconnected through the ring — no APs
        assert g.articulation_points() == set(nx.articulation_points(to_nx(g)))


class TestBridges:
    def test_path_all_bridges(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2)])
        assert sorted(g.bridges()) == [(0, 1), (1, 2)]

    def test_cycle_no_bridges(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        assert g.bridges() == []

    @pytest.mark.parametrize("n,p,seed", GNP_CASES)
    def test_vs_networkx(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        ours = sorted(g.bridges())
        theirs = sorted((min(u, v), max(u, v)) for u, v in nx.bridges(to_nx(g)))
        assert ours == theirs


class TestBetweenness:
    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:5])
    def test_edge_betweenness_vs_networkx(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        ours = g.edge_betweenness()
        theirs = nx.edge_betweenness_centrality(to_nx(g), normalized=False)
        for (u, v), b in theirs.items():
            e = (u, v) if u < v else (v, u)
            assert ours[e] == pytest.approx(b)

    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:5])
    def test_node_betweenness_vs_networkx(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        ours = g.node_betweenness()
        theirs = nx.betweenness_centrality(to_nx(g), normalized=False)
        for v, b in theirs.items():
            assert ours[v] == pytest.approx(b)

    def test_eigenvector_top_node_karate(self):
        g, _ = karate()
        ours = g.eigenvector_centrality()
        theirs = nx.eigenvector_centrality(to_nx(g), max_iter=500)
        assert max(ours, key=ours.get) == max(theirs, key=theirs.get)


class TestCliques:
    def test_triangle(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        assert list(g.maximal_cliques()) == [frozenset({0, 1, 2})]

    @pytest.mark.parametrize("n,p,seed", GNP_CASES)
    def test_vs_networkx(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        ours = sorted(sorted(c) for c in g.maximal_cliques())
        theirs = sorted(sorted(c) for c in nx.find_cliques(to_nx(g)))
        assert ours == theirs

    def test_karate_vs_networkx(self):
        g, _ = karate()
        ours = sorted(sorted(c) for c in g.maximal_cliques())
        theirs = sorted(sorted(c) for c in nx.find_cliques(to_nx(g)))
        assert ours == theirs


class TestStoerWagner:
    def test_two_triangles_bridge(self):
        g = LocalGraph.from_edges(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
        )
        cut, side = g.stoer_wagner()
        assert cut == 1.0
        assert side in ({0, 1, 2}, {3, 4, 5})

    @pytest.mark.parametrize("n,p,seed", [(10, 0.4, 1), (12, 0.5, 2), (15, 0.35, 3), (8, 0.6, 4)])
    def test_cut_value_vs_networkx(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        comp = max(g.connected_components(), key=len)
        sub = g.subgraph(comp)
        if sub.n < 2:
            pytest.skip("degenerate")
        cut, _ = sub.stoer_wagner()
        ref, _ = nx.stoer_wagner(to_nx(sub))
        assert cut == pytest.approx(ref)

    def test_raises_on_single_node(self):
        g = LocalGraph.from_edges([], nodes=[1])
        with pytest.raises(ValueError):
            g.stoer_wagner()


class TestSubgraph:
    def test_induced(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        s = g.subgraph([0, 1, 2])
        assert s.n == 3 and s.m == 3

    def test_internal_edges(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        assert g.internal_edges({0, 1, 2}) == 3
        assert g.internal_edges({2, 3}) == 1
        assert g.internal_edges({0, 3}) == 0
