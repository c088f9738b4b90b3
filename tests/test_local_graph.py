"""LocalGraph kernel: construction, mutation, traversal, and the classic
sequential primitives — all cross-checked against networkx references."""
from collections import deque

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


def _dict_bfs(g, sources):
    """Queue BFS over the dict of sets: the reference for the CSR BFS."""
    dist = {s: 0 for s in sources if s in g.adj}
    q = deque(dist)
    while q:
        v = q.popleft()
        for u in g.adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                q.append(u)
    return dist


def _relabelled(n, p, seed):
    """A GNP graph with node v renamed 10v + 3: ids that are not 0..n-1."""
    g = random_local_graph(n, p, seed)
    return LocalGraph.from_edges(
        [(10 * u + 3, 10 * v + 3) for u, v in g.edges()], nodes=[10 * v + 3 for v in g.adj])


class TestCSR:
    @pytest.mark.parametrize("relabel", [False, True], ids=["dense", "10v+3"])
    @pytest.mark.parametrize("n,p,seed", GNP_CASES)
    def test_view_matches_adjacency(self, n, p, seed, relabel):
        g = _relabelled(n, p, seed) if relabel else random_local_graph(n, p, seed)
        c = g.csr()
        assert c.identity is not relabel
        assert c.ids.tolist() == sorted(g.adj)
        assert c.positions(sorted(g.adj)).tolist() == list(range(g.n))
        assert c.deg.tolist() == [g.degree(v) for v in sorted(g.adj)]
        for i, v in enumerate(c.ids.tolist()):
            row = c.indices[c.indptr[i]:c.indptr[i + 1]]
            assert sorted(c.ids[row].tolist()) == sorted(g.adj[v])
            assert list(c.py_indices[c.py_indptr[i]:c.py_indptr[i + 1]]) == row.tolist()
        assert list(c.py_deg) == c.deg.tolist()
        with pytest.raises(ValueError):
            c.indices[:1] = 0  # read-only
        with pytest.raises(KeyError):
            c.positions([7 if relabel else n])

    @pytest.mark.parametrize("relabel", [False, True], ids=["dense", "10v+3"])
    @pytest.mark.parametrize("n,p,seed", GNP_CASES)
    def test_bfs_vs_dict_and_networkx(self, n, p, seed, relabel):
        g = _relabelled(n, p, seed) if relabel else random_local_graph(n, p, seed)
        G = to_nx(g)
        nodes = sorted(g.adj)
        for sources in ([nodes[0]], [nodes[0], nodes[-1]], nodes[::7]):
            dist = g.bfs_dist(sources)
            assert dist == _dict_bfs(g, sources)
            assert dist == nx.multi_source_dijkstra_path_length(G, set(sources))
            layers = g.bfs_layers(sources)
            assert [sorted(layer) for layer in layers] == layers
            assert {v: d for d, layer in enumerate(layers) for v in layer} == dist
        for comp in nx.connected_components(G):
            assert g.connected_component(min(comp)) == comp

    def test_isolated_nodes(self):
        g = LocalGraph.from_edges([(13, 23)], nodes=[3, 33, 43])
        assert g.csr().deg.tolist() == [0, 1, 1, 0, 0]
        assert g.bfs_dist([3]) == {3: 0}
        assert g.bfs_dist([3, 13]) == {3: 0, 13: 0, 23: 1}
        assert g.bfs_layers([43]) == [[43]]
        assert g.connected_component(33) == {33}
        assert g.query_component([43]) == ([43], {43})
        assert sorted(map(sorted, g.connected_components())) == [[3], [13, 23], [33], [43]]

    def test_edgeless(self):
        g = LocalGraph.from_edges([], nodes=[5, 9, 2])
        c = g.csr()
        assert c.indices.size == 0 and c.indptr.tolist() == [0, 0, 0, 0]
        assert g.bfs_dist([5, 9]) == {5: 0, 9: 0}
        assert g.query_component([9]) == ([9], {9})
        assert g.query_component([2, 9]) is None
        assert LocalGraph().bfs_dist([1]) == {}

    def test_unknown_sources_skipped(self):
        g = LocalGraph.from_edges([(13, 23)])
        assert g.bfs_dist([99, 13]) == {13: 0, 23: 1}
        assert g.connected_component(99) == set()

    @pytest.mark.parametrize("n,p,seed", GNP_CASES)
    def test_query_component_multi_and_split(self, n, p, seed):
        g = _relabelled(n, p, seed)
        comps = sorted(nx.connected_components(to_nx(g)), key=lambda c: (-len(c), min(c)))
        big = sorted(comps[0])
        qs = big[::3][:4]
        found = g.query_component(reversed(qs + qs[:1]))  # unsorted, repeated
        assert found == (sorted(set(qs)), comps[0])
        qs_, order, bounds = g.query_bfs(qs)
        assert set(g.csr().ids[order].tolist()) == comps[0]
        assert bounds[0] == 0 and bounds[-1] == len(order)
        if len(comps) > 1:  # Q split across two components
            assert g.query_component([big[0], min(comps[1])]) is None
            assert g.query_bfs([big[0], min(comps[1])]) is None
        assert g.query_component([]) is None
        assert g.query_component([big[0], 10 * n + 3]) is None

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_node(99),
        lambda g: g.add_edge(0, 3),
        lambda g: g.remove_edge(0, 1),
        lambda g: g.remove_node(1),
    ], ids=["add_node", "add_edge", "remove_edge", "remove_node"])
    def test_mutation_drops_view(self, mutate):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        before = g.csr()
        assert g.csr() is before  # cached
        assert g.bfs_dist([0]) == {0: 0, 1: 1, 2: 2, 3: 3}
        mutate(g)
        assert g.csr() is not before
        assert g.bfs_dist([0]) == _dict_bfs(g, [0])
        assert g.csr().deg.tolist() == [g.degree(v) for v in sorted(g.adj)]

    def test_no_op_mutation_keeps_view(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2)])
        before = g.csr()
        g.add_node(0)
        g.add_edge(0, 1)
        g.remove_edge(0, 2)
        g.remove_node(7)
        assert g.csr() is before


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
