"""The eleven §6.1 baselines: structural invariants and reference checks."""
import sys

import networkx as nx
import pytest

from repro.baselines import (
    clique_cs,
    cnm,
    gn,
    highcore,
    hightruss,
    huang2015,
    icwi2008,
    kc,
    kecc_cs,
    kt,
    wu2015,
)
from repro.gendata.classic import karate, ring_of_cliques
from repro.gendata.lfr import lfr_graph
from repro.graphs.local import LocalGraph
from repro.graphs.localops import core_numbers, truss_numbers

from .util import GNP_CASES, equivalence_cases, random_local_graph, to_nx


def assert_node_cap(monkeypatch, fn, g):
    """``fn``'s ``MAX_NODES`` binds exactly: on a connected ``g``, the query
    0 gets None when the cap is one below |V| and an answer when it is |V|."""
    module = sys.modules[fn.__module__]
    monkeypatch.setattr(module, "MAX_NODES", g.n - 1)
    assert fn(g, [0]) is None
    monkeypatch.setattr(module, "MAX_NODES", g.n)
    assert 0 in fn(g, [0])


@pytest.fixture(scope="module")
def kg():
    return karate()


@pytest.fixture(scope="module")
def lfr_small():
    return lfr_graph(n=300, d_avg=12, d_max=30, mu=0.3, min_c=10, max_c=60, seed=5)


class TestKC:
    def test_min_degree_property(self, kg):
        g, _ = kg
        r = kc(g, [0], k=3)
        sub = g.subgraph(r)
        assert min(len(sub.adj[v]) for v in sub.adj) >= 3

    def test_connected_contains_query(self, kg):
        g, _ = kg
        r = kc(g, [33], k=2)
        assert 33 in r and g.subgraph(r).is_connected()

    def test_matches_networkx_core_component(self, kg):
        g, _ = kg
        r = kc(g, [0], k=3)
        core = nx.k_core(to_nx(g), 3)
        want = nx.node_connected_component(core, 0)
        assert r == set(want)

    def test_query_below_core_none(self, kg):
        g, _ = kg
        # node 11 has degree 1 → not in any 3-core
        assert kc(g, [11], k=3) is None

    def test_multi_query(self, kg):
        g, _ = kg
        r = kc(g, [0, 33], k=3)
        assert r is None or {0, 33} <= r


class TestHighcore:
    def test_returns_highest_k(self, kg):
        g, _ = kg
        r = highcore(g, [0])
        cores = core_numbers(g)
        assert r is not None and 0 in r
        # every member is in the k-core at q's own core number
        assert all(cores[v] >= cores[0] for v in r)

    def test_low_degree_query(self, kg):
        g, _ = kg
        r = highcore(g, [11])
        assert r is not None and 11 in r


class TestKT:
    def test_support_property(self, kg):
        g, _ = kg
        r = kt(g, [0], k=4)
        sub = g.subgraph(r)
        for u, v in sub.edges():
            assert len(sub.adj[u] & sub.adj[v]) >= 1  # connected truss comp

    def test_contains_query(self, kg):
        g, _ = kg
        r = kt(g, [0], k=4)
        assert r is not None and 0 in r

    def test_absent_from_truss_none(self, kg):
        g, _ = kg
        assert kt(g, [11], k=4) is None  # degree-1 node in no 4-truss

    def test_hightruss_max_k(self, kg):
        g, _ = kg
        r = hightruss(g, [0])
        t = truss_numbers(g)
        k_q = max(tv for (u, v), tv in t.items() if u == 0 or v == 0)
        sub_edges = [e for e, tv in t.items() if tv >= k_q]
        sub = LocalGraph.from_edges(sub_edges)
        assert r == sub.connected_component(0)


def _kc_copying(g, queries, k, cores):
    """kc as it was: copy the whole k-core, then take Q's component."""
    qs = g.query_nodes(queries)
    if qs is None or any(cores.get(q, 0) < k for q in qs):
        return None
    found = g.subgraph([v for v, c in cores.items() if c >= k]).query_component(qs)
    return None if found is None else found[1]


def _kt_copying(g, queries, k, truss):
    """kt as it was: copy the edges with truss >= k into a new graph."""
    qs = g.query_nodes(queries)
    if qs is None:
        return None
    found = LocalGraph.from_edges([e for e, t in truss.items() if t >= k]).query_component(qs)
    return None if found is None else found[1]


def _high_copying(one, g, queries, index, k_hi, k_lo):
    """highcore/hightruss as they were, over a copying kc/kt."""
    for k in range(k_hi, k_lo, -1):
        res = one(g, queries, k, index)
        if res is not None:
            return res
    found = g.query_component(queries)
    return None if found is None else found[1]


def _filter_cases():
    g, _ = karate()
    yield "karate", g
    for n, p, seed in GNP_CASES:
        yield f"gnp-{n}-{seed}", random_local_graph(n, p, seed)


FILTER_CASES = list(_filter_cases())


@pytest.mark.parametrize("name,g", FILTER_CASES, ids=[name for name, _ in FILTER_CASES])
def test_filtered_bfs_matches_copying_forms(name, g):
    """kc/kt BFS inside the k-core / k-truss without copying it: every
    answer equals the copying forms', for every k, on single nodes and
    on pairs (including pairs split across components)."""
    cores, truss = core_numbers(g), truss_numbers(g)
    nodes = sorted(g.adj)
    queries = [[v] for v in nodes] + [[u, v] for u, v in zip(nodes, nodes[len(nodes) // 2:])]
    for q in queries:
        for k in range(0, max(cores.values()) + 2):
            assert kc(g, q, k=k, cores=cores) == _kc_copying(g, q, k, cores)
        for k in range(2, max(truss.values(), default=2) + 2):
            assert kt(g, q, k=k, truss=truss) == _kt_copying(g, q, k, truss)
        assert highcore(g, q, cores=cores) == _high_copying(
            _kc_copying, g, q, cores, min(cores[v] for v in q), 0)
        assert hightruss(g, q, truss=truss) == _high_copying(
            _kt_copying, g, q, truss, max(truss.values(), default=2), 2)


class TestHuang2015:
    def test_connected_contains_queries(self, kg):
        g, _ = kg
        r = huang2015(g, [0, 2])
        assert {0, 2} <= r and g.subgraph(r).is_connected()

    def test_not_singleton(self, lfr_small):
        g, comms = lfr_small
        q = next(iter(comms[0]))
        r = huang2015(g, [q])
        assert r is not None and len(r) >= 2

    def test_reduces_query_distance(self, kg):
        g, _ = kg
        r = huang2015(g, [33])
        sub = g.subgraph(r)
        assert max(sub.bfs_dist([33]).values()) <= max(g.bfs_dist([33]).values())


class TestKECC_CS:
    def test_edge_connectivity_exact(self):
        g = random_local_graph(25, 0.3, 31)
        comp = max(g.connected_components(), key=len)
        q = min(comp)
        r = kecc_cs(g, [q], k=2, exact_limit=100)
        if r is not None:
            assert nx.edge_connectivity(to_nx(g.subgraph(r))) >= 2

    def test_contains_queries(self, kg):
        g, _ = kg
        r = kecc_cs(g, [0, 1], k=2)
        assert r is None or {0, 1} <= r

    def test_heuristic_path(self, lfr_small):
        g, comms = lfr_small
        q = next(iter(comms[0]))
        r = kecc_cs(g, [q], k=3, exact_limit=10)  # force heuristic
        assert r is None or q in r


class TestClique:
    def test_karate_contains_query(self, kg):
        g, _ = kg
        for q in (0, 33):
            r = clique_cs(g, [q])
            assert r is not None and q in r

    def test_ring_returns_clique(self):
        g, comms = ring_of_cliques(6, 5)
        r = clique_cs(g, [0])
        assert r == comms[0]

    def test_budget_returns_none(self, kg, monkeypatch):
        assert_node_cap(monkeypatch, clique_cs, kg[0])


class TestCNM:
    def test_contains_queries(self, kg):
        g, _ = kg
        r = cnm(g, [0, 1])
        assert r is not None and {0, 1} <= r

    def test_two_triangles(self):
        g = LocalGraph.from_edges(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
        )
        r = cnm(g, [1])
        assert r == {0, 1, 2}

    def test_ring_small_community(self):
        g, comms = ring_of_cliques(8, 5)
        r = cnm(g, [0])
        # CNM + DM selection: community containing q should stay cliquey
        assert 0 in r and len(r) <= 2 * 5

    def test_budget_none(self, kg, monkeypatch):
        assert_node_cap(monkeypatch, cnm, kg[0])


class TestGN:
    def test_karate(self, kg):
        g, _ = kg
        for q in (0, 33):
            r = gn(g, [q])
            assert q in r and g.subgraph(r).is_connected()

    def test_budget_none(self, kg, monkeypatch):
        assert_node_cap(monkeypatch, gn, kg[0])

    def test_two_triangles(self):
        g = LocalGraph.from_edges(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
        )
        assert gn(g, [4]) == {3, 4, 5}


class TestLuo:
    def test_contains_query_connected(self, kg):
        g, _ = kg
        r = icwi2008(g, [0])
        assert 0 in r and g.subgraph(r).is_connected()

    def test_two_triangles(self):
        g = LocalGraph.from_edges(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
        )
        r = icwi2008(g, [1])
        assert {0, 1, 2} <= r


def wu2015_reference(g, queries, eta=0.5):
    """wu2015 as first written: it peels its own copy of the component,
    with a full Tarjan pass after every removal."""
    found = g.query_component(queries)
    if found is None:
        return None
    qs, comp = found
    dist = g.bfs_dist(qs)
    pi = {v: eta ** (-dist[v]) for v in comp}

    sub = g.subgraph(comp)
    qset = set(qs)
    k = {v: len(sub.adj[v]) for v in sub.adj}
    l_s = sub.m
    w_s = sum(pi[v] for v in sub.adj)

    def rho(l, w):
        return l / w if w > 0 else float("-inf")

    best = set(sub.adj)
    best_rho = rho(l_s, w_s)
    while sub.n > len(qset):
        arts = sub.articulation_points()
        cand = [v for v in sub.adj if v not in arts and v not in qset]
        if not cand:
            break
        u = min(cand, key=lambda v: (k[v] / pi[v], -pi[v], v))
        l_s -= k[u]
        w_s -= pi[u]
        for x in sub.adj[u]:
            k[x] -= 1
        k.pop(u)
        sub.remove_node(u)
        r = rho(l_s, w_s)
        if r >= best_rho:
            best_rho, best = r, set(sub.adj)
    return best


EQUIVALENCE_CASES = equivalence_cases()


@pytest.mark.parametrize("case", EQUIVALENCE_CASES, ids=[c[0] for c in EQUIVALENCE_CASES])
def test_wu2015_matches_reference(case):
    _, g, q = case
    assert wu2015(g, q) == wu2015_reference(g, q)


class TestWu2015:
    def test_contains_query_near_query(self, kg):
        g, _ = kg
        r = wu2015(g, [0])
        assert 0 in r

    def test_prefers_near_nodes(self):
        g, comms = ring_of_cliques(10, 6)
        r = wu2015(g, [0])
        # distance-decayed density: the result hugs the query's clique
        sub = g.subgraph(r)
        assert max(sub.bfs_dist([0]).values()) <= 3

    def test_budget_none(self, kg, monkeypatch):
        assert_node_cap(monkeypatch, wu2015, kg[0])

    @pytest.mark.parametrize("n", [60, 1100])
    def test_path_past_float_range(self, n):
        """On a path from the query, rho of the first s nodes is
        (s - 1) / (2^s - 1), highest at s = 2. Past depth 1023, 2^dist
        overflows a float (and ``wu2015_reference`` with it)."""
        g = LocalGraph.from_edges([(i, i + 1) for i in range(n - 1)])
        assert wu2015(g, [0]) == {0, 1}


class TestAllReturnValidSets:
    """Uniform contract across the roster on a small LFR graph."""

    @pytest.mark.parametrize(
        "name",
        ["kc", "kt", "kecc", "clique", "CNM", "icwi2008", "huang2015",
         "wu2015", "highcore", "hightruss"],
    )
    def test_contract(self, name, lfr_small):
        from repro.evaluation.harness import standard_algorithms

        g, comms = lfr_small
        q = sorted(max(comms, key=len))[0]
        algos = standard_algorithms(g, include=[name])
        r = algos[name](g, [q])
        if r is not None:
            assert q in r
            assert isinstance(r, set)
