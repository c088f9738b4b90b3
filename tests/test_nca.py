"""NCA invariants and behaviours (§5.4)."""
import numpy as np
import pytest

from repro.core import dm_of, nca, nca_dr
from repro.core.modularity import density_ratio, dm_gain
from repro.core.nca import stays_connected
from repro.core.peel import PeelState
from repro.gendata.classic import karate, ring_of_cliques
from repro.gendata.lfr import lfr_graph
from repro.graphs.local import LocalGraph

from .util import GNP_CASES, random_local_graph


def nca_reference(g, queries, *, scorer="dmg", measure="dm"):
    """NCA as the paper states it: a full Tarjan pass over the current
    subgraph after every removal, then the max-(score, dist, id) node
    among the non-articulation, non-query nodes."""
    qs = sorted(set(queries))
    comp = g.connected_component(qs[0])
    dist = g.bfs_dist(qs)
    state = PeelState(g, comp)
    best, best_score = set(comp), state.score(measure)
    while True:
        arts = g.subgraph(state.S).articulation_points()
        cand = [v for v in state.S if v not in arts and v not in qs]
        if not cand:
            return best
        if scorer == "dmg":
            score = lambda v: dm_gain(state.k[v], state.d, state.deg[v], state.m)
        else:
            score = lambda v: density_ratio(state.deg[v], state.k[v])
        state.remove(max(cand, key=lambda v: (score(v), dist.get(v, 0), v)))
        s = state.score(measure)
        if s >= best_score:
            best_score, best = s, set(state.S)


def _equivalence_cases():
    """(name, graph, query set) over karate, the GNP graphs, the ring of
    cliques and a small LFR graph with |Q| = 1, 2 and 4."""
    g, _ = karate()
    cases = [(f"karate-{q}", g, q) for q in ([0], [16], [33], [0, 33])]
    for n, p, seed in GNP_CASES:
        g = random_local_graph(n, p, seed)
        cases.append((f"gnp-{n}-{seed}", g, [min(max(g.connected_components(), key=len))]))
    g, _ = ring_of_cliques(10, 6)
    cases.append(("ring", g, [0]))
    g, _ = lfr_graph(n=150, d_avg=10, d_max=25, mu=0.3, min_c=10, max_c=40, seed=3)
    comp = sorted(max(g.connected_components(), key=len))
    for size in (1, 2, 4):
        cases.append((f"lfr-q{size}", g, comp[:: len(comp) // size][:size]))
    return cases


EQUIVALENCE_CASES = _equivalence_cases()


@pytest.mark.parametrize("scorer,measure", [("dmg", "dm"), ("ratio", "dm"), ("dmg", "cm")])
@pytest.mark.parametrize("case", EQUIVALENCE_CASES, ids=[c[0] for c in EQUIVALENCE_CASES])
def test_matches_tarjan_reference(case, scorer, measure):
    _, g, q = case
    assert nca(g, q, scorer=scorer, measure=measure) == nca_reference(
        g, q, scorer=scorer, measure=measure
    )


def _bridged_graph(seed):
    """A connected random graph with pendant paths and a triangle hung
    off it by a bridge, so that it has articulation points of each kind."""
    rng = np.random.default_rng(seed)
    base = random_local_graph(20 + seed, 0.15, seed)
    g = base.subgraph(max(base.connected_components(), key=len))
    nxt = max(g.adj) + 1
    for _ in range(3):
        v = int(rng.choice(sorted(g.adj)))
        for _ in range(int(rng.integers(1, 4))):
            g.add_edge(v, nxt)
            v, nxt = nxt, nxt + 1
    g.add_edge(int(rng.choice(sorted(g.adj))), nxt)
    g.add_edge(nxt, nxt + 1)
    g.add_edge(nxt + 1, nxt + 2)
    g.add_edge(nxt, nxt + 2)
    return g


class TestStaysConnected:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_articulation_points(self, seed):
        g = _bridged_graph(seed)
        arts = g.articulation_points()
        assert arts  # the bridge and the pendant paths guarantee some
        members = set(g.adj)
        for u in g.adj:
            assert stays_connected(g.adj, members, u) == (u not in arts)

    @pytest.mark.parametrize("seed", range(8))
    def test_restricted_to_members(self, seed):
        # a connected proper subset: edges leaving it must be ignored
        g = _bridged_graph(seed)
        start = min(g.adj)
        members = {v for v, d in g.bfs_dist([start]).items() if d <= 2}
        arts = g.subgraph(members).articulation_points()
        for u in members:
            assert stays_connected(g.adj, members, u) == (u not in arts)

    def test_tiny_sets(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2)])
        assert stays_connected(g.adj, {0}, 0)
        assert stays_connected(g.adj, {0, 1}, 0)
        assert not stays_connected(g.adj, {0, 1, 2}, 1)


class TestInvariants:
    @pytest.mark.parametrize("q", [0, 16, 33])
    def test_karate(self, q):
        g, _ = karate()
        r = nca(g, [q])
        assert q in r and g.subgraph(r).is_connected()

    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:6])
    def test_random_graphs(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        comp = max(g.connected_components(), key=len)
        q = min(comp)
        r = nca(g, [q])
        assert q in r and g.subgraph(r).is_connected()
        assert dm_of(g, r) >= dm_of(g, comp) - 1e-12

    def test_missing_query_none(self):
        g, _ = karate()
        assert nca(g, [999]) is None

    def test_disconnected_queries_none(self):
        g = LocalGraph.from_edges([(0, 1), (2, 3)])
        assert nca(g, [0, 3]) is None

    def test_edgeless_graph_singleton(self):
        g = LocalGraph.from_edges([], nodes=[0, 1])
        assert nca(g, [0]) == {0}

    def test_multi_query_kept(self):
        g, _ = karate()
        r = nca(g, [0, 33])
        assert {0, 33} <= r and g.subgraph(r).is_connected()

    def test_ring_returns_single_clique(self):
        g, comms = ring_of_cliques(10, 6)
        r = nca(g, [0])
        assert r == comms[0]

    def test_determinism(self):
        g, _ = karate()
        assert nca(g, [5]) == nca(g, [5])


class TestVariantsAndBudget:
    def test_nca_dr_valid(self):
        g, _ = karate()
        r = nca_dr(g, [33])
        assert 33 in r and g.subgraph(r).is_connected()

    def test_time_budget_returns_incumbent(self):
        g, comms = lfr_graph(n=300, d_avg=12, d_max=30, mu=0.3, seed=6)
        q = next(iter(comms[0]))
        r = nca(g, [q], time_budget=0.0)  # expires immediately
        # incumbent = the initial component
        assert r is not None and q in r

    def test_query_never_removed(self):
        g, _ = karate()
        for q in range(0, 34, 7):
            assert q in nca(g, [q])
