"""NCA invariants and behaviours (§5.4)."""
import numpy as np
import pytest

from repro.core import dm_of, nca, nca_dr
from repro.core.modularity import density_ratio, dm_gain
from repro.core.nca import nca_queue, stays_connected
from repro.core.peel import PeelState
from repro.gendata.classic import karate, ring_of_cliques
from repro.gendata.lfr import lfr_graph
from repro.graphs.local import LocalGraph

from .util import GNP_CASES, equivalence_cases, random_local_graph


def nca_reference(g, queries, *, scorer="dmg", measure="dm"):
    """NCA as the paper states it: a full Tarjan pass over the current
    subgraph after every removal, then the max-(score, dist, id) node
    among the non-articulation, non-query nodes. ``PeelState`` works on
    CSR positions; the pass, Q, the distances and the answer are on ids."""
    qs = sorted(set(queries))
    comp = g.connected_component(qs[0])
    dist = g.bfs_dist(qs)
    state = PeelState(g, comp)
    ids = state.csr.ids.tolist()
    best, best_score = set(comp), state.score(measure)
    while True:
        arts = g.subgraph(ids[p] for p in state.S).articulation_points()
        cand = [p for p in state.S if ids[p] not in arts and ids[p] not in qs]
        if not cand:
            return best
        if scorer == "dmg":
            score = lambda p: dm_gain(state.k[p], state.d, state.deg[p], state.m)
        else:
            score = lambda p: density_ratio(state.deg[p], state.k[p])
        state.remove(max(cand, key=lambda p: (score(p), dist.get(ids[p], 0), ids[p])))
        s = state.score(measure)
        if s >= best_score:
            best_score, best = s, {ids[p] for p in state.S}


EQUIVALENCE_CASES = equivalence_cases()


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


def _stays(g, members, u):
    """``stays_connected`` on node ids: the alive mask of ``members`` and
    u's position in the CSR view of g."""
    csr = g.csr()
    alive = bytearray(csr.n)
    for p in csr.positions(members).tolist():
        alive[p] = 1
    return stays_connected(csr, alive, int(csr.positions([u])[0]))


class TestStaysConnected:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_articulation_points(self, seed):
        g = _bridged_graph(seed)
        arts = g.articulation_points()
        assert arts  # the bridge and the pendant paths guarantee some
        members = set(g.adj)
        for u in g.adj:
            assert _stays(g, members, u) == (u not in arts)

    @pytest.mark.parametrize("seed", range(8))
    def test_restricted_to_members(self, seed):
        # a connected proper subset: edges leaving it must be ignored
        g = _bridged_graph(seed)
        start = min(g.adj)
        members = {v for v, d in g.bfs_dist([start]).items() if d <= 2}
        arts = g.subgraph(members).articulation_points()
        for u in members:
            assert _stays(g, members, u) == (u not in arts)

    def test_tiny_sets(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2)])
        assert _stays(g, {0}, 0)
        assert _stays(g, {0, 1}, 0)
        assert not _stays(g, {0, 1, 2}, 1)


def _check_queue(g, state, queue, root):
    """The queue's certificate and cache state against fresh
    recomputations on the induced S: ``lev`` is the BFS level from
    ``root``, ``pc`` the count of neighbours one level down, and every
    parked node an articulation point."""
    ids = state.csr.ids.tolist()
    members = [ids[p] for p in state.S]
    sub = g.subgraph(members)
    dist = sub.bfs_dist([root])
    assert len(dist) == len(members)  # S is connected
    for p in state.S:
        v = ids[p]
        assert queue.lev[p] == dist[v], f"lev of {v}"
        fresh = sum(dist[x] == dist[v] - 1 for x in sub.adj[v])
        assert queue.pc[p] == fresh, f"pc of {v}"
    arts = sub.articulation_points()
    parked = {ids[p] for p in state.S if queue.parked[p]}
    assert parked <= arts, f"parked but not cutting S: {sorted(parked - arts)}"


def _queue_cases():
    cases = equivalence_cases()
    for n, p, seed in GNP_CASES:
        g = random_local_graph(n, p, seed)
        cases.append((f"gnp-{n}-{seed}-max", g, [max(max(g.connected_components(), key=len))]))
    for seed in range(8):
        g = _bridged_graph(seed)
        cases.append((f"bridged-{seed}", g, [min(g.adj)]))
        cases.append((f"bridged-{seed}-pendant", g, [max(g.adj)]))
    return cases


QUEUE_CASES = _queue_cases()


@pytest.mark.parametrize("scorer", ["dmg", "ratio"])
@pytest.mark.parametrize("case", QUEUE_CASES, ids=[c[0] for c in QUEUE_CASES])
def test_queue_state_after_every_removal(case, scorer):
    _, g, q = case
    state, queue, score = nca_queue(g, q, scorer)
    root = min(q)
    _check_queue(g, state, queue, root)
    certified = 0
    while (u := queue.best(score)) is not None:
        if queue.certified(u):
            certified += 1
            assert stays_connected(state.csr, state.S.mask, u)
        queue.remove(u)
        _check_queue(g, state, queue, root)
    assert len(state.order) == 0 or certified > 0


class TestCertificate:
    def _queue(self, edges, q):
        g = LocalGraph.from_edges(edges)
        return nca_queue(g, [q])[1]

    def test_second_parent_certifies(self):
        # 0-1-2-3-0 from 0: node 2 has parents 1 and 3
        queue = self._queue([(0, 1), (1, 2), (2, 3), (3, 0)], 0)
        assert queue.lev == [0, 1, 2, 1] and queue.pc == [0, 1, 2, 1]
        assert queue.certified(1) and queue.certified(3) and queue.certified(2)

    def test_only_parent_is_not_certified(self):
        # the path 0-1-2 and a triangle 0-3-4: 2's only parent is 1
        queue = self._queue([(0, 1), (1, 2), (0, 3), (3, 4), (4, 0)], 0)
        assert not queue.certified(1)
        assert queue.certified(2) and queue.certified(3) and queue.certified(4)

    def test_orphan_moves_down_a_level(self):
        # removing 1 from 0-1-3, 0-2-4, 3-4 leaves 3 under 4 at level 3
        queue = self._queue([(0, 1), (1, 3), (0, 2), (2, 4), (3, 4)], 0)
        assert queue.lev == [0, 1, 1, 2, 2]
        queue.remove(1)
        assert queue.lev[3] == 3 and queue.pc[3] == 1 and queue.pc[4] == 1

    def test_cut_removal_raises(self):
        queue = self._queue([(0, 1), (1, 2), (2, 3)], 0)
        with pytest.raises(ValueError, match="disconnected"):
            queue.remove(1)


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
