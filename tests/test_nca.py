"""NCA invariants and behaviours (§5.4)."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.wu2015 import ETA, wu2015_queue, wu_key
from repro.core import dm_of, nca
from repro.core.modularity import density_ratio, dm_gain
from repro.core.nca import RemovalQueue, dmg_key, key_dtype, nca_queue, ratio_key
from repro.core.peel import PeelState
from repro.gendata.classic import karate, ring_of_cliques
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
    """The queue's decision whether ``members`` - {u} is connected, on node
    ids: a ``RemovalQueue`` over S = ``members``, its levels rooted at the
    smallest member other than u (at u when it is the only one)."""
    csr = g.csr()
    root = min(members - {u}, default=u)
    state = PeelState(g, members)
    lev = np.full(csr.n, -1, dtype=np.int64)
    for v, d in g.subgraph(members).bfs_dist([root]).items():
        lev[csr.positions([v])[0]] = d
    fixed = csr.positions([root])
    queue = RemovalQueue(state, fixed, csr.deg, np.arange(csr.n), lev, dmg_key(g.m))
    return queue.removable(int(csr.positions([u])[0]))


class TestStaysConnected:
    """``RemovalQueue.removable`` against Tarjan on fixed sets."""

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
    """The queue's search and cache state against fresh recomputations on
    the induced S: ``lev`` is the BFS level from ``root``, ``pc`` the
    count of neighbours one level down, and every parked node an
    articulation point. Returns the articulation points of S (ids)."""
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
    return arts


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
    state, queue = nca_queue(g, q, scorer)
    root = min(q)
    arts = _check_queue(g, state, queue, root)
    searchless = 0
    while (u := queue.best()) is not None:
        if not queue.critical(u):
            searchless += 1
        assert state.csr.ids[u] not in arts  # the removal keeps S connected
        queue.remove(u)
        arts = _check_queue(g, state, queue, root)
    assert len(state.order) == 0 or searchless > 0


def _queue(kind, g, q):
    """(state, queue) of NCA (``dmg``), NCA-DR (``ratio``) or wu2015."""
    return wu2015_queue(g, q)[:2] if kind == "wu2015" else nca_queue(g, q, kind)


def _pick(kind, state, cand, dist):
    """The reference choice among the candidates ``cand`` (positions):
    max (Λ or Θ, dist, id) for NCA, min (k/π, −π, id) for wu2015, in
    exact arithmetic."""
    k, deg = state.k, state.deg
    if kind == "dmg":
        return max(cand, key=lambda p: (deg[p] * (2 * state.d - deg[p]) - 4 * state.m * k[p],
                                        dist[p], p))
    if kind == "ratio":
        return max(cand, key=lambda p: (Fraction(deg[p], k[p]) if k[p] else math.inf, dist[p], p))
    return min(cand, key=lambda p: (Fraction(k[p], 2 ** dist[p]), -dist[p], p))


def _peel_against_tarjan(kind, g, q):
    """Peel with the queue to the end. Before every removal, the decision
    for every candidate u equals ``u not in articulation_points()`` of S,
    and the queue's pick equals the reference choice."""
    state, queue = _queue(kind, g, q)
    csr = state.csr
    ids = csr.ids.tolist()
    qpos = set(csr.positions(q).tolist())
    dist = csr.levels(*csr.bfs(csr.positions(q))).tolist()
    while True:
        arts = g.subgraph(ids[p] for p in state.S).articulation_points()
        cand = [p for p in state.S if p not in qpos]
        for p in cand:
            assert queue.removable(p) == (ids[p] not in arts), f"decision on {ids[p]}"
        cand = [p for p in cand if ids[p] not in arts]
        u = queue.best()
        assert u == (_pick(kind, state, cand, dist) if cand else None)
        if u is None:
            return queue
        queue.remove(u)


@st.composite
def peel_case(draw):
    """A connected graph (GNP's largest component or ``_bridged_graph``)
    with |Q| = 1 or 2 and the classes of NCA, NCA-DR or wu2015."""
    if draw(st.booleans()):
        g = random_local_graph(draw(st.integers(2, 30)), draw(st.floats(0.05, 0.5)),
                               draw(st.integers(0, 10**6)))
        g = g.subgraph(max(g.connected_components(), key=len))
    else:
        g = _bridged_graph(draw(st.integers(0, 12)))
    nodes = sorted(g.adj)
    size = min(draw(st.integers(1, 2)), len(nodes))
    q = draw(st.lists(st.sampled_from(nodes), min_size=size, max_size=size, unique=True))
    return draw(st.sampled_from(["dmg", "ratio", "wu2015"])), g, q


@given(peel_case())
@settings(max_examples=80, deadline=None)
def test_decision_matches_tarjan_on_random_peels(case):
    _peel_against_tarjan(*case)


def _lollipop(clique, path):
    """A clique on 0..clique-1 with a path of ``path`` nodes hung off node 0."""
    edges = [(a, b) for a in range(clique) for b in range(a + 1, clique)]
    edges += [(v, v + 1) for v in range(clique, clique + path - 1)] + [(0, clique)]
    return LocalGraph.from_edges(edges)


@pytest.mark.parametrize("kind", ["dmg", "ratio", "wu2015"])
def test_key_dtype_on_a_real_queue(kind):
    # wu2015's keys scale by 2^(max dist): past 2^60 on a long path
    g = _lollipop(6, 70)
    queue = _peel_against_tarjan(kind, g, [75])
    assert queue.key.dtype == (object if kind == "wu2015" else np.int64)


def _float_order(kind, tops, d_s, m):
    """Class tops (value, k, rank) best first, as the float score of
    each class top, then the smaller rank, order them."""
    vals = np.array([v for v, _, _ in tops], dtype=np.int64)
    ks = np.array([k for _, k, _ in tops], dtype=np.int64)
    if kind == "dmg":
        score = dm_gain(ks, d_s, vals, m)
    elif kind == "ratio":
        score = np.where(ks > 0, vals / np.where(ks > 0, ks, 1), np.inf)
    else:
        score = -(ks / ETA ** -vals)
    return sorted(range(len(tops)), key=lambda i: (-score[i], tops[i][2])), score


def _int_order(key, tops, d_s, n):
    slope, base = key
    keys = [(slope(v) * d_s + base(v, k)) * n + (n - 1 - r) for v, k, r in tops]
    assert len(set(keys)) == len(keys)  # distinct ranks: keys never tie
    return sorted(range(len(tops)), key=lambda i: -keys[i])


class TestKeyOrder:
    """The integer keys order class tops as the float score and the rank
    tie rule do."""

    N = 1000

    def _tops(self, rng, count, vmax, kmax):
        ranks = rng.choice(self.N, size=count, replace=False).tolist()
        return [(int(rng.integers(1, vmax + 1)), int(rng.integers(0, kmax + 1)), r)
                for r in ranks]

    @pytest.mark.parametrize("seed", range(20))
    def test_dmg(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 40))
        tops = self._tops(rng, 60, 8, 8)
        d_s = int(rng.integers(0, 2 * m + 1))
        want, score = _float_order("dmg", tops, d_s, m)
        assert _int_order(dmg_key(m), tops, d_s, self.N) == want
        assert len(set(score.tolist())) < len(tops)  # equal Λ, broken by rank

    def test_dmg_equal_gain(self):
        # Λ(d=1, k=0) = Λ(d=3, k=1) = 13 at d_S = 7, m = 5
        tops = [(1, 0, 5), (3, 1, 4), (3, 0, 9)]
        want, score = _float_order("dmg", tops, 7, 5)
        assert score[0] == score[1] and want == [2, 1, 0]
        assert _int_order(dmg_key(5), tops, 7, self.N) == want

    @pytest.mark.parametrize("seed", range(20))
    def test_ratio(self, seed):
        rng = np.random.default_rng(seed)
        tops = self._tops(rng, 60, 12, 6)
        want, score = _float_order("ratio", tops, 0, 1)
        assert _int_order(ratio_key(12), tops, 0, self.N) == want
        assert np.isinf(score).sum() > 1  # k = 0 ties on Θ = ∞

    def test_ratio_ties(self):
        # Θ: 2/1 = 4/2 = 6/3 tie and fall back on the rank; 0 k is ∞
        tops = [(2, 1, 7), (4, 2, 3), (6, 3, 5), (7, 4, 0), (1, 0, 8), (3, 0, 6)]
        want, _ = _float_order("ratio", tops, 0, 1)
        assert want == [5, 4, 1, 2, 0, 3]
        assert _int_order(ratio_key(7), tops, 0, self.N) == want

    def test_ratio_close_fractions(self):
        # 12/11 and 11/10 differ by 1/110, less than 1 at any scale below D²
        tops = [(12, 11, 0), (11, 10, 1), (13, 12, 2)]
        want, _ = _float_order("ratio", tops, 0, 1)
        assert _int_order(ratio_key(13), tops, 0, self.N) == want == [1, 0, 2]

    @pytest.mark.parametrize("seed", range(20))
    def test_wu2015(self, seed):
        rng = np.random.default_rng(seed)
        tops = self._tops(rng, 60, 9, 6)
        want, _ = _float_order("wu2015", tops, 0, 1)
        assert _int_order(wu_key(9), tops, 0, self.N) == want

    def test_wu2015_ties(self):
        # k/pi: 2/2^1 = 4/2^2 = 1/2^0; k = 0 ties at every distance
        tops = [(1, 2, 4), (2, 4, 2), (0, 1, 3), (3, 0, 1), (5, 0, 0)]
        want, _ = _float_order("wu2015", tops, 0, 1)
        assert want == [4, 3, 1, 2, 0]
        assert _int_order(wu_key(5), tops, 0, self.N) == want

    def test_dtype_at_its_bound(self):
        bound = (2 ** 63 - 1) // 3  # -3·bound is the least key
        assert key_dtype(bound) is np.int64
        assert key_dtype(bound + 1) is object


class TestCertificate:
    def _queue(self, edges, q):
        g = LocalGraph.from_edges(edges)
        return nca_queue(g, [q])[1]

    def test_second_parent_certifies(self):
        # 0-1-2-3-0 from 0: node 2 has parents 1 and 3
        queue = self._queue([(0, 1), (1, 2), (2, 3), (3, 0)], 0)
        assert queue.lev == [0, 1, 2, 1] and queue.pc == [0, 1, 2, 1]
        assert queue.critical(1) == queue.critical(3) == queue.critical(2) == []
        assert queue.removable(1) and queue.removable(3) and queue.removable(2)

    def test_only_parent_is_not_certified(self):
        # the path 0-1-2 and a triangle 0-3-4: 2's only parent is 1
        queue = self._queue([(0, 1), (1, 2), (0, 3), (3, 4), (4, 0)], 0)
        assert queue.critical(1) == [2]
        assert not queue.removable(1)
        assert queue.removable(2) and queue.removable(3) and queue.removable(4)

    def test_critical_child_reaches_a_sibling(self):
        # 0-1-2, 0-3-4, 2-4 from 0: 2's only parent is 1, but its
        # neighbour 4 on its own level has the parent 3
        queue = self._queue([(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)], 0)
        assert queue.critical(1) == [2] and queue.removable(1)

    def test_critical_child_reaches_an_earlier_search(self):
        # 1's children 2 and 3 (only parent 1) both lead to 4, whose only
        # parent is 5; the search from 3 may stop at 2, already shown safe
        edges = [(0, 1), (1, 2), (1, 3), (2, 3), (0, 5), (5, 4), (2, 4)]
        queue = self._queue(edges, 0)
        assert queue.critical(1) == [2, 3] and queue.removable(1)

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
        r = nca(g, [33], scorer="ratio")
        assert 33 in r and g.subgraph(r).is_connected()

    def test_query_never_removed(self):
        g, _ = karate()
        for q in range(0, 34, 7):
            assert q in nca(g, [q])
