"""FPA invariants and behaviours (Algorithm 2, §5.5-§5.7)."""
import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dm_of, fpa
from repro.core.fpa import _Layers, dm_upper_bound, prefix_scores
from repro.core.modularity import scores_of
from repro.core.nca import RemovalQueue
from repro.core.peel import PeelState
from repro.core.steiner import steiner_connector
from repro.evaluation.datasets import lfr, overlapping
from repro.evaluation.metrics import score_against_best_truth
from repro.evaluation.queries import query_sets
from repro.gendata.classic import karate, ring_of_cliques
from repro.gendata.lfr import lfr_graph

from repro.graphs.local import LocalGraph

from .test_golden import E11_QUERIES, _lfr
from .util import GNP_CASES, equivalence_cases, fpa_reference, fpa_reference_peel, random_local_graph


@pytest.fixture(scope="module")
def lfr_small():
    return lfr_graph(n=300, d_avg=12, d_max=30, mu=0.3, min_c=10, max_c=60, seed=5)


class TestInvariants:
    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("q", [0, 16, 33])
    def test_karate_contains_query_connected(self, q, prune):
        g, _ = karate()
        r = fpa(g, [q], prune=prune)
        assert q in r
        assert g.subgraph(r).is_connected()

    @pytest.mark.parametrize("n,p,seed", GNP_CASES)
    def test_random_graphs(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        comp = max(g.connected_components(), key=len)
        q = min(comp)
        r = fpa(g, [q], prune=False)
        assert q in r and g.subgraph(r).is_connected()
        # incumbent never worse than the starting component
        assert dm_of(g, r) >= dm_of(g, comp) - 1e-12

    def test_missing_query_none(self):
        g, _ = karate()
        assert fpa(g, [999]) is None

    def test_disconnected_queries_none(self):
        from repro.graphs.local import LocalGraph

        g = LocalGraph.from_edges([(0, 1), (2, 3)])
        assert fpa(g, [0, 3]) is None

    def test_empty_queries_none(self):
        g, _ = karate()
        assert fpa(g, []) is None

    def test_edgeless_graph_singleton(self):
        from repro.graphs.local import LocalGraph

        g = LocalGraph.from_edges([], nodes=[0, 1])
        assert fpa(g, [0]) == {0}

    def test_whole_component_when_no_layers(self):
        from repro.graphs.local import LocalGraph

        g = LocalGraph.from_edges([(0, 1), (0, 2)])
        # all nodes at distance <= 1; query 0: layers exist, peels fine
        r = fpa(g, [0], prune=False)
        assert 0 in r


class TestResolutionLimit:
    """The headline claim: FPA + DM recovers a single clique on the ring
    (classic modularity would merge two — Example 3)."""

    @pytest.mark.parametrize("q", [0, 17, 60])
    def test_ring_returns_single_clique(self, q):
        g, comms = ring_of_cliques(30, 6)
        r = fpa(g, [q], prune=False)
        truth = next(c for c in comms if q in c)
        assert r == truth

    def test_ring_with_cm_merges(self):
        """With classic modularity as the selection measure the result is
        strictly larger (resolution limit in action)."""
        g, comms = ring_of_cliques(30, 6)
        r_cm = fpa(g, [0], prune=False, measure="cm")
        r_dm = fpa(g, [0], prune=False, measure="dm")
        assert len(r_cm) > len(r_dm)


class TestVariants:
    def test_dmg_scorer_valid(self, lfr_small):
        g, comms = lfr_small
        q = next(iter(comms[0]))
        r = fpa(g, [q], prune=False, scorer="dmg")
        assert q in r and g.subgraph(r).is_connected()

    def test_prune_vs_noprune_both_valid(self, lfr_small):
        g, comms = lfr_small
        q = next(iter(comms[0]))
        r1 = fpa(g, [q], prune=True)
        r2 = fpa(g, [q], prune=False)
        assert q in r1 and q in r2
        # pruning restricts the search space: never a better incumbent
        assert dm_of(g, r2) >= dm_of(g, r1) - 1e-9

    @pytest.mark.parametrize("measure", ["dm", "cm", "gmd"])
    def test_measures(self, measure, lfr_small):
        g, comms = lfr_small
        q = next(iter(comms[1]))
        r = fpa(g, [q], prune=False, measure=measure)
        assert r is not None and q in r


class TestMultiQuery:
    def test_karate_pair(self):
        g, _ = karate()
        r = fpa(g, [0, 33], prune=False)
        assert {0, 33} <= r and g.subgraph(r).is_connected()

    def test_lfr_same_community(self, lfr_small):
        g, comms = lfr_small
        c = sorted(max(comms, key=len))
        qs = [c[0], c[len(c) // 2], c[-1]]
        r = fpa(g, qs, prune=False)
        assert set(qs) <= r and g.subgraph(r).is_connected()

    def test_determinism(self, lfr_small):
        g, comms = lfr_small
        q = next(iter(comms[2]))
        assert fpa(g, [q]) == fpa(g, [q])


def _figure_cases():
    """(name, graph, communities, Q) for the query sets the §6 figures
    run FPA on: |Q| = 1, 4 and 16 on the default LFR graph (Figures 8-10),
    the mu = 0.2 LFR graph (Figure 8), the 2K and 5K graphs of the
    scalability sweep (Figure 11) and DBLP-lite (Figure 17)."""
    g, comms = lfr(seed=0)
    cases = [(f"lfr-q{s}", g, comms, query_sets(g, comms, n_sets=1, q_size=s, seed=s)[0])
             for s in (1, 4, 16)]
    g, comms = lfr(seed=100, mu=0.2)
    cases.append(("lfr-mu0.2", g, comms, query_sets(g, comms, n_sets=1, seed=1)[0]))
    for n in (2000, 5000):
        g, comms = lfr(seed=7, n=n, d_avg=12, d_max=60, max_c=200)
        cases.append((f"lfr-n{n}", g, comms, query_sets(g, comms, n_sets=1, seed=3)[0]))
    g, comms = overlapping()["DBLP-lite"]
    cases.append(("dblp-lite", g, comms, query_sets(g, comms, n_sets=1, seed=7)[0]))
    return cases


FIGURE_CASES = _figure_cases()


@pytest.mark.parametrize("case", FIGURE_CASES, ids=[c[0] for c in FIGURE_CASES])
def test_figure_query_sets(case):
    _, g, comms, q = case
    r = fpa(g, q)
    assert set(q) <= r and g.subgraph(r).is_connected()
    nmi, _, _ = score_against_best_truth(g.n, r, comms, q)
    assert 0 <= nmi <= 1


class TestLayerSafety:
    """Removing any subset of the farthest layer keeps the rest connected."""

    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:4])
    def test_farthest_layer_removal_keeps_connectivity(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        comp = max(g.connected_components(), key=len)
        sub = g.subgraph(comp)
        q = min(comp)
        layers = sub.bfs_layers([q])
        if len(layers) < 2:
            pytest.skip("single layer")
        rest = set(comp) - set(layers[-1])
        assert g.subgraph(rest).is_connected()


def _seed(g, queries):
    """FPA's start set: Q itself, or its Steiner connector when |Q| > 1."""
    qs = sorted(set(queries))
    return steiner_connector(g, qs) if len(qs) > 1 else qs


def prefix_scores_reference(g, queries, measure):
    """§5.7's prefix scores by peeling: one ``PeelState`` over the
    component, whole BFS layers removed from the outside in, each prefix
    P_i scored with ``PeelState.score``. Returns the scores by i and the
    best i, the smallest among ties."""
    layers = g.bfs_layers(_seed(g, queries))
    state = PeelState(g, [v for layer in layers for v in layer], measure)
    scores = [state.score(measure)]
    for layer in reversed(layers[1:]):
        for p in state.csr.positions(layer).tolist():
            state.remove(p)
        scores.append(state.score(measure))
    scores.reverse()
    return scores, max(range(len(scores)), key=lambda i: (scores[i], -i))


EQUIVALENCE_CASES = equivalence_cases()


@pytest.mark.parametrize("measure", ["dm", "cm", "gmd"])
@pytest.mark.parametrize("case", EQUIVALENCE_CASES, ids=[c[0] for c in EQUIVALENCE_CASES])
def test_prefix_scores_match_layer_removal(case, measure):
    _, g, q = case
    want, want_i = prefix_scores_reference(g, q, measure)
    csr = g.csr()
    order, bounds = csr.bfs(csr.positions(_seed(g, q)))
    got = prefix_scores(g, order, bounds, measure)
    assert got.tolist() == want  # bit-equal, -inf included
    assert int(np.argmax(got)) == want_i


def test_prune_tie_takes_the_smaller_prefix():
    # from node 1 of a ring of four triangles, CM peaks at both P_1 and P_3
    g, _ = ring_of_cliques(4, 3)
    csr = g.csr()
    order, bounds = csr.bfs(csr.positions([1]))
    scores = prefix_scores(g, order, bounds, "cm")
    assert scores[1] == scores[3] == scores.max()
    inner = {v for v, d in g.bfs_dist([1]).items() if d <= 1}
    assert fpa(g, [1], prune=True, measure="cm") <= inner


# ------------------------------------------------ the skipping peel is exact
FPA_MODULE = importlib.import_module("repro.core.fpa")  # the package's `fpa` is the function
CONFIGS = list(itertools.product(("ratio", "dmg"), ("dm", "cm", "gmd"), (False, True)))
CONFIG_IDS = [f"{s}-{m}-{'prune' if p else 'full'}" for s, m, p in CONFIGS]


@pytest.mark.parametrize("scorer,measure,prune", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("case", EQUIVALENCE_CASES, ids=[c[0] for c in EQUIVALENCE_CASES])
def test_matches_reference(case, scorer, measure, prune):
    _, g, q = case
    kw = dict(scorer=scorer, measure=measure, prune=prune)
    assert fpa(g, q, **kw) == fpa_reference(g, q, **kw)


@st.composite
def graph_and_query(draw):
    """A G(n, p) graph with n ≤ 40 and one or two nodes of its largest
    component."""
    n = draw(st.integers(2, 40))
    g = random_local_graph(n, draw(st.floats(0.05, 0.6)), draw(st.integers(0, 10**6)))
    comp = sorted(max(g.connected_components(), key=len))
    size = min(draw(st.integers(1, 2)), len(comp))
    return g, draw(st.lists(st.sampled_from(comp), min_size=size, max_size=size, unique=True))


@given(graph_and_query())
@settings(max_examples=60, deadline=None)
def test_matches_reference_on_random_graphs(gq):
    g, q = gq
    for scorer, measure, prune in CONFIGS:
        kw = dict(scorer=scorer, measure=measure, prune=prune)
        assert fpa(g, q, **kw) == fpa_reference(g, q, **kw), kw


def _fresh_k(g, inside, nodes):
    """e(v, inside) for each node id v of ``nodes``."""
    return np.array([len(g.adj[v] & inside) for v in nodes], dtype=np.int64)


# The bound holds in exact arithmetic; this is how far float rounding may
# put it below a DM it bounds, far inside the skip margin.
BOUND_ROUNDING = 1e-12


@pytest.mark.parametrize("scorer", ["ratio", "dmg"])
@pytest.mark.parametrize("case", EQUIVALENCE_CASES, ids=[c[0] for c in EQUIVALENCE_CASES])
def test_bound_covers_every_later_set(case, scorer):
    """On the unskipped reference peel, at every removal point of every
    layer, ``dm_upper_bound`` over the layer's remaining nodes is at least
    the DM of every set the layer visits from that point on."""
    _, g, q = case
    state, layers = fpa_reference_peel(g, q, scorer=scorer)
    ids = state.csr.ids
    removed = ids[state.order].tolist()
    at = 0
    for j in range(len(layers) - 1, 0, -1):
        inner = set(ids[[p for layer in layers[:j] for p in layer]].tolist())
        seq = removed[at:at + len(layers[j])]
        at += len(layers[j])
        l_in, d_in = g.internal_edges(inner), sum(len(g.adj[v]) for v in inner)
        # DM of S_t = P_{j-1} ∪ seq[t:], t = 0 .. |layer| - 1, and its suffix maximum
        dms = [dm_of(g, inner | set(seq[t:])) for t in range(len(seq))]
        later = np.maximum.accumulate(dms[::-1])[::-1]
        for t in range(len(seq)):
            rest = seq[t:]
            ub = dm_upper_bound(l_in, d_in, len(inner), g.m,
                                _fresh_k(g, inner | set(rest), rest), _fresh_k(g, inner, rest),
                                np.array([len(g.adj[v]) for v in rest], dtype=np.int64))
            assert ub >= later[t] - BOUND_ROUNDING * max(abs(later[t]), 1.0), (j, t)


def test_tie_inside_a_layer_with_a_larger_prefix():
    """A 7-cycle beside a 5-cycle (m = 12), queried on the 7-cycle: the
    3-node path P_1, the 4-node path inside layer 2 and the whole cycle
    P_3 all have DM 5/12. In floats P_1 rounds below the other two, which
    tie, so the answer is the 4-node path. Layer 2's bound is 5/12 as well,
    and it must not drop that path."""
    g = LocalGraph.from_edges([(i, (i + 1) % 7) for i in range(7)]
                              + [(7 + i, 7 + (i + 1) % 5) for i in range(5)])
    csr = g.csr()
    order, bounds = csr.bfs(csr.positions([0]))
    scores = prefix_scores(g, order, bounds, "dm")
    assert scores.argmax() == 3
    want = fpa_reference(g, [0])
    assert len(want) == 4 and dm_of(g, want) == scores[3]
    assert fpa(g, [0]) == want


@pytest.mark.parametrize("q", E11_QUERIES[20000], ids=str)
def test_skips_most_removals_on_e11(q, monkeypatch):
    """On the 20K-node e11 graph at least 40% of the reference peel's
    removals are skipped (47% and 75% when this was written)."""
    g, _ = _lfr(20000)
    made = []
    peel = _Layers.peel

    def counted(self, j):
        made.append(peel(self, j))
        return made[-1]

    monkeypatch.setattr(_Layers, "peel", counted)
    fpa(g, q)
    _, bounds = g.csr().bfs(g.csr().positions(q))
    total = int(bounds[-1] - bounds[1])  # every node outside layer 0
    assert sum(made) <= 0.6 * total


@pytest.mark.parametrize("scorer,measure,prune", CONFIGS, ids=CONFIG_IDS)
def test_layer_state_matches_a_fresh_count(scorer, measure, prune, monkeypatch):
    """After each layer's peel, k of the layer's remaining nodes is
    e(v, P_{j-1} ∪ U_rem), and the l, d and score of every set it visited,
    taken from its log, equal a fresh count; the answer's score is the
    incumbent's. FPA-DMG keeps k in the ``PeelState`` its layer's queue
    drains, which also passes ``check()``."""
    peel = _Layers.peel
    states = []

    class Recording(PeelState):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            states.append(self)

    def checked(self, j):
        states.clear()
        made = peel(self, j)
        ids, deg = self.csr.ids, self.csr.deg
        layer = self.order[self.bounds[j]:self.bounds[j + 1]].tolist()
        log, logk = self.logs[j]
        assert len(log) == made
        inner = set(ids[self.order[: self.bounds[j]]].tolist())
        rest = [p for p in layer if p not in set(log)]
        if scorer == "dmg":
            (state,) = states
            state.check()
            got = state.k_array()[rest]
        else:
            assert not states
            got = np.frombuffer(self.k, dtype=np.int64)[rest]
        assert got.tolist() == _fresh_k(g, inner | set(ids[rest].tolist()), ids[rest]).tolist()
        l = self.l[j] - np.cumsum(np.array(logk, dtype=np.int64))
        d = self.d[j] - np.cumsum(deg[log].astype(np.int64))
        size = self.bounds[j + 1] - np.arange(1, made + 1)
        fresh_l, fresh_d = [], []
        for t in range(1, made + 1):
            members = inner | set(ids[layer].tolist()) - set(ids[log[:t]].tolist())
            fresh_l.append(g.internal_edges(members))
            fresh_d.append(sum(len(g.adj[v]) for v in members))
        assert l.tolist() == fresh_l and d.tolist() == fresh_d
        fresh = scores_of(measure, np.array(fresh_l, dtype=np.int64),
                          np.array(fresh_d, dtype=np.int64), size, self.m)
        assert scores_of(measure, l, d, size, self.m).tolist() == fresh.tolist()
        return made

    members = _Layers.members

    def checked_members(self):
        got = members(self)
        l, d = g.internal_edges(got), sum(len(g.adj[v]) for v in got)
        fresh = scores_of(measure, np.array([l]), np.array([d]), np.array([len(got)]), self.m)
        assert self.best[0] == fresh[0]
        return got

    monkeypatch.setattr(_Layers, "peel", checked)
    monkeypatch.setattr(_Layers, "members", checked_members)
    monkeypatch.setattr(FPA_MODULE, "PeelState", Recording)
    for _, g, q in EQUIVALENCE_CASES:
        kw = dict(scorer=scorer, measure=measure, prune=prune)
        assert fpa(g, q, **kw) == fpa_reference(g, q, **kw)


def _dmg_queue_cases():
    """The equivalence cases plus ten query sets each of |Q| = 1, 2 and 4
    on the default LFR graph."""
    g, comms = _lfr()
    return [(g, q) for _, g, q in EQUIVALENCE_CASES] + [
        (g, q) for size in (1, 2, 4) for q in query_sets(g, comms, n_sets=10, q_size=size, seed=0)]


@pytest.mark.parametrize("measure,prune", [(m, p) for m in ("dm", "cm", "gmd") for p in (False, True)],
                         ids=[f"{m}-{'prune' if p else 'full'}" for m in ("dm", "cm", "gmd") for p in (False, True)])
def test_dmg_layer_queue_never_searches(measure, prune, monkeypatch):
    """No node of the farthest layer has a child in S = P_j, for a
    multi-node seed too, so every ``RemovalQueue`` that drains an FPA-DMG
    layer decides each removal without a search: it never calls
    ``_reach``, parks nothing and moves no node's level."""
    queues = []

    class Recording(RemovalQueue):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            self.start_lev = list(self.lev)
            queues.append(self)

        def _reach(self, *a):
            raise AssertionError("a farthest-layer removal searched S")

    monkeypatch.setattr(FPA_MODULE, "RemovalQueue", Recording)
    for g, q in _dmg_queue_cases():
        fpa(g, q, scorer="dmg", measure=measure, prune=prune)
    assert sum(len(queue.state.order) for queue in queues) > 0
    for queue in queues:
        assert not any(queue.parked) and queue.lev == queue.start_lev
