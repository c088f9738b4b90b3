"""FPA invariants and behaviours (Algorithm 2, §5.5-§5.7)."""
import numpy as np
import pytest

from repro.core import dm_of, fpa
from repro.core.fpa import prefix_scores
from repro.core.peel import PeelState
from repro.core.steiner import steiner_connector
from repro.evaluation.datasets import lfr, overlapping
from repro.evaluation.metrics import score_against_best_truth
from repro.evaluation.queries import query_sets
from repro.gendata.classic import karate, ring_of_cliques
from repro.gendata.lfr import lfr_graph

from .util import GNP_CASES, equivalence_cases, random_local_graph


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
