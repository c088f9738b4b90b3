"""PeelState incremental bookkeeping + the §5.6 Steiner connector."""
import importlib

import numpy as np
import pytest

from repro.core.modularity import (
    classic_modularity,
    community_stats,
    density_modularity,
    dm_of,
    generalized_modularity_density,
)
from repro.core.peel import MEASURES, PeelState
from repro.core.steiner import steiner_connector
from repro.gendata.classic import karate
from repro.gendata.lfr import lfr_graph
from repro.graphs.local import LocalGraph

from .util import GNP_CASES, random_local_graph


class TestPeelState:
    # The GNP graphs have ids 0..n-1, so a node's CSR position is its id.
    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:5])
    def test_incremental_matches_recompute(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        assert g.csr().identity
        comp = max(g.connected_components(), key=len)
        st = PeelState(g, comp)
        order = sorted(comp)
        for v in order[: len(order) // 2]:
            st.remove(v)
            l = g.internal_edges(st.S)
            d = sum(g.degree(u) for u in st.S)
            assert st.l == l and st.d == d
            assert {u: st.k[u] for u in st.S} == {
                u: sum(1 for w in g.adj[u] if w in st.S) for u in st.S
            }
            assert st.score("dm") == pytest.approx(
                density_modularity(l, d, len(st.S), g.m)
            )

    def test_remove_returns_changed(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        st = PeelState(g, {0, 1, 2, 3})
        changed = st.remove(0)
        assert sorted(changed) == [1, 2]

    def test_degrees_are_original(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        st = PeelState(g, {0, 1, 2, 3})
        st.remove(3)
        # d uses original degrees even though 2 lost a neighbour
        assert st.d == g.degree(0) + g.degree(1) + g.degree(2)

    def test_score_dispatch(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        st = PeelState(g, {0, 1, 2})
        l, d, size, m = st.l, st.d, len(st.S), g.m
        assert st.score("dm") == density_modularity(l, d, size, m)
        assert st.score("cm") == classic_modularity(l, d, m)
        assert st.score("gmd") == generalized_modularity_density(l, d, size, m)
        with pytest.raises(ValueError):
            st.score("nope")

    def test_subset_initialization(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        st = PeelState(g, {0, 1})
        assert st.l == 1 and st.d == 4 and {u: st.k[u] for u in st.S} == {0: 1, 1: 1}

    def test_non_contiguous_ids(self):
        # ids 10v + 3: positions are the ranks of the ids
        g = LocalGraph.from_edges([(3, 13), (13, 23), (3, 23), (23, 33)])
        st = PeelState(g, {3, 13, 23, 33})
        assert list(st.S) == [0, 1, 2, 3]
        assert sorted(st.remove(3)) == [2]  # position 3 is node 33
        assert {u: st.k[u] for u in st.S} == {0: 2, 1: 2, 2: 2}
        assert st.best() == {3, 13, 23, 33} and st.best_len == 0  # DM 0 beats the triangle's
        st.check()


def _check_after_each_removal(g, start, order, measure="dm"):
    """A fresh PeelState on ``start`` that removes the positions ``order``
    one by one and passes ``check()`` after each step."""
    st = PeelState(g, start, measure)
    st.check()
    for v in order:
        st.remove(v)
        st.check()
    return st


class TestCheck:
    """``PeelState.check()`` against the incremental values."""

    @pytest.mark.parametrize("n,p,seed", GNP_CASES)
    def test_random_order(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        comp = max(g.connected_components(), key=len)
        order = np.random.default_rng(seed).permutation(sorted(comp)).tolist()
        _check_after_each_removal(g, comp, g.csr().positions(order).tolist())

    def test_detects_drift(self):
        g, _ = karate()
        st = PeelState(g, g.nodes())
        st.remove(0)
        st.k[1] += 1
        with pytest.raises(AssertionError, match="k of position 1"):
            st.check()
        st.k[1] -= 1
        st.l -= 1
        with pytest.raises(AssertionError):
            st.check()
        st.l += 1
        st.removed_k[-1] += 1
        with pytest.raises(AssertionError, match="removal log"):
            st.check()


def _replay_cases():
    g, _ = karate()
    cases = [("karate", g, q) for q in ([0], [33], [0, 33])]
    g, _ = lfr_graph(n=150, d_avg=10, d_max=25, mu=0.3, min_c=10, max_c=40, seed=3)
    comp = sorted(max(g.connected_components(), key=len))
    cases += [("lfr150", g, q) for q in ([comp[0]], comp[:: len(comp) // 4][:4])]
    return cases


RUNS = {
    "fpa": ("repro.core.fpa", "fpa", {}),
    "fpa-prune": ("repro.core.fpa", "fpa", {"prune": True}),
    "fpa-dmg-cm": ("repro.core.fpa", "fpa", {"scorer": "dmg", "measure": "cm"}),
    "nca": ("repro.core.nca", "nca", {}),
    "nca-dr-gmd": ("repro.core.nca", "nca", {"scorer": "ratio", "measure": "gmd"}),
}


def _replay_fpa(g, layers, measure):
    """Replay each layer's removal log of one FPA run (a ``_Layers``) on a
    fresh state over P_j, with ``check()`` after every step; returns the
    best set of the replays and of P_0, ties going to the smaller set."""
    ids = g.csr().ids
    replays = [_check_after_each_removal(g, ids[layers.order[: layers.bounds[1]]], [], measure)]
    for j, (log, logk) in sorted(layers.logs.items()):
        start = ids[layers.order[: layers.bounds[j + 1]]]
        replay = _check_after_each_removal(g, start, log, measure)
        assert replay.removed_k == logk  # the k each node had when it left
        replays.append(replay)
    best = max(replays, key=lambda st: (st.best_score, -len(st.best())))
    return best.best()


@pytest.mark.parametrize("run", list(RUNS))
@pytest.mark.parametrize("case", _replay_cases(), ids=lambda c: f"{c[0]}-{len(c[2])}")
def test_check_replays_removal_logs(case, run, monkeypatch):
    """Record the peels FPA/NCA make, replay each one's removal log on a
    fresh ``PeelState`` with ``check()`` after every step, and get the
    same incumbent. NCA peels one ``PeelState``; FPA peels each BFS layer
    j from P_j (``core/fpa.py`` ``_Layers``), so each layer is replayed
    from P_j."""
    _, g, q = case
    modname, fn, kw = RUNS[run]
    mod = importlib.import_module(modname)
    made = []
    if fn == "fpa":
        init = mod._Layers.__init__

        def recording(self, *a, **k):
            init(self, *a, **k)
            made.append(self)

        monkeypatch.setattr(mod._Layers, "__init__", recording)
        res = mod.fpa(g, q, **kw)
        assert len(made) == 1
        assert res == _replay_fpa(g, made[0], kw.get("measure", "dm"))
        return

    class Recording(PeelState):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            made.append(self)

    monkeypatch.setattr(mod, "PeelState", Recording)
    res = getattr(mod, fn)(g, q, **kw)
    assert made and res == made[-1].best()
    ids = g.csr().ids
    for st in made:
        start = set(ids[st.S.array()].tolist()) | set(ids[st.order].tolist())
        replay = _check_after_each_removal(g, start, st.order, st.measure)
        assert replay.best_len == st.best_len and replay.best() == st.best()


def _fresh_score(g, nodes, measure):
    l, d = community_stats(g, nodes)
    if measure == "dm":
        return density_modularity(l, d, len(nodes), g.m)
    if measure == "cm":
        return classic_modularity(l, d, g.m)
    return generalized_modularity_density(l, d, len(nodes), g.m)


class TestIncumbent:
    """PeelState keeps Algorithm 1's best S as a prefix of its removals."""

    @pytest.mark.parametrize("measure", MEASURES)
    def test_start_set_before_any_removal(self, measure):
        g = random_local_graph(20, 0.2, 2)
        comp = max(g.connected_components(), key=len)
        st = PeelState(g, comp, measure)
        assert st.best() == comp
        assert st.best_score == _fresh_score(g, comp, measure)

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("n,p,seed", GNP_CASES)
    def test_matches_snapshot_rule(self, n, p, seed, measure):
        g = random_local_graph(n, p, seed)
        comp = max(g.connected_components(), key=len)
        order = np.random.default_rng(seed).permutation(sorted(comp)).tolist()
        st = PeelState(g, comp, measure)
        best, best_score = set(comp), _fresh_score(g, comp, measure)
        S = set(comp)
        for v in order[:-1]:
            st.remove(v)
            S.discard(v)
            s = _fresh_score(g, S, measure)
            if s >= best_score:  # a tie keeps the later, smaller set
                best, best_score = set(S), s
            assert st.best() == best
        assert st.best_score == best_score

    def test_tie_keeps_later_set(self):
        # edgeless: DM = 0 for every non-empty S, so each removal ties
        g = LocalGraph.from_edges([], nodes=[0, 1, 2])
        st = PeelState(g, {0, 1, 2})
        st.remove(0)
        st.remove(1)
        assert st.best() == {2}


class TestSteiner:
    def test_single_query(self):
        g = LocalGraph.from_edges([(0, 1)])
        assert steiner_connector(g, [0]) == {0}

    def test_two_queries_path(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        t = steiner_connector(g, [0, 3])
        assert t == {0, 1, 2, 3}

    def test_contains_queries_and_connected(self):
        for n, p, seed in GNP_CASES[:5]:
            g = random_local_graph(n, p, seed)
            comp = sorted(max(g.connected_components(), key=len))
            qs = [comp[0], comp[len(comp) // 2], comp[-1]]
            t = steiner_connector(g, qs)
            assert set(qs) <= t
            assert g.subgraph(t).is_connected()

    def test_disconnected_queries_raise(self):
        g = LocalGraph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            steiner_connector(g, [0, 3])

    def test_missing_query_raises(self):
        g = LocalGraph.from_edges([(0, 1)])
        with pytest.raises(KeyError):
            steiner_connector(g, [42])

    def test_empty_raises(self):
        g = LocalGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            steiner_connector(g, [])

    def test_duplicate_queries(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2)])
        assert steiner_connector(g, [2, 2, 0]) == {0, 1, 2}
