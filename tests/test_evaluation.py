"""Query selection + the experiment harness, end-to-end on small data."""
import pandas as pd
import pytest

from repro.evaluation.datasets import lfr, overlapping, small_real, table1_stats
from repro.evaluation.harness import (
    run_algorithms,
    standard_algorithms,
    summarize,
    variant_algorithms,
)
from repro.evaluation.queries import query_sets
from repro.gendata.classic import karate


@pytest.fixture(scope="module")
def kg():
    return karate()


@pytest.fixture(scope="module")
def lfr_tiny():
    return lfr(seed=4, n=300, d_avg=12, d_max=30, min_c=10, max_c=60)


class TestQuerySets:
    def test_counts_and_sizes(self, kg):
        g, comms = kg
        qs = query_sets(g, comms, n_sets=6, q_size=2, seed=0)
        assert len(qs) == 6 and all(len(q) == 2 for q in qs)

    def test_queries_inside_some_community(self, kg):
        g, comms = kg
        for q in query_sets(g, comms, n_sets=8, q_size=1, seed=1):
            assert any(set(q) <= c for c in comms)

    def test_determinism(self, kg):
        g, comms = kg
        assert query_sets(g, comms, n_sets=5, seed=3) == query_sets(
            g, comms, n_sets=5, seed=3
        )

    def test_seed_changes_selection(self, lfr_tiny):
        g, comms = lfr_tiny
        a = query_sets(g, comms, n_sets=5, seed=1)
        b = query_sets(g, comms, n_sets=5, seed=2)
        assert a != b

    def test_multi_node_queries_from_one_community(self, lfr_tiny):
        g, comms = lfr_tiny
        for q in query_sets(g, comms, n_sets=4, q_size=4, seed=5):
            assert any(set(q) <= c for c in comms)


class TestHarness:
    def test_run_and_summarize(self, kg):
        g, comms = kg
        algos = standard_algorithms(g, include=["kc", "FPA", "NCA"])
        qs = query_sets(g, comms, n_sets=3, seed=0)
        df = run_algorithms(g, comms, algos, qs, dataset="karate")
        assert len(df) == 9
        assert set(df.columns) >= {"algo", "nmi", "ari", "f1", "seconds", "status"}
        s = summarize(df)
        assert set(s["algo"]) == {"kc", "FPA", "NCA"}
        assert ((s["nmi"] >= 0) & (s["nmi"] <= 1)).all()

    def test_variant_roster(self, kg):
        g, comms = kg
        algos = variant_algorithms()
        assert set(algos) == {"NCA", "NCA-DR", "FPA-DMG", "FPA"}
        df = run_algorithms(g, comms, algos, [[0]], dataset="karate")
        assert (df["status"] == "ok").all()

    def test_none_results_scored_zero(self, kg):
        g, comms = kg
        algos = {"never": lambda gg, q: None}
        df = run_algorithms(g, comms, algos, [[0]])
        assert df.iloc[0]["status"] == "none" and df.iloc[0]["nmi"] == 0.0

    def test_error_captured(self, kg):
        g, comms = kg

        def boom(gg, q):
            raise RuntimeError("x")

        df = run_algorithms(g, comms, {"boom": boom}, [[0]])
        assert df.iloc[0]["status"] == "error:RuntimeError"

    def test_full_roster_on_karate(self, kg):
        g, comms = kg
        algos = standard_algorithms(g)
        assert len(algos) == 13  # 11 baselines + NCA + FPA
        df = run_algorithms(g, comms, algos, [[33]], dataset="karate")
        ok = df[df["status"] == "ok"]
        assert len(ok) >= 11  # kt-like methods may return none


def _karate_plus_k4():
    """Karate (nodes 0-33) and a disjoint K4 on nodes 100-103."""
    g, _ = karate()
    for u in range(100, 104):
        for v in range(u + 1, 104):
            g.add_edge(u, v)
    return g


_TWO_COMPONENTS = _karate_plus_k4()
# NCA and FPA are in both rosters with the same settings
_ROSTER = {**standard_algorithms(_TWO_COMPONENTS), **variant_algorithms()}


@pytest.mark.parametrize("name", sorted(_ROSTER))
@pytest.mark.parametrize(
    "q", [[], [999], [0, 100]], ids=["empty", "unknown", "split"]
)
def test_invalid_query_returns_none(name, q):
    """No connected community contains an empty Q, a node outside the
    graph, or a Q spread over two components."""
    assert _ROSTER[name](_TWO_COMPONENTS, q) is None


class TestDatasets:
    def test_small_real_roster(self):
        roster = small_real()
        assert set(roster) == {"Dolphin", "Karate", "Mexican", "Polblogs"}

    def test_overlapping_roster_ordered_by_scale(self):
        roster = overlapping()
        sizes = [g.n for g, _ in roster.values()]
        assert sizes == sorted(sizes)

    def test_table1_rows(self):
        rows = table1_stats()
        names = {r["dataset"] for r in rows}
        assert {"karate", "ring", "lfr-default", "DBLP-lite"} <= names
        for r in rows:
            assert r["V"] > 0 and r["E"] > 0 and r["C"] >= 1
