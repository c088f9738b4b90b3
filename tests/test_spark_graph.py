"""Distributed Graph basics: canonicalization, degrees, local round trip —
degrees and node sets are oracle-checked against DuckDB SQL."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.graph import Graph
from repro.oracle import assert_equivalent

from .util import GNP_CASES, edges_pdf, random_local_graph


@pytest.fixture(scope="module")
def small_graph(spark):
    pdf = pd.DataFrame(
        {"src": [1, 2, 2, 3, 3, 1, 4], "dst": [2, 1, 3, 2, 4, 1, 3]}
    )
    return Graph.from_pandas(spark, pdf)


class TestCanonicalization:
    def test_dedup_and_orientation(self, small_graph):
        rows = sorted(map(tuple, small_graph.edges.collect()))
        assert rows == [(1, 2), (2, 3), (3, 4)]

    def test_self_loops_dropped(self, spark):
        g = Graph.from_pandas(spark, pd.DataFrame({"src": [1, 1], "dst": [1, 2]}))
        assert g.num_edges == 1

    def test_counts(self, small_graph):
        assert small_graph.num_edges == 3
        assert small_graph.num_nodes == 4

    def test_symmetric_doubles_edges(self, small_graph):
        assert small_graph.symmetric().count() == 6


class TestDegreesOracle:
    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:4])
    def test_degrees_vs_duckdb(self, spark, n, p, seed):
        g = random_local_graph(n, p, seed)
        G = Graph.from_pandas(spark, edges_pdf(g))
        assert_equivalent(
            G.degrees(),
            """
            SELECT id, COUNT(*) AS degree FROM (
              SELECT src AS id FROM edges UNION ALL SELECT dst AS id FROM edges
            ) GROUP BY id
            """,
            edges=edges_pdf(g),
        )

    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:4])
    def test_degrees_vs_local(self, spark, n, p, seed):
        g = random_local_graph(n, p, seed)
        G = Graph.from_pandas(spark, edges_pdf(g))
        got = {r["id"]: r["degree"] for r in G.degrees().collect()}
        want = {v: d for v, d in g.degrees().items() if d > 0}
        assert got == want

    def test_nodes_vs_duckdb(self, spark, small_graph):
        assert_equivalent(
            small_graph.nodes(),
            "SELECT DISTINCT src AS id FROM edges UNION SELECT DISTINCT dst AS id FROM edges",
            edges=pd.DataFrame({"src": [1, 2, 3], "dst": [2, 3, 4]}),
        )


class TestSubgraphAndRoundtrip:
    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:3])
    def test_to_local_roundtrip(self, spark, n, p, seed):
        g = random_local_graph(n, p, seed)
        G = Graph.from_pandas(spark, edges_pdf(g))
        back = G.to_local()
        assert sorted(back.edges()) == sorted(g.edges())

    def test_from_local(self, spark):
        g = random_local_graph(15, 0.3, 9)
        G = Graph.from_local(spark, g)
        assert G.num_edges == g.m
