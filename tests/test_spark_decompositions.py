"""Distributed k-core and triangle support vs the local decompositions,
networkx, and DuckDB SQL for triangle support."""
import networkx as nx
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.gendata.classic import karate
from repro.graphs import kcore, triangles
from repro.graphs import localops
from repro.graphs.graph import Graph
from repro.oracle import assert_equivalent

from .util import GNP_CASES, edges_pdf, random_local_graph, to_nx

SUPPORT_SQL = """
WITH sym AS (SELECT src, dst FROM edges UNION ALL SELECT dst, src FROM edges)
SELECT e.src, e.dst, (
  SELECT COUNT(*) FROM sym a JOIN sym b
  ON a.src = e.src AND b.src = e.dst AND a.dst = b.dst
) AS support
FROM edges e
"""


class TestKCore:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_vs_networkx_karate(self, spark, k):
        g, _ = karate()
        G = Graph.from_pandas(spark, edges_pdf(g))
        ours = sorted(r["id"] for r in kcore.k_core(G, k).nodes().collect())
        theirs = sorted(nx.k_core(to_nx(g), k).nodes())
        assert ours == theirs

    def test_min_degree_property(self, spark):
        g = random_local_graph(30, 0.2, 12)
        G = Graph.from_pandas(spark, edges_pdf(g))
        sub = kcore.k_core(G, 3)
        degs = [r["degree"] for r in sub.degrees().collect()]
        assert all(d >= 3 for d in degs)

    def test_local_mirror_matches(self, spark):
        g = random_local_graph(30, 0.2, 13)
        G = Graph.from_pandas(spark, edges_pdf(g))
        ours = sorted(r["id"] for r in kcore.k_core(G, 2).nodes().collect())
        mirror = sorted(v for v in localops.k_core(g, 2).adj)
        assert ours == mirror


class TestTriangles:
    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:4])
    def test_support_vs_duckdb(self, spark, n, p, seed):
        g = random_local_graph(n, p, seed)
        G = Graph.from_pandas(spark, edges_pdf(g))
        assert_equivalent(triangles.edge_support(G), SUPPORT_SQL, edges=edges_pdf(g))

    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:4])
    def test_support_vs_local(self, spark, n, p, seed):
        g = random_local_graph(n, p, seed)
        G = Graph.from_pandas(spark, edges_pdf(g))
        got = {
            (r["src"], r["dst"]): r["support"]
            for r in triangles.edge_support(G).collect()
        }
        assert got == localops.edge_support(g)
