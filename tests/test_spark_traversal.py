"""Distributed BFS + connected components vs local mirrors and DuckDB
recursive SQL oracles."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs import bfs, components
from repro.graphs.graph import Graph
from repro.oracle import assert_equivalent

from .util import GNP_CASES, edges_pdf, random_local_graph

BFS_SQL = """
WITH RECURSIVE sym AS (
  SELECT src, dst FROM edges UNION ALL SELECT dst, src FROM edges
), walk(id, dist) AS (
  SELECT id, 0 FROM sources
  UNION
  SELECT s.dst, w.dist + 1 FROM walk w JOIN sym s ON s.src = w.id
  WHERE w.dist < (SELECT COUNT(*) FROM edges) + 2
)
SELECT id, MIN(dist) AS dist FROM walk GROUP BY id
"""

CC_SQL = """
WITH RECURSIVE sym AS (
  SELECT src, dst FROM edges UNION ALL SELECT dst, src FROM edges
), nodes AS (
  SELECT DISTINCT src AS id FROM sym
), reach(id, root) AS (
  SELECT id, id FROM nodes
  UNION
  SELECT s.dst, r.root FROM reach r JOIN sym s ON s.src = r.id
)
SELECT id, MIN(root) AS component FROM reach GROUP BY id
"""


class TestBFS:
    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:5])
    def test_vs_local(self, spark, n, p, seed):
        g = random_local_graph(n, p, seed)
        G = Graph.from_pandas(spark, edges_pdf(g))
        got = {r["id"]: r["dist"] for r in bfs.distances(G, [0]).collect()}
        assert got == g.bfs_dist([0])

    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:3])
    def test_vs_duckdb_recursive_sql(self, spark, n, p, seed):
        g = random_local_graph(n, p, seed)
        if not g.adj[0]:
            pytest.skip("source isolated")
        G = Graph.from_pandas(spark, edges_pdf(g))
        assert_equivalent(
            bfs.distances(G, [0]),
            BFS_SQL,
            edges=edges_pdf(g),
            sources=pd.DataFrame({"id": [0]}),
        )

    def test_multi_source(self, spark):
        g = random_local_graph(20, 0.15, 11)
        G = Graph.from_pandas(spark, edges_pdf(g))
        got = {r["id"]: r["dist"] for r in bfs.distances(G, [0, 5, 9]).collect()}
        assert got == g.bfs_dist([0, 5, 9])

    def test_empty_sources_raises(self, spark):
        G = Graph.from_pandas(spark, pd.DataFrame({"src": [0], "dst": [1]}))
        with pytest.raises(ValueError):
            bfs.distances(G, [])


class TestConnectedComponents:
    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:5])
    def test_vs_local(self, spark, n, p, seed):
        g = random_local_graph(n, p, seed)
        G = Graph.from_pandas(spark, edges_pdf(g))
        got = {}
        for r in components.connected_components(G).collect():
            got.setdefault(r["component"], set()).add(r["id"])
        ours = sorted(sorted(c) for c in got.values())
        # local components exclude isolated nodes absent from the edge table
        theirs = sorted(
            sorted(c) for c in g.connected_components() if any(g.adj[v] for v in c)
        )
        assert ours == theirs

    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:3])
    def test_vs_duckdb_recursive_sql(self, spark, n, p, seed):
        g = random_local_graph(n, p, seed)
        G = Graph.from_pandas(spark, edges_pdf(g))
        assert_equivalent(
            components.connected_components(G), CC_SQL, edges=edges_pdf(g)
        )

    def test_two_components_labels(self, spark):
        pdf = pd.DataFrame({"src": [0, 5], "dst": [1, 6]})
        G = Graph.from_pandas(spark, pdf)
        rows = {r["id"]: r["component"] for r in components.connected_components(G).collect()}
        assert rows[0] == rows[1] == 0 and rows[5] == rows[6] == 5
