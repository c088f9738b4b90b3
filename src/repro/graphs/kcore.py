"""Distributed k-core by iterative peeling.

``k_core`` repeatedly deletes nodes of degree < k until fixpoint — the
classic distributed peel, one degree-aggregation + one anti-join per
round, with each round's edge table localCheckpoint-ed.
"""
from __future__ import annotations

from pyspark.sql import functions as F

from .graph import Graph


def k_core(graph: Graph, k: int) -> Graph:
    """Maximal subgraph with minimum degree >= k (possibly empty)."""
    g = graph
    while True:
        weak = g.degrees().where(F.col("degree") < k).select("id")
        if weak.isEmpty():
            return g
        keep = g.nodes().join(weak, "id", "left_anti")
        e = (
            g.edges.join(keep.withColumnRenamed("id", "src"), "src")
            .join(keep.withColumnRenamed("id", "dst"), "dst")
            .select("src", "dst")
        )
        g = Graph(graph.spark, e.localCheckpoint(eager=True), _canonical=True)
