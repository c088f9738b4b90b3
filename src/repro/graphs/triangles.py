"""Distributed triangle counting / edge support.

Edge support (the number of triangles an edge participates in) is the
primitive behind k-truss (§2.1); the truss decomposition itself runs on
the driver (``repro.graphs.localops``). Computed with the standard two-join
wedge-closure on the canonical (src < dst) edge table: for each wedge
a<b, a<c (b<c) check whether (b, c) is an edge.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graph import Graph


def edge_support(graph: Graph) -> DataFrame:
    """Support per canonical edge, columns (src, dst, support).

    Every edge of the graph appears, with support 0 when it closes no
    triangle.
    """
    e = graph.edges
    # wedges centred at the smallest node: (a,b) and (a,c) with b < c
    w = (
        e.alias("e1")
        .join(e.alias("e2"), F.col("e1.src") == F.col("e2.src"))
        .where(F.col("e1.dst") < F.col("e2.dst"))
        .select(
            F.col("e1.src").alias("a"),
            F.col("e1.dst").alias("b"),
            F.col("e2.dst").alias("c"),
        )
    )
    tri = w.join(
        e.select(F.col("src").alias("b"), F.col("dst").alias("c")), ["b", "c"]
    )
    # each triangle (a<b<c) contributes support to its three edges
    contrib = (
        tri.select(F.col("a").alias("src"), F.col("b").alias("dst"))
        .unionByName(tri.select(F.col("a").alias("src"), F.col("c").alias("dst")))
        .unionByName(tri.select(F.col("b").alias("src"), F.col("c").alias("dst")))
        .groupBy("src", "dst")
        .agg(F.count("*").alias("support"))
    )
    return (
        e.join(contrib, ["src", "dst"], "left")
        .select("src", "dst", F.coalesce("support", F.lit(0)).alias("support"))
    )

