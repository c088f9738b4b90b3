"""Distributed multi-source BFS over the canonical edge table.

Frontier-expansion with one join per BFS level; the distance table is
localCheckpoint-ed every few rounds to truncate the growing lineage —
the standard idiom for iterative DataFrame algorithms.

Computes ``dist(v) = min over q in Q`` of the unweighted shortest-path
distance (§5.6) on the Spark graph. The algorithms take their distance
layers from the local CSR BFS (``LocalGraph.query_bfs``/``bfs_dist``)
instead; this op is checked against ``LocalGraph.bfs_dist``.
"""
from __future__ import annotations

from typing import Iterable

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graph import Graph

_CHECKPOINT_EVERY = 2


def distances(graph: Graph, sources: Iterable[int]) -> DataFrame:
    """Minimum BFS distance from any source; columns (id, dist).

    Unreachable nodes are absent (mirrors ``LocalGraph.bfs_dist``).
    """
    spark = graph.spark
    src_pdf = pd.DataFrame({"id": pd.Series(sorted(set(int(s) for s in sources)), dtype="int64")})
    if src_pdf.empty:
        raise ValueError("BFS needs at least one source node")
    dist = spark.createDataFrame(src_pdf).withColumn("dist", F.lit(0)).cache()
    frontier = dist.select("id").cache()
    sym = graph.symmetric().cache()
    depth = 0
    while True:
        depth += 1
        nxt = (
            sym.join(frontier.withColumnRenamed("id", "src"), "src")
            .select(F.col("dst").alias("id"))
            .distinct()
            .join(dist.select("id"), "id", "left_anti")
            .withColumn("dist", F.lit(depth))
        )
        nxt = nxt.cache()
        if nxt.isEmpty():
            break
        dist = dist.unionByName(nxt)
        if depth % _CHECKPOINT_EVERY == 0:
            dist = dist.localCheckpoint(eager=True)
        else:
            dist = dist.cache()
        frontier = nxt.select("id")
    return dist
