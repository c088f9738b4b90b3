"""Distributed multi-source BFS over the canonical edge table.

Frontier expansion with one join per BFS level. Each level's new
frontier is materialised once by an eager ``localCheckpoint``, which
also cuts the lineage, and the stop test reads that checkpoint; the
distance table with the level added is checkpointed the same way.
Nothing is cached, so nothing outlives the call: Spark frees the
checkpoint blocks once the JVM has collected the unreachable frames.

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


def distances(graph: Graph, sources: Iterable[int]) -> DataFrame:
    """Minimum BFS distance from any source; columns (id, dist).

    Unreachable nodes are absent (mirrors ``LocalGraph.bfs_dist``).
    """
    src_pdf = pd.DataFrame({"id": pd.Series(sorted(set(int(s) for s in sources)), dtype="int64")})
    if src_pdf.empty:
        raise ValueError("BFS needs at least one source node")
    dist = graph.spark.createDataFrame(src_pdf).withColumn("dist", F.lit(0))
    frontier = dist.select("id")
    sym = graph.symmetric()
    depth = 0
    while True:
        depth += 1
        nxt = (
            sym.join(frontier.withColumnRenamed("id", "src"), "src")
            .select(F.col("dst").alias("id"))
            .distinct()
            .join(dist.select("id"), "id", "left_anti")
            .withColumn("dist", F.lit(depth))
            .localCheckpoint(eager=True)
        )
        if nxt.isEmpty():
            return dist
        dist = dist.unionByName(nxt).localCheckpoint(eager=True)
        frontier = nxt.select("id")
