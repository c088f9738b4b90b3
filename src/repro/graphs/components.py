"""Distributed connected components via iterative min-label propagation.

Each node starts labelled with its own id; every round each node takes the
minimum label in its closed neighbourhood; stop when no label changes.
Converges in O(diameter) rounds — small-world graphs (the paper's domain,
§5.2.2) converge in a handful of joins. Each round computes the old and
the new label side by side in one frame, materialises it once with an
eager ``localCheckpoint`` (which cuts the lineage) and runs its stop test
on that checkpoint. Nothing is cached.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graph import Graph


def connected_components(graph: Graph) -> DataFrame:
    """Component labels, columns (id, component); label = min node id."""
    labels = graph.nodes().withColumn("component", F.col("id"))
    sym = graph.symmetric()
    while True:
        nbr_min = (
            sym.join(labels.withColumnRenamed("id", "dst"), "dst")
            .groupBy(F.col("src").alias("id"))
            .agg(F.min("component").alias("nbr"))
        )
        # every node comes from the edge table, so each has a neighbour
        step = (
            labels.join(nbr_min, "id")
            .select("id", "component", F.least("component", "nbr").alias("new"))
            .localCheckpoint(eager=True)
        )
        labels = step.select("id", F.col("new").alias("component"))
        if step.where(F.col("new") != F.col("component")).isEmpty():
            return labels
