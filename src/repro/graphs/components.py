"""Distributed connected components via iterative min-label propagation.

Each node starts labelled with its own id; every round each node takes the
minimum label in its closed neighbourhood; stop when no label changes.
Converges in O(diameter) rounds — small-world graphs (the paper's domain,
§5.2.2) converge in a handful of joins. Every round's labels are
localCheckpoint-ed, which truncates the lineage.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graph import Graph


def connected_components(graph: Graph) -> DataFrame:
    """Component labels, columns (id, component); label = min node id."""
    labels = graph.nodes().withColumn("component", F.col("id")).cache()
    sym = graph.symmetric().cache()
    while True:
        nbr_min = (
            sym.join(labels.withColumnRenamed("id", "dst"), "dst")
            .groupBy(F.col("src").alias("id"))
            .agg(F.min("component").alias("nbr"))
        )
        new_labels = (
            labels.join(nbr_min, "id", "left")
            .select(
                "id",
                F.least(
                    F.col("component"), F.coalesce(F.col("nbr"), F.col("component"))
                ).alias("component"),
            )
        )
        new_labels = new_labels.localCheckpoint(eager=True)
        changed = (
            new_labels.alias("n")
            .join(labels.alias("o"), "id")
            .where(F.col("n.component") != F.col("o.component"))
            .isEmpty()
        )
        labels = new_labels
        if changed:
            break
    return labels
