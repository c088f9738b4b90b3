"""Distributed undirected graph over a canonical Spark edges DataFrame.

The graph is stored as a deduplicated canonical edge table with columns
``src < dst`` (long). The whole-graph passes over this table (degrees
here; BFS, connected components, k-core and edge support in their own
modules) are pure DataFrame programs. :meth:`Graph.to_local` collects the
table into the driver-side :class:`repro.graphs.local.LocalGraph` that the
algorithms run on.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .local import LocalGraph


class Graph:
    """Undirected simple graph backed by a canonical edges DataFrame.

    Construction canonicalizes an arbitrary (src, dst) edge list: casts to
    long, drops self loops, orients each edge ``src < dst``, and
    deduplicates — so parallel and reversed duplicates collapse, matching
    :class:`LocalGraph` semantics. The table is materialised once, by an
    eager ``localCheckpoint``; nothing is cached.
    """

    def __init__(self, spark: SparkSession, edges: DataFrame, *, _canonical: bool = False):
        self.spark = spark
        if _canonical:
            self.edges = edges
        else:
            e = edges.select(
                F.col(edges.columns[0]).cast("long").alias("a"),
                F.col(edges.columns[1]).cast("long").alias("b"),
            ).where(F.col("a") != F.col("b"))
            self.edges = (
                e.select(F.least("a", "b").alias("src"), F.greatest("a", "b").alias("dst"))
                .distinct()
                .localCheckpoint(eager=True)
            )
        self._num_edges: Optional[int] = None
        self._num_nodes: Optional[int] = None

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_pandas(cls, spark: SparkSession, pdf: pd.DataFrame) -> "Graph":
        return cls(spark, spark.createDataFrame(pdf))

    @classmethod
    def from_local(cls, spark: SparkSession, g: LocalGraph) -> "Graph":
        es = list(g.edges())
        pdf = pd.DataFrame(es, columns=["src", "dst"]) if es else pd.DataFrame(
            {"src": pd.Series(dtype="int64"), "dst": pd.Series(dtype="int64")}
        )
        return cls.from_pandas(spark, pdf)

    # -------------------------------------------------------------- basics
    def symmetric(self) -> DataFrame:
        """Both edge directions: columns (src, dst) with each edge twice."""
        return self.edges.unionByName(
            self.edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
        )

    def nodes(self) -> DataFrame:
        """Distinct node ids, column ``id``."""
        return (
            self.edges.select(F.col("src").alias("id"))
            .unionByName(self.edges.select(F.col("dst").alias("id")))
            .distinct()
        )

    def degrees(self) -> DataFrame:
        """Node degrees, columns (id, degree)."""
        return (
            self.symmetric()
            .groupBy(F.col("src").alias("id"))
            .agg(F.count("*").alias("degree"))
        )

    @property
    def num_edges(self) -> int:
        if self._num_edges is None:
            self._num_edges = self.edges.count()
        return self._num_edges

    @property
    def num_nodes(self) -> int:
        if self._num_nodes is None:
            self._num_nodes = self.nodes().count()
        return self._num_nodes

    # ------------------------------------------------------------- exchange
    def to_local(self) -> LocalGraph:
        """Collect this (sub)graph's edges to a driver-side LocalGraph."""
        pdf = self.edges.toPandas()
        return LocalGraph.from_arrays(
            pdf["src"].to_numpy(dtype=np.int64), pdf["dst"].to_numpy(dtype=np.int64)
        )
