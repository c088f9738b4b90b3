"""Modularity measures from the paper (Definitions 1, 2, 6, 7).

All unweighted-graph forms. Conventions (paper §3/§4):

* ``m``    — |E| of the *original* graph G,
* ``l_c``  — number of edges internal to community C,
* ``d_c``  — sum over v in C of deg_G(v) (original degrees, as in the
  classic modularity null model — degrees never change during peeling),
* ``size`` — |C|.

An edgeless graph (``m = 0``) has ``l_C = d_C = 0`` for every C, so the
scalar forms define CM = DM = 0 there instead of dividing by zero.

Both driver-side scalar forms (used inside the peel loops) and a Spark
DataFrame form (used by jobs/tests to score communities distributed).
"""
from __future__ import annotations

from typing import Dict, Iterable, Set

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..graphs.graph import Graph
from ..graphs.local import LocalGraph


# ------------------------------------------------------------- scalar forms
def classic_modularity(l_c: float, d_c: float, m: float) -> float:
    """CM(G,C) = (1/2|E|)(2 l_C − d_C²/(2|E|))  (Definition 1)."""
    if m == 0:
        return 0.0
    return (1.0 / (2.0 * m)) * (2.0 * l_c - d_c * d_c / (2.0 * m))


def density_modularity(l_c: float, d_c: float, size: int, m: float) -> float:
    """DM(G,C) = (1/2|C|)(2 l_C − d_C²/(2|E|))  (Definition 2, unweighted)."""
    if size <= 0:
        return float("-inf")
    if m == 0:
        return 0.0
    return (1.0 / (2.0 * size)) * (2.0 * l_c - d_c * d_c / (2.0 * m))


def generalized_modularity_density(
    l_c: float, d_c: float, size: int, m: float, chi: float = 1.0
) -> float:
    """Guo et al. [30] style density-weighted modularity of one community:
    CM(C) · (internal edge density)^chi. Used only as the Figure 12
    comparison measure (DESIGN.md §6)."""
    if size < 2:
        return float("-inf")
    dens = 2.0 * l_c / (size * (size - 1))
    return classic_modularity(l_c, d_c, m) * dens**chi


def dm_gain(k_vs: float, d_s: float, d_v: float, m: float) -> float:
    """Density modularity gain Λ_v^S = −4|E|·k_{v,S} + 2 d_S d_v − d_v²
    (Definition 6). argmax Λ = the removal maximizing updated DM."""
    return -4.0 * m * k_vs + 2.0 * d_s * d_v - d_v * d_v


def density_ratio(d_v: float, k_vs: float) -> float:
    """Density ratio Θ_v^S = d_v / k_{v,S} (Definition 7)."""
    return d_v / k_vs if k_vs > 0 else float("inf")


# ------------------------------------------------- community-on-graph forms
def community_stats(
    g: LocalGraph, nodes: Iterable[int], degrees: Dict[int, int] | None = None
) -> tuple[int, int]:
    """(l_C, d_C) of ``nodes`` against graph ``g`` (original degrees)."""
    deg = degrees if degrees is not None else g.degrees()
    ns: Set[int] = set(nodes)
    l_c = g.internal_edges(ns)
    d_c = sum(deg[v] for v in ns if v in deg)
    return l_c, d_c


def dm_of(g: LocalGraph, nodes: Iterable[int]) -> float:
    """DM of a node set against the full graph ``g``."""
    ns = set(nodes)
    l_c, d_c = community_stats(g, ns)
    return density_modularity(l_c, d_c, len(ns), g.m)


def cm_of(g: LocalGraph, nodes: Iterable[int]) -> float:
    l_c, d_c = community_stats(g, set(nodes))
    return classic_modularity(l_c, d_c, g.m)


# -------------------------------------------------------------- Spark form
def dm_spark(graph: Graph, members: DataFrame) -> float:
    """Density modularity of a community given as a DataFrame of node ids.

    Distributed evaluation: l_C via a two-sided semijoin on the canonical
    edge table, d_C via the degree aggregation. Used by jobs and by tests
    as the oracle for the driver-side incremental DM tracking.
    """
    ids = members.select(F.col(members.columns[0]).alias("id")).distinct().cache()
    size = ids.count()
    if size == 0:
        return float("-inf")
    m = graph.num_edges
    l_c = (
        graph.edges.join(ids.withColumnRenamed("id", "src"), "src")
        .join(ids.withColumnRenamed("id", "dst"), "dst")
        .count()
    )
    row = graph.degrees().join(ids, "id").agg(F.sum("degree").alias("d")).collect()[0]
    d_c = int(row["d"] or 0)
    return density_modularity(l_c, d_c, size, m)
