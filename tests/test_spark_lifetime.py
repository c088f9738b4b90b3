"""Lifetime of what the Spark graph ops materialise.

The ops cache nothing: each round's frame is materialised once by an
eager ``localCheckpoint``, whose blocks Spark frees once the JVM has
collected the frame. So the ops work with ``DataFrame.cache``/``persist``
disabled, and a repeated call launches the same jobs as the first: no
earlier call leaves state behind that a later one could reuse.
"""
import pytest
from pyspark.sql import DataFrame

from repro.graphs import bfs, components, kcore, localops, triangles
from repro.graphs.graph import Graph

from .util import GNP_CASES, edges_pdf, random_local_graph


def _no_caching(*args, **kwargs):
    raise AssertionError("a Spark graph op cached a DataFrame")


def test_ops_never_cache(spark, monkeypatch):
    # the session's concrete DataFrame class overrides the abstract one's methods
    for cls in {DataFrame, type(spark.range(1))}:
        monkeypatch.setattr(cls, "cache", _no_caching)
        monkeypatch.setattr(cls, "persist", _no_caching)
    g = random_local_graph(*GNP_CASES[3])
    G = Graph.from_pandas(spark, edges_pdf(g))
    assert sorted(tuple(r) for r in G.edges.collect()) == sorted(g.edges())

    assert {r["id"]: r["dist"] for r in bfs.distances(G, [0]).collect()} == g.bfs_dist([0])

    labels = {r["id"]: r["component"] for r in components.connected_components(G).collect()}
    assert labels == {v: min(c) for c in g.connected_components() if len(c) > 1 for v in c}

    cores = localops.core_numbers(g)
    assert sorted(r["id"] for r in kcore.k_core(G, 2).nodes().collect()) == sorted(
        v for v, c in cores.items() if c >= 2
    )

    sup = {(r["src"], r["dst"]): r["support"] for r in triangles.edge_support(G).collect()}
    assert sup == localops.edge_support(g)


def _jobs(spark, group, fn):
    """Number of Spark jobs ``fn`` launches under job group ``group``."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    return len(sc.statusTracker().getJobIdsForGroup(group))


def test_repeated_bfs_launches_the_same_jobs(spark):
    g = random_local_graph(*GNP_CASES[4])
    assert max(g.bfs_dist([0]).values()) >= 3  # at least 4 levels
    G = Graph.from_pandas(spark, edges_pdf(g))
    first = _jobs(spark, "lifetime-bfs-1", lambda: bfs.distances(G, [0]).collect())
    second = _jobs(spark, "lifetime-bfs-2", lambda: bfs.distances(G, [0]).collect())
    assert first > 0
    assert second == first
