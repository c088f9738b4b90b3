"""Graph substrate: the in-memory graph, its decompositions, and Spark passes.

Import the submodules directly (``repro.graphs.local`` for the in-memory
graph, ``repro.graphs.graph`` for the Spark one), so that code using only
the local graph does not load pyspark.
"""
