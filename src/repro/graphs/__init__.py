"""Graph substrate: distributed (Spark DataFrame) + sequential mirrors.

Import the submodules directly (``repro.graphs.local`` for the in-memory
graph, ``repro.graphs.graph`` for the Spark one), so that code using only
the local graph does not load pyspark.
"""
