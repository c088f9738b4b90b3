"""Test-local Spark tuning.

The session fixture (root conftest) uses 64 shuffle partitions — right
for the larger benchmark graphs, pure overhead for the <100-node graphs the
substrate tests use, where the iterative algorithms issue dozens of tiny
Spark jobs. Whenever a test pulls in the ``spark`` fixture, drop to 8
partitions (idempotent; the substrate code is partition-count agnostic).
"""
import pytest


@pytest.fixture(autouse=True)
def _small_graph_shuffle(request):
    if "spark" in request.fixturenames:
        spark = request.getfixturevalue("spark")
        spark.conf.set("spark.sql.shuffle.partitions", "8")
    yield
