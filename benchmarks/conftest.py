"""Shared benchmark fixtures: graphs are built once per session."""
import pytest

from repro.evaluation.datasets import lfr, overlapping, small_real
from repro.evaluation.queries import query_sets


@pytest.fixture(scope="session")
def lfr_default():
    return lfr(seed=0)


@pytest.fixture(scope="session")
def lfr_query(lfr_default):
    g, comms = lfr_default
    return query_sets(g, comms, n_sets=1, q_size=1, seed=1)[0]


@pytest.fixture(scope="session")
def karate_graph():
    from repro.gendata.classic import karate

    return karate()


@pytest.fixture(scope="session")
def dblp_lite():
    return overlapping()["DBLP-lite"]
