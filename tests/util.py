"""Shared test helpers: random graphs, networkx bridging."""
from __future__ import annotations

from typing import List, Set, Tuple

import networkx as nx
import numpy as np
import pandas as pd

from repro.gendata.classic import karate, ring_of_cliques
from repro.gendata.lfr import lfr_graph
from repro.graphs.local import LocalGraph

# (n, p, seed) triples used across parametrized reference tests
GNP_CASES: List[Tuple[int, float, int]] = [
    (12, 0.25, 1),
    (20, 0.2, 2),
    (30, 0.15, 3),
    (40, 0.1, 4),
    (25, 0.3, 5),
    (35, 0.12, 6),
    (18, 0.4, 7),
    (50, 0.08, 8),
]


def random_local_graph(n: int, p: float, seed: int) -> LocalGraph:
    rng = np.random.default_rng(seed)
    g = LocalGraph()
    for v in range(n):
        g.add_node(v)
    iu, iv = np.triu_indices(n, k=1)
    take = rng.random(len(iu)) < p
    for u, v in zip(iu[take].tolist(), iv[take].tolist()):
        g.add_edge(u, v)
    return g


def relabel(g: LocalGraph, a: int, b: int) -> LocalGraph:
    """``g`` with every node v renamed a·v + b: ids no longer 0..n-1, so
    a CSR position is not the node's id."""
    return LocalGraph.from_edges(((a * u + b, a * v + b) for u, v in g.edges()),
                                 nodes=[a * v + b for v in g.nodes()])


def equivalence_cases() -> List[Tuple[str, LocalGraph, List[int]]]:
    """(name, graph, query set) for the comparisons against reference
    peels: karate, karate relabelled v -> 3v + 7, the GNP graphs, the ring
    of cliques and a small LFR graph with |Q| = 1, 2 and 4."""
    g, _ = karate()
    karate_qs = ([0], [16], [33], [0, 33])
    cases = [(f"karate-{q}", g, q) for q in karate_qs]
    for n, p, seed in GNP_CASES:
        g = random_local_graph(n, p, seed)
        cases.append((f"gnp-{n}-{seed}", g, [min(max(g.connected_components(), key=len))]))
    g, _ = ring_of_cliques(10, 6)
    cases.append(("ring", g, [0]))
    g, _ = lfr_graph(n=150, d_avg=10, d_max=25, mu=0.3, min_c=10, max_c=40, seed=3)
    comp = sorted(max(g.connected_components(), key=len))
    for size in (1, 2, 4):
        cases.append((f"lfr-q{size}", g, comp[:: len(comp) // size][:size]))
    g = relabel(karate()[0], 3, 7)
    cases += [(f"karate-3v+7-{q}", g, [3 * v + 7 for v in q]) for q in karate_qs]
    return cases


def to_nx(g: LocalGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(g.nodes())
    G.add_edges_from(g.edges())
    return G


def edges_pdf(g: LocalGraph) -> pd.DataFrame:
    es = sorted(g.edges())
    if not es:
        return pd.DataFrame({"src": pd.Series(dtype="int64"), "dst": pd.Series(dtype="int64")})
    return pd.DataFrame(es, columns=["src", "dst"]).astype("int64")
