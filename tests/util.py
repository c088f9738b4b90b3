"""Shared test helpers: random graphs, networkx bridging, reference peels."""
from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Set, Tuple

import networkx as nx
import numpy as np
import pandas as pd

from repro.core.fpa import prefix_scores
from repro.core.modularity import density_ratio, dm_gain
from repro.core.peel import PeelState
from repro.core.steiner import steiner_connector
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


# ------------------------------------------------------------ reference FPA
def _peel_layer_ratio(state: PeelState, layer: List[int]) -> None:
    """Drain one layer in max-Θ order with a lazy-deletion heap."""
    k, deg = state.k, state.deg
    heap = [(-density_ratio(deg[v], k[v]), k[v], v) for v in layer]
    heapq.heapify(heap)
    cand = set(layer)
    while cand:
        negt, kv, u = heapq.heappop(heap)
        if u not in cand or k[u] != kv:
            continue  # stale entry
        cand.discard(u)
        for w in state.remove(u):
            if w in cand:
                heapq.heappush(heap, (-density_ratio(deg[w], k[w]), k[w], w))


def _peel_layer_dmg(state: PeelState, layer: List[int]) -> None:
    """Drain one layer in max-Λ order; Λ is unstable (Lemma 4) so it is
    recomputed over all remaining candidates each removal."""
    k, deg = state.k, state.deg
    cand = set(layer)
    while cand:
        u = max(cand, key=lambda v: (dm_gain(k[v], state.d, deg[v], state.m), v))
        cand.discard(u)
        state.remove(u)


def fpa_reference_peel(
    g: LocalGraph, queries: Iterable[int], *, prune: bool = False,
    scorer: str = "ratio", measure: str = "dm",
) -> Optional[Tuple[PeelState, List[List[int]]]]:
    """Algorithm 2 as written: one ``PeelState`` over the whole component
    (over P_{i*} with ``prune``), every layer drained node by node from the
    outside in, nothing skipped. Returns the state after the last removal
    and the layers as CSR positions, or None where ``fpa`` returns None."""
    found = g.query_bfs(queries)
    if found is None:
        return None
    qs, order, bounds = found
    csr = g.csr()
    if len(qs) > 1:
        order, bounds = csr.bfs(csr.positions(steiner_connector(g, qs)))
    if prune:
        i_star = int(np.argmax(prefix_scores(g, order, bounds, measure)))
        order, bounds = order[: bounds[i_star + 1]], bounds[: i_star + 2]
    layers = [x.tolist() for x in np.split(order, bounds[1:-1])]
    state = PeelState(g, csr.ids[order], measure)
    peel = _peel_layer_ratio if scorer == "ratio" else _peel_layer_dmg
    for layer in reversed(layers[1:]):
        peel(state, layer)
    return state, layers


def fpa_reference(g: LocalGraph, queries: Iterable[int], **kw) -> Optional[Set[int]]:
    """The community of :func:`fpa_reference_peel`: the best set its peel
    visited, a tie going to the smaller set."""
    found = fpa_reference_peel(g, queries, **kw)
    return None if found is None else found[0].best()
