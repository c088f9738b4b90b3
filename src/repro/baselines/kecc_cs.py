"""k-edge-connected-component community search (Chang et al. [10]).

Returns the k-ECC containing all query nodes (paper default k=3).
Exactness/heuristic split lives in ``repro.graphs.kecc`` (DESIGN.md §6).
"""
from __future__ import annotations

from typing import Iterable, Optional, Set

from ..graphs.kecc import kecc
from ..graphs.local import LocalGraph


def kecc_cs(
    g: LocalGraph, queries: Iterable[int], k: int = 3, exact_limit: int = 400
) -> Optional[Set[int]]:
    found = g.query_component(queries)
    if found is None:
        return None
    qs, comp = found
    # k-ECCs never span components, so search the query component only
    for c in kecc(g.subgraph(comp), k, exact_limit=exact_limit):
        if all(q in c for q in qs):
            return c if len(c) > 1 else None
    return None
