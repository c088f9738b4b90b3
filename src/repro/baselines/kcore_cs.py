"""k-core community search baselines (Sozio & Gionis [52]).

* ``kc``       — connected component of the k-core containing all Q
  (paper default k=3).
* ``highcore`` — highest-order core: the largest k such that all query
  nodes sit in one connected component of the k-core.
"""
from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from ..graphs.local import LocalGraph
from ..graphs.localops import core_numbers


def kc(
    g: LocalGraph,
    queries: Iterable[int],
    k: int = 3,
    cores: Dict[int, int] | None = None,
) -> Optional[Set[int]]:
    qs = g.query_nodes(queries)
    if qs is None:
        return None
    cores = cores if cores is not None else core_numbers(g)
    if any(cores.get(q, 0) < k for q in qs):
        return None
    # the component of qs[0] in the k-core, without copying the k-core
    comp = g.component_where(qs[0], lambda v, u: cores.get(u, 0) >= k)
    return comp if all(q in comp for q in qs) else None


def highcore(
    g: LocalGraph,
    queries: Iterable[int],
    cores: Dict[int, int] | None = None,
) -> Optional[Set[int]]:
    qs = g.query_nodes(queries)
    if qs is None:
        return None
    cores = cores if cores is not None else core_numbers(g)
    k_hi = min(cores[q] for q in qs)
    for k in range(k_hi, 0, -1):
        res = kc(g, qs, k=k, cores=cores)
        if res is not None:
            return res
    # k=0: plain connected component
    found = g.query_component(qs)
    return None if found is None else found[1]
