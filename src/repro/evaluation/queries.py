"""Query-set selection (paper §6.1 "Query Sets").

Query nodes are sampled from ground-truth communities, biased toward
nodes that sit in the (k+1)-truss "so that the query nodes are more
likely to be located in a meaningful community". With >20 (resp. >10)
communities we sample that many communities at random; otherwise query
sets are spread as evenly as possible across the communities.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Set

import numpy as np

from ..graphs.local import LocalGraph
from ..graphs.localops import node_truss_numbers

# query nodes with at least this truss number are preferred
TRUSS_MIN = 4


def query_sets(
    g: LocalGraph,
    communities: Sequence[Set[int]],
    n_sets: int = 10,
    q_size: int = 1,
    seed: int = 0,
    node_truss: Dict[int, int] | None = None,
) -> List[List[int]]:
    """Return ``n_sets`` query sets of ``q_size`` nodes each.

    Each set is drawn from one ground-truth community; within the
    community, nodes with truss number >= TRUSS_MIN are preferred, then
    highest-degree nodes. Communities smaller than q_size are skipped.
    """
    rng = np.random.default_rng(seed)
    nt = node_truss if node_truss is not None else node_truss_numbers(g)
    deg = g.degrees()
    usable = [c for c in communities if len(c) >= max(q_size, 2)]
    if not usable:
        raise ValueError("no ground-truth community large enough for a query set")
    if len(usable) >= n_sets:
        idx = rng.choice(len(usable), size=n_sets, replace=False)
        chosen = [usable[i] for i in idx]
    else:
        chosen = [usable[i % len(usable)] for i in range(n_sets)]
    out: List[List[int]] = []
    for c in chosen:
        members = sorted(c & set(g.adj))
        if len(members) < q_size:
            members = sorted(c)
        preferred = [v for v in members if nt.get(v, 2) >= TRUSS_MIN]
        pool = preferred if len(preferred) >= q_size else members
        # weight by degree so hubs of the community are more likely picks
        w = np.array([max(1, deg.get(v, 1)) for v in pool], dtype=np.float64)
        w /= w.sum()
        pick = rng.choice(len(pool), size=q_size, replace=False, p=w)
        out.append(sorted(int(pool[i]) for i in pick))
    return out
