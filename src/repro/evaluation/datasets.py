"""Dataset registry used by jobs, tests and perfbench.

Every entry returns ``(LocalGraph, communities)``; ``Graph.from_local``
lifts the edge list into the distributed Spark ``Graph``.
Real-world graphs unavailable offline are replaced by calibrated analogs
(DESIGN.md §5); LFR parameters are the paper's Table 2 scaled 1/5.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple

from ..gendata.classic import (
    dolphin_analog,
    karate,
    mexican_analog,
    overlapping_communities,
    polblogs_analog,
    ring_of_cliques,
)
from ..gendata.lfr import lfr_graph
from ..graphs.local import LocalGraph

# Paper Table 2 scaled (DESIGN.md §5): |V| 5000→1000, degrees /5·4 ≈ /1.25… —
# we scale degrees by the same 1/5 node factor damped to keep communities
# detectable: d_avg {8,12,16,20} (default 16), d_max {40,60,80,100}
# (default 40), mu {0.2,0.3,0.4} (default 0.4), community sizes 10..200.
LFR_DEFAULTS = dict(n=1000, d_avg=16, d_max=40, mu=0.4, min_c=10, max_c=200)


def lfr(seed: int = 0, **over) -> Tuple[LocalGraph, List[Set[int]]]:
    params = {**LFR_DEFAULTS, **over}
    return lfr_graph(seed=seed, **params)


def small_real() -> Dict[str, Tuple[LocalGraph, List[Set[int]]]]:
    """Figure 15/16 roster: the four small graphs with 2 distinct
    ground-truth communities."""
    return {
        "Dolphin": dolphin_analog(),
        "Karate": karate(),
        "Mexican": mexican_analog(),
        "Polblogs": polblogs_analog(),
    }


def overlapping() -> Dict[str, Tuple[LocalGraph, List[Set[int]]]]:
    """Figure 17/18 roster: DBLP/Youtube/LiveJournal-lite analogs with
    many small (overlapping) ground-truth communities, ordered by scale."""
    return {
        "DBLP-lite": overlapping_communities(
            n_communities=120, size_lo=6, size_hi=24, p_in=0.55,
            overlap_frac=0.15, background_edges_per_node=0.8, seed=21,
        ),
        "Youtube-lite": overlapping_communities(
            n_communities=220, size_lo=5, size_hi=30, p_in=0.45,
            overlap_frac=0.25, background_edges_per_node=1.2, seed=22,
        ),
        "LiveJournal-lite": overlapping_communities(
            n_communities=400, size_lo=6, size_hi=40, p_in=0.5,
            overlap_frac=0.2, background_edges_per_node=1.0, seed=23,
        ),
    }


REGISTRY: Dict[str, Callable[[], Tuple[LocalGraph, List[Set[int]]]]] = {
    "karate": karate,
    "dolphin": dolphin_analog,
    "mexican": mexican_analog,
    "polblogs": polblogs_analog,
    "ring": ring_of_cliques,
    "lfr-default": lfr,
}


def table1_stats() -> List[dict]:
    """|V|, |E|, |C| rows for every graph we stand up (Table 1 analog)."""
    rows = []
    for name, build in {**REGISTRY}.items():
        g, comms = build()
        rows.append(dict(dataset=name, V=g.n, E=g.m, C=len(comms), overlap=False))
    for name, (g, comms) in overlapping().items():
        rows.append(dict(dataset=name, V=g.n, E=g.m, C=len(comms), overlap=True))
    return rows
