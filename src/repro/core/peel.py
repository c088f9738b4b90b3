"""Incremental peel state shared by NCA and FPA (framework Algorithm 1).

Tracks the current community ``S`` and the scalar statistics needed by
every measure — internal edge count ``l_S``, original-degree sum
``d_S``, and per-node internal-edge counts ``k_{v,S}`` — updated in
O(deg(v)) per removal. The full graph is never mutated; degrees ``d_v``
are original-graph degrees throughout, matching the null model in
Definitions 1/2/5/6.

It also keeps Algorithm 1's answer, "the best S seen so far" under the
selection ``measure``, as greedy peeling does (Charikar, APPROX 2000):
removals go to an append-only ``order``, and the incumbent is the start
set minus the prefix ``order[:best_len]``. A later S replaces the
incumbent when it scores at least as well, so ties go to the smaller
set. ``best()`` rebuilds the incumbent once, at the end.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ..graphs.local import LocalGraph
from .modularity import (
    classic_modularity,
    density_modularity,
    generalized_modularity_density,
)

MEASURES = ("dm", "cm", "gmd")


class PeelState:
    __slots__ = ("g", "m", "deg", "S", "k", "l", "d",
                 "measure", "order", "best_len", "best_score")

    def __init__(self, g_full: LocalGraph, nodes: Iterable[int], measure: str = "dm") -> None:
        self.g = g_full
        self.m = g_full.m
        self.deg = g_full.degrees()
        self.S: Set[int] = set(nodes)
        self.k: Dict[int, int] = {
            v: sum(1 for u in g_full.adj[v] if u in self.S) for v in self.S
        }
        self.l: int = sum(self.k.values()) // 2
        self.d: int = sum(self.deg[v] for v in self.S)
        self.measure = measure
        self.order: List[int] = []
        self.best_len = 0
        self.best_score = self.score(measure)

    def remove(self, v: int) -> List[int]:
        """Remove ``v`` from S and keep S if it is the best seen; returns
        the members whose k changed."""
        self.S.remove(v)
        self.l -= self.k.pop(v)
        self.d -= self.deg[v]
        changed: List[int] = []
        for u in self.g.adj[v]:
            if u in self.S:
                self.k[u] -= 1
                changed.append(u)
        self.order.append(v)
        s = self.score(self.measure)
        if s >= self.best_score:
            self.best_score, self.best_len = s, len(self.order)
        return changed

    def best(self) -> Set[int]:
        """The incumbent: S plus the removals after the best prefix."""
        return self.S.union(self.order[self.best_len:])

    # ------------------------------------------------------------- scoring
    def dm(self) -> float:
        return density_modularity(self.l, self.d, len(self.S), self.m)

    def cm(self) -> float:
        return classic_modularity(self.l, self.d, self.m)

    def gmd(self) -> float:
        return generalized_modularity_density(self.l, self.d, len(self.S), self.m)

    def score(self, measure: str = "dm") -> float:
        if measure == "dm":
            return self.dm()
        if measure == "cm":
            return self.cm()
        if measure == "gmd":
            return self.gmd()
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
