"""Incremental peel state shared by NCA and FPA (framework Algorithm 1).

Tracks the current community ``S`` and the scalar statistics needed by
every measure — internal edge count ``l_S``, original-degree sum
``d_S``, and per-node internal-edge counts ``k_{v,S}`` — updated in
O(deg(v)) per removal. The full graph is never mutated; degrees ``d_v``
are original-graph degrees throughout, matching the null model in
Definitions 1/2/5/6.

The state is flat arrays over the positions of the graph's CSR view
(:meth:`repro.graphs.local.LocalGraph.csr`; position order is id
order): ``S`` is an alive mask, ``k`` an ``array('q')`` that numpy can
view without a copy (:meth:`PeelState.k_array`), ``deg`` the CSR's
degrees. The set-up is one vectorised count over the CSR rows of the
start set. ``remove`` and every node argument take positions.

It also keeps Algorithm 1's answer, "the best S seen so far" under the
selection ``measure``, as greedy peeling does (Charikar, APPROX 2000):
removals go to an append-only log (``order`` and the ``k_{v,S}`` each
node had when it left). The incumbent is the start set minus the prefix
``order[:best_len]``, and a later S replaces it when it scores at least
as well, so ties go to the smaller set. ``best()`` finds that prefix
with one vectorised scan of the log (:func:`best_prefix`, which FPA's
layers share) and rebuilds the incumbent once, at the end.
"""
from __future__ import annotations

from array import array
from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from ..graphs.local import CSR, LocalGraph
from .modularity import (
    classic_modularity,
    density_modularity,
    generalized_modularity_density,
    scores_of,
)

MEASURES = ("dm", "cm", "gmd")


class Members:
    """S as an alive mask over CSR positions; ``len`` is |S|."""

    __slots__ = ("mask", "size")

    def __init__(self, mask: bytearray, size: int) -> None:
        self.mask, self.size = mask, size

    def __len__(self) -> int:
        return self.size

    def __contains__(self, p: int) -> bool:
        return bool(self.mask[p])

    def __iter__(self):
        return iter(np.flatnonzero(self.array()).tolist())

    def array(self) -> np.ndarray:
        """The mask as a numpy bool view (no copy)."""
        return np.frombuffer(self.mask, dtype=np.bool_)


def _count_k(csr: CSR, alive: np.ndarray) -> np.ndarray:
    """k_{v,S} for every position v (0 outside S): one bincount over the
    CSR rows of S."""
    rows = np.flatnonzero(alive)
    own = np.repeat(rows, csr.deg[rows])
    return np.bincount(own[alive[csr.neighbours(rows)]], minlength=csr.n)


def best_prefix(measure: str, start: Tuple[int, int, int], m: int, deg: np.ndarray,
                removed: Sequence[int], removed_k: Sequence[int]) -> Tuple[int, float]:
    """(t, score): the last t whose S_t, the start set with
    ``start`` = (l, d, |S|) minus the first t positions of ``removed``,
    scores highest under ``measure``, found by scoring every S_t at once.
    ``removed_k[i]`` is the k_{v,S} that ``removed[i]`` had when it left."""
    l0, d0, n0 = start
    t = np.arange(len(removed) + 1)
    l = l0 - np.concatenate(([0], np.cumsum(removed_k, dtype=np.int64)))
    removed_deg = deg[np.array(removed, dtype=np.int64)]
    d = d0 - np.concatenate(([0], np.cumsum(removed_deg, dtype=np.int64)))
    scores = scores_of(measure, l, d, n0 - t, m)
    best = len(scores) - 1 - int(np.argmax(scores[::-1]))  # a tie keeps the later S
    return best, float(scores[best])


class PeelState:
    __slots__ = ("csr", "m", "deg", "S", "k", "l", "d",
                 "measure", "order", "removed_k", "start")

    def __init__(self, g_full: LocalGraph, nodes: Iterable[int], measure: str = "dm") -> None:
        """Start from the node ids ``nodes``."""
        if measure not in MEASURES:
            raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
        self.csr = csr = g_full.csr()
        self.m = g_full.m
        self.deg = csr.py_deg
        mask = bytearray(csr.n)
        self.S = Members(mask, 0)
        alive = self.S.array()
        alive[csr.positions(nodes)] = True
        self.S.size = int(np.count_nonzero(alive))
        k = _count_k(csr, alive)
        self.k = array("q", k.tobytes())
        self.l: int = int(k.sum()) // 2
        self.d: int = int(csr.deg[alive].sum())
        self.measure = measure
        self.order: List[int] = []
        self.removed_k: List[int] = []
        self.start = (self.l, self.d, self.S.size)

    def k_array(self) -> np.ndarray:
        """``k`` as an int64 numpy view; it follows every removal."""
        return np.frombuffer(self.k, dtype=np.int64)

    def remove(self, v: int) -> List[int]:
        """Remove position ``v`` from S and log it; returns the positions
        in S whose k changed."""
        S, k = self.S, self.k
        alive = S.mask
        if not alive[v]:
            raise KeyError(v)
        alive[v] = 0
        S.size -= 1
        kv = k[v]
        self.l -= kv
        self.d -= self.deg[v]
        ptr = self.csr.py_indptr
        changed = [u for u in self.csr.py_indices[ptr[v]:ptr[v + 1]] if alive[u]]
        for u in changed:
            k[u] -= 1
        self.order.append(v)
        self.removed_k.append(kv)
        return changed

    # ------------------------------------------------------------ incumbent
    def _scan(self) -> Tuple[int, float]:
        """(best_len, best_score) of the log (:func:`best_prefix`)."""
        return best_prefix(self.measure, self.start, self.m, self.csr.deg, self.order, self.removed_k)

    @property
    def best_len(self) -> int:
        return self._scan()[0]

    @property
    def best_score(self) -> float:
        return self._scan()[1]

    def members(self, t: int) -> Set[int]:
        """Node ids of S_t, the start set minus the first ``t`` removals."""
        mask = self.S.array().copy()
        mask[self.order[t:]] = True
        return set(self.csr.ids[mask].tolist())

    def best(self) -> Set[int]:
        """The incumbent's node ids."""
        return self.members(self._scan()[0])

    def check(self) -> None:
        """Recompute ``l_S``, ``d_S``, |S| and every ``k_{v,S}`` from the
        CSR and raise AssertionError where an incremental value differs,
        or where replaying the log from the start set does not give them."""
        alive = self.S.array()
        k = _count_k(self.csr, alive)
        got = self.k_array()
        bad = np.flatnonzero(alive & (k != got))
        if bad.size:
            p = int(bad[0])
            raise AssertionError(f"k of position {p} is {got[p]}, recomputed {k[p]}")
        fresh = (int(k.sum()) // 2, int(self.csr.deg[alive].sum()), int(alive.sum()))
        if fresh != (self.l, self.d, self.S.size):
            raise AssertionError(f"(l, d, |S|) is {(self.l, self.d, self.S.size)}, recomputed {fresh}")
        l0, d0, n0 = self.start
        replay = (l0 - sum(self.removed_k), d0 - sum(self.deg[v] for v in self.order),
                  n0 - len(self.order))
        if replay != fresh:
            raise AssertionError(f"the removal log gives (l, d, |S|) = {replay}, recomputed {fresh}")

    # ------------------------------------------------------------- scoring
    def score(self, measure: str = "dm") -> float:
        if measure == "dm":
            return density_modularity(self.l, self.d, len(self.S), self.m)
        if measure == "cm":
            return classic_modularity(self.l, self.d, self.m)
        if measure == "gmd":
            return generalized_modularity_density(self.l, self.d, len(self.S), self.m)
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
