"""Driver-side core, truss and triangle decompositions.

The experiment harness, the jobs and the baselines build their
per-dataset index (core / truss numbers) with these on the local graph,
so per-query search is pure driver work. ``k_core`` and ``edge_support``
are also the references the Spark ops in ``kcore`` and ``triangles`` are
checked against.

Core numbers are the Batagelj–Zaveršnik O(|E|) bucket peel. Triangles and
truss numbers run on the graph's CSR view (``LocalGraph.csr``) in numpy:

* one triangle listing: each edge points from its lower- to its
  higher-ranked end (rank = degree, then id), and each triangle is found
  once, from its lowest-ranked corner, by looking up the edge that closes
  each pair of its forward neighbours with ``searchsorted`` on the sorted
  edge keys. The candidate pairs are expanded in bounded chunks;
* a level-synchronous support peel (Wang & Cheng, VLDB 2012): at level k
  every live edge with support <= k - 2 is removed in one round, its live
  triangles die and their surviving edges lose one support each. Only
  those edges are re-tested in the next round; k rises when a round
  removes nothing. Truss numbers are unique, so these are the numbers of
  the sequential one-edge-at-a-time peel.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .local import CSR, LocalGraph, _ranges

# Most candidate (edge, forward neighbour) pairs the triangle listing
# expands at once; bounds its scratch memory.
_CHUNK = 1 << 15


def core_numbers(g: LocalGraph) -> Dict[int, int]:
    """Batagelj–Zaveršnik O(|E|) core decomposition."""
    if g.n == 0:
        return {}
    deg = {v: len(nbrs) for v, nbrs in g.adj.items()}
    order = sorted(deg, key=deg.get)
    pos = {v: i for i, v in enumerate(order)}
    bin_start: Dict[int, int] = {}
    for i, v in enumerate(order):
        bin_start.setdefault(deg[v], i)
    core = dict(deg)
    for v in order:
        for u in g.adj[v]:
            if core[u] > core[v]:
                # move u to the front of its bin, then shrink its degree
                du = core[u]
                pu, pw = pos[u], bin_start[du]
                w = order[pw]
                order[pu], order[pw] = w, u
                pos[u], pos[w] = pw, pu
                bin_start[du] += 1
                bin_start.setdefault(du - 1, pw)
                core[u] -= 1
    return core


def k_core(g: LocalGraph, k: int) -> LocalGraph:
    """Maximal subgraph with min degree >= k."""
    core = core_numbers(g)
    return g.subgraph([v for v, c in core.items() if c >= k])


def _triangles(csr: CSR) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical edges and triangles of the CSR graph.

    Returns ``(p, q, tri)``: edge ``e`` joins the positions ``p[e] < q[e]``,
    and each row of ``tri`` (int32, one per triangle) holds the ids of its
    three edges.
    """
    n = csr.n
    # rank by (degree, position): a node has at most sqrt(2m) neighbours
    # of higher rank, which bounds the candidates of each edge
    by_rank = np.argsort(csr.deg, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    ra = np.repeat(rank, csr.deg)
    rb = rank[csr.indices]
    fwd = ra < rb
    keys = np.sort(ra[fwd] * n + rb[fwd])
    del ra, rb, fwd
    m = len(keys)
    a, b = np.divmod(keys, n)
    # edges are sorted by (a, b), so the forward neighbours of a that rank
    # above b are the edges after e in a's run, which ends at row_end[a]
    row_end = np.cumsum(np.bincount(a, minlength=n))
    cands = row_end[a] - np.arange(1, m + 1)
    cum = np.cumsum(cands)
    rows: List[np.ndarray] = []
    e0 = 0
    while e0 < m:
        done = int(cum[e0 - 1]) if e0 else 0
        e1 = max(int(np.searchsorted(cum, done + _CHUNK, side="right")), e0 + 1)
        lens = cands[e0:e1]
        e = np.repeat(np.arange(e0, e1, dtype=np.int32), lens)
        f = _ranges(np.arange(e0 + 1, e1 + 1), lens).astype(np.int32)
        # the edge (b[e], b[f]) closes the triangle, if it exists
        want = b[e] * n + b[f]
        j = np.searchsorted(keys, want)
        np.minimum(j, m - 1, out=j)
        hit = keys[j] == want
        rows.append(np.stack((e[hit], f[hit], j[hit].astype(np.int32)), axis=1))
        e0 = e1
    tri = np.concatenate(rows) if rows else np.zeros((0, 3), dtype=np.int32)
    pa, pb = by_rank[a], by_rank[b]
    return np.minimum(pa, pb), np.maximum(pa, pb), tri


def _support(tri: np.ndarray, m: int) -> np.ndarray:
    """Triangles per edge."""
    return np.bincount(tri.ravel(), minlength=m).astype(np.int32)


def _truss(csr: CSR) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(p, q, k)``: the canonical edges' end positions and truss numbers."""
    p, q, tri = _triangles(csr)
    m = len(p)
    n_tri = _support(tri, m)
    sup = n_tri.copy()
    # edge -> its triangles: tri_of[tri_ptr[e]:tri_ptr[e + 1]]
    tri_ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(n_tri, out=tri_ptr[1:])
    tri_of = (np.argsort(tri.ravel(), kind="stable") // 3).astype(np.int32)
    truss = np.zeros(m, dtype=np.int32)
    alive = np.ones(m, dtype=bool)
    tri_alive = np.ones(len(tri), dtype=bool)
    left, k = m, 2
    peel = np.flatnonzero(sup == 0)
    while left:
        if not peel.size:  # the live edges are the (k+1)-truss: next level
            k = int(sup[alive].min()) + 2
            peel = np.flatnonzero(alive & (sup <= k - 2))
        truss[peel] = k
        alive[peel] = False
        left -= peel.size
        ts = tri_of[_ranges(tri_ptr[peel], n_tri[peel])]
        ts = np.unique(ts[tri_alive[ts]])
        tri_alive[ts] = False
        hit = tri[ts].ravel()
        hit, cnt = np.unique(hit[alive[hit]], return_counts=True)
        sup[hit] -= cnt.astype(np.int32)
        peel = hit[sup[hit] <= k - 2]
    return p, q, truss


def _edge_dict(csr: CSR, p: np.ndarray, q: np.ndarray,
               vals: np.ndarray) -> Dict[Tuple[int, int], int]:
    """``{(u, v): val}`` over the canonical edges, keyed by node id."""
    ids = csr.ids
    return dict(zip(zip(ids[p].tolist(), ids[q].tolist()), vals.tolist()))


def edge_support(g: LocalGraph) -> Dict[Tuple[int, int], int]:
    """Triangles per canonical edge (u < v)."""
    csr = g.csr()
    p, q, tri = _triangles(csr)
    return _edge_dict(csr, p, q, _support(tri, len(p)))


def truss_numbers(g: LocalGraph) -> Dict[Tuple[int, int], int]:
    """Truss number per canonical edge (u < v)."""
    csr = g.csr()
    return _edge_dict(csr, *_truss(csr))


def k_truss(g: LocalGraph, k: int) -> LocalGraph:
    """Subgraph of edges with truss number >= k (no isolated nodes)."""
    t = truss_numbers(g)
    keep = [e for e, tk in t.items() if tk >= k]
    return LocalGraph.from_edges(keep)


def node_truss_numbers(g: LocalGraph) -> Dict[int, int]:
    """Max truss over incident edges; nodes with no edges get 2."""
    csr = g.csr()
    p, q, truss = _truss(csr)
    out = np.full(csr.n, 2, dtype=np.int32)
    np.maximum.at(out, p, truss)
    np.maximum.at(out, q, truss)
    return dict(zip(csr.ids.tolist(), out.tolist()))
