"""Modularity measures from the paper (Definitions 1, 2, 6, 7).

All unweighted-graph forms. Conventions (paper §3/§4):

* ``m``    — |E| of the *original* graph G,
* ``l_c``  — number of edges internal to community C,
* ``d_c``  — sum over v in C of deg_G(v) (original degrees, as in the
  classic modularity null model — degrees never change during peeling),
* ``size`` — |C|.

An edgeless graph (``m = 0``) has ``l_C = d_C = 0`` for every C, so the
scalar forms define CM = DM = 0 there instead of dividing by zero.

Scalar forms (used inside the peel loops), an array form (scores every
prefix of a peel's removal log at once) and community-on-graph forms
(used by the harness and tests to score a returned node set).
"""
from __future__ import annotations

from typing import Iterable, Set

import numpy as np

from ..graphs.local import LocalGraph

# exponent of the internal edge density in generalized modularity density
GMD_CHI = 1.0


# ------------------------------------------------------------- scalar forms
def classic_modularity(l_c: float, d_c: float, m: float) -> float:
    """CM(G,C) = (1/2|E|)(2 l_C − d_C²/(2|E|))  (Definition 1)."""
    if m == 0:
        return 0.0
    return (1.0 / (2.0 * m)) * (2.0 * l_c - d_c * d_c / (2.0 * m))


def density_modularity(l_c: float, d_c: float, size: int, m: float) -> float:
    """DM(G,C) = (1/2|C|)(2 l_C − d_C²/(2|E|))  (Definition 2, unweighted)."""
    if size <= 0:
        return float("-inf")
    if m == 0:
        return 0.0
    return (1.0 / (2.0 * size)) * (2.0 * l_c - d_c * d_c / (2.0 * m))


def generalized_modularity_density(l_c: float, d_c: float, size: int, m: float) -> float:
    """Guo et al. [30] style density-weighted modularity of one community:
    CM(C) · (internal edge density)^GMD_CHI. Used only as the Figure 12
    comparison measure (DESIGN.md §6)."""
    if size < 2:
        return float("-inf")
    dens = 2.0 * l_c / (size * (size - 1))
    return classic_modularity(l_c, d_c, m) * dens**GMD_CHI


def dm_gain(k_vs: float, d_s: float, d_v: float, m: float) -> float:
    """Density modularity gain Λ_v^S = −4|E|·k_{v,S} + 2 d_S d_v − d_v²
    (Definition 6). argmax Λ = the removal maximizing updated DM."""
    return -4.0 * m * k_vs + 2.0 * d_s * d_v - d_v * d_v


def density_ratio(d_v: float, k_vs: float) -> float:
    """Density ratio Θ_v^S = d_v / k_{v,S} (Definition 7)."""
    return d_v / k_vs if k_vs > 0 else float("inf")


# -------------------------------------------------------------- array form
def scores_of(
    measure: str, l_c: np.ndarray, d_c: np.ndarray, size: np.ndarray, m: int
) -> np.ndarray:
    """``measure`` ("dm" | "cm" | "gmd") of many communities at once, from
    int64 arrays of l_C, d_C and |C|.

    Each element takes the floating-point operations of the scalar form
    above, in the same order, so it is bit-equal to it, the ``m = 0``,
    ``size <= 0`` (DM) and ``size < 2`` (GMD) cases included.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if m == 0:
            cm = np.zeros(len(l_c))
        else:
            cm = (1.0 / (2.0 * m)) * (2.0 * l_c - d_c * d_c / (2.0 * m))
        if measure == "cm":
            return cm
        if measure == "dm":
            out = (np.zeros(len(l_c)) if m == 0 else
                   (1.0 / (2.0 * size)) * (2.0 * l_c - d_c * d_c / (2.0 * m)))
            out[size <= 0] = -np.inf
            return out
        if measure == "gmd":
            out = cm * (2.0 * l_c / (size * (size - 1))) ** GMD_CHI
            out[size < 2] = -np.inf
            return out
    raise ValueError(f"unknown measure {measure!r}")


# ------------------------------------------------- community-on-graph forms
def community_stats(g: LocalGraph, nodes: Iterable[int]) -> tuple[int, int]:
    """(l_C, d_C) of ``nodes`` against graph ``g`` (original degrees)."""
    ns: Set[int] = set(nodes)
    l_c = g.internal_edges(ns)
    d_c = sum(len(g.adj[v]) for v in ns if v in g.adj)
    return l_c, d_c


def dm_of(g: LocalGraph, nodes: Iterable[int]) -> float:
    """DM of a node set against the full graph ``g``."""
    ns = set(nodes)
    l_c, d_c = community_stats(g, ns)
    return density_modularity(l_c, d_c, len(ns), g.m)


def cm_of(g: LocalGraph, nodes: Iterable[int]) -> float:
    l_c, d_c = community_stats(g, set(nodes))
    return classic_modularity(l_c, d_c, g.m)

