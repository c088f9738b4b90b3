"""Golden outputs: every FPA/NCA configuration returns the same sets.

Each configuration runs on fixed query sets over the default LFR graph
(``lfr(seed=0)``, |Q| = 1, 2 and 4), karate and a ring of cliques. Its
answers are stored as the list of sizes plus a hash of the sorted sets,
so any change to a returned community fails here. To regenerate after a
deliberate change of results, run ``PYTHONPATH=src python -m
tests.test_golden`` and paste its output over ``GOLDEN`` and
``GOLDEN_E11`` (and ``GOLDEN_INDEX`` and ``GOLDEN_BASELINES``).

``GOLDEN_E11`` covers Figure 11's graphs (``lfr(seed=7, n, d_avg=12,
d_max=60, max_c=200)`` at n = 2000, 5000 and 20000), where one FPA or
NCA query peels up to 20K nodes. The keys of ``GOLDEN_E11`` are the
configurations and sizes that run; un-pruned FPA-DMG runs at all three
sizes, so a change to how it drains a layer is checked where its layers
hold thousands of nodes.

``GOLDEN_INDEX`` locks what every query above and every benchmark answer
starts from: the truss index (``truss_numbers``, ``node_truss_numbers``)
and the query sets drawn with it (``query_sets`` at |Q| = 1, 2 and 4) on
the default LFR graph and the e11 graphs at n = 2000 and 5000.

``GOLDEN_BASELINES`` locks the eleven ``repro.baselines`` functions, each
run with its defaults on the same fixed cases; a ``None`` answer (no
community, or over a node budget) is stored as a size of ``None``.
"""
from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro import baselines
from repro.core import fpa, nca
from repro.evaluation.datasets import lfr
from repro.evaluation.queries import query_sets
from repro.gendata.classic import karate, ring_of_cliques
from repro.graphs.localops import node_truss_numbers, truss_numbers


def _configs() -> Dict[str, Callable]:
    out: Dict[str, Callable] = {}
    for scorer in ("ratio", "dmg"):
        for measure in ("dm", "cm", "gmd"):
            for prune in (False, True):
                out[f"fpa-{scorer}-{measure}-{'prune' if prune else 'full'}"] = (
                    lambda g, q, s=scorer, m=measure, p=prune: fpa(
                        g, q, scorer=s, measure=m, prune=p))
    out["nca"] = nca
    out["nca-dr"] = lambda g, q: nca(g, q, scorer="ratio")
    return out


CONFIGS = _configs()


@lru_cache(maxsize=None)
def _lfr(n: int = 0):
    """The default LFR graph (n = 0) or the e11 graph with n nodes."""
    return lfr(seed=0) if n == 0 else lfr(seed=7, n=n, d_avg=12, d_max=60, max_c=200)


@lru_cache(maxsize=None)
def _cases() -> List[Tuple[object, List[int]]]:
    g, comms = _lfr()
    cases = [(g, q) for size in (1, 2, 4)
             for q in query_sets(g, comms, n_sets=2, q_size=size, seed=0)]
    g, _ = karate()
    cases += [(g, q) for q in ([0], [33], [0, 33])]
    g, _ = ring_of_cliques(10, 6)
    cases += [(g, q) for q in ([0], [0, 7])]
    return cases


def digest(algo: Callable, cases=None) -> Tuple[Tuple[Optional[int], ...], str]:
    """(sizes, hash of the sorted sets) of ``algo`` over ``cases``
    (default: the fixed cases above); a ``None`` answer stays ``None``."""
    sets = [algo(g, q) for g, q in (_cases() if cases is None else cases)]
    text = repr([None if s is None else sorted(s) for s in sets])
    sizes = tuple(None if s is None else len(s) for s in sets)
    return sizes, hashlib.sha256(text.encode()).hexdigest()[:16]


GOLDEN: Dict[str, Tuple[Tuple[int, ...], str]] = {
    "fpa-ratio-dm-full": ((111, 55, 102, 31, 13, 26, 6, 10, 15, 6, 12), "3a862a5d33457e25"),
    "fpa-ratio-dm-prune": ((8, 11, 10, 31, 5, 26, 6, 10, 15, 6, 12), "fc3205ca76f1d8c2"),
    "fpa-ratio-cm-full": ((566, 447, 242, 341, 359, 355, 15, 16, 21, 30, 30), "212fafbff185c0fc"),
    "fpa-ratio-cm-prune": ((216, 136, 242, 341, 359, 355, 15, 16, 21, 30, 30), "9a84e4b20c9e3b78"),
    "fpa-ratio-gmd-full": ((151, 55, 166, 31, 211, 26, 15, 12, 15, 6, 12), "3037e1444ec4892a"),
    "fpa-ratio-gmd-prune": ((151, 55, 166, 31, 5, 26, 15, 12, 15, 6, 12), "a9a63628ea1fab18"),
    "fpa-dmg-dm-full": ((90, 41, 100, 21, 13, 19, 5, 12, 14, 6, 12), "8b506acc99a6c3c5"),
    "fpa-dmg-dm-prune": ((7, 6, 8, 21, 5, 19, 5, 12, 14, 6, 12), "a8ff99ff53f5352e"),
    "fpa-dmg-cm-full": ((626, 526, 238, 372, 364, 383, 15, 16, 21, 30, 30), "a5e41afb3d005fbd"),
    "fpa-dmg-cm-prune": ((217, 136, 238, 372, 364, 383, 15, 16, 21, 30, 30), "2de1d5c6d98a3766"),
    "fpa-dmg-gmd-full": ((90, 41, 115, 21, 182, 185, 13, 12, 14, 6, 12), "875d7fa5eee7d479"),
    "fpa-dmg-gmd-prune": ((90, 41, 115, 21, 5, 19, 13, 12, 14, 6, 12), "03f6791a913ad742"),
    "nca": ((73, 27, 74, 38, 48, 35, 5, 14, 14, 6, 12), "c80da91d14fc5dbb"),
    "nca-dr": ((59, 48, 47, 78, 59, 61, 7, 18, 16, 6, 12), "2ccfbbe872b0efa3"),
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_golden(name):
    assert digest(CONFIGS[name]) == GOLDEN[name]


# query_sets(g, comms, n_sets=2, q_size=1, seed=0) on each e11 graph, plus
# query_sets(..., n_sets=1, q_size=4, seed=0) on n = 2000, written out so
# the file does not pay for the truss decompositions behind them.
E11_QUERIES: Dict[int, List[List[int]]] = {
    2000: [[149], [56], [149, 513, 1165, 1815]],
    5000: [[984], [180]],
    20000: [[1285], [373]],
}


@lru_cache(maxsize=None)
def _e11_cases(n: int) -> List[Tuple[object, List[int]]]:
    g, _ = _lfr(n)
    return [(g, q) for q in E11_QUERIES[n]]


GOLDEN_E11: Dict[Tuple[str, int], Tuple[Tuple[int, ...], str]] = {
    ("fpa-ratio-dm-full", 2000): ((111, 55, 27), "80eab3f097cd38eb"),
    ("fpa-ratio-dm-full", 5000): ((776, 126), "0a20005305da502e"),
    ("fpa-ratio-dm-full", 20000): ((58, 109), "05492a6498189280"),
    ("fpa-ratio-dm-prune", 2000): ((18, 11, 4), "8f609dcc74d754b7"),
    ("fpa-ratio-dm-prune", 5000): ((11, 23), "a359a27955a18271"),
    ("fpa-ratio-dm-prune", 20000): ((13, 28), "547b40744f2f5799"),
    ("fpa-dmg-dm-full", 2000): ((92, 41, 20), "d187365dfe1b647a"),
    ("fpa-dmg-dm-full", 5000): ((411, 84), "8df7a6c6f2ccafcf"),
    ("fpa-dmg-dm-full", 20000): ((39, 94), "195e2224f72ec6c5"),
    ("fpa-dmg-dm-prune", 2000): ((12, 7, 4), "254680ed489a8f25"),
    ("fpa-dmg-dm-prune", 5000): ((8, 11), "75422c3c3e29101f"),
    ("fpa-dmg-dm-prune", 20000): ((7, 11), "9c836261a6555dcd"),
    ("nca", 2000): ((40, 41, 86), "caf434b588784461"),
    ("nca", 5000): ((112, 53), "39b11538e86a1082"),
    ("nca-dr", 5000): ((105, 115), "0e865e9202581ed4"),
    ("nca", 20000): ((169, 60), "b98f48d240b8e869"),
}


@pytest.mark.parametrize("name,n", list(GOLDEN_E11), ids=[f"{a}-n{n}" for a, n in GOLDEN_E11])
def test_golden_e11(name, n):
    assert digest(CONFIGS[name], _e11_cases(n)) == GOLDEN_E11[name, n]


def _hash(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def index_digests(n: int) -> Dict[str, str]:
    """Hashes of the truss index and the query sets on ``_lfr(n)``."""
    g, comms = _lfr(n)
    out = {
        "truss_numbers": _hash(sorted(truss_numbers(g).items())),
        "node_truss_numbers": _hash(sorted(node_truss_numbers(g).items())),
    }
    for size in (1, 2, 4):
        out[f"query_sets-q{size}"] = _hash(query_sets(g, comms, n_sets=10, q_size=size, seed=0))
    return out


# n -> index_digests(n); n = 0 is the default LFR graph
GOLDEN_INDEX: Dict[int, Dict[str, str]] = {
    0: {
        "truss_numbers": "a3c5a76c2bb520fc",
        "node_truss_numbers": "d723805fe6cf3a1d",
        "query_sets-q1": "499190336ca107c4",
        "query_sets-q2": "eca00982c68ac071",
        "query_sets-q4": "585da3ba44e64e3d",
    },
    2000: {
        "truss_numbers": "7ef4bd8eec880521",
        "node_truss_numbers": "eba2f0ffe4587a18",
        "query_sets-q1": "666992c92785365d",
        "query_sets-q2": "23ac854d91890e79",
        "query_sets-q4": "6eeb70906fb187a4",
    },
    5000: {
        "truss_numbers": "98475766f2e18862",
        "node_truss_numbers": "3821801517809fc4",
        "query_sets-q1": "ca339ebe1202fbd5",
        "query_sets-q2": "e1908025b3236be2",
        "query_sets-q4": "88a4bd1d211c0202",
    },
}


@pytest.mark.parametrize("n", list(GOLDEN_INDEX))
def test_golden_index(n):
    assert index_digests(n) == GOLDEN_INDEX[n]


BASELINES: Dict[str, Callable] = {name: getattr(baselines, name) for name in baselines.__all__}

GOLDEN_BASELINES: Dict[str, Tuple[Tuple[Optional[int], ...], str]] = {
    "clique_cs": ((5, 9, 673, 673, 673, 673, 6, 4, 25, 6, 60), "a2ce73b6c5c21cb7"),
    "cnm": ((196, 35, 541, 35, 541, 35, 6, 9, 34, 6, 12), "31125a3c3d773e6c"),
    "gn": ((None, None, None, None, None, None, 9, 12, 34, 6, 18), "07969a17296807fa"),
    "kc": ((1000, 1000, 1000, 1000, 1000, 1000, 22, 22, 22, 60, 60), "6d8129b2357f4c4a"),
    "highcore": ((358, 593, 593, 358, 593, 358, 10, 10, 10, 60, 60), "f64364adb933d2f2"),
    "kt": ((7, 40, 7, 40, 7, 40, 6, 6, None, 6, None), "78264911b457b084"),
    "hightruss": ((7, 40, 7, 40, 7, 40, 6, 6, 32, 6, 60), "324595ae534a68c8"),
    "huang2015": ((5, 4, 7, 10, 7, 15, 6, 6, 29, 6, 13), "407da3e719fe0c71"),
    "kecc_cs": ((1000, 1000, 1000, 1000, 1000, 1000, 22, 22, 22, 6, None), "077e780f7abf976f"),
    "icwi2008": ((15, 44, 15, 10, 15, 44, 29, 10, 29, 7, 8), "3a3159e221036d6f"),
    "wu2015": ((276, 23, 290, 300, 306, 19, 6, 14, 12, 6, 12), "5528654b8cfbb194"),
}


@pytest.mark.parametrize("name", list(BASELINES))
def test_golden_baselines(name):
    assert digest(BASELINES[name]) == GOLDEN_BASELINES[name]


if __name__ == "__main__":
    for name, algo in CONFIGS.items():
        sizes, h = digest(algo)
        print(f'    "{name}": ({sizes}, "{h}"),')
    print()
    for name, n in GOLDEN_E11:
        sizes, h = digest(CONFIGS[name], _e11_cases(n))
        print(f'    ("{name}", {n}): ({sizes}, "{h}"),')
    print()
    for n in GOLDEN_INDEX:
        print(f"    {n}: {{")
        for key, h in index_digests(n).items():
            print(f'        "{key}": "{h}",')
        print("    },")
    print()
    for name, algo in BASELINES.items():
        sizes, h = digest(algo)
        print(f'    "{name}": ({sizes}, "{h}"),')
