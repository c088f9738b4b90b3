"""§6.3.2 case study (as table) — on the DBLP-lite co-authorship analog,
query the highest-degree author ("Philip S. Yu" stand-in) and compare
FPA vs 3-truss vs 3-core communities: size, fraction of members
adjacent to the query, and the query's betweenness / eigenvector
centrality rank inside each community.
"""
import pandas as pd

from repro.baselines import kc, kt
from repro.core import fpa
from repro.evaluation.datasets import overlapping
from repro.graphs.localops import core_numbers, truss_numbers

from _common import emit


def _rank(scores: dict, v: int) -> int:
    order = sorted(scores, key=lambda u: (-scores[u], u))
    return order.index(v) + 1


def run() -> pd.DataFrame:
    g, _ = overlapping()["DBLP-lite"]
    q = max(g.degrees(), key=lambda v: g.degree(v))
    results = {
        "FPA": fpa(g, [q]),
        "3-truss": kt(g, [q], k=3, truss=truss_numbers(g)),
        "3-core": kc(g, [q], k=3, cores=core_numbers(g)),
    }
    rows = []
    for name, comm in results.items():
        if not comm:
            rows.append(dict(algo=name, size=0))
            continue
        sub = g.subgraph(comm)
        adj_frac = sum(1 for v in comm if v != q and v in g.adj[q]) / max(1, len(comm) - 1)
        bet = sub.node_betweenness()
        eig = sub.eigenvector_centrality()
        rows.append(
            dict(
                algo=name,
                size=len(comm),
                frac_adjacent_to_q=round(adj_frac, 3),
                betweenness_rank_of_q=_rank(bet, q),
                eigen_rank_of_q=_rank(eig, q),
            )
        )
    return emit("e20_case_study", pd.DataFrame(rows))


if __name__ == "__main__":
    run()
