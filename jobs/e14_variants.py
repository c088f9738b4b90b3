"""Figure 14 (as table) — the four (removable-node, scorer) function
combinations of Figure 3: NCA (a+c), NCA-DR (a+d), FPA-DMG (b+c),
FPA (b+d); accuracy and running time on default LFR (§6.2.5).
"""
import pandas as pd

from repro.evaluation.datasets import lfr
from repro.evaluation.harness import run_algorithms, summarize, variant_algorithms
from repro.evaluation.queries import query_sets

from _common import emit


def run(n_queries: int = 5) -> pd.DataFrame:
    g, comms = lfr(seed=14)
    queries = query_sets(g, comms, n_sets=n_queries, q_size=1, seed=5)
    algos = variant_algorithms()
    df = run_algorithms(g, comms, algos, queries, dataset="lfr-default")
    return emit("e14_variants", summarize(df))


if __name__ == "__main__":
    run()
