"""Figure 10 (as table) — effect of |Q| on accuracy, default LFR.

The paper varies the query-set size for kc, kecc, NCA, FPA (kt is
single-query only and is dropped, as in the paper). Communities are
sampled from the ground truth and |Q| nodes drawn from each.
"""
import pandas as pd

from repro.evaluation.datasets import lfr
from repro.evaluation.harness import run_algorithms, standard_algorithms, summarize
from repro.evaluation.queries import query_sets

from _common import emit

Q_SIZES = [1, 2, 4, 8, 16]
ROSTER = ["kc", "kecc", "NCA", "FPA"]


def run(n_queries: int = 5) -> pd.DataFrame:
    g, comms = lfr(seed=42)
    algos = standard_algorithms(g, include=ROSTER)
    frames = []
    for qsize in Q_SIZES:
        queries = query_sets(g, comms, n_sets=n_queries, q_size=qsize, seed=qsize)
        df = run_algorithms(g, comms, algos, queries, dataset=f"|Q|={qsize}")
        s = summarize(df)
        s.insert(0, "q_size", qsize)
        frames.append(s)
        print(f"[e10] finished |Q|={qsize}")
    return emit("e10_multi_query", pd.concat(frames, ignore_index=True))


if __name__ == "__main__":
    run()
