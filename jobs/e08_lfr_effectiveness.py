"""Figures 8 + 9 (as tables) — effectiveness and efficiency on the LFR
benchmark, sweeping the mixing parameter mu, average degree d_avg, and
maximum degree d_max (paper Table 2 axes, scaled per DESIGN.md §5).

One row per (sweep, value, algorithm): median NMI/ARI/F1, median
community size, and median seconds (the Figure 9 content). GN is
excluded at this scale, exactly as the paper drops baselines that
exceed the time limit.
"""
import pandas as pd

from repro.evaluation.datasets import LFR_DEFAULTS, lfr
from repro.evaluation.harness import run_algorithms, standard_algorithms, summarize
from repro.evaluation.queries import query_sets

from _common import emit

ROSTER = [
    "clique", "kc", "kt", "kecc", "CNM", "icwi2008", "huang2015",
    "wu2015", "highcore", "hightruss", "NCA", "FPA",
]

SWEEPS = {
    "mu": [0.2, 0.3, 0.4],
    "d_avg": [8, 12, 16, 20],
    "d_max": [40, 60, 80, 100],
}

# fixed per-sweep generator seeds (str hash() is process-salted — never
# use it for reproducible seeding)
SWEEP_SEEDS = {"mu": 101, "d_avg": 102, "d_max": 103}


def run(n_queries: int = 10) -> pd.DataFrame:
    frames = []
    for sweep, values in SWEEPS.items():
        for val in values:
            over = {sweep: val}
            g, comms = lfr(seed=SWEEP_SEEDS[sweep], **over)
            queries = query_sets(g, comms, n_sets=n_queries, q_size=1, seed=1)
            algos = standard_algorithms(g, include=ROSTER)
            df = run_algorithms(g, comms, algos, queries, dataset=f"{sweep}={val}")
            s = summarize(df)
            s.insert(0, "sweep", sweep)
            s.insert(1, "value", val)
            frames.append(s)
            print(f"[e08] finished {sweep}={val}")
    out = pd.concat(frames, ignore_index=True)
    return emit("e08_lfr_effectiveness", out)


if __name__ == "__main__":
    run()
