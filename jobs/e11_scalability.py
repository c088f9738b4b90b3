"""Figure 11 (as table) — scalability: running time vs node count.

Paper: 10K..100K nodes; ours: 2K..20K (DESIGN.md §5 scale-down). The
paper's NCA runs a Tarjan pass per removal; ours removes every node of
the component but scores only the top of each degree class and proves
most removals safe without a connectivity search (``core/nca.py``), so
it runs at every size here. FPA-DMG drains each layer through the same
queue. The claim under test is relative: NCA slowest, kc/highcore
fastest, FPA in between with a near-linear slope. Each (algorithm,
query) is timed as the median of ``ROUNDS`` rounds, and each round runs
the whole roster, so the algorithms interleave and share the host's
drift.
"""
import pandas as pd

from repro.baselines import highcore, kc
from repro.core import fpa, nca
from repro.evaluation.datasets import lfr
from repro.evaluation.harness import run_algorithms
from repro.evaluation.queries import query_sets
from repro.graphs.localops import core_numbers

from _common import emit

SIZES = [2000, 5000, 10000, 20000]
ROUNDS = 3


def run(n_queries: int = 3) -> pd.DataFrame:
    rows = []
    for n in SIZES:
        g, comms = lfr(seed=7, n=n, d_avg=12, d_max=60, max_c=min(200, n // 5))
        queries = query_sets(g, comms, n_sets=n_queries, q_size=1, seed=3)
        cores = core_numbers(g)
        algos = {
            "kc": lambda gg, q: kc(gg, q, k=3, cores=cores),
            "highcore": lambda gg, q: highcore(gg, q, cores=cores),
            "FPA": fpa,
            "FPA-DMG": lambda gg, q: fpa(gg, q, scorer="dmg"),
            "NCA": nca,
        }
        rounds = pd.concat([run_algorithms(g, comms, algos, queries) for _ in range(ROUNDS)])
        df = rounds.groupby(["algo", "qid", "status"], as_index=False)["seconds"].median()
        for name in algos:
            ok = df[(df["algo"] == name) & (df["status"] == "ok")]
            rows.append(
                dict(
                    n=n,
                    E=g.m,
                    algo=name,
                    median_seconds=round(ok["seconds"].median(), 4) if len(ok) else None,
                    max_seconds=round(ok["seconds"].max(), 4) if len(ok) else None,
                    runs=len(ok),
                )
            )
        print(f"[e11] n={n} done")
    return emit("e11_scalability", pd.DataFrame(rows))


if __name__ == "__main__":
    run()
