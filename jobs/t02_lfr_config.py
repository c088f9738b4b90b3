"""Table 2 — synthetic (LFR) network configuration, paper vs scaled.

Paper values are |V|=5000 with degrees {20..50}/{200..500}; DESIGN.md §5
scales |V| to 1000 and degrees by the same factor. This job prints the
mapping and verifies the default LFR instance realizes its parameters.
"""
import pandas as pd

from repro.evaluation.datasets import LFR_DEFAULTS, lfr

from _common import emit


def run() -> pd.DataFrame:
    g, comms = lfr(seed=0)
    realized_avg = round(2 * g.m / g.n, 1)
    comm_of = {v: i for i, c in enumerate(comms) for v in c}
    mu_realized = round(
        sum(1 for u, v in g.edges() if comm_of[u] != comm_of[v]) / g.m, 3
    )
    rows = [
        dict(var="|V|", paper="5,000", ours=LFR_DEFAULTS["n"], realized=g.n),
        dict(var="d_avg", paper="20,30,[40],50", ours="8,12,[16],20", realized=realized_avg),
        dict(var="d_max", paper="[200],300,400,500", ours="[40],60,80,100",
             realized=max(g.degrees().values())),
        dict(var="mu", paper="0.2,0.3,[0.4]", ours="0.2,0.3,[0.4]", realized=mu_realized),
        dict(var="min |C|", paper=20, ours=LFR_DEFAULTS["min_c"],
             realized=min(len(c) for c in comms)),
        dict(var="max |C|", paper=1000, ours=LFR_DEFAULTS["max_c"],
             realized=max(len(c) for c in comms)),
    ]
    return emit("t02_lfr_config", pd.DataFrame(rows))


if __name__ == "__main__":
    run()
