"""Figure 13 bench — layer-based pruning speedup (FPA vs FPA-no-prune)."""
from repro.core import fpa


def test_bench_fpa_pruned(benchmark, lfr_default, lfr_query):
    g, _ = lfr_default
    r = benchmark(lambda: fpa(g, lfr_query, prune=True))
    assert r


def test_bench_fpa_no_prune(benchmark, lfr_default, lfr_query):
    g, _ = lfr_default
    r = benchmark(lambda: fpa(g, lfr_query, prune=False))
    assert r
