"""Density modularity and friends: the paper's worked examples as golden
values, formula identities and Lemma 4/5 stability properties."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.modularity import (
    classic_modularity,
    cm_of,
    density_modularity,
    density_ratio,
    dm_gain,
    dm_of,
    generalized_modularity_density,
    scores_of,
)
from repro.core.peel import MEASURES, PeelState
from repro.gendata.classic import karate, ring_of_cliques

from .util import random_local_graph


class TestPaperExamples:
    """Examples 1-3 from the paper, exact to the printed precision."""

    def test_example1_cm_A(self):
        assert classic_modularity(6, 14, 26) == pytest.approx(0.158284, abs=1e-6)

    def test_example1_cm_AB(self):
        assert classic_modularity(14, 28, 26) == pytest.approx(0.2485207, abs=1e-7)

    def test_example2_dm_A(self):
        assert density_modularity(6, 14, 4, 26) == pytest.approx(1.028846, abs=1e-6)

    def test_example2_dm_AB(self):
        assert density_modularity(14, 28, 8, 26) == pytest.approx(0.8076923, abs=1e-7)

    def test_example2_preference_flips(self):
        # CM prefers A∪B, DM prefers A — the free-rider illustration
        assert classic_modularity(14, 28, 26) > classic_modularity(6, 14, 26)
        assert density_modularity(6, 14, 4, 26) > density_modularity(14, 28, 8, 26)

    def test_example3_cm(self):
        assert classic_modularity(31, 64, 480) == pytest.approx(0.06013889, abs=1e-8)
        assert classic_modularity(15, 32, 480) == pytest.approx(0.03013889, abs=1e-8)

    def test_example3_dm(self):
        assert density_modularity(31, 64, 12, 480) == pytest.approx(2.405556, abs=1e-6)
        assert density_modularity(15, 32, 6, 480) == pytest.approx(2.411111, abs=1e-6)

    def test_example3_resolution_limit_flips(self):
        assert classic_modularity(31, 64, 480) > classic_modularity(15, 32, 480)
        assert density_modularity(15, 32, 6, 480) > density_modularity(31, 64, 12, 480)

    def test_ring_graph_matches_example3_stats(self):
        g, comms = ring_of_cliques(30, 6)
        assert g.m == 480
        split = comms[0]
        merged = comms[0] | comms[1]
        assert g.internal_edges(split) == 15
        assert g.internal_edges(merged) == 31
        assert dm_of(g, split) == pytest.approx(2.411111, abs=1e-6)
        assert dm_of(g, merged) == pytest.approx(2.405556, abs=1e-6)
        assert cm_of(g, merged) > cm_of(g, split)


class TestFormulaIdentities:
    def test_dm_is_cm_rescaled(self):
        # DM(C) = CM(C) * |E| / |C|
        l, d, size, m = 7, 20, 5, 40
        assert density_modularity(l, d, size, m) == pytest.approx(
            classic_modularity(l, d, m) * m / size
        )

    @given(
        st.integers(1, 50),
        st.integers(1, 100),
        st.integers(2, 30),
        st.integers(50, 500),
    )
    @settings(max_examples=50, deadline=None)
    def test_gain_orders_like_updated_dm(self, k1, d1, size, m):
        """argmax Λ == argmax updated-DM (Definition 5 vs 6): for any two
        candidate nodes, Λ ranks them identically to the DM after removal."""
        l_s, d_s = 60, 200
        k2, d2 = (k1 + 3) % 50 + 1, (d1 * 7) % 100 + 1

        def updated(kv, dv):
            return (l_s - kv) / (size) - (d_s - dv) ** 2 / (4 * m * size)

        g1 = dm_gain(k1, d_s, d1, m)
        g2 = dm_gain(k2, d_s, d2, m)
        u1, u2 = updated(k1, d1), updated(k2, d2)
        if g1 > g2:
            assert u1 > u2 or math.isclose(u1, u2)
        elif g2 > g1:
            assert u2 > u1 or math.isclose(u1, u2)

    def test_density_ratio_infinite_when_isolated(self):
        assert density_ratio(5, 0) == float("inf")

    def test_edgeless_graph_measures_zero(self):
        # m = 0 forces l_C = d_C = 0: both measures are defined as 0
        assert classic_modularity(0, 0, 0) == 0.0
        assert density_modularity(0, 0, 2, 0) == 0.0

    def test_gmd_small_community(self):
        assert generalized_modularity_density(1, 2, 1, 10) == float("-inf")

    def test_gmd_weighted_by_density(self):
        # complete community of 4 nodes, l=6: density 1 → GMD == CM
        assert generalized_modularity_density(6, 12, 4, 50) == pytest.approx(
            classic_modularity(6, 12, 50)
        )


class TestArrayForm:
    """``scores_of`` is bit-equal to the scalar forms, edge cases included."""

    SCALAR = {
        "dm": lambda l, d, size, m: density_modularity(l, d, size, m),
        "cm": lambda l, d, size, m: classic_modularity(l, d, m),
        "gmd": lambda l, d, size, m: generalized_modularity_density(l, d, size, m),
    }

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("m", [0, 1, 7, 108063, 3_000_000])
    def test_bit_equal(self, measure, m):
        rng = np.random.default_rng(m)
        size = np.concatenate(([0, 1, 2, 3], rng.integers(0, 20000, 200)))
        l = rng.integers(0, m + 1, len(size)) if m else np.zeros(len(size), dtype=np.int64)
        d = np.minimum(2 * m, 2 * l + rng.integers(0, 2 * m + 1, len(size)))
        got = scores_of(measure, l, d, size, m)
        want = [self.SCALAR[measure](int(a), int(b), int(c), m) for a, b, c in zip(l, d, size)]
        assert got.tolist() == want

    def test_unknown_measure(self):
        with pytest.raises(ValueError):
            scores_of("nope", np.zeros(1), np.zeros(1), np.ones(1), 3)


class TestStability:
    """Lemma 4 (Λ unstable) and Lemma 5 (Θ stable)."""

    def test_theta_stable_under_removal(self):
        g = random_local_graph(20, 0.3, 21)
        comp = max(g.connected_components(), key=len)
        st_ = PeelState(g, comp)
        v = next(iter(comp))
        others = [u for u in comp if u != v and u not in g.adj[v]]
        before = {u: density_ratio(st_.deg[u], st_.k[u]) for u in others}
        st_.remove(v)
        after = {u: density_ratio(st_.deg[u], st_.k[u]) for u in others}
        assert before == after

    def test_lambda_unstable_under_removal(self):
        g = random_local_graph(20, 0.3, 21)
        comp = max(g.connected_components(), key=len)
        st_ = PeelState(g, comp)
        v = next(iter(comp))
        others = [u for u in comp if u != v and u not in g.adj[v]]
        before = {u: dm_gain(st_.k[u], st_.d, st_.deg[u], st_.m) for u in others}
        st_.remove(v)
        after = {u: dm_gain(st_.k[u], st_.d, st_.deg[u], st_.m) for u in others}
        # d_S shrinks, so every non-neighbour's Λ strictly changes
        assert all(after[u] < before[u] for u in others if st_.deg[u] > 0)


class TestGraphLevel:
    def test_dm_of_whole_karate(self):
        g, _ = karate()
        # whole graph: l_C = m, d_C = 2m → DM = (m - m)/(n) = ... compute directly
        want = (g.m - (2 * g.m) ** 2 / (4 * g.m)) / g.n
        assert dm_of(g, g.nodes()) == pytest.approx(want)

    def test_dm_of_matches_manual(self):
        g, comms = karate()
        c = comms[0]
        l = g.internal_edges(c)
        d = sum(g.degree(v) for v in c)
        assert dm_of(g, c) == pytest.approx(density_modularity(l, d, len(c), g.m))


def test_core_imports_without_pyspark():
    """The peel algorithms and baselines load no Spark code."""
    code = "import sys, repro.core, repro.baselines; print('pyspark' in sys.modules)"
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
