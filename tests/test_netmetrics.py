import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegconn.errors import ValidationError
from eegconn.netmetrics import (
    WeightedNetwork,
    clustering,
    cn_features,
    degrees,
    global_efficiency,
    shortest_paths,
    symmetrize,
    transitivity,
)
from eegconn.spectral import BandSpec, PdcTensor


def net_of(w):
    return WeightedNetwork(weights=np.asarray(w, dtype=float))


def random_net(rng, n=6, density=0.7):
    w = rng.random((n, n))
    w[rng.random((n, n)) > density] = 0.0
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return WeightedNetwork(weights=w)


# -- independent oracles -------------------------------------------------------


def floyd_warshall_oracle(weights):
    """All-pairs relaxation (cubic triple loop) over lengths 1/w."""
    n = weights.shape[0]
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i in range(n):
        for j in range(n):
            if i != j and weights[i, j] > 0:
                d[i, j] = 1.0 / weights[i, j]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i, k] + d[k, j] < d[i, j]:
                    d[i, j] = d[i, k] + d[k, j]
    return d


def efficiency_oracle(weights):
    d = floyd_warshall_oracle(weights)
    n = weights.shape[0]
    total = 0.0
    for i in range(n):
        acc = 0.0
        for j in range(n):
            if j != i and np.isfinite(d[i, j]) and d[i, j] > 0:
                acc += 1.0 / d[i, j]
        total += acc / (n - 1)
    return total / n


def triangle_oracle(weights):
    """Direct triangle enumeration for t_i, clustering, transitivity."""
    n = weights.shape[0]
    t = np.zeros(n)
    for i in range(n):
        for j in range(n):
            for h in range(n):
                t[i] += (weights[i, j] * weights[i, h] * weights[j, h]) ** (1.0 / 3.0)
    t *= 0.5
    k = (weights > 0).sum(axis=1)
    c = np.zeros(n)
    for i in range(n):
        if k[i] >= 2:
            c[i] = 2.0 * t[i] / (k[i] * (k[i] - 1))
    denom = float((k * (k - 1)).sum())
    trans = 2.0 * t.sum() / denom if denom > 0 else 0.0
    return t, c, trans


class TestSymmetrize:
    def test_directed_halved(self):
        w = symmetrize([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(w.weights, [[0.0, 0.5], [0.5, 0.0]])

    def test_symmetric_fixed_point(self, rng):
        m = rng.random((4, 4))
        m = 0.5 * (m + m.T)
        np.fill_diagonal(m, 0.0)
        np.testing.assert_allclose(symmetrize(m).weights, m, atol=1e-15)

    def test_diagonal_only_becomes_zero(self):
        w = symmetrize(np.diag([1.0, 2.0, 3.0]))
        assert np.all(w.weights == 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            symmetrize([[0.0, -0.1], [0.2, 0.0]])


class TestDegrees:
    def test_complete_graph(self):
        w = np.full((4, 4), 0.5)
        np.fill_diagonal(w, 0.0)
        np.testing.assert_allclose(degrees(net_of(w)), 1.5)

    def test_zero_matrix(self):
        assert np.all(degrees(net_of(np.zeros((3, 3)))) == 0.0)

    def test_post_symmetrization_example(self):
        w = symmetrize([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(degrees(w), [0.5, 0.5])


class TestShortestPaths:
    def test_two_nodes(self):
        d = shortest_paths(net_of([[0.0, 0.5], [0.5, 0.0]]))
        assert d[0, 1] == pytest.approx(2.0)
        assert d[0, 0] == 0.0

    def test_chain_shortcut(self):
        w = symmetrize([[0, 1.0, 0.1], [1.0, 0, 1.0], [0.1, 1.0, 0]])
        d = shortest_paths(w)
        assert d[0, 2] == pytest.approx(2.0)  # two strong hops beat the weak direct edge

    def test_matches_relaxation_oracle(self, rng):
        for _ in range(5):
            net = random_net(rng)
            np.testing.assert_allclose(
                shortest_paths(net), floyd_warshall_oracle(net.weights), atol=1e-12
            )

    def test_disconnected_is_inf(self):
        d = shortest_paths(net_of(np.zeros((3, 3))))
        off = d[~np.eye(3, dtype=bool)]
        assert np.all(np.isinf(off))

    def test_triangle_inequality(self, rng):
        net = random_net(rng, n=7)
        d = shortest_paths(net)
        n = net.size
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if np.isfinite(d[i, j]) and np.isfinite(d[i, k]) and np.isfinite(d[k, j]):
                        assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


    def test_strongest_edge_is_shortest(self):
        # a length of 1e-9 is an edge like any other, not "no edge"
        net = net_of([[0.0, 1e9], [1e9, 0.0]])
        assert shortest_paths(net)[0, 1] == 1e-9
        assert global_efficiency(net) == pytest.approx(1e9, rel=1e-15)

    def test_no_nodes(self):
        assert shortest_paths(net_of(np.zeros((0, 0)))).shape == (0, 0)

    def test_bitwise_equal_to_dijkstra(self):
        # Dijkstra from each source reaches the same fixed point with the same
        # sums, so the bits agree, including the last-bit asymmetry of d_ij
        # against d_ji.  Weights stay at or below 1e7: scipy reads a dense
        # length within 1e-8 of zero as "no edge", so above 1e8 it drops the
        # strongest edges and is no oracle.
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        rng = np.random.default_rng(2610)
        for case in range(1500):
            n = int(rng.integers(0, 18))
            low = 10.0 ** rng.uniform(-15, 7)
            w = np.exp(rng.uniform(np.log(low), np.log(1e7), (n, n)))
            w[rng.random((n, n)) > rng.random()] = 0.0  # any density, empty included
            if case % 4 == 0 and n > 2:  # two components
                w[: n // 2, n // 2:] = 0.0
                w[n // 2:, : n // 2] = 0.0
            w = 0.5 * (w + w.T)
            if case % 5 == 0:  # asymmetry within the tolerance: the shorter length counts
                w = np.maximum(w + (w > 0) * 1e-13 * np.triu(rng.uniform(-1, 1, (n, n)), 1), 0.0)
            np.fill_diagonal(w, 0.0)
            with np.errstate(divide="ignore"):
                lengths = np.where(w > 0, 1.0 / np.where(w > 0, w, 1.0), np.inf)
            want = csgraph.shortest_path(lengths, method="D", directed=False)
            got = shortest_paths(net_of(w))
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (case, n)

    def test_runtime_loads_no_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        probe = "import sys, eegconn.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestGlobalEfficiency:
    def test_complete_unit_graph(self):
        w = np.ones((5, 5)) - np.eye(5)
        assert global_efficiency(net_of(w)) == pytest.approx(1.0)

    def test_empty_graph(self):
        assert global_efficiency(net_of(np.zeros((4, 4)))) == 0.0

    def test_matches_oracle(self, rng):
        for _ in range(5):
            net = random_net(rng)
            assert global_efficiency(net) == pytest.approx(efficiency_oracle(net.weights),
                                                            abs=1e-12)

    def test_monotone_in_weights(self, rng):
        net = random_net(rng, n=6)
        base = global_efficiency(net)
        w = net.weights.copy()
        nz = np.argwhere(w > 0)
        i, j = nz[rng.integers(len(nz))]
        w[i, j] = w[j, i] = w[i, j] * 2.0
        assert global_efficiency(net_of(w)) >= base - 1e-12


class TestClustering:
    def test_unit_triangle(self):
        w = np.ones((3, 3)) - np.eye(3)
        ci, c = clustering(net_of(w))
        np.testing.assert_allclose(ci, 1.0)
        assert c == pytest.approx(1.0)

    def test_star_has_no_triangles(self):
        w = np.zeros((4, 4))
        w[0, 1:] = w[1:, 0] = 1.0
        ci, c = clustering(net_of(w))
        assert np.all(ci == 0.0) and c == 0.0

    def test_weighted_triangle_hand_value(self):
        # geometric-mean oracle: t = 0.5 * 2 * (1 * 1 * 0.125)^(1/3) = 0.5 at each node
        w = symmetrize([[0, 1.0, 0.125], [1.0, 0, 1.0], [0.125, 1.0, 0]])
        ci, _ = clustering(w)
        assert ci[1] == pytest.approx(0.5)  # node opposite the light edge

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(5):
            net = random_net(rng)
            _, c_oracle, _ = triangle_oracle(net.weights)
            ci, c = clustering(net)
            np.testing.assert_allclose(ci, c_oracle, atol=1e-12)
            assert c == pytest.approx(c_oracle.mean(), abs=1e-12)


class TestTransitivity:
    def test_complete_graph(self):
        w = np.ones((4, 4)) - np.eye(4)
        assert transitivity(net_of(w)) == pytest.approx(1.0)

    def test_star(self):
        w = np.zeros((4, 4))
        w[0, 1:] = w[1:, 0] = 1.0
        assert transitivity(net_of(w)) == 0.0

    def test_edgeless(self):
        assert transitivity(net_of(np.zeros((4, 4)))) == 0.0

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(5):
            net = random_net(rng)
            _, _, t_oracle = triangle_oracle(net.weights)
            assert transitivity(net) == pytest.approx(t_oracle, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_bounded_by_one_for_unit_weights(self, seed):
        net = random_net(np.random.default_rng(seed), n=5)
        ci, _ = clustering(net)
        assert np.all(ci <= 1.0 + 1e-12) and np.all(ci >= 0.0)
        assert 0.0 <= transitivity(net) <= 1.0 + 1e-12


class TestCnFeatures:
    def make_pdc(self, rng, n=16, bands=5):
        vals = rng.random((n, n, bands)) * 0.8
        idx = np.arange(n)
        vals[idx, idx, :] = 0.0
        return PdcTensor(values=vals, bands=BandSpec(), self_excluded=True)

    def test_paper_shape(self, rng):
        feats = cn_features(self.make_pdc(rng))
        assert feats.values.shape == (34, 5)  # 2N + 2 rows for N = 16

    def test_all_zero_pdc(self):
        t = PdcTensor(values=np.zeros((16, 16, 5)), bands=BandSpec(), self_excluded=True)
        feats = cn_features(t)
        assert np.all(feats.values == 0.0)

    def test_layout_blocks(self, rng):
        pdc = self.make_pdc(rng, n=4)
        feats = cn_features(pdc)
        net = symmetrize(pdc.values[:, :, 0])
        col = feats.values[:, 0]
        np.testing.assert_allclose(col[:4], degrees(net))
        assert col[4] == pytest.approx(global_efficiency(net))
        np.testing.assert_allclose(col[5:9], clustering(net)[0])
        assert col[9] == pytest.approx(transitivity(net))

    def test_permutation_equivariance(self, rng):
        net = random_net(rng, n=6)
        perm = rng.permutation(6)
        pw = net.weights[np.ix_(perm, perm)]
        pnet = net_of(pw)
        np.testing.assert_allclose(degrees(pnet), degrees(net)[perm], atol=1e-12)
        np.testing.assert_allclose(clustering(pnet)[0], clustering(net)[0][perm], atol=1e-12)
        assert global_efficiency(pnet) == pytest.approx(global_efficiency(net), abs=1e-12)
        assert transitivity(pnet) == pytest.approx(transitivity(net), abs=1e-12)


class TestNetworkInvariants:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            net_of([[0.0, 0.3], [0.1, 0.0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            net_of([[0.1, 0.0], [0.0, 0.0]])
