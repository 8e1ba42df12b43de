import math

import numpy as np
import pytest
from scipy.sparse import csgraph

from rggembed import rgg


class TestSamplePoints:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            rgg.sample_points(0, 2, 1)
        with pytest.raises(ValueError):
            rgg.sample_points(5, 0, 1)

    def test_deterministic(self):
        a = rgg.sample_points(10**4, 2, 7)
        b = rgg.sample_points(10**4, 2, 7)
        assert np.array_equal(a.coords, b.coords)

    @pytest.mark.slow
    def test_coordinate_means(self):
        # CLT: 3 sigma for the mean of 10^6 uniforms is ~0.00087; the
        # tolerance doubles that
        pts = rgg.sample_points(10**6, 2, 123)
        means = pts.coords.mean(axis=0)
        assert np.all(np.abs(means - 0.5) < 0.002)


class TestBuildGraph:
    def test_three_point_line(self):
        pts = rgg.PointSet(d=1, coords=np.array([[0.1], [0.2], [0.5]]))
        g = rgg.build_graph(pts, 0.15)
        assert g.edges().tolist() == [[0, 1]]
        assert g.has_edge(0, 1) and not g.has_edge(1, 2)

    def test_closed_threshold(self):
        pts = rgg.PointSet(d=1, coords=np.array([[0.2], [0.4]]))
        assert len(rgg.build_graph(pts, 0.2).edges()) == 1
        assert len(rgg.build_graph(pts, 0.2 - 1e-12).edges()) == 0

    def test_complete_at_max_radius(self):
        pts = rgg.sample_points(40, 3, 5)
        g = rgg.build_graph(pts, math.sqrt(3))
        assert len(g.edges()) == 40 * 39 // 2

    def test_rejects_bad_radius(self):
        pts = rgg.sample_points(10, 2, 0)
        with pytest.raises(ValueError):
            rgg.build_graph(pts, 0.0)
        with pytest.raises(ValueError):
            rgg.build_graph(pts, 2.0)

    def test_no_self_loops_and_symmetry(self):
        pts = rgg.sample_points(300, 2, 11)
        g = rgg.build_graph(pts, 0.12)
        e = g.edges()
        assert np.all(e[:, 0] < e[:, 1])
        adj = g.adjacency()
        assert (adj != adj.T).nnz == 0
        assert adj.diagonal().sum() == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_oracle_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        d = int(rng.integers(1, 4))
        r = float(rng.uniform(0.01, math.sqrt(d)))
        pts = rgg.sample_points(n, d, seed + 1000)
        assert np.array_equal(rgg.build_graph(pts, r).edges(), rgg.brute_force_edges(pts, r))


# A pair at exactly distance r (every coordinate and square exact in binary)
# whose points lie in different, touching buckets of side 1/floor(1/r).
PLANTED = {
    1: (5 / 16, [0.25], [0.5625]),
    2: (5 / 16, [0.25, 0.25], [0.4375, 0.5]),
    3: (3 / 8, [0.4375, 0.375, 0.375], [0.5625, 0.625, 0.625]),
}


def planted_points(d, seed, n=150):
    r, a, b = PLANTED[d]
    coords = np.vstack([np.random.default_rng(seed).random((n, d)), a, b])
    return rgg.PointSet(d=d, coords=coords), r


class TestStreamedBuild:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_tiny_blocks_match_oracle(self, monkeypatch, d, seed):
        # blocks of 7 candidates start and end inside bucket pairs and rows
        monkeypatch.setattr(rgg, "_BLOCK", 7)
        rng = np.random.default_rng(seed)
        r = float(rng.uniform(0.05, 0.4))
        pts = rgg.sample_points(int(rng.integers(50, 300)), d, seed + 50)
        assert np.array_equal(rgg.build_graph(pts, r).edges(), rgg.brute_force_edges(pts, r))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("block", [7, 1 << 15])
    def test_planted_pair_at_exactly_r(self, monkeypatch, d, block):
        monkeypatch.setattr(rgg, "_BLOCK", block)
        pts, r = planted_points(d, seed=d)
        g = rgg.build_graph(pts, r)
        n = pts.n
        _, bucket, _, _ = rgg._bucket_index(pts, g.r)
        assert bucket[n - 2] != bucket[n - 1]
        e = g.edges()
        assert [n - 2, n - 1] in e.tolist()
        assert np.array_equal(e, rgg.brute_force_edges(pts, r))
        below = rgg.build_graph(pts, np.nextafter(r, 0.0)).edges()
        assert [n - 2, n - 1] not in below.tolist()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_csr_invariants(self, d):
        pts, r = planted_points(d, seed=10 + d, n=400)
        g = rgg.build_graph(pts, r)
        adj = g.adjacency()
        assert adj.has_sorted_indices
        assert adj.indices.dtype == np.int32 and adj.data.dtype == np.float64
        assert (adj != adj.T).nnz == 0
        assert adj.diagonal().sum() == 0
        e = rgg.brute_force_edges(pts, r)
        for i in range(pts.n):
            nb = adj.indices[adj.indptr[i] : adj.indptr[i + 1]]
            assert np.all(np.diff(nb) > 0)
            want = np.sort(np.concatenate([e[e[:, 0] == i, 1], e[e[:, 1] == i, 0]]))
            assert np.array_equal(nb, want)


class TestHopDiameter:
    def test_path_example(self):
        pts = rgg.PointSet(d=1, coords=np.array([[0.05], [0.5], [0.95]]))
        result = rgg.hop_diameter(rgg.build_graph(pts, 0.5))
        assert result.value == 2 and result.exact

    def test_disconnected(self):
        pts = rgg.PointSet(d=1, coords=np.array([[0.05], [0.5], [0.95]]))
        assert rgg.hop_diameter(rgg.build_graph(pts, 0.1)).value == math.inf

    def test_single_point(self):
        pts = rgg.PointSet(d=1, coords=np.array([[0.4]]))
        assert rgg.hop_diameter(rgg.build_graph(pts, 0.3)).value == 0

    def test_planted_chain(self):
        # eleven points spaced 0.1 apart: hop diameter exactly 10
        pts = rgg.PointSet(d=1, coords=np.linspace(0, 1, 11)[:, None])
        result = rgg.hop_diameter(rgg.build_graph(pts, 0.100001))
        assert result.value == 10 and result.exact

    def test_euclidean_lower_bound(self):
        rng = np.random.default_rng(3)
        pts = rgg.sample_points(400, 2, 9)
        r = 0.25
        g = rgg.build_graph(pts, r)
        diam = rgg.hop_diameter(g)
        assert diam.value < math.inf
        for _ in range(1000):
            u, v = rng.integers(0, 400, size=2)
            dist = float(np.linalg.norm(pts.coords[u] - pts.coords[v]))
            assert diam.value >= math.ceil(dist / r) - 1e-9

    def test_double_sweep_is_lower_bound(self):
        # a bound far below the diameter is decided by the first two BFS,
        # whose eccentricity is already close to the diameter
        pts = rgg.sample_points(900, 2, 21)
        g = rgg.build_graph(pts, 0.12)
        exact = rgg.hop_diameter(g)
        early = rgg.hop_diameter(g, bound=1)
        assert exact.exact and exact.value < math.inf
        assert early.value > 1
        assert early.value <= exact.value <= early.upper
        assert early.value >= 0.5 * exact.value

    def test_sweep_reports_disconnected(self):
        # a single BFS from vertex 0 cannot reach the far cluster
        pts = rgg.PointSet(d=1, coords=np.array([[0.05], [0.1], [0.15], [0.8], [0.85]]))
        g = rgg.build_graph(pts, 0.06)
        for bound in (None, 1):
            result = rgg.hop_diameter(g, bound=bound)
            assert result.value == result.upper == math.inf and result.exact
        assert csgraph.connected_components(g.adjacency(), return_labels=False) == 2

    def test_exact_matches_undirected_reference(self):
        pts = rgg.sample_points(700, 2, 32)
        g = rgg.build_graph(pts, 0.1)
        dist = csgraph.dijkstra(g.adjacency(), directed=False, unweighted=True)
        result = rgg.hop_diameter(g)
        assert result.value == dist.max() < math.inf and result.exact

    def test_exact_on_many_graphs(self):
        # connected and disconnected graphs alike: the bracket closes on the
        # all-pairs maximum, and every bound is decided inside the bracket
        rng = np.random.default_rng(9)
        kinds = set()
        for t in range(200):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 601))
            r = float(rng.uniform(0.02, 0.2)) * math.sqrt(d)
            g = rgg.build_graph(rgg.sample_points(n, d, t), r)
            want = csgraph.dijkstra(g.adjacency(), directed=False, unweighted=True).max()
            kinds.add(want == math.inf)
            result = rgg.hop_diameter(g)
            assert result.value == result.upper == want and result.exact, (t, n, d, r)
            for bound in (0, 1, 2, 3, 5, 8, 13, 21):
                b = rgg.hop_diameter(g, bound=bound)
                assert b.value <= want <= b.upper, (t, bound)
                assert b.value > bound or b.upper <= bound, (t, bound)
        assert kinds == {True, False}

    @pytest.mark.parametrize("bound", [9, 10, 11])
    def test_chain_at_the_bound(self, bound):
        # diameter 10: a bound of 10 is not exceeded, which only the upper
        # end can certify
        pts = rgg.PointSet(d=1, coords=np.linspace(0, 1, 11)[:, None])
        result = rgg.hop_diameter(rgg.build_graph(pts, 0.100001), bound=bound)
        assert result.value <= 10 <= result.upper
        assert (result.value > bound) == (bound < 10)
        if bound >= 10:
            assert result.upper <= bound

    def test_two_points(self):
        pts = rgg.PointSet(d=2, coords=np.array([[0.2, 0.2], [0.5, 0.6]]))
        for r, want in ((0.5, 1.0), (0.1, math.inf)):
            result = rgg.hop_diameter(rgg.build_graph(pts, r))
            assert result.value == result.upper == want and result.exact

    def test_single_point_with_bound(self):
        pts = rgg.PointSet(d=2, coords=np.array([[0.4, 0.7]]))
        result = rgg.hop_diameter(rgg.build_graph(pts, 0.3), bound=0)
        assert result.value == result.upper == 0 and result.exact


class TestColorPoints:
    def test_extremes(self):
        pts = rgg.sample_points(100, 1, 2)
        assert rgg.color_points(pts, 0.0, 5).blue.sum() == 0
        assert rgg.color_points(pts, 1.0, 5).blue.sum() == 100

    def test_determinism(self):
        pts = rgg.sample_points(1000, 1, 2)
        a = rgg.color_points(pts, 0.3, 17)
        b = rgg.color_points(pts, 0.3, 17)
        assert np.array_equal(a.blue, b.blue)

    def test_binomial_bound(self):
        # 3 sigma for Binomial(10^5, 1/2) is ~474
        pts = rgg.sample_points(10**5, 1, 4)
        colors = rgg.color_points(pts, 0.5, 99)
        assert abs(colors.blue.sum() - 50000) <= 3 * math.sqrt(10**5) / 2

    def test_rejects_bad_p(self):
        pts = rgg.sample_points(10, 1, 2)
        with pytest.raises(ValueError):
            rgg.color_points(pts, 1.5, 0)
