import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as sstats

from rggembed import trees


def neighbours(tree, v):
    """The CSR row of v as a list."""
    return tree.indices[tree.indptr[v] : tree.indptr[v + 1]].tolist()


def make_star(n):
    """The star with centre 0 on n vertices."""
    return trees.Tree.from_edges(n, [(0, i) for i in range(1, n)])


def bfs_distances(tree, root, within=None):
    """Oracle: hop distances from root via a hand-rolled BFS, optionally
    restricted to the vertex set ``within``."""
    dist = {root: 0}
    q = deque([root])
    while q:
        u = q.popleft()
        for v in neighbours(tree, u):
            if v not in dist and (within is None or v in within):
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def bfs_levels(tree, root):
    """Oracle: level sizes from ``bfs_distances``."""
    sizes = {}
    for lv in bfs_distances(tree, root).values():
        sizes[lv] = sizes.get(lv, 0) + 1
    return sizes


def all_pairs_diameter(tree):
    return max(max(bfs_distances(tree, v).values()) for v in range(tree.n))


def double_sweep_diameter(tree):
    """Diameter from two BFS (exact on trees): the far end of a sweep from
    vertex 0 ends a longest path, and its height is the diameter."""
    far = int(np.argmax(trees.hop_distances(tree, 0)))
    return int(trees.hop_distances(tree, far).max())


class TestHeight:
    def test_examples(self):
        assert trees.height_h(7, 3) == 2   # 1+2 = 3 < 7 <= 7 = 1+2+4
        assert trees.height_h(5, 4) == 2   # 1+3 = 4 < 5 <= 13
        assert trees.height_h(2, 3) == 1

    @given(n=st.integers(2, 10**6), delta=st.integers(3, 12))
    def test_partial_sum_characterisation(self, n, delta):
        h = trees.height_h(n, delta)
        below = sum((delta - 1) ** i for i in range(h))
        upto = below + (delta - 1) ** h
        assert below < n <= upto

    @given(n=st.integers(2, 10**6), delta=st.integers(3, 12))
    def test_log_bound(self, n, delta):
        import math

        h = trees.height_h(n, delta)
        assert h <= math.log((delta - 2) * n + 1) / math.log(delta - 1) + 1e-9

    def test_rejects(self):
        with pytest.raises(ValueError):
            trees.height_h(7, 2)
        with pytest.raises(ValueError):
            trees.height_h(1, 3)


class TestTruncatedRegularTree:
    def test_complete_binary_example(self):
        t = trees.truncated_regular_tree(7, 3)
        assert bfs_levels(t, 0) == {0: 1, 1: 2, 2: 4}
        assert double_sweep_diameter(t) == 4 and t.max_degree() == 3

    def test_two_vertices(self):
        t = trees.truncated_regular_tree(2, 3)
        assert t.edges() == [(0, 1)]

    @pytest.mark.parametrize("delta", [3, 4, 6, 10])
    def test_level_counts_and_degree(self, delta):
        rng = np.random.default_rng(delta)
        for n in list(range(2, 40)) + [int(x) for x in rng.integers(40, 10**4, size=12)]:
            t = trees.truncated_regular_tree(n, delta)
            assert t.n == n
            assert t.max_degree() <= delta
            h = trees.height_h(n, delta)
            sizes = bfs_levels(t, 0)
            for i in range(h):
                assert sizes[i] == (delta - 1) ** i
            assert double_sweep_diameter(t) <= 2 * h

    @staticmethod
    def _level_loop_edges(n, delta):
        """Oracle: the tree grown level by level, each vertex of the previous
        level taking the next delta-1 vertices as children in turn."""
        edges, prev_level, next_id = [], [0], 1
        for depth in range(1, trees.height_h(n, delta) + 1):
            want = min((delta - 1) ** depth, n - next_id)
            level = list(range(next_id, next_id + want))
            edges += [(prev_level[i // (delta - 1)], v) for i, v in enumerate(level)]
            prev_level, next_id = level, next_id + want
        return edges

    @pytest.mark.parametrize("delta", [3, 4, 5, 7])
    def test_closed_form_matches_level_loop(self, delta):
        for n in list(range(2, 400)) + [1000, 30000]:
            t = trees.truncated_regular_tree(n, delta)
            want = trees.Tree.from_edges(n, self._level_loop_edges(n, delta))
            assert np.array_equal(t.indptr, want.indptr), n
            assert np.array_equal(t.indices, want.indices), n


class TestPrufer:
    def test_star_example(self):
        t = trees.decode_prufer([1, 1], 4)
        assert sorted(neighbours(t, 1)) == [0, 2, 3]

    def test_degree_property_exhaustive(self):
        # degree of v is its multiplicity in the sequence plus one,
        # exhaustively over every sequence for n <= 6
        for n in range(3, 7):
            for seq in itertools.product(range(n), repeat=n - 2):
                t = trees.decode_prufer(list(seq), n)
                for v in range(n):
                    assert len(neighbours(t, v)) == seq.count(v) + 1

    def test_n3_uniformity(self):
        counts = {}
        for i in range(3000):
            t = trees.uniform_random_tree(3, i)
            centre = max(range(3), key=lambda v: len(neighbours(t, v)))
            counts[centre] = counts.get(centre, 0) + 1
        _, p = sstats.chisquare(list(counts.values()))
        assert p > 0.001

    def test_valid_tree_output(self):
        for seed in range(20):
            t = trees.uniform_random_tree(50, seed)
            assert t.n == 50
            assert len(t.edges()) == 49


class TestBoundedDegreeTree:
    def test_delta2_is_path(self):
        t = trees.random_bounded_degree_tree(40, 2, 9)
        degs = t.degrees()
        assert degs.max() == 2 and (degs == 1).sum() == 2

    @given(n=st.integers(2, 300), delta=st.integers(2, 8), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_degree_cap(self, n, delta, seed):
        t = trees.random_bounded_degree_tree(n, delta, seed)
        assert t.n == n and t.max_degree() <= delta

    def test_replay_determinism(self):
        a = trees.random_bounded_degree_tree(5, 3, 12345)
        b = trees.random_bounded_degree_tree(5, 3, 12345)
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)


class TestStats:
    def test_path_and_star(self):
        path, star = trees.path_tree(5), make_star(5)
        assert (path.max_degree(), double_sweep_diameter(path)) == (2, 4)
        assert (star.max_degree(), double_sweep_diameter(star)) == (4, 2)

    def test_height_width(self):
        p = trees.path_tree(6)
        assert trees.hop_distances(p, 0).max() == 5
        assert trees.hop_distances(p, 3).max() == 3
        assert np.bincount(trees.hop_distances(make_star(7), 0)).max() == 6

    @given(seed=st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_double_bfs_matches_all_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        t = trees.uniform_random_tree(n, seed)
        assert double_sweep_diameter(t) == all_pairs_diameter(t)


class TestTreeType:
    def test_invalid_edge_counts(self):
        with pytest.raises(ValueError, match="needs"):
            trees.Tree.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="connected"):
            trees.Tree.from_edges(4, [(0, 1), (0, 1), (2, 3)])

    def test_out_of_range_endpoints(self):
        with pytest.raises(ValueError, match="outside"):
            trees.Tree.from_edges(2, [(0, -1)])
        with pytest.raises(ValueError, match="outside"):
            trees.Tree.from_edges(3, [(0, 1), (1, -1)])
        with pytest.raises(ValueError, match="outside"):
            trees.Tree.from_edges(3, [(0, 1), (1, 3)])


class TestWalks:
    def test_tree_graph_rows_ascending_and_symmetric(self):
        t = trees.random_bounded_degree_tree(60, 4, 5)
        g = trees.tree_graph(t)
        assert g.shape == (60, 60) and (g != g.T).nnz == 0
        expected = [[] for _ in range(t.n)]
        for u, v in t.edges():
            expected[u].append(v)
            expected[v].append(u)
        for v in range(t.n):
            assert g.indices[g.indptr[v] : g.indptr[v + 1]].tolist() == sorted(expected[v])

    @given(seed=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_hop_distances_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        t = trees.uniform_random_tree(n, seed) if n > 1 else trees.path_tree(1)
        source = int(rng.integers(n))
        dist = trees.hop_distances(t, source)
        assert dist.dtype == np.int64
        expected = bfs_distances(t, source)
        assert dist.tolist() == [expected[v] for v in range(n)]

    def test_single_vertex(self):
        t = trees.path_tree(1)
        assert t.max_degree() == 0 and double_sweep_diameter(t) == 0
        assert trees.hop_distances(t, 0).tolist() == [0]


def family_tree(family, n, seed):
    """A tree of the family plus the edge list it was built from: every
    generator but ``path_tree`` goes through ``Tree.from_edges``, whose input
    is recorded on the way."""
    if family == "path":
        return trees.path_tree(n), [(i, i + 1) for i in range(n - 1)]
    recorded = []
    original = trees.Tree.__dict__["from_edges"]

    def recording(cls, n, edges):
        edges = list(edges)
        recorded.append(edges)
        return original.__func__(cls, n, edges)

    trees.Tree.from_edges = classmethod(recording)
    try:
        tree = {
            "truncated_regular": lambda: trees.truncated_regular_tree(n, 3 + seed % 4),
            "uniform": lambda: trees.uniform_random_tree(n, seed),
            "bounded_random": lambda: trees.random_bounded_degree_tree(n, 2 + seed % 5, seed),
            "star": lambda: make_star(n),
        }[family]()
    finally:
        trees.Tree.from_edges = original
    return tree, recorded[-1]


class TestCsrStorage:
    @given(
        family=st.sampled_from(["path", "truncated_regular", "uniform", "bounded_random", "star"]),
        n=st.integers(1, 80),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=150, deadline=None)
    @example(family="path", n=1, seed=0)
    @example(family="path", n=2, seed=0)
    @example(family="uniform", n=2, seed=0)
    @example(family="star", n=2, seed=0)
    def test_matches_list_oracle(self, family, n, seed):
        if family != "path":
            n = max(n, 2)
        tree, edges = family_tree(family, n, seed)
        # the oracle: sorted adjacency lists built one edge at a time
        oracle = [[] for _ in range(n)]
        for u, v in edges:
            oracle[u].append(v)
            oracle[v].append(u)
        oracle = [sorted(a) for a in oracle]

        assert tree.n == n
        assert [neighbours(tree, v) for v in range(n)] == oracle
        assert tree.degrees().tolist() == [len(a) for a in oracle]
        assert tree.max_degree() == (max(map(len, oracle)) if n > 1 else 0)
        assert tree.edges() == [(u, v) for u in range(n) for v in oracle[u] if u < v]
        tails, heads = trees.adjacency_arrays(tree)
        assert tails.dtype == heads.dtype == np.int32
        assert tails.tolist() == [u for u in range(n) for _ in oracle[u]]
        assert heads.tolist() == [v for a in oracle for v in a]
        g = trees.tree_graph(tree)
        assert g.shape == (n, n) and g.nnz == 2 * (n - 1)
        for v in range(n):
            assert g.indices[g.indptr[v] : g.indptr[v + 1]].tolist() == oracle[v]

    def test_arrays_are_read_only(self):
        t = trees.random_bounded_degree_tree(30, 3, 1)
        tails, heads = trees.adjacency_arrays(t)
        g = trees.tree_graph(t)
        for a in (t.indices, t.indptr, tails, heads, t.degrees(), g.indices, g.indptr, g.data):
            with pytest.raises(ValueError):
                a[0] = 5
        fresh = trees.random_bounded_degree_tree(30, 3, 1)
        assert np.array_equal(t.indices, fresh.indices) and np.array_equal(t.indptr, fresh.indptr)

    def test_caller_arrays_are_copied(self):
        indptr, indices = np.array([0, 1, 2], np.int32), np.array([1, 0], np.int32)
        t = trees.Tree(n=2, indptr=indptr, indices=indices)
        indices[:] = 0
        assert t.indices.tolist() == [1, 0] and indices.flags.writeable

    def test_identity_semantics(self):
        # no dataclass __eq__ or __hash__ may compare the arrays
        a, b = trees.path_tree(3), trees.path_tree(3)
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_from_edges_rejects_endpoint_beyond_int64(self):
        with pytest.raises(ValueError, match="outside"):
            trees.Tree.from_edges(2, [(0, 2**70)])

    def test_rejects_mismatched_indptr(self):
        with pytest.raises(ValueError, match="indptr"):
            trees.Tree(n=3, indptr=[0, 1, 2], indices=[1, 0])
        with pytest.raises(ValueError, match="indptr"):
            trees.Tree(n=2, indptr=[0, 1, 3], indices=[1, 0])
