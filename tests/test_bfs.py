"""The package's one BFS against a queue BFS kept here as the oracle."""

from collections import deque

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from rggembed import trees
from rggembed._bfs import bfs
from rggembed.decompose import _anchor_graph, split_tree


def queue_bfs(graph, source):
    """Oracle: visit order and levels of a deque BFS over the CSR rows,
    each row's neighbours in stored order."""
    level = [-1] * graph.shape[0]
    level[source] = 0
    order, queue = [source], deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.indices[graph.indptr[u] : graph.indptr[u + 1]].tolist():
            if level[v] < 0:
                level[v] = level[u] + 1
                order.append(v)
                queue.append(v)
    return order, level


def check_against_oracle(graph, source):
    order, pred, level = bfs(graph, source)
    want_order, want_level = queue_bfs(graph, source)
    assert order.tolist() == want_order
    assert level.dtype == np.int64 and level.tolist() == want_level
    for v in range(graph.shape[0]):
        if v == source or level[v] < 0:
            assert pred[v] < 0
            continue
        u = int(pred[v])
        assert v in graph.indices[graph.indptr[u] : graph.indptr[u + 1]]
        assert level[u] == level[v] - 1
    return order, level


def random_digraph(rng, n):
    m = int(rng.integers(0, 2 * n + 1))
    u, v = rng.integers(0, n, size=(2, m))
    return sparse.csr_matrix((np.ones(m), (u, v)), shape=(n, n))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
@example(seed=0)
def test_random_digraphs_match_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    check_against_oracle(random_digraph(rng, n), int(rng.integers(n)))


def test_unreached_vertices_and_isolated_source():
    rng = np.random.default_rng(3)
    unreached = 0
    for _ in range(50):
        _, level = check_against_oracle(random_digraph(rng, 40), 0)
        unreached += int((level < 0).sum())
    assert unreached > 0
    # vertex 2 has no out-edges: the walk is the source alone
    g = sparse.csr_matrix((np.ones(2), ([0, 1], [1, 2])), shape=(4, 4))
    order, level = check_against_oracle(g, 2)
    assert order.tolist() == [2] and level.tolist() == [-1, -1, 0, -1]


def test_single_vertex():
    order, level = check_against_oracle(sparse.csr_matrix((1, 1)), 0)
    assert order.tolist() == [0] and level.tolist() == [0]


def test_anchor_graph_super_source():
    for seed in range(5):
        t = trees.random_bounded_degree_tree(300, 3, seed)
        decomp = split_tree(t, None, m=24.0, delta=3)
        assert decomp.k > 1
        g = _anchor_graph(t, decomp.part_of, decomp.anchors)
        order, level = check_against_oracle(g, t.n)
        assert len(order) == t.n + 1
        assert np.array_equal(level[: t.n] - 1, decomp.levels)


def test_walked_matrices_are_float64():
    # csgraph copies any matrix whose data is not float64
    t = trees.random_bounded_degree_tree(50, 3, 1)
    assert trees.tree_graph(t).data.dtype == np.float64
    decomp = split_tree(t, None, m=12.0, delta=3)
    assert _anchor_graph(t, decomp.part_of, decomp.anchors).data.dtype == np.float64
