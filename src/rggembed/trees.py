"""Tree type, its array form, and the generators the experiments draw from.

Four families: the truncated regular tree (the diameter obstruction used by
the lower-bound experiment), uniform random labelled trees (random Pruefer
sequence decode), degree-capped random attachment trees (test load for the
embedding trials), and paths/stars as extremal shapes.

Every walk over a tree runs on its CSR (``tree_graph``, rows in ascending
neighbour order) through ``scipy.sparse.csgraph``, so a breadth-first
order visits neighbours in id order; ``hop_distances`` is the one-source
BFS that heights, widths and diameters are read from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph


@dataclass(frozen=True)
class Tree:
    """Unrooted tree on vertices 0..n-1 as sorted adjacency lists."""

    n: int
    adj: tuple  # tuple of tuples of neighbor ids

    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self.adj], dtype=np.int64)

    def max_degree(self) -> int:
        return int(self.degrees().max()) if self.n > 1 else 0

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Tree":
        adj = [[] for _ in range(n)]
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            adj[u].append(v)
            adj[v].append(u)
            count += 1
        if count != n - 1:
            raise ValueError(f"a tree on {n} vertices needs {n - 1} edges, got {count}")
        tree = cls(n=n, adj=tuple(tuple(sorted(a)) for a in adj))
        if n > 1 and not tree._is_connected():
            raise ValueError("edge list is not connected")
        return tree

    def _is_connected(self) -> bool:
        return bool(np.all(hop_distances(self, 0) >= 0))


def adjacency_arrays(tree: Tree) -> tuple[np.ndarray, np.ndarray]:
    """Every adjacency entry as a directed edge (tails[i], heads[i]), int32,
    in vertex order and, per vertex, in sorted neighbour order; each tree
    edge appears once in each direction."""
    degrees = np.fromiter(map(len, tree.adj), dtype=np.int32, count=tree.n)
    heads = np.fromiter(
        itertools.chain.from_iterable(tree.adj), dtype=np.int32, count=int(degrees.sum())
    )
    return np.repeat(np.arange(tree.n, dtype=np.int32), degrees), heads


def tree_graph(tree: Tree) -> sparse.csr_matrix:
    """The tree as an n x n CSR matrix, each edge in both directions and
    every row in ascending neighbour order."""
    tails, heads = adjacency_arrays(tree)
    indptr = np.zeros(tree.n + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(tails, minlength=tree.n))
    return sparse.csr_matrix(
        (np.ones(len(heads), dtype=np.int8), heads, indptr), shape=(tree.n, tree.n)
    )


def hop_distances(tree: Tree, source: int) -> np.ndarray:
    """Hop distance from ``source`` to every vertex (one BFS), int64; -1
    marks a vertex the walk does not reach."""
    dist = csgraph.shortest_path(tree_graph(tree), indices=source, unweighted=True)
    return np.where(np.isfinite(dist), dist, -1).astype(np.int64)


def height_h(n: int, delta: int) -> int:
    """The unique h with sum_{i<h} (delta-1)^i < n <= sum_{i<=h} (delta-1)^i."""
    if delta < 3:
        raise ValueError(f"need delta >= 3, got {delta}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    total, power, h = 1, 1, 0
    while total < n:
        h += 1
        power *= delta - 1
        total += power
    return h


def truncated_regular_tree(n: int, delta: int) -> Tree:
    """Rooted tree with exactly (delta-1)^i vertices at depth i < h and the
    remaining vertices attached left to right at depth h."""
    h = height_h(n, delta)
    edges = []
    prev_level = [0]
    next_id = 1
    for depth in range(1, h + 1):
        want = (delta - 1) ** depth
        if depth == h:
            want = n - next_id
        level = []
        parent_idx = 0
        slots_left = delta - 1
        for _ in range(want):
            parent = prev_level[parent_idx]
            edges.append((parent, next_id))
            level.append(next_id)
            next_id += 1
            slots_left -= 1
            if slots_left == 0:
                parent_idx += 1
                slots_left = delta - 1
        prev_level = level
    return Tree.from_edges(n, edges)


def decode_prufer(seq, n: int) -> Tree:
    """Decode a Pruefer sequence over vertex labels 0..n-1 into its tree."""
    if n < 2:
        raise ValueError("Pruefer decoding needs n >= 2")
    seq = list(seq)
    if len(seq) != n - 2:
        raise ValueError(f"sequence length must be n - 2 = {n - 2}")
    degree = np.ones(n, dtype=np.int64)
    for a in seq:
        degree[a] += 1
    edges = []
    # classic pointer decode: repeatedly join the smallest current leaf
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for a in seq:
        edges.append((int(leaf), int(a)))
        degree[a] -= 1
        if degree[a] == 1 and a < ptr:
            leaf = a
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((int(leaf), n - 1))
    return Tree.from_edges(n, edges)


def uniform_random_tree(n: int, seed) -> Tree:
    """Uniform over the n^(n-2) labelled trees, via a random Pruefer sequence."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n == 2:
        return Tree.from_edges(2, [(0, 1)])
    rng = np.random.default_rng(seed)
    return decode_prufer(rng.integers(0, n, size=n - 2), n)


def random_bounded_degree_tree(n: int, delta: int, seed) -> Tree:
    """Sequential random attachment under a degree cap.

    Vertex i attaches to a uniform choice among vertices with residual
    capacity (degree < delta).  Covers many shapes but is *not* uniform over
    the degree-capped tree family.
    """
    if delta < 2:
        raise ValueError(f"need delta >= 2, got {delta}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    edges = []
    capacity = [delta]  # residual degree slots of each open vertex
    open_ids = [0]
    for v in range(1, n):
        pick = int(rng.integers(len(open_ids)))
        u = open_ids[pick]
        edges.append((u, v))
        capacity[pick] -= 1
        if capacity[pick] == 0:
            open_ids[pick] = open_ids[-1]
            capacity[pick] = capacity[-1]
            open_ids.pop()
            capacity.pop()
        open_ids.append(v)
        capacity.append(delta - 1)
    return Tree.from_edges(n, edges)


def path_tree(n: int) -> Tree:
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return Tree(n=1, adj=((),))
    # the adjacency directly: an edge list of n tuples would double the peak
    inner = tuple((i - 1, i + 1) for i in range(1, n - 1))
    return Tree(n=n, adj=((1,),) + inner + ((n - 2,),))


def star_tree(n: int) -> Tree:
    if n < 2:
        raise ValueError("need n >= 2")
    return Tree.from_edges(n, [(0, i) for i in range(1, n)])


def height_from(tree: Tree, v: int) -> int:
    """Eccentricity of v: the deepest BFS level reached from it."""
    return int(hop_distances(tree, v).max())


def width_from(tree: Tree, v: int) -> int:
    """Largest BFS level size when the tree is rooted at v."""
    return int(np.bincount(hop_distances(tree, v)).max())


@dataclass(frozen=True)
class TreeStats:
    max_degree: int
    diameter: int


def tree_stats(tree: Tree) -> TreeStats:
    """Max degree and exact diameter (double BFS, exact on trees); the far
    end of the first sweep is the smallest id at the largest distance."""
    far = int(np.argmax(hop_distances(tree, 0)))
    return TreeStats(max_degree=tree.max_degree(), diameter=height_from(tree, far))
