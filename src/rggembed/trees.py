"""Tree type, its array form, and the generators the experiments draw from.

Four families: the truncated regular tree (the diameter obstruction used by
the lower-bound experiment), uniform random labelled trees (random Pruefer
sequence decode), degree-capped random attachment trees (test load for the
embedding trials), and paths/stars as extremal shapes.

A ``Tree`` is stored as its CSR and nothing else: the neighbours of v are
``indices[indptr[v]:indptr[v + 1]]``, in ascending order, both arrays int32
and read-only.  Everything derived from it (``degrees``, the directed edge
arrays of ``adjacency_arrays``, the data of the ``tree_graph`` matrix) is
computed once per tree and cached on it, so the split, the schedules and
the validator share one read-only copy.  ``Tree.adj``, the rows as tuples,
is built only when asked for; no stage of the pipeline reads it.

Every walk over a tree runs on ``tree_graph`` through
``scipy.sparse.csgraph``, so a breadth-first order visits neighbours in id
order; ``hop_distances`` is the one-source BFS that heights, widths and
diameters are read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph


def _frozen(a, dtype) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Tree:
    """Unrooted tree on vertices 0..n-1 as a CSR with ascending rows.

    ``eq=False``: two trees compare by identity, never by their arrays.
    """

    n: int
    indptr: np.ndarray   # (n + 1,) int32, read-only
    indices: np.ndarray  # (2(n - 1),) int32, read-only

    def __post_init__(self):
        object.__setattr__(self, "indptr", _frozen(self.indptr, np.int32))
        object.__setattr__(self, "indices", _frozen(self.indices, np.int32))
        if self.indptr.shape != (self.n + 1,) or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr does not fit n and indices")

    @cached_property
    def adj(self) -> tuple:
        """The rows as a tuple of tuples (built on first use)."""
        heads, ptr = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(heads[a:b]) for a, b in zip(ptr[:-1], ptr[1:]))

    @cached_property
    def _degrees(self) -> np.ndarray:
        return _frozen(np.diff(self.indptr), np.int64)

    @cached_property
    def _tails(self) -> np.ndarray:
        return _frozen(np.repeat(np.arange(self.n, dtype=np.int32), self._degrees), np.int32)

    @cached_property
    def _ones(self) -> np.ndarray:
        return _frozen(np.ones(len(self.indices)), np.int8)

    def degrees(self) -> np.ndarray:
        return self._degrees

    def max_degree(self) -> int:
        return int(self._degrees.max()) if self.n > 1 else 0

    def edges(self) -> list[tuple[int, int]]:
        forward = self._tails < self.indices
        return list(zip(self._tails[forward].tolist(), self.indices[forward].tolist()))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Tree":
        try:
            e = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            raise ValueError(f"an edge has an endpoint outside 0..{n - 1}") from None
        bad = ((e < 0) | (e >= n)).any(axis=1) | (e[:, 0] == e[:, 1])
        if bad.any():
            u, v = e[int(np.argmax(bad))].tolist()
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            raise ValueError(f"self-loop at {u}")
        if len(e) != n - 1:
            raise ValueError(f"a tree on {n} vertices needs {n - 1} edges, got {len(e)}")
        tails = np.concatenate((e[:, 0], e[:, 1]))
        heads = np.concatenate((e[:, 1], e[:, 0]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
        tree = cls(n=n, indptr=indptr, indices=heads[np.lexsort((heads, tails))])
        if n > 1 and not tree._is_connected():
            raise ValueError("edge list is not connected")
        return tree

    def _is_connected(self) -> bool:
        return bool(np.all(hop_distances(self, 0) >= 0))


def adjacency_arrays(tree: Tree) -> tuple[np.ndarray, np.ndarray]:
    """Every adjacency entry as a directed edge (tails[i], heads[i]), int32
    and read-only, in vertex order and, per vertex, in ascending neighbour
    order; each tree edge appears once in each direction."""
    return tree._tails, tree.indices


def tree_graph(tree: Tree) -> sparse.csr_matrix:
    """The tree as an n x n CSR matrix, each edge in both directions and
    every row in ascending neighbour order; a new matrix object on each
    call, over the tree's own read-only arrays."""
    return sparse.csr_matrix((tree._ones, tree.indices, tree.indptr), shape=(tree.n, tree.n))


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
    remaining vertices attached left to right at depth h: in level order
    each vertex takes the next delta-1 vertices as its children, so the
    parent of v >= 1 is (v-1) // (delta-1)."""
    height_h(n, delta)  # argument checks
    v = np.arange(1, n)
    return Tree.from_edges(n, np.stack(((v - 1) // (delta - 1), v), axis=1))


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
    # row v is (v - 1, v + 1) without the -1 of row 0 and the n of row n-1
    indices = np.stack((np.arange(-1, n - 1), np.arange(1, n + 1)), axis=1).ravel()[1:-1]
    indptr = np.minimum(np.maximum(2 * np.arange(n + 1) - 1, 0), 2 * n - 2)
    return Tree(n=n, indptr=indptr, indices=indices)


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
