"""Splitting a weighted bounded-degree tree into parts of comparable weight.

Given max degree delta, a target weight m and per-vertex weights in
(0, m0] with m0 = m/(delta+1), the tree splits into vertex-disjoint subtrees
whose weights all land in [m0, m].  The construction cuts at a weighted
centroid: if the component weighs more than m, remove the vertex minimising
the heaviest remaining component, cut the edge toward that heaviest
component, and recurse on both sides.  Both sides are guaranteed to weigh
more than m0, so the recursion maintains its own precondition; because the
heavy side holds at least a 1/(delta+1) fraction of the weight, the
recursion is balanced: O(log k) rounds, each a few array passes over the
vertices.  The tree is rooted once; in DFS preorder every component is a
sorted run of positions and its subtree weights come from one prefix sum.

Endpoints of cut edges are *anchors*; the *level* of a vertex is its hop
distance, inside its own part, to the nearest anchor of that part.  One run
of the package's BFS over the edges inside parts (float64 data, so csgraph
reads it without a copy), from a super-source joined to the sorted anchors,
gives every level and every part's placement order at once: restricted to
one part, it is that part's own BFS from its anchors.
A decomposition with a single part has no anchors; it uses level 0
everywhere by convention and the BFS order from vertex 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from ._bfs import bfs
from .trees import Tree, adjacency_arrays, tree_graph


@dataclass(frozen=True)
class Decomposition:
    """Partition of V(T) into subtree parts, with cut edges, levels and the
    order in which each part is placed.

    Each fact is stored once; ``parts`` and ``anchors`` are views of
    ``part_of`` and ``cut_edges``, built on first use.
    """

    part_of: np.ndarray     # (n,) part index per vertex, parts numbered by smallest vertex
    cut_edges: tuple        # sorted tuple of (u, v) with u < v
    levels: np.ndarray      # (n,) distance to nearest same-part anchor
    order: np.ndarray       # (n,) every vertex, grouped by part, each part in BFS order

    @property
    def k(self) -> int:
        return int(self.part_of.max()) + 1

    @cached_property
    def parts(self) -> tuple:
        """Each part's vertex ids as a sorted tuple of ints."""
        ids = np.argsort(self.part_of, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.part_of)).tolist()
        return tuple(tuple(ids[a:b]) for a, b in zip([0] + ends[:-1], ends))

    @cached_property
    def anchors(self) -> tuple:
        """The endpoints of the cut edges, sorted."""
        return tuple(sorted({x for e in self.cut_edges for x in e}))


class _RootedTree:
    """The tree rooted once at vertex 0, relabelled by DFS preorder.

    In preorder every subtree is a contiguous run of positions, so a
    component of the recursive split (a connected vertex set) is a sorted
    array of positions whose first entry is its topmost vertex, and the
    subtree weights inside it are differences of one prefix sum.
    """

    def __init__(self, tree: Tree, w: np.ndarray):
        n = tree.n
        order, pred = csgraph.depth_first_order(tree_graph(tree), 0, return_predecessors=True)
        self.ids = order.astype(np.int64)          # vertex id at each position
        pos = np.empty(n, dtype=np.int64)
        pos[self.ids] = np.arange(n)
        self.parent = parent = np.full(n, -1, dtype=np.int64)  # parent position
        parent[1:] = pos[pred[self.ids[1:]]]
        # The subtree of position p ends where its next sibling starts, or
        # where its parent's subtree ends; pointer jumping finds, for every
        # p, the nearest ancestor-or-self with a next sibling (the root's
        # "next sibling" is the end, n).
        by_parent = np.argsort(parent[1:], kind="stable") + 1
        same = parent[by_parent[1:]] == parent[by_parent[:-1]]
        next_sibling = np.full(n, -1, dtype=np.int64)
        next_sibling[by_parent[:-1][same]] = by_parent[1:][same]
        next_sibling[0] = n
        up = np.where(next_sibling >= 0, np.arange(n), parent)
        while True:
            jumped = up[up]
            if np.array_equal(jumped, up):
                break
            up = jumped
        self.end = next_sibling[up]             # one past each subtree
        self.w = w[self.ids]

    def centroid_cut(self, comp: np.ndarray):
        """Weighted centroid of one component and the cut toward its
        heaviest remaining component.

        The centroid minimises the heaviest component of comp minus it, ties
        to the smallest vertex id; the heaviest component is the largest by
        weight, ties to the smallest id of its root (the centroid's
        neighbour).  Returns (centroid id, neighbour id, neighbour's side,
        centroid's side), the sides as sorted position arrays.
        """
        ids = self.ids[comp]
        cs = np.concatenate(([0.0], np.cumsum(self.w[comp])))
        total = cs[-1]
        end = np.searchsorted(comp, self.end[comp])
        sub = cs[end] - cs[:-1]
        up = np.searchsorted(comp, self.parent[comp[1:]])  # parent index per non-top
        heaviest_child = np.zeros(len(comp))
        np.maximum.at(heaviest_child, up, sub[1:])
        score = np.maximum(total - sub, heaviest_child)
        ties = np.flatnonzero(score == score.min())
        c = int(ties[np.argmin(ids[ties])])

        # neighbours of the centroid: its parent (index -1 when it is the
        # top) and its children, each with the weight of its side
        children = np.flatnonzero(up == c) + 1
        best_i = -1
        best_w = float(total - sub[c]) if c > 0 else -1.0
        best_id = int(self.ids[self.parent[comp[c]]]) if c > 0 else -1
        for j in children.tolist():
            wj, idj = float(sub[j]), int(ids[j])
            if wj > best_w or (wj == best_w and idj < best_id):
                best_i, best_w, best_id = j, wj, idj

        below = best_i if best_i >= 0 else c   # the side that is a subtree
        inside = comp[below : end[below]]
        rest = np.concatenate((comp[:below], comp[end[below] :]))
        if best_i >= 0:
            return int(ids[c]), best_id, inside, rest
        return int(ids[c]), best_id, rest, inside


def _as_weights(tree: Tree, w) -> np.ndarray:
    if w is None:
        return np.ones(tree.n, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (tree.n,):
        raise ValueError(f"weights must have shape ({tree.n},)")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    return w


def split_tree(tree: Tree, w, m: float, delta: int) -> Decomposition:
    """Split into parts with weights in [m0, m], m0 = m/(delta+1).

    Preconditions: the tree has max degree at most delta, every weight is at
    most m0, and the total weight is at least m0.
    """
    if delta < 2:
        raise ValueError(f"need delta >= 2, got {delta}")
    w = _as_weights(tree, w)
    m0 = m / (delta + 1)
    if tree.max_degree() > delta:
        raise ValueError(
            f"tree max degree {tree.max_degree()} exceeds delta = {delta}"
        )
    heavy = np.where(w > m0 + 1e-12)[0]
    if len(heavy):
        v = int(heavy[0])
        raise ValueError(
            f"vertex {v} has weight {w[v]:.6g} > m0 = {m0:.6g}"
        )
    total = float(w.sum())
    if total < m0 - 1e-12:
        raise ValueError(f"total weight {total:.6g} < m0 = {m0:.6g}")

    n = tree.n
    rooted = _RootedTree(tree, w)
    part_of = np.empty(n, dtype=np.int64)
    smallest: list[int] = []      # smallest vertex of each part, as found
    cut_edges: list[tuple[int, int]] = []
    pending = [np.arange(n, dtype=np.int64)]
    while pending:
        comp = pending.pop()
        if float(rooted.w[comp].sum()) <= m + 1e-12:
            ids = rooted.ids[comp]
            part_of[ids] = len(smallest)
            smallest.append(int(ids.min()))
            continue
        v, u, side_u, side_v = rooted.centroid_cut(comp)
        cut_edges.append((min(u, v), max(u, v)))
        pending.append(side_u)
        pending.append(side_v)
    del rooted, pending
    # number the parts by their smallest vertex
    part_of = np.argsort(np.argsort(smallest))[part_of]

    cut_edges.sort()
    anchors = sorted({x for e in cut_edges for x in e})
    order, _, level = bfs(_anchor_graph(tree, part_of, anchors or [0]), n)
    order = order[1:]
    return Decomposition(
        part_of=part_of,
        cut_edges=tuple(cut_edges),
        levels=level[:n] - 1 if anchors else np.zeros(n, dtype=np.int64),
        order=order[np.argsort(part_of[order], kind="stable")],
    )


def _anchor_graph(tree: Tree, part_of: np.ndarray, sources) -> sparse.csr_matrix:
    """The tree's edges inside parts, both directions, plus a super-source
    vertex n with an edge to every source; every row lists its neighbours
    in ascending order, so a BFS from n visits like a queue seeded with the
    sorted sources."""
    n = tree.n
    tails, heads = adjacency_arrays(tree)
    inside = part_of[tails] == part_of[heads]
    indices = np.concatenate((heads[inside], np.asarray(sources, dtype=np.int32)))
    indptr = np.zeros(n + 2, dtype=np.int32)
    indptr[1 : n + 1] = np.cumsum(np.bincount(tails[inside], minlength=n))
    indptr[n + 1] = len(indices)
    return sparse.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n + 1, n + 1))


def _require(ok, message: str) -> None:
    # an explicit raise, unlike ``assert``, survives ``python -O``
    if not ok:
        raise AssertionError(message)


def check_decomposition(tree: Tree, w, m: float, delta: int,
                        decomp: Decomposition) -> None:
    """Raise AssertionError unless every decomposition invariant holds.

    Works from the tree's own adjacency arrays, not from the walks that
    built the decomposition.
    """
    w = _as_weights(tree, w)
    m0 = m / (delta + 1)
    n = tree.n
    part_of = decomp.part_of
    labels = np.unique(part_of)
    _require(part_of.shape == (n,) and np.array_equal(labels, np.arange(len(labels))),
             "part_of does not label every vertex with 0..k-1, using every label")
    k = decomp.k
    _require(len(decomp.cut_edges) == k - 1, "expected k-1 cut edges")

    total = float(w.sum())
    _require(k <= total / m0 + 1e-9, "k exceeds w(T)/m0")

    tails, heads = adjacency_arrays(tree)
    forward = tails < heads
    edge_set = set(zip(tails[forward].tolist(), heads[forward].tolist()))
    for e in decomp.cut_edges:
        _require(tuple(e) in edge_set, f"cut edge {e} is not a tree edge")
        _require(part_of[e[0]] != part_of[e[1]], f"cut edge {e} inside a part")

    # connectivity: the tree's edges inside parts join each part into one
    # component
    inside = part_of[tails] == part_of[heads]
    graph = sparse.csr_matrix(
        (np.ones(int(inside.sum()), dtype=np.int8), (tails[inside], heads[inside])),
        shape=(n, n),
    )
    _, label = csgraph.connected_components(graph, directed=False)
    for idx, part in enumerate(decomp.parts):
        weight = float(w[list(part)].sum())
        _require(m0 - 1e-9 <= weight <= m + 1e-9,
                 f"part {idx} weight {weight:.6g} outside [{m0:.6g}, {m:.6g}]")
        _require(np.all(label[list(part)] == label[part[0]]), f"part {idx} is not connected")

    # BFS levels: adjacent same-part vertices differ by at most one level;
    # every cut edge joins two level-0 vertices
    levels = decomp.levels
    _require(np.all(np.abs(levels[tails[inside]] - levels[heads[inside]]) <= 1),
             "levels of adjacent same-part vertices differ by more than one")
    _require(all(levels[u] == 0 and levels[v] == 0 for u, v in decomp.cut_edges),
             "a cut edge has an endpoint off level 0")

    # the placement order: every vertex once, grouped by part, each part
    # by level
    order = decomp.order
    _require(np.array_equal(np.sort(order), np.arange(n)), "order does not list every vertex once")
    step_part, step_level = np.diff(part_of[order]), np.diff(levels[order])
    _require(np.all((step_part > 0) | ((step_part == 0) & (step_level >= 0))),
             "order does not run through the parts in turn, each by level")
